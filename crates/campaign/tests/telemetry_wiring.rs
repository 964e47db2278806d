//! The executor's telemetry wiring: an enabled registry collects the
//! documented histograms, spans and counters; a disabled one stays
//! empty; and neither changes campaign outcomes.

use sofi_campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi_isa::{Asm, Program, Reg};
use sofi_telemetry::{names, Registry};

fn hi() -> Program {
    let mut a = Asm::with_name("hi");
    let msg = a.data_space("msg", 2);
    a.li(Reg::R1, 'H' as i32);
    a.sb(Reg::R1, Reg::R0, msg.offset());
    a.li(Reg::R1, 'i' as i32);
    a.sb(Reg::R1, Reg::R0, msg.at(1).offset());
    a.lb(Reg::R2, Reg::R0, msg.offset());
    a.serial_out(Reg::R2);
    a.lb(Reg::R2, Reg::R0, msg.at(1).offset());
    a.serial_out(Reg::R2);
    a.build().unwrap()
}

#[test]
fn enabled_registry_collects_the_documented_metrics() {
    let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
    let config = CampaignConfig {
        telemetry: true,
        ..CampaignConfig::sequential()
    };
    let c = Campaign::with_config(&p, config).unwrap();
    assert!(c.telemetry().is_enabled());
    let (_, stats) = c.run_plan_stats(FaultDomain::Memory, c.plan_for(FaultDomain::Memory));
    let snap = c.telemetry().snapshot();

    // Construction spans.
    assert_eq!(snap.histogram(names::SPAN_GOLDEN_RUN_NS).unwrap().count, 1);
    assert_eq!(snap.histogram(names::SPAN_DEFUSE_NS).unwrap().count, 1);
    // One sequential shard.
    assert_eq!(snap.histogram(names::SPAN_SHARD_NS).unwrap().count, 1);

    // Per-experiment histograms: every experiment records exactly one
    // faulted-run length.
    let lens = snap.histogram(names::FAULTED_RUN_CYCLES).unwrap();
    assert_eq!(lens.count, stats.experiments);
    assert!(lens.max > 0);
    let restores = snap.histogram(names::RESTORE_DISTANCE_CYCLES).unwrap();
    assert!(restores.count >= 1, "worker start counts as a restore");

    // Memoization is on, so probes were timed and counters mirrored.
    assert!(snap.histogram(names::MEMO_PROBE_NS).unwrap().count > 0);
    assert_eq!(snap.counter(names::EXPERIMENTS), stats.experiments);
    assert_eq!(snap.counter(names::CONVERGED_EARLY), stats.converged_early);
    assert_eq!(snap.counter(names::MEMO_HITS), stats.memo_hits);
    assert_eq!(snap.counter(names::MEMO_MISSES), stats.memo_misses);
}

#[test]
fn parallel_workers_merge_into_campaign_totals() {
    let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
    let config = CampaignConfig {
        threads: 4,
        telemetry: true,
        ..CampaignConfig::default()
    };
    let c = Campaign::with_config(&p, config).unwrap();
    let (_, stats) = c.run_plan_stats(FaultDomain::Memory, c.plan_for(FaultDomain::Memory));
    assert!(stats.workers > 1, "expected a parallel run");
    let snap = c.telemetry().snapshot();

    // Every worker's forked registry was absorbed: per-experiment
    // histograms and counters cover the whole campaign, one shard span
    // per worker, one merge span for the join.
    let lens = snap.histogram(names::FAULTED_RUN_CYCLES).unwrap();
    assert_eq!(lens.count, stats.experiments);
    assert_eq!(
        snap.histogram(names::SPAN_SHARD_NS).unwrap().count,
        stats.workers as u64
    );
    assert_eq!(snap.histogram(names::SPAN_MERGE_NS).unwrap().count, 1);
    assert_eq!(snap.counter(names::EXPERIMENTS), stats.experiments);
    assert_eq!(
        snap.histogram(names::RESTORE_DISTANCE_CYCLES)
            .unwrap()
            .count,
        stats.workers as u64,
        "in-order parallel run: exactly one restore (the start) per worker"
    );
}

#[test]
fn disabled_registry_stays_empty_and_outcomes_are_identical() {
    let p = hi();
    let off = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
    assert!(!off.telemetry().is_enabled());
    let on = Campaign::with_config(
        &p,
        CampaignConfig {
            telemetry: true,
            ..CampaignConfig::sequential()
        },
    )
    .unwrap();

    let off_result = off.run_full_defuse_in(FaultDomain::Memory);
    let on_result = on.run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(off_result, on_result, "telemetry changed outcomes");
    assert!(off.telemetry().snapshot().is_empty());
    assert!(!on.telemetry().snapshot().is_empty());
}

#[test]
fn explicit_registry_wins_over_config_flag() {
    // The daemon passes a per-job registry; it must record even though
    // the job config leaves `telemetry` off.
    let reg = Registry::enabled();
    let c =
        Campaign::prepare(&hi(), CampaignConfig::sequential(), Vec::new(), reg.clone()).unwrap();
    let _ = c.run_experiments_stats(
        FaultDomain::Memory,
        &c.plan_for(FaultDomain::Memory).experiments,
    );
    assert!(reg.snapshot().counter(names::EXPERIMENTS) > 0);
}
