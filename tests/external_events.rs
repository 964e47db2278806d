//! Fault-injection campaigns over benchmarks with deterministic external
//! input (§II-C: replayed events) — the full pipeline must stay valid.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain, OutcomeClass};
use sofi::space::{ClassIndex, ClassRef};
use sofi::workloads::{sensor, sensor_events};
use sofi_telemetry::Registry;
use std::collections::HashMap;

fn sensor_campaign() -> Campaign {
    Campaign::prepare(
        &sensor(),
        CampaignConfig::sequential(),
        sensor_events(),
        Registry::disabled(),
    )
    .expect("golden run with events")
}

#[test]
fn golden_run_replays_the_schedule() {
    let c = sensor_campaign();
    let out = &c.golden().serial;
    assert_eq!(&out[..5], &[5, 9, 2, 14, 7]);
    assert_eq!(out[8], 37);
}

#[test]
fn event_driven_campaign_upholds_invariants() {
    let c = sensor_campaign();
    assert!(c.analysis_for(FaultDomain::Memory).is_exact_partition());
    let r = c.run_full_defuse_in(FaultDomain::Memory);
    assert!(r.covers_space());
    // Corrupting the log or the sum must be observable.
    assert!(r.failure_weight() > 0);
}

#[test]
fn pruning_stays_sound_under_replayed_events() {
    // The def/use argument relies on determinism; replayed events must not
    // break it. Full per-coordinate check against brute force.
    let c = sensor_campaign();
    let pruned = c.run_full_defuse_in(FaultDomain::Memory);
    let brute = c.run_brute_force_in(FaultDomain::Memory);
    assert_eq!(pruned.failure_weight(), brute.failure_weight());
    let index = ClassIndex::new(
        c.analysis_for(FaultDomain::Memory),
        c.plan_for(FaultDomain::Memory),
    );
    let by_id: HashMap<u32, OutcomeClass> = pruned
        .results
        .iter()
        .map(|r| (r.experiment.id, r.outcome.class()))
        .collect();
    for br in &brute.results {
        let expected = match index.lookup(br.experiment.coord) {
            ClassRef::Experiment(id) => by_id[&id],
            ClassRef::KnownBenign => OutcomeClass::NoEffect,
        };
        assert_eq!(br.outcome.class(), expected, "{}", br.experiment.coord);
    }
}

#[test]
fn experiments_see_events_at_absolute_cycles() {
    // A fault that delays nothing must not shift event delivery: two
    // campaigns with identical schedules produce identical results.
    let a = sensor_campaign().run_full_defuse_in(FaultDomain::Memory);
    let b = sensor_campaign().run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(a, b);
}
