//! Oracle for fault-equivalence outcome memoization: on every benchmark's
//! def/use plan, in both fault domains, the memoizing executor must produce
//! results bit-identical to the naive replay executor that simulates every
//! experiment to completion with *both* executor optimizations disabled.
//!
//! The memoized side runs twice per plan: once with a cold cache and once
//! warm (cache fully populated by the first pass), because the warm path
//! exercises the injection-time hit branch for every single experiment.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::workloads::all_baselines;

#[test]
fn memoized_executor_matches_naive_on_every_workload() {
    let mut total_hits = 0u64;
    let mut total_saved = 0u64;
    for program in all_baselines() {
        // Memoization alone: convergence off so the oracle isolates the
        // memo layer (the convergence oracle already covers the composed
        // default configuration), and the adaptive cost gate off because
        // this oracle pins ungated semantics — the warm pass asserts a
        // 100% hit rate, which only holds when every shard keeps probing
        // regardless of golden-run length. The gated configuration is
        // covered by `memoized_executor_matches_naive_composed_with_convergence`
        // (outcome equality) and the gate's own unit tests.
        let memoed = Campaign::with_config(
            &program,
            CampaignConfig {
                convergence: false,
                memo_gate: false,
                ..CampaignConfig::default()
            },
        )
        .expect("golden run");
        let naive = Campaign::with_config(
            &program,
            CampaignConfig {
                convergence: false,
                memoization: false,
                ..CampaignConfig::default()
            },
        )
        .expect("golden run");
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let plan = memoed.plan_for(domain);
            let expected = naive.run_experiments_naive(domain, &plan.experiments);

            memoed.reset_memo();
            let (cold, cold_stats) = memoed.run_experiments_stats(domain, &plan.experiments);
            assert_eq!(
                cold, expected,
                "{}/{domain:?}: cold-cache memoization changed outcomes",
                program.name
            );

            let (warm, warm_stats) = memoed.run_experiments_stats(domain, &plan.experiments);
            assert_eq!(
                warm, expected,
                "{}/{domain:?}: warm-cache memoization changed outcomes",
                program.name
            );
            // Warm pass: every experiment must be answered from the cache.
            assert_eq!(
                warm_stats.memo_hits, warm_stats.experiments,
                "{}/{domain:?}: warm cache missed",
                program.name
            );
            assert_eq!(warm_stats.faulted_cycles, 0);

            total_hits += cold_stats.memo_hits;
            total_saved += cold_stats.memoized_cycles_saved;
        }
    }
    // The equivalence above must not hold vacuously: even with a cold
    // cache, pristine-checkpoint pre-seeding and trajectory convergence
    // have to produce hits somewhere across the suite.
    assert!(total_hits > 0, "memoization never hit on a cold cache");
    assert!(total_saved > 0, "memoization never saved any cycles");
}

#[test]
fn memoized_executor_matches_naive_composed_with_convergence() {
    // The default configuration (convergence + memoization, both on) must
    // also be outcome-identical to the naive executor: the two
    // optimizations interact (convergence can terminate a run before a
    // checkpoint-crossing lookup fires), so the composition is tested
    // separately from each layer's own oracle.
    for program in all_baselines() {
        let campaign = Campaign::new(&program).expect("golden run");
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let plan = campaign.plan_for(domain);
            let (results, _) = campaign.run_experiments_stats(domain, &plan.experiments);
            let naive = campaign.run_experiments_naive(domain, &plan.experiments);
            assert_eq!(
                results, naive,
                "{}/{domain:?}: memoization + convergence changed outcomes",
                program.name
            );
        }
    }
}
