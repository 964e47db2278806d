//! Oracle for the convergence-terminating executor: on every benchmark's
//! def/use plan, in both fault domains, the forking executor with
//! golden-state convergence enabled must produce results identical to the
//! naive replay executor that simulates every experiment to completion.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::workloads::all_baselines;

#[test]
fn converging_executor_matches_naive_on_every_workload() {
    let mut total_converged = 0u64;
    let mut total_saved = 0u64;
    for program in all_baselines() {
        let campaign = Campaign::new(&program).expect("golden run");
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let plan = campaign.plan_for(domain);
            let (results, stats) = campaign.run_experiments_stats(domain, &plan.experiments);
            let naive = campaign.run_experiments_naive(domain, &plan.experiments);
            assert_eq!(
                results, naive,
                "{}/{domain:?}: convergence termination changed outcomes",
                program.name
            );
            total_converged += stats.converged_early;
            total_saved += stats.faulted_cycles_saved;
        }
    }
    // The equivalence above must not hold vacuously: across the suite the
    // optimization has to actually fire and skip simulation work.
    assert!(total_converged > 0, "no experiment ever converged early");
    assert!(total_saved > 0, "convergence never saved any cycles");
}
