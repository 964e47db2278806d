//! Pitfall 2: biased sampling.
//!
//! When def/use pruning and sampling are combined, the samples must be
//! drawn from the *raw* fault space (or weight-proportionally from the
//! classes). Drawing uniformly from the pruned class list ignores the
//! class weights and skews every estimate whenever class size correlates
//! with outcome.
//!
//! Two demonstrations:
//! 1. a purpose-built benchmark with strong correlation — long-lived data
//!    whose corruption always fails, plus a mass of short-lived scratch
//!    accesses whose corruption is always masked: the biased sampler is
//!    off by an order of magnitude;
//! 2. the `bin_sem2` baseline, where the correlation happens to be weak
//!    and the bias is correspondingly small — showing the pitfall is
//!    workload-dependent and therefore treacherous.

use sofi::campaign::{Campaign, FaultDomain, SamplingMode};
use sofi::isa::{Asm, Program, Reg};
use sofi::report::Table;
use sofi::workloads::{bin_sem2, Variant};
use sofi_bench::save_artifact;
use sofi_rng::DefaultRng;

const DRAWS: u64 = 50_000;

/// A benchmark with maximal weight/outcome correlation: four config
/// bytes live untouched until a final read-and-print (long, failing
/// classes), while a scratch word is written and re-read hundreds of
/// times with the value discarded (short, benign classes).
fn skewed_program() -> Program {
    let mut a = Asm::with_name("skewed");
    let config = a.data_bytes("config", &[11, 22, 33, 44]);
    let scratch = a.data_word("scratch", 0);

    a.li(Reg::R4, 100);
    let top = a.label_here();
    a.sw(Reg::R4, Reg::R0, scratch.offset());
    a.lw(Reg::R5, Reg::R0, scratch.offset());
    // The loaded value is discarded: corruption here is always masked.
    a.and(Reg::R5, Reg::R5, Reg::R0);
    a.addi(Reg::R4, Reg::R4, -1);
    a.bne(Reg::R4, Reg::R0, top);

    for i in 0..4 {
        a.lbu(Reg::R6, Reg::R0, config.at(i).offset());
        a.serial_out(Reg::R6);
    }
    a.build().expect("skewed benchmark is statically correct")
}

struct Estimate {
    benchmark: String,
    sampler: String,
    failure_fraction: f64,
    truth: f64,
}
sofi::report::impl_to_json!(Estimate {
    benchmark,
    sampler,
    failure_fraction,
    truth
});

fn run_estimates(program: &Program, out: &mut Vec<Estimate>) {
    let campaign = Campaign::new(program).expect("golden run");
    let full = campaign.run_full_defuse_in(FaultDomain::Memory);
    let w_prime = campaign.plan_for(FaultDomain::Memory).experiment_weight() as f64;
    let truth = full.failure_weight() as f64 / w_prime;

    let mut rng = DefaultRng::seed_from_u64(0xB1A5);
    for (mode, label) in [
        (
            SamplingMode::WeightedClasses,
            "weight-proportional (correct)",
        ),
        (
            SamplingMode::BiasedPerClass,
            "uniform per class (PITFALL 2)",
        ),
    ] {
        let s = campaign.run_sampled_in(FaultDomain::Memory, DRAWS, mode, &mut rng);
        out.push(Estimate {
            benchmark: program.name.clone(),
            sampler: label.to_string(),
            failure_fraction: s.failure_hits() as f64 / s.draws as f64,
            truth,
        });
    }
}

fn main() {
    let mut estimates = Vec::new();
    run_estimates(&skewed_program(), &mut estimates);
    run_estimates(&bin_sem2(Variant::Baseline), &mut estimates);

    println!("== Pitfall 2: failure-fraction estimates ({DRAWS} draws each) ==");
    let mut t = Table::new(vec!["benchmark", "sampler", "estimate", "exact", "error"]);
    for e in &estimates {
        t.row(vec![
            e.benchmark.clone(),
            e.sampler.clone(),
            format!("{:.4}", e.failure_fraction),
            format!("{:.4}", e.truth),
            format!("{:+.4}", e.failure_fraction - e.truth),
        ]);
    }
    println!("{t}");

    let biased = &estimates[1];
    println!(
        "skewed benchmark: the biased sampler reports {:.1}% instead of {:.1}% — \
         an estimate off by {:.0}x",
        biased.failure_fraction * 100.0,
        biased.truth * 100.0,
        biased.truth / biased.failure_fraction.max(1e-9)
    );
    println!("bin_sem2: weights and outcomes happen to be nearly uncorrelated, so the");
    println!("same mistake is invisible there — which is what makes it a pitfall.");

    save_artifact("pitfall2.json", &estimates);
}
