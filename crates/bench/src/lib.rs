#![warn(missing_docs)]

//! Shared plumbing for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md for the index).
//!
//! Each binary prints its table/figure to stdout and, when the
//! `SOFI_RESULTS_DIR` environment variable is set, writes a JSON artifact
//! with the underlying numbers into that directory.

pub mod harness;

use sofi::campaign::{Campaign, CampaignResult, FaultDomain, SampledResult, SamplingMode};
use sofi::isa::Program;
use sofi::trace::TraceStats;
use std::path::PathBuf;

/// A fully evaluated benchmark variant: full scan + a sampling campaign.
#[derive(Debug)]
pub struct EvaluatedVariant {
    /// Program name.
    pub name: String,
    /// Golden-run statistics (runtime, memory — Figure 2g).
    pub stats: TraceStats,
    /// Full def/use fault-space scan.
    pub full: CampaignResult,
    /// Uniform raw-space sampling campaign.
    pub sampled: SampledResult,
}

/// Runs the standard evaluation pipeline on one program.
///
/// # Panics
///
/// Panics if the program's golden run fails — experiment binaries treat
/// that as a build error.
pub fn evaluate(program: &Program, sample_draws: u64, seed: u64) -> EvaluatedVariant {
    let campaign = Campaign::new(program).expect("golden run must succeed");
    let stats = TraceStats::from_golden(campaign.golden());
    let full = campaign.run_full_defuse_in(FaultDomain::Memory);
    let mut rng = sofi_rng::DefaultRng::seed_from_u64(seed);
    let sampled = campaign.run_sampled_in(
        FaultDomain::Memory,
        sample_draws,
        SamplingMode::UniformRaw,
        &mut rng,
    );
    EvaluatedVariant {
        name: program.name.clone(),
        stats,
        full,
        sampled,
    }
}

/// Where JSON artifacts go, if requested via `SOFI_RESULTS_DIR`.
pub fn results_dir() -> Option<PathBuf> {
    std::env::var_os("SOFI_RESULTS_DIR").map(PathBuf::from)
}

/// Writes a JSON artifact when a results directory is configured.
pub fn save_artifact<T: sofi::report::ToJson>(name: &str, value: &T) {
    if let Some(dir) = results_dir() {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(name);
        match std::fs::File::create(&path) {
            Ok(f) => {
                if let Err(e) = sofi::report::write_json(value, f) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
        }
    }
}

/// Formats a probability as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_hi_pipeline() {
        let v = evaluate(&sofi::workloads::hi(), 1_000, 1);
        assert_eq!(v.stats.cycles, 8);
        assert_eq!(v.full.failure_weight(), 48);
        assert_eq!(v.sampled.draws, 1_000);
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.625), "62.5%");
    }
}
