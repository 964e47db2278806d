//! Per-outcome-type accounting (§VI-B generalization).
//!
//! The paper's analyses coalesce everything into No-Effect vs Failure, but
//! §VI-B notes the findings generalize to the full outcome taxonomy:
//! "the remaining effective result-type counts (e.g., 'Silent Data
//! Corruption', 'Timeout', ...) should be included in the analysis and
//! separately extrapolated to the fault-space size". This module does
//! exactly that, for full scans and for samples.

use crate::confidence::wilson_interval;
use sofi_campaign::{CampaignResult, Outcome, SampledResult};

/// Weighted (or extrapolated) counts per detailed outcome kind, indexed
/// as [`Outcome::KINDS`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OutcomeBreakdown {
    /// Count (exact weight or extrapolated estimate) per outcome kind.
    pub counts: [f64; 8],
    /// Confidence bounds per kind (degenerate for exact scans).
    pub ci: [(f64, f64); 8],
    /// `true` if from a full scan.
    pub exact: bool,
}

impl OutcomeBreakdown {
    /// Sum over all failure kinds (everything except the two benign ones).
    pub fn failure_total(&self) -> f64 {
        self.counts[2..].iter().sum()
    }

    /// `(label, count)` rows for the failure kinds, descending by count.
    pub fn failure_rows(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> = Outcome::KINDS[2..]
            .iter()
            .zip(&self.counts[2..])
            .map(|(&k, &c)| (k, c))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

/// Exact per-kind weighted counts from a full scan. The known-benign
/// pruned weight counts as "No Effect" (index 0).
pub fn outcome_breakdown(result: &CampaignResult) -> OutcomeBreakdown {
    let tally = result.weighted_by_kind();
    let mut counts = [0.0; 8];
    let mut ci = [(0.0, 0.0); 8];
    for (i, &w) in tally.iter().enumerate() {
        counts[i] = w as f64;
        ci[i] = (w as f64, w as f64);
    }
    OutcomeBreakdown {
        counts,
        ci,
        exact: true,
    }
}

/// Extrapolates per-kind counts from a sampling campaign
/// (`count_kind = population · hits_kind / draws`), each with a Wilson
/// interval. For raw-space samples the benign draws land on index 0.
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn sampled_breakdown(sampled: &SampledResult, confidence: f64) -> OutcomeBreakdown {
    assert!(sampled.draws > 0, "cannot extrapolate an empty sample");
    let mut hits = [0u64; 8];
    hits[0] = sampled.benign_draws;
    for o in &sampled.outcomes {
        hits[o.outcome.kind_index()] += o.hits;
    }
    let pop = sampled.population as f64;
    let mut counts = [0.0; 8];
    let mut ci = [(0.0, 0.0); 8];
    for i in 0..8 {
        counts[i] = pop * hits[i] as f64 / sampled.draws as f64;
        let (lo, hi) = wilson_interval(hits[i], sampled.draws, confidence);
        ci[i] = (pop * lo, pop * hi);
    }
    OutcomeBreakdown {
        counts,
        ci,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_campaign::{Campaign, FaultDomain, SamplingMode};
    use sofi_isa::{Asm, Reg};
    use sofi_rng::DefaultRng;

    /// A program with several distinct failure modes: SDC (buffer byte),
    /// CPU exception / timeout (pointer and counter words).
    fn multi_mode_program() -> sofi_isa::Program {
        let mut a = Asm::with_name("multimode");
        let data = a.data_bytes("data", &[9]);
        let count = a.data_word("count", 4);
        let ptr = a.data_word("ptr", 0);
        let top = a.label_here();
        a.lw(Reg::R1, Reg::R0, ptr.offset()); // pointer: flips → trap
        a.lb(Reg::R2, Reg::R1, data.offset());
        a.serial_out(Reg::R2);
        a.lw(Reg::R3, Reg::R0, count.offset()); // counter: flips → timeout
        a.addi(Reg::R3, Reg::R3, -1);
        a.sw(Reg::R3, Reg::R0, count.offset());
        a.bne(Reg::R3, Reg::R0, top);
        a.build().unwrap()
    }

    #[test]
    fn exact_breakdown_sums_to_space() {
        let c = Campaign::new(&multi_mode_program()).unwrap();
        let r = c.run_full_defuse_in(FaultDomain::Memory);
        let b = outcome_breakdown(&r);
        assert!(b.exact);
        let total: f64 = b.counts.iter().sum();
        assert_eq!(total as u64, r.space.size());
        assert_eq!(b.failure_total() as u64, r.failure_weight());
        // Multiple distinct failure modes are present.
        let nonzero_failures = b.counts[2..].iter().filter(|&&c| c > 0.0).count();
        assert!(nonzero_failures >= 2, "{:?}", b.counts);
    }

    #[test]
    fn sampled_breakdown_matches_exact_per_kind() {
        let c = Campaign::new(&multi_mode_program()).unwrap();
        let exact = outcome_breakdown(&c.run_full_defuse_in(FaultDomain::Memory));
        let mut rng = DefaultRng::seed_from_u64(3);
        let s = c.run_sampled_in(
            FaultDomain::Memory,
            40_000,
            SamplingMode::UniformRaw,
            &mut rng,
        );
        let est = sampled_breakdown(&s, 0.99);
        for i in 0..8 {
            assert!(
                est.ci[i].0 <= exact.counts[i] && exact.counts[i] <= est.ci[i].1,
                "kind {i}: exact {} outside CI {:?}",
                exact.counts[i],
                est.ci[i]
            );
        }
        assert!((est.failure_total() - exact.failure_total()).abs() / exact.failure_total() < 0.1);
    }

    #[test]
    fn failure_rows_sorted() {
        let c = Campaign::new(&multi_mode_program()).unwrap();
        let b = outcome_breakdown(&c.run_full_defuse_in(FaultDomain::Memory));
        let rows = b.failure_rows();
        for pair in rows.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}
