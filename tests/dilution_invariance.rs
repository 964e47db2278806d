//! Properties of the §IV dilution transformations.
//!
//! * Tail NOP dilution and memory dilution never change the absolute
//!   failure count of *any* program (their added coordinates are dormant
//!   by construction) while inflating coverage.
//! * Front NOP/load dilution is failure-invariant for programs without
//!   boot-initialized live data (like the paper's "Hi") — and for
//!   programs *with* such data it can only push `F` *up* (the data sits
//!   exposed longer), never down: either way the transformation is no
//!   fault-tolerance mechanism, yet coverage rises.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::harden::{load_dilution, memory_dilution, nop_dilution, nop_dilution_tail};
use sofi::isa::Program;
use sofi::metrics::{fault_coverage, Weighting};
use sofi::workloads::{crc32, fib, hi, strrev, Variant};
use sofi_rng::{DefaultRng, Rng};

fn scan(program: &Program) -> (u64, f64) {
    let campaign =
        Campaign::with_config(program, CampaignConfig::sequential()).expect("golden run");
    let result = campaign.run_full_defuse_in(FaultDomain::Memory);
    (
        result.failure_weight(),
        fault_coverage(&result, Weighting::Weighted),
    )
}

#[test]
fn tail_and_memory_dilution_preserve_failures_universally() {
    for base in [hi(), crc32(), strrev(), fib(Variant::Baseline)] {
        let (f0, c0) = scan(&base);
        for (name, diluted) in [
            ("tail-dft", nop_dilution_tail(&base, 13)),
            ("mem", memory_dilution(&base, 64)),
        ] {
            let (f, c) = scan(&diluted);
            assert_eq!(f, f0, "{name} changed F on {}", base.name);
            assert!(c >= c0, "{name} lowered coverage on {}", base.name);
            if f0 > 0 {
                assert!(c > c0, "{name} must inflate coverage on {}", base.name);
            }
        }
    }
}

#[test]
fn front_dilution_never_reduces_failures() {
    // Note front dilution makes no promise about the *coverage* direction
    // on programs with boot-initialized live data: the added exposure of
    // that data can outweigh the fault-space growth (observed on crc32,
    // recorded in EXPERIMENTS.md). The failure count, however, can only
    // stay or grow — a no-op transform never removes a failure.
    for base in [hi(), crc32(), strrev(), fib(Variant::Baseline)] {
        let (f0, _) = scan(&base);
        for (name, diluted) in [
            ("dft", nop_dilution(&base, 13)),
            ("dft'", load_dilution(&base, 13, &[0])),
        ] {
            let (f, _) = scan(&diluted);
            assert!(
                f >= f0,
                "{name} reduced F on {} ({f} < {f0}) — impossible for a no-op transform",
                base.name
            );
        }
    }
}

#[test]
fn front_dilution_exact_on_runtime_initialized_programs() {
    // "Hi" stores its data at runtime: front dilution is exactly
    // failure-invariant there (the paper's setting).
    let (f0, _) = scan(&hi());
    for n in [1, 4, 32] {
        let (f, _) = scan(&nop_dilution(&hi(), n));
        assert_eq!(f, f0);
        let (f, _) = scan(&load_dilution(&hi(), n, &[0, 1]));
        assert_eq!(f, f0);
    }
}

/// Coverage under NOP dilution follows the closed form
/// `c' = 1 − F / ((Δt + n)·Δm)` — monotonically increasing in n.
#[test]
fn nop_dilution_coverage_closed_form() {
    // Deterministic seeded sweep over random dilution amounts.
    let mut rng = DefaultRng::seed_from_u64(0xD17);
    let base = hi();
    let (f, _) = scan(&base);
    for _ in 0..8 {
        let n = rng.gen_range(1usize..100);
        let diluted = nop_dilution(&base, n);
        let (f2, c2) = scan(&diluted);
        assert_eq!(f2, f, "n = {n}");
        let w = (8 + n as u64) * 16;
        let expect = 1.0 - f as f64 / w as f64;
        assert!((c2 - expect).abs() < 1e-12, "n = {n}");
    }
}
