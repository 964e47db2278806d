//! Boundary behaviour of the pipeline: degenerate programs, empty fault
//! spaces, and limit handling.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain, Outcome, SamplingMode};
use sofi::isa::{Asm, Reg};
use sofi::metrics::{fault_coverage, Weighting};

/// A program that never touches RAM: every memory coordinate is benign.
#[test]
fn ram_without_accesses_is_fully_benign() {
    let mut a = Asm::with_name("idle");
    a.data_space("unused", 8);
    a.li(Reg::R1, 42);
    a.serial_out(Reg::R1);
    let c = Campaign::new(&a.build().unwrap()).unwrap();
    assert_eq!(c.plan_for(FaultDomain::Memory).experiments.len(), 0);
    assert_eq!(
        c.plan_for(FaultDomain::Memory).known_benign_weight,
        c.plan_for(FaultDomain::Memory).space.size()
    );
    let r = c.run_full_defuse_in(FaultDomain::Memory);
    assert!(r.covers_space());
    assert_eq!(r.failure_weight(), 0);
    assert_eq!(fault_coverage(&r, Weighting::Weighted), 1.0);
    // Raw-space sampling works (every draw is benign) ...
    let mut rng = sofi_rng::DefaultRng::seed_from_u64(1);
    let s = c.run_sampled_in(FaultDomain::Memory, 100, SamplingMode::UniformRaw, &mut rng);
    assert_eq!(s.benign_draws, 100);
    assert_eq!(s.failure_hits(), 0);
}

/// A program with no RAM at all: the fault space is empty but scans are
/// still well-defined (vacuously complete).
#[test]
fn zero_ram_program_scans_vacuously() {
    let mut a = Asm::with_name("ramless");
    a.li(Reg::R1, 7);
    a.serial_out(Reg::R1);
    let c = Campaign::new(&a.build().unwrap()).unwrap();
    assert_eq!(c.plan_for(FaultDomain::Memory).space.size(), 0);
    let r = c.run_full_defuse_in(FaultDomain::Memory);
    assert!(r.covers_space());
    assert_eq!(r.experiments_run(), 0);
}

/// The shortest possible benchmark: a single load.
#[test]
fn single_instruction_benchmark() {
    let mut a = Asm::with_name("one");
    let x = a.data_bytes("x", &[1]);
    a.lb(Reg::R1, Reg::R0, x.offset());
    let c = Campaign::new(&a.build().unwrap()).unwrap();
    assert_eq!(c.golden().cycles, 1);
    let r = c.run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(r.space.size(), 8);
    // The value is never emitted, so every flip is masked.
    assert_eq!(r.failure_weight(), 0);
}

/// Serial-flood faults are classified as OutputFlood, not timeouts.
#[test]
fn output_flood_classification() {
    // The loop bound lives in RAM; flipping a high bit turns 2 iterations
    // into billions of serial writes, tripping the serial limit first.
    let mut a = Asm::with_name("printer");
    let n = a.data_word("n", 2);
    a.lw(Reg::R4, Reg::R0, n.offset());
    let top = a.label_here();
    a.li(Reg::R5, b'x' as i32);
    a.serial_out(Reg::R5);
    a.addi(Reg::R4, Reg::R4, -1);
    a.bne(Reg::R4, Reg::R0, top);
    let p = a.build().unwrap();
    let mut config = CampaignConfig::sequential();
    config.machine.serial_limit = 256;
    // Give the run enough cycle budget that the serial limit is the
    // binding constraint.
    config.timeout_slack = 1_000_000;
    let c = Campaign::with_config(&p, config).unwrap();
    let r = c.run_full_defuse_in(FaultDomain::Memory);
    assert!(
        r.results.iter().any(|x| x.outcome == Outcome::OutputFlood),
        "expected an OutputFlood outcome, got {:?}",
        r.results.iter().map(|x| x.outcome).collect::<Vec<_>>()
    );
}

/// Detected-but-unrecoverable aborts surface as their own failure mode.
#[test]
fn detected_unrecoverable_classification() {
    use sofi::harden::ProtectedWord;
    // A protected word read once; we cannot trigger the abort with a
    // single fault (that's the point of the mechanism), so build a
    // variant whose checksum is deliberately inconsistent on one path:
    // simplest is to corrupt two words at boot via the campaign being
    // impossible — instead, verify the abort code path directly.
    let mut a = Asm::with_name("abort");
    let w = ProtectedWord::declare(&mut a, "w", 3);
    w.emit_load(&mut a, Reg::R4, Reg::R1, Reg::R2);
    a.serial_out(Reg::R4);
    let p = a.build().unwrap();
    let mut m = sofi::machine::Machine::new(&p);
    m.flip_bit(0); // primary
    m.flip_bit(33); // copy, different bit → unrecoverable
    m.run(1_000);
    let golden = sofi::trace::GoldenRun::capture(&p, 1_000).unwrap();
    let outcome = Outcome::classify(m.status().unwrap(), m.serial(), m.detect_count(), &golden);
    assert_eq!(outcome, Outcome::DetectedUnrecoverable);
}

/// Campaign timeout budget: a benchmark whose faulted runs legitimately
/// run a bit longer than golden must not be misclassified with a generous
/// factor.
#[test]
fn timeout_factor_respected() {
    let mut a = Asm::with_name("slowpath");
    let flag = a.data_word("flag", 0);
    let fast = a.new_label();
    a.lw(Reg::R1, Reg::R0, flag.offset());
    a.beq(Reg::R1, Reg::R0, fast);
    // Slow path: 40 extra cycles, same output.
    for _ in 0..40 {
        a.nop();
    }
    a.bind(fast);
    a.li(Reg::R2, 1);
    a.serial_out(Reg::R2);
    let p = a.build().unwrap();
    let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
    let r = c.run_full_defuse_in(FaultDomain::Memory);
    // Flag flips divert to the slow path but output is identical: every
    // experiment is benign, none is a timeout.
    assert_eq!(r.failure_weight(), 0);
}
