//! The pinned correctness reference: for every (program, fault domain) a
//! workload scans, the experiment count, golden cycle count, failure
//! weight and a digest of the `(experiment id, outcome)` pairs,
//! generated once by naive replay on the step interpreter
//! (`Campaign::run_experiments_naive`: no forking, no convergence, no
//! memo, no µop engine). Every result the benchmark measures is checked
//! against it, so a speed-only change must leave every simulated
//! statistic identical.

use sofi_campaign::{
    Campaign, CampaignConfig, CampaignResult, ExperimentResult, FaultDomain, Outcome,
};
use sofi_isa::{MemWidth, Program};
use sofi_machine::Trap;
use sofi_machine::MachineConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The checked-in table (`sofibench/reference.tsv`).
pub const PINNED: &str = include_str!("../reference.tsv");

/// Expected figures of one (program, domain) scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub experiments: u64,
    pub golden_cycles: u64,
    pub failure_weight: u64,
    pub digest: u64,
}

/// An outcome as three integers: its kind (`Outcome::kind_index`), and
/// for a halt code or a trap the trap's kind and its field. Stable across
/// renames of the enums' variants and fields.
fn outcome_words(outcome: Outcome) -> [u64; 3] {
    let kind = outcome.kind_index() as u64;
    match outcome {
        Outcome::AbnormalHalt { code } => [kind, 0, u64::from(code)],
        Outcome::CpuException(trap) => {
            let (sub, field) = match trap {
                Trap::Misaligned { addr, width } => {
                    let w = match width {
                        MemWidth::Byte => 1,
                        MemWidth::Half => 2,
                        MemWidth::Word => 4,
                    };
                    (0, u64::from(addr) | w << 32)
                }
                Trap::OutOfRange { addr } => (1, u64::from(addr)),
                Trap::MmioRead { addr } => (2, u64::from(addr)),
                Trap::BadJump { target } => (3, u64::from(target)),
                Trap::SerialOverflow => (4, 0),
                Trap::IllegalOpcode { opcode } => (5, u64::from(opcode)),
            };
            [kind, sub, field]
        }
        _ => [kind, 0, 0],
    }
}

/// Digest of the set of `(experiment id, outcome)` pairs: the wrapping
/// sum of one FNV-1a-64 hash per pair, finished by the splitmix64
/// mixer. A sum does not depend on the order of the results, so the
/// sorted list's digest needs no sort and no allocation.
pub fn digest(results: &[ExperimentResult]) -> u64 {
    results.iter().fold(0u64, |sum, r| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let [kind, sub, field] = outcome_words(r.outcome);
        for word in [u64::from(r.experiment.id), kind, sub, field] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        sum.wrapping_add(h ^ (h >> 31))
    })
}

/// Outcome of checking a batch of results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Experiments whose outcome was checked (or should have been).
    pub attempted: u64,
    /// Experiments not confirmed by the reference.
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The reference table, keyed by `(program name, domain name)`.
#[derive(Debug, Clone)]
pub struct Reference {
    rows: BTreeMap<(String, String), Expected>,
}

impl Reference {
    /// Parses the tab-separated table (`#` lines are comments).
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference.tsv line {}: malformed row", n + 1);
            if f.len() != 6 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let expected = Expected {
                experiments: num(f[2])?,
                golden_cycles: num(f[3])?,
                failure_weight: num(f[4])?,
                digest: u64::from_str_radix(f[5], 16).map_err(|_| bad())?,
            };
            rows.insert((f[0].to_string(), f[1].to_string()), expected);
        }
        Ok(Reference { rows })
    }

    /// The pinned table.
    pub fn pinned() -> Reference {
        Reference::parse(PINNED).expect("the pinned reference table parses")
    }

    /// The expected figures of one scan.
    pub fn expected(&self, program: &str, domain: FaultDomain) -> Option<Expected> {
        self.rows
            .get(&(program.to_string(), domain.name().to_string()))
            .copied()
    }

    /// Checks one scan's result. A result that disagrees in any figure
    /// counts all of its experiments as failed: the digest cannot say
    /// which ones differ.
    pub fn check(&self, result: &CampaignResult) -> Tally {
        let got = Expected {
            experiments: result.results.len() as u64,
            golden_cycles: result.golden_cycles,
            failure_weight: result.failure_weight(),
            digest: digest(&result.results),
        };
        let want = self.expected(&result.benchmark, result.domain);
        let attempted = got.experiments.max(want.map_or(0, |w| w.experiments));
        Tally {
            attempted,
            failed: if want == Some(got) { 0 } else { attempted },
        }
    }

    /// A job that produced no result (refused, errored, or ended in any
    /// state but `Done`): every experiment it should have run failed.
    pub fn missing(&self, program: &str, domain: FaultDomain) -> Tally {
        let n = self
            .expected(program, domain)
            .map_or(1, |w| w.experiments.max(1));
        Tally {
            attempted: n,
            failed: n,
        }
    }
}

/// Regenerates the table for `programs` × `domains` by naive step-engine
/// replay, on up to `threads` threads. Slow by design (minutes).
pub fn generate(programs: &[Program], domains: &[FaultDomain], threads: usize) -> String {
    let config = CampaignConfig {
        threads: 1,
        machine: MachineConfig {
            block_engine: false,
            ..MachineConfig::default()
        },
        ..CampaignConfig::default()
    };
    let jobs: Vec<(&Program, FaultDomain)> = programs
        .iter()
        .flat_map(|p| domains.iter().map(move |&d| (p, d)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let rows = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(program, domain)) = jobs.get(i) else {
                    break;
                };
                let campaign =
                    Campaign::with_config(program, config).expect("benchmark programs halt");
                let plan = campaign.plan_for(domain);
                let results = campaign.run_experiments_naive(domain, &plan.experiments);
                let result = campaign.assemble_result(domain, plan, results);
                let row = format!(
                    "{}\t{}\t{}\t{}\t{}\t{:016x}",
                    program.name,
                    domain.name(),
                    result.results.len(),
                    result.golden_cycles,
                    result.failure_weight(),
                    digest(&result.results)
                );
                eprintln!("reference: {row}");
                rows.lock().expect("no generator thread panics").push(row);
            });
        }
    });
    let mut rows = rows.into_inner().expect("no generator thread panics");
    rows.sort();
    let mut out = String::from(
        "# program\tdomain\texperiments\tgolden_cycles\tfailure_weight\tdigest\n\
         # Naive step-engine replay (Campaign::run_experiments_naive, block engine off).\n\
         # Regenerate: cargo run --release --manifest-path sofibench/Cargo.toml -- --gen-reference\n",
    );
    for row in rows {
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Program {
        sofi_workloads::benchmark_pairs()
            .into_iter()
            .find(|(name, ..)| *name == "fib")
            .expect("fib pair")
            .1
    }

    #[test]
    fn generated_rows_check_clean_and_a_corrupted_digest_fails() {
        let program = small();
        let table = generate(
            std::slice::from_ref(&program),
            &[FaultDomain::Memory, FaultDomain::BranchInvert],
            1,
        );
        let reference = Reference::parse(&table).unwrap();
        let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
        let result = campaign.run_full_defuse_in(FaultDomain::Memory);
        let clean = reference.check(&result);
        assert_eq!(clean.failed, 0);
        assert_eq!(clean.attempted, result.results.len() as u64);

        // Flip one hex digit of the memory row's digest.
        let corrupted: String = table
            .lines()
            .map(|l| {
                if l.contains("\tMemory\t") {
                    let (head, hex) = l.rsplit_once('\t').unwrap();
                    let first = if hex.starts_with('0') { '1' } else { '0' };
                    format!("{head}\t{first}{}\n", &hex[1..])
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let bad = Reference::parse(&corrupted).unwrap().check(&result);
        assert_eq!(bad.failed, bad.attempted);
        assert!(bad.failed > 0);
        let failed_frac = bad.failed as f64 / bad.attempted as f64;
        assert!(failed_frac > 0.0);
    }

    #[test]
    fn digest_ignores_order_and_sees_one_changed_outcome() {
        let campaign = Campaign::with_config(&small(), CampaignConfig::default()).unwrap();
        let mut results = campaign.run_full_defuse_in(FaultDomain::Memory).results;
        let base = digest(&results);
        results.reverse();
        assert_eq!(digest(&results), base);
        let other = if results[0].outcome == Outcome::Timeout {
            Outcome::NoEffect
        } else {
            Outcome::Timeout
        };
        results[0].outcome = other;
        assert_ne!(digest(&results), base);
        results[0].outcome = Outcome::CpuException(Trap::BadJump { target: 7 });
        let seven = digest(&results);
        results[0].outcome = Outcome::CpuException(Trap::BadJump { target: 8 });
        assert_ne!(digest(&results), seven);
    }

    #[test]
    fn unknown_scans_and_missing_jobs_count_as_failed() {
        let reference = Reference::parse("").unwrap();
        let campaign = Campaign::with_config(&small(), CampaignConfig::default()).unwrap();
        let result = campaign.run_full_defuse_in(FaultDomain::BranchInvert);
        let t = reference.check(&result);
        assert!(t.failed > 0 && t.failed == t.attempted);
        let m = reference.missing("fib", FaultDomain::Memory);
        assert_eq!((m.attempted, m.failed), (1, 1));
    }

    #[test]
    fn pinned_table_parses_and_covers_every_scanned_pair() {
        let reference = Reference::pinned();
        for (_, b, h) in sofi_workloads::benchmark_pairs() {
            for p in [b, h] {
                for d in FaultDomain::ALL {
                    assert!(reference.expected(&p.name, d).is_some(), "{} {d}", p.name);
                }
            }
        }
    }
}
