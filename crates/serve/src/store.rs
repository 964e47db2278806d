//! The persistent cross-campaign warm store.
//!
//! A daemon-side, append-only file of experiment outcomes keyed by
//! `(context, fault coordinate)`. The *context* is the program source,
//! fault domain, and the outcome-relevant configuration (timeout factor,
//! timeout slack, serial limit). Def/use plans are deterministic, so the
//! same context always plans the same coordinates, and a coordinate's
//! outcome is a pure function of its context: a re-submission is
//! answered by looking its plan up here, without restoring, injecting or
//! simulating anything.
//!
//! The file format follows the result journal's laws exactly
//! ([`crate::journal`]): each record is framed as
//!
//! ```text
//! offset  size  field
//! 0       4     payload length, little-endian
//! 4       4     FNV-1a-32 checksum of the payload, little-endian
//! 8       len   payload (tag byte + record body, `wire` codec)
//! ```
//!
//! appended with `fsync` (one batch record per completed job), and
//! [`WarmStore::open`] replays the valid prefix and truncates any torn
//! tail a crash left behind — so a daemon killed mid-append loses at
//! most the in-flight batch, never a committed one, and every surviving
//! record is bit-identical to what was written
//! (`tests/warm_store.rs`). A checksum-valid record with another tag —
//! the tag-0 `(cycle, state digest)` memo facts of older daemons — is
//! kept on disk but not indexed: it is intact data in a format this
//! build does not read, not a torn tail.

use crate::wire::{self, Reader, WireError, Writer};
use sofi_campaign::{CampaignConfig, ExperimentResult, FaultDomain, Outcome};
use sofi_space::{Experiment, FaultCoord};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A 128-bit campaign-context key: everything that must match for a
/// stored outcome to transfer between jobs. Two independent
/// FNV-1a-64 lanes over the same context bytes — not cryptographic, but
/// 128 bits of separation keeps outcomes of one program from ever being
/// consulted for another.
pub type ContextKey = u128;

/// FNV-1a-64 with a caller-chosen offset basis (the second lane uses a
/// different basis so the lanes are independent functions).
fn fnv1a64_from(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// Computes the context key under which a job's outcomes are stored
/// and looked up: program source text, fault domain, and the three
/// config fields that determine experiment outcomes (the cycle budget's
/// `timeout_factor` and `timeout_slack`, and the machine's
/// `serial_limit`). Scheduling knobs — threads, convergence,
/// memoization, the gate, telemetry, the block engine — are provably
/// outcome-neutral and deliberately excluded, so ablation runs share
/// one warm context.
pub fn context_key(source: &str, domain: FaultDomain, config: &CampaignConfig) -> ContextKey {
    let mut ctx = Vec::with_capacity(source.len() + 32);
    ctx.extend_from_slice(source.as_bytes());
    ctx.push(match domain {
        FaultDomain::Memory => 0,
        FaultDomain::RegisterFile => 1,
        FaultDomain::InstrSkip => 2,
        FaultDomain::OpcodeBit => 3,
        FaultDomain::BranchInvert => 4,
    });
    ctx.extend_from_slice(&config.timeout_factor.to_le_bytes());
    ctx.extend_from_slice(&config.timeout_slack.to_le_bytes());
    ctx.extend_from_slice(&(config.machine.serial_limit as u64).to_le_bytes());
    let lo = fnv1a64_from(0xCBF2_9CE4_8422_2325, &ctx);
    let hi = fnv1a64_from(0x6C62_272E_07BB_0142, &ctx);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// The record tag of the current format: a batch of `(coordinate,
/// outcome)` pairs for one context. Tag 0 was the retired
/// `(cycle, state digest)` memo-fact format.
const TAG_OUTCOMES: u8 = 1;

/// One store record: the outcomes one completed job added for one
/// context.
fn encode_batch(ctx: ContextKey, outcomes: &[(FaultCoord, Outcome)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(TAG_OUTCOMES);
    w.u64((ctx >> 64) as u64);
    w.u64(ctx as u64);
    w.u32(outcomes.len() as u32);
    for (coord, outcome) in outcomes {
        w.u64(coord.cycle);
        w.u64(coord.bit);
        wire::put_outcome(&mut w, *outcome);
    }
    w.finish()
}

/// Minimum encoded size of one stored outcome (outcome tag is ≥ 1 byte).
const OUTCOME_MIN_BYTES: usize = 8 + 8 + 1;

/// One decoded record: a context and the outcomes it added.
type Batch = (ContextKey, Vec<(FaultCoord, Outcome)>);

/// Decodes one record payload; `Ok(None)` for a checksum-valid record
/// of another format (skipped, not truncated).
fn decode_batch(payload: &[u8]) -> Result<Option<Batch>, WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != TAG_OUTCOMES {
        return Ok(None);
    }
    let hi = r.u64()?;
    let lo = r.u64()?;
    let ctx = (u128::from(hi) << 64) | u128::from(lo);
    let n = r.seq_len(OUTCOME_MIN_BYTES)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let coord = FaultCoord {
            cycle: r.u64()?,
            bit: r.u64()?,
        };
        outcomes.push((coord, wire::take_outcome(&mut r)?));
    }
    r.expect_end()?;
    Ok(Some((ctx, outcomes)))
}

/// An open warm store positioned at the end of its valid prefix, with
/// the full outcome index in memory.
#[derive(Debug)]
pub struct WarmStore {
    file: File,
    path: PathBuf,
    /// `context → coordinate → outcome`. The inner map both
    /// deduplicates appends (an outcome persisted once is never
    /// rewritten) and serves lookups.
    index: HashMap<ContextKey, HashMap<FaultCoord, Outcome>>,
}

impl WarmStore {
    /// Opens (or creates) the store at `path`, replays every committed
    /// batch into the in-memory index, and truncates any torn tail.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures; corrupt record *content* is not
    /// an error — it marks the end of the committed history, exactly as
    /// in [`crate::journal::Journal::open`].
    pub fn open(path: &Path) -> io::Result<WarmStore> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (batches, valid_len) = replay(&bytes);
        if valid_len != bytes.len() {
            file.set_len(valid_len as u64)?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let mut index: HashMap<ContextKey, HashMap<FaultCoord, Outcome>> = HashMap::new();
        for (ctx, outcomes) in batches {
            let known = index.entry(ctx).or_default();
            for (coord, outcome) in outcomes {
                known.entry(coord).or_insert(outcome);
            }
        }
        Ok(WarmStore {
            file,
            path: path.to_path_buf(),
            index,
        })
    }

    /// Splits `experiments` into the ones whose outcome `ctx` already
    /// holds — returned as results, in input order — and the misses,
    /// which still need simulating.
    pub fn answer(
        &self,
        ctx: ContextKey,
        experiments: &[Experiment],
    ) -> (Vec<ExperimentResult>, Vec<Experiment>) {
        let Some(known) = self.index.get(&ctx) else {
            return (Vec::new(), experiments.to_vec());
        };
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for &e in experiments {
            match known.get(&e.coord) {
                Some(&outcome) => hits.push(ExperimentResult {
                    experiment: e,
                    outcome,
                }),
                None => misses.push(e),
            }
        }
        (hits, misses)
    }

    /// Appends the outcomes of `results` not yet persisted for `ctx` as
    /// one checksummed, `fsync`ed batch, and indexes them. Returns how
    /// many outcomes were actually appended (0 — with no write at all —
    /// when every coordinate was already persisted).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the batch must be considered
    /// uncommitted (the index is only updated after a successful sync).
    pub fn append(&mut self, ctx: ContextKey, results: &[ExperimentResult]) -> io::Result<u64> {
        let known = self.index.entry(ctx).or_default();
        let fresh: Vec<(FaultCoord, Outcome)> = results
            .iter()
            .filter(|r| !known.contains_key(&r.experiment.coord))
            .map(|r| (r.experiment.coord, r.outcome))
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        let payload = encode_batch(ctx, &fresh);
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&wire::fnv1a32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        self.file.write_all(&framed)?;
        self.file.sync_data()?;
        let known = self.index.entry(ctx).or_default();
        known.extend(fresh.iter().copied());
        Ok(fresh.len() as u64)
    }

    /// Total outcomes indexed across all contexts.
    pub fn len(&self) -> usize {
        self.index.values().map(HashMap::len).sum()
    }

    /// `true` when the store holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.index.values().all(HashMap::is_empty)
    }

    /// Distinct contexts with at least one outcome.
    pub fn contexts(&self) -> usize {
        self.index.values().filter(|f| !f.is_empty()).count()
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Decodes the valid record prefix of `bytes`, returning the batches and
/// the byte length of the prefix. Stops — without error — at the first
/// truncated frame, checksum mismatch, or undecodable current-format
/// payload; skips checksum-valid records of other formats.
fn replay(bytes: &[u8]) -> (Vec<Batch>, usize) {
    let mut batches = Vec::new();
    let mut pos = 0;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        if wire::fnv1a32(payload) != crc {
            break;
        }
        match decode_batch(payload) {
            Ok(Some(batch)) => batches.push(batch),
            Ok(None) => {}
            Err(_) => break,
        }
        pos += 8 + len;
    }
    (batches, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sofi-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn result(id: u32, cycle: u64, bit: u64, outcome: Outcome) -> ExperimentResult {
        ExperimentResult {
            experiment: Experiment {
                id,
                coord: FaultCoord { cycle, bit },
                weight: 1,
            },
            outcome,
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_path("roundtrip");
        let ctx_a = 0x1111_u128;
        let ctx_b = 0x2222_u128;
        let a = vec![
            result(0, 5, 3, Outcome::NoEffect),
            result(1, 9, 0, Outcome::SilentDataCorruption),
        ];
        let b = vec![result(0, 3, 7, Outcome::Timeout)];
        {
            let mut store = WarmStore::open(&path).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.append(ctx_a, &a).unwrap(), 2);
            assert_eq!(store.append(ctx_b, &b).unwrap(), 1);
            // Re-appending already-persisted coordinates writes nothing.
            assert_eq!(store.append(ctx_a, &a).unwrap(), 0);
        }
        let store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.contexts(), 2);
        let plan: Vec<Experiment> = a.iter().map(|r| r.experiment).collect();
        assert_eq!(store.answer(ctx_a, &plan), (a.clone(), Vec::new()));
        // Another context with the same coordinates answers nothing.
        assert_eq!(store.answer(0x3333, &plan), (Vec::new(), plan.clone()));
        // A context holding some coordinates splits the plan.
        let (hits, misses) = store.answer(ctx_b, &[plan[0], b[0].experiment]);
        assert_eq!(hits, b);
        assert_eq!(misses, vec![plan[0]]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_path("torn");
        let ctx = 0x42_u128;
        {
            let mut store = WarmStore::open(&path).unwrap();
            store
                .append(ctx, &[result(0, 1, 0, Outcome::NoEffect)])
                .unwrap();
            store
                .append(ctx, &[result(1, 2, 0, Outcome::DetectedCorrected)])
                .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Simulate a daemon killed mid-append: half a record on the end.
        let mut torn = full.clone();
        torn.extend_from_slice(&[0x99, 0x03, 0x00, 0x00, 0x17, 0xFE]);
        std::fs::write(&path, &torn).unwrap();

        let mut store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "torn tail must not hide committed outcomes");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full.len() as u64);
        store
            .append(ctx, &[result(2, 3, 0, Outcome::Timeout)])
            .unwrap();
        drop(store);
        let store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_corruption_ends_the_valid_prefix() {
        let path = temp_path("crc");
        let ctx = 0x7_u128;
        {
            let mut store = WarmStore::open(&path).unwrap();
            store
                .append(ctx, &[result(0, 1, 0, Outcome::NoEffect)])
                .unwrap();
            store
                .append(ctx, &[result(1, 2, 0, Outcome::NoEffect)])
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let second_start = {
            let len0 = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            8 + len0
        };
        bytes[second_start + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "corruption must cut the history there");
        std::fs::remove_file(&path).unwrap();
    }

    /// A store written by an older daemon holds tag-0 `(cycle, state
    /// digest)` memo facts. Opening it must neither index them nor treat
    /// them as a torn tail: the file keeps every byte, and new batches
    /// append after them.
    #[test]
    fn legacy_tag0_records_are_skipped_not_truncated() {
        let path = temp_path("legacy");
        // The retired layout: tag 0, context, count, then per fact the
        // cycle, 128-bit state digest, outcome and final cycle.
        let mut w = Writer::new();
        w.u8(0);
        w.u64(0);
        w.u64(0x42);
        w.u32(1);
        w.u64(5);
        w.u64(0xDEAD_BEEF);
        w.u64(0x0123_4567);
        wire::put_outcome(&mut w, Outcome::NoEffect);
        w.u64(105);
        let payload = w.finish();
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        legacy.extend_from_slice(&wire::fnv1a32(&payload).to_le_bytes());
        legacy.extend_from_slice(&payload);
        std::fs::write(&path, &legacy).unwrap();

        let mut store = WarmStore::open(&path).unwrap();
        assert!(store.is_empty(), "legacy facts are not coordinates");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            legacy,
            "a legacy store must not be truncated"
        );
        let fresh = [result(0, 5, 1, Outcome::Timeout)];
        assert_eq!(store.append(0x42, &fresh).unwrap(), 1);
        drop(store);

        let store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert!(std::fs::read(&path).unwrap().starts_with(&legacy));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn context_key_separates_programs_domains_and_budgets() {
        let cfg = CampaignConfig::default();
        let base = context_key("nop\n", FaultDomain::Memory, &cfg);
        assert_ne!(base, context_key("add r1, r2\n", FaultDomain::Memory, &cfg));
        assert_ne!(base, context_key("nop\n", FaultDomain::RegisterFile, &cfg));
        let slow = CampaignConfig {
            timeout_factor: cfg.timeout_factor + 1,
            ..cfg
        };
        assert_ne!(base, context_key("nop\n", FaultDomain::Memory, &slow));
        // Outcome-neutral scheduling knobs share the context.
        let reknobbed = CampaignConfig {
            threads: 7,
            convergence: false,
            memoization: false,
            memo_gate: false,
            telemetry: true,
            ..cfg
        };
        assert_eq!(base, context_key("nop\n", FaultDomain::Memory, &reknobbed));
    }
}
