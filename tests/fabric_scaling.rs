//! Fabric scaling sweep: one campaign pushed through a `remote_only`
//! coordinator with 1, 2 and 4 leased workers, measuring experiments
//! per second at each width and emitting a JSON table
//! (`SCALING_fabric.json` under `SOFI_RESULTS_DIR`, when set).
//!
//! The throughput *assertion* (2 workers ≥ 1.5× 1 worker) only fires
//! when it can be meaningful: a release build on a machine with at
//! least two hardware threads (or when `SOFI_SCALING_STRICT=1` forces
//! it). Everywhere else — debug builds, single-core CI runners — the
//! sweep still runs end-to-end and still checks bit-identity, because
//! correctness does not get a pass just because speed would.

use sofi::workloads::all_baselines;
use sofi_campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi_serve::{run_worker, JobSpec, JobState, ServeConfig, Server, SubmitOutcome, WorkerConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sofi-scaling-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Per-worker campaign config: single-threaded executors so measured
/// scaling comes from fabric width, not intra-worker parallelism;
/// memoization off so every worker pays full simulation cost and the
/// workload divides evenly.
fn scaling_config() -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        memoization: false,
        convergence: false,
        ..CampaignConfig::default()
    }
}

struct Sample {
    workers: usize,
    experiments: u64,
    secs: f64,
}

impl Sample {
    fn rate(&self) -> f64 {
        self.experiments as f64 / self.secs.max(1e-9)
    }
}

/// Jobs submitted per width: enough shards in flight that every worker
/// has work, so the sweep measures fabric width rather than one job's
/// shard count.
const JOBS_PER_WIDTH: usize = 4;

/// Runs the workload through `n` workers and returns the measurement.
fn run_width(
    program: &sofi_isa::Program,
    expected: &sofi_campaign::CampaignResult,
    n: usize,
) -> Sample {
    let journal = temp_path(&format!("scaling-{n}.journal"));
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            workers: 1,
            queue_capacity: JOBS_PER_WIDTH + 1,
            batch_size: 8,
            lease_timeout: Duration::from_secs(10),
            remote_only: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let coord = server.coordinator().clone();
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let workers: Vec<_> = (0..n)
        .map(|i| {
            let config = WorkerConfig {
                addr: addr.clone(),
                name: format!("scale-{n}-{i}"),
                poll_interval: Duration::from_millis(2),
                ..WorkerConfig::default()
            };
            std::thread::spawn(move || run_worker(&config).unwrap())
        })
        .collect();
    while coord.workers().iter().filter(|w| w.alive).count() < n {
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    let ids: Vec<u64> = (0..JOBS_PER_WIDTH)
        .map(|_| {
            let spec = JobSpec {
                name: program.name.clone(),
                source: program.to_source(),
                domain: FaultDomain::Memory,
                config: scaling_config(),
                warm_store: false,
            };
            let SubmitOutcome::Accepted(id) = coord.submit(spec) else {
                panic!("refused");
            };
            id
        })
        .collect();
    coord.wait_idle();
    let secs = started.elapsed().as_secs_f64();
    coord.begin_drain();
    for w in workers {
        w.join().unwrap();
    }

    let mut experiments = 0u64;
    for id in ids {
        let status = coord.status(Some(id)).unwrap().remove(0);
        assert_eq!(status.state, JobState::Done, "{}", status.error);
        let (result, stats) = coord.result(id).unwrap();
        // Correctness is non-negotiable at every width.
        assert_eq!(&result, expected, "{n}-worker fabric changed the result");
        experiments += stats.experiments;
    }

    handle.shutdown();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
    Sample {
        workers: n,
        experiments,
        secs,
    }
}

#[test]
fn scaling_table_1_2_4_workers() {
    // crc32 is mid-sized: long enough to amortize lease round-trips,
    // short enough to sweep three widths in a test budget.
    let programs = all_baselines();
    let program = programs
        .iter()
        .find(|p| p.name == "crc32")
        .unwrap_or(&programs[0]);
    let expected = Campaign::with_config(program, scaling_config())
        .unwrap()
        .run_full_defuse_in(FaultDomain::Memory);

    let samples: Vec<Sample> = [1usize, 2, 4]
        .iter()
        .map(|&n| {
            let s = run_width(program, &expected, n);
            eprintln!(
                "{} workers: {} experiments in {:.2}s = {:.0} exp/s",
                s.workers,
                s.experiments,
                s.secs,
                s.rate()
            );
            s
        })
        .collect();

    // Emit the measured table for CI artifact collection.
    let mut json = String::from("{\n  \"schema\": \"sofi.scaling.fabric.v1\",\n");
    let _ = writeln!(json, "  \"workload\": \"{}\",", program.name);
    let _ = writeln!(json, "  \"domain\": \"Memory\",");
    let _ = writeln!(
        json,
        "  \"parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(
        json,
        "  \"release\": {},",
        if cfg!(debug_assertions) {
            "false"
        } else {
            "true"
        }
    );
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"experiments\": {}, \"secs\": {:.3}, \"exp_per_sec\": {:.1}}}{}",
            s.workers,
            s.experiments,
            s.secs,
            s.rate(),
            if i + 1 < samples.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let out = match std::env::var("SOFI_RESULTS_DIR") {
        Ok(dir) => {
            std::fs::create_dir_all(&dir).unwrap();
            PathBuf::from(dir).join("SCALING_fabric.json")
        }
        Err(_) => temp_path("SCALING_fabric.json"),
    };
    std::fs::write(&out, &json).unwrap();
    eprintln!("scaling table written to {}", out.display());

    // The speedup claim is only checkable where speedup is possible.
    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get());
    let strict = std::env::var("SOFI_SCALING_STRICT").is_ok();
    let meaningful = !cfg!(debug_assertions) && parallel >= 2;
    if strict || meaningful {
        let one = samples[0].rate();
        let two = samples[1].rate();
        assert!(
            two >= one * 1.5,
            "2 workers reached only {two:.0} exp/s vs {one:.0} exp/s on one \
             ({}x, need 1.5x)",
            two / one.max(1e-9)
        );
    } else {
        eprintln!(
            "speedup assertion skipped (debug build or single hardware thread; \
             set SOFI_SCALING_STRICT=1 to force)"
        );
    }
}
