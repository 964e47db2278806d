//! `sofibench`: the end-to-end and per-layer benchmark of the sofi stack.
//!
//! ```text
//! sofibench --workload <sweep|cf-scan|fabric|warm-resubmit> --seed N --seconds S --trace 0|1
//! sofibench --gen-reference
//! ```
//!
//! Prints a human-readable report and, as the last line of standard
//! output, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics of untraced passes;
//! `--trace 1` reports the per-layer metrics of a traced run. Run
//! metadata and the raw samples go to `.bench_out/` in the working
//! directory. See `sofibench/README.md`.

mod reference;
mod spans;
mod stats;
mod workloads;

use reference::{Reference, Tally};
use spans::Tracer;
use stats::{iqr_frac, median, metrics_json, put_first, Metric, Metrics};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use sofi_rng::SplitMix64;
use workloads::{run_pass, Ctx, EngineSpeed, Pass, Workload};

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("exp_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 47] = [
    "lang.compile_s",
    "isa.parse_s",
    "trace.golden_s",
    "space.defuse_s",
    "space.cflow_s",
    "space.experiments",
    "machine.block_ns_per_cycle",
    "machine.step_ns_per_cycle",
    "machine.block_cycle_frac",
    "machine.sim_cycles",
    "machine.sim_cycles.iqr_frac",
    "campaign.scan_s",
    "campaign.self_s",
    "campaign.shard_s",
    "campaign.merge_s",
    "campaign.parallel_scan_s",
    "campaign.restore_cycles",
    "campaign.restore_cycles.iqr_frac",
    "campaign.early_term_rate",
    "campaign.memo_hit_rate",
    "campaign.memo_hit_rate.iqr_frac",
    "campaign.memo_probe_ns_p50",
    "campaign.gate_off_frac",
    "campaign.gate_off_frac.iqr_frac",
    "campaign.dispatch_ns_p50",
    "metrics.compare_s",
    "serve.status_rtt_s",
    "serve.wire.result_s",
    "serve.journal.fsync_ns_p50",
    "serve.batches_committed",
    "serve.leases_granted",
    "serve.heartbeats",
    "serve.uploads_stale",
    "serve.uploads_duplicate",
    "serve.fabric_efficiency",
    "serve.journal.replay_s",
    "serve.journal.bytes",
    "serve.store.hit_rate",
    "serve.store.cold_pass_s",
    "serve.store.warm_pass_s",
    "serve.store.append_ns_p50",
    "serve.store.open_s",
    "serve.store.bytes",
    "telemetry.overhead_frac",
    "telemetry.overhead_frac_lo",
    "telemetry.overhead_frac_hi",
    "bench.layer_closure_frac",
];

/// Counts the memo gate makes from sampled wall-clock timings: the
/// simulated work itself varies run to run, so these are reported with
/// their spread and never compared as exact counts.
pub const NON_EXACT: [&str; 4] = [
    "machine.sim_cycles",
    "campaign.memo_hit_rate",
    "campaign.gate_off_frac",
    "campaign.restore_cycles",
];

/// Set-ups timed per end-to-end run (passes plus set-up-only rounds).
const SETUP_SAMPLES: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--gen-reference") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

/// Worker threads and connections: the machine's hardware threads.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit (`git rev-parse HEAD` in the working
/// directory), or `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Untraced passes for `seconds`: the end-to-end metrics.
fn end_to_end(args: &Args, ctx: &Ctx<'_>, rng: &mut SplitMix64) -> (Metrics, Tally, Vec<Pass>) {
    // Start another pass only if it should end within `seconds`, so a
    // run's wall time stays close to `seconds` whatever the pass length.
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut last_s = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + last_s <= args.seconds {
        let pass_start = Instant::now();
        passes.push(run_pass(args.workload, ctx, rng, false));
        last_s = pass_start.elapsed().as_secs_f64();
    }
    let mut tally = Tally::default();
    for p in &passes {
        tally.add(p.tally);
    }
    let rate: Vec<f64> = passes.iter().map(Pass::exp_per_s).collect();
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_s.iter().copied())
        .collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let mut setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setup.len() < SETUP_SAMPLES {
        let p = run_pass(args.workload, ctx, rng, true);
        setup.push(p.setup_s);
        passes.push(p);
    }
    let mut m = Metrics::new();
    let values = [
        median(&setup).expect("at least one pass"),
        median(&rate).expect("at least one pass"),
        median(&jobs).expect("every pass runs jobs"),
        median(&rss).expect("at least one pass"),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        put_first(&mut m, name, value, unit);
    }
    (m, tally, passes)
}

/// The traced run: interleaved untraced/traced passes of the workload
/// (per-layer figures and the tracing overhead), then one traced pass of
/// every other workload for the layers this one does not route through,
/// and one of the sweep on several campaign threads.
fn traced(args: &Args, ctx: &Ctx<'_>, rng: &mut SplitMix64) -> (Metrics, Tally, Vec<Pass>) {
    let untraced_tracer = Tracer::new(false);
    let untraced_ctx = Ctx {
        tracer: &untraced_tracer,
        ..*ctx
    };
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut layer_runs: Vec<Metrics> = Vec::new();
    let mut overhead = Vec::new();
    let mut passes = Vec::new();
    let mut pair = 0;
    while pair < 3 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        // Alternate which arm runs first.
        let (plain, traced) = if pair % 2 == 0 {
            let p = run_pass(args.workload, &untraced_ctx, rng, false);
            (p, run_pass(args.workload, ctx, rng, false))
        } else {
            let t = run_pass(args.workload, ctx, rng, false);
            (run_pass(args.workload, &untraced_ctx, rng, false), t)
        };
        overhead.push(
            plain.exp_per_s() / (traced.experiments as f64 / (traced.run_s - traced.probe_s)) - 1.0,
        );
        tally.add(plain.tally);
        tally.add(traced.tally);
        layer_runs.push(traced.layers.clone());
        passes.push(plain);
        passes.push(traced);
        pair += 1;
    }

    let mut m = Metrics::new();
    // Median over the workload's traced passes.
    let names: std::collections::BTreeSet<&String> =
        layer_runs.iter().flat_map(|r| r.keys()).collect();
    for name in names {
        let values: Vec<f64> = layer_runs
            .iter()
            .filter_map(|r| r.get(name))
            .map(|x| x.value)
            .collect();
        let unit = layer_runs
            .iter()
            .find_map(|r| r.get(name))
            .expect("present")
            .unit;
        put_first(&mut m, name, median(&values).expect("non-empty"), unit);
        if NON_EXACT.contains(&name.as_str()) {
            put_first(
                &mut m,
                &format!("{name}.iqr_frac"),
                iqr_frac(&values),
                "frac",
            );
        }
    }
    let mut sorted = overhead.clone();
    sorted.sort_by(f64::total_cmp);
    put_first(
        &mut m,
        "telemetry.overhead_frac",
        median(&overhead).expect("pairs"),
        "frac",
    );
    put_first(&mut m, "telemetry.overhead_frac_lo", sorted[0], "frac");
    put_first(
        &mut m,
        "telemetry.overhead_frac_hi",
        sorted[sorted.len() - 1],
        "frac",
    );

    for other in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
        let p = run_pass(other, ctx, rng, false);
        tally.add(p.tally);
        for (name, metric) in &p.layers {
            put_first(&mut m, name, metric.value, metric.unit);
        }
        passes.push(p);
    }
    // One traced sweep split across threads: the executor's parallel path
    // (cycle-span chunks, per-chunk checkpoint starts, telemetry
    // fork/absorb, merge), which the one-thread passes above never take.
    let parallel = Ctx {
        scan_threads: ctx.workers.max(2),
        ..*ctx
    };
    let p = run_pass(Workload::Sweep, &parallel, rng, false);
    tally.add(p.tally);
    for (name, from) in [
        ("campaign.merge_s", "campaign.merge_s"),
        ("campaign.parallel_scan_s", "campaign.scan_s"),
    ] {
        if let Some(metric) = p.layers.get(from) {
            put_first(&mut m, name, metric.value, metric.unit);
        }
    }
    passes.push(p);
    // A figure filled in by a single census pass has no spread to report.
    for name in NON_EXACT {
        put_first(&mut m, &format!("{name}.iqr_frac"), 0.0, "frac");
    }
    (m, tally, passes)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            let programs: Vec<_> = sofi_workloads::benchmark_pairs()
                .into_iter()
                .flat_map(|(_, b, h)| [b, h])
                .collect();
            let table = reference::generate(&programs, &sofi_campaign::FaultDomain::ALL, nproc());
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.tsv");
            if let Err(e) = std::fs::write(&path, table) {
                eprintln!("sofibench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("sofibench: wrote {}", path.display());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("sofibench: {e}");
            eprintln!("usage: sofibench --workload <sweep|cf-scan|fabric|warm-resubmit> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("sofibench: creating {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let reference = Reference::pinned();
    let tracer = Tracer::new(args.trace);
    let threads = nproc();
    let engine = args.trace.then(|| {
        let programs: Vec<_> = sofi_workloads::benchmark_pairs()
            .into_iter()
            .flat_map(|(_, b, h)| [b, h])
            .collect();
        EngineSpeed::measure(&programs, 0.25)
    });
    let ctx = Ctx {
        reference: &reference,
        tracer: &tracer,
        engine,
        scratch: &out_dir,
        workers: threads,
        scan_threads: 1,
    };
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let (metrics, tally, mut passes) = if args.trace {
        traced(&args, &ctx, &mut rng)
    } else {
        end_to_end(&args, &ctx, &mut rng)
    };
    for p in &mut passes {
        if let Some(t) = p.teardown.take() {
            t.join().expect("daemon teardown does not panic");
        }
    }

    let listed: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let missing: Vec<&&str> = listed
        .iter()
        .filter(|n| !metrics.contains_key(**n))
        .collect();
    if !missing.is_empty() {
        eprintln!("sofibench: metrics not measured: {missing:?}");
        return ExitCode::FAILURE;
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let report = report(&args, &metrics, tally, failed_frac, &passes, threads);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(out_dir.join(format!("{stem}.json")), &report.json);
    if args.trace {
        let _ = std::fs::write(out_dir.join(format!("{stem}.spans.tsv")), tracer.dump());
    }
    print!("{}", report.text);
    let reported: Metrics = metrics
        .into_iter()
        .filter(|(n, _)| listed.contains(&n.as_str()))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&reported)
    );
    ExitCode::SUCCESS
}

struct Report {
    text: String,
    json: String,
}

/// The human-readable report and the result file (metadata, every
/// metric including the overhead interval, and the raw pass samples).
fn report(
    args: &Args,
    metrics: &Metrics,
    tally: Tally,
    failed_frac: f64,
    passes: &[Pass],
    threads: usize,
) -> Report {
    let meta = [
        ("commit", commit()),
        ("rustc", env!("SOFIBENCH_RUSTC").to_string()),
        ("profile", env!("SOFIBENCH_PROFILE").to_string()),
        ("nproc", threads.to_string()),
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# sofibench {}",
        meta.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let jobs: usize = passes.iter().map(|p| p.job_s.len()).sum();
    let _ = writeln!(
        text,
        "# passes={} jobs={} attempted={} failed={} failed_frac={failed_frac}",
        passes.len(),
        jobs,
        tally.attempted,
        tally.failed
    );
    for (name, Metric { value, unit }) in metrics {
        let note = if NON_EXACT.contains(&name.as_str()) {
            "  (non-exact: varies run to run)"
        } else {
            ""
        };
        let _ = writeln!(text, "{name:<36} {value:>18.6} {unit}{note}");
    }

    let mut json = String::from("{\n  \"schema\": \"sofibench.result/v1\",\n");
    for (k, v) in &meta {
        let _ = writeln!(
            json,
            "  {}: {},",
            stats::json_string(k),
            stats::json_string(v)
        );
    }
    let _ = writeln!(
        json,
        "  \"attempted\": {},\n  \"failed\": {},\n  \"failed_frac\": {},",
        tally.attempted,
        tally.failed,
        stats::json_number(failed_frac)
    );
    let _ = writeln!(
        json,
        "  \"non_exact\": [{}],",
        NON_EXACT.map(stats::json_string).join(", ")
    );
    let _ = writeln!(json, "  \"metrics\": {},", metrics_json(metrics));
    let samples: Vec<String> = passes
        .iter()
        .map(|p| {
            format!(
                "{{\"setup_s\": {}, \"run_s\": {}, \"experiments\": {}, \"sim_cycles\": {}, \"peak_rss_mb\": {}, \"jobs\": {}, \"traced\": {}}}",
                stats::json_number(p.setup_s),
                stats::json_number(p.run_s),
                p.experiments,
                p.sim_cycles,
                stats::json_number(p.peak_rss_mb),
                p.job_s.len(),
                !p.layers.is_empty()
            )
        })
        .collect();
    let _ = writeln!(json, "  \"passes\": [{}]\n}}", samples.join(", "));
    Report { text, json }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn every_reported_name_is_valid_and_listed_in_benchmark_json() {
        for name in END_TO_END.iter().map(|(n, _)| *n).chain(PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let listed = BENCHMARK_JSON
            .split("\"workloads\"")
            .nth(1)
            .and_then(|rest| rest.split("\"end_to_end\"").next())
            .expect("BENCHMARK.json lists workloads");
        for entry in listed.split("\"name\": \"").skip(1) {
            let name = entry.split('"').next().unwrap();
            assert!(Workload::parse(name).is_some(), "unknown workload {name}");
        }
        for name in NON_EXACT {
            assert!(PER_LAYER.contains(&name));
            assert!(PER_LAYER.contains(&format!("{name}.iqr_frac").as_str()));
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload cf-scan --seed 3 --seconds 10 --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::CfScan, 3, 10.0, true)
        );
        assert!(parse_args(&v("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&v("--workload sweep --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&v("--workload sweep --seed 1")).is_err());
        assert!(parse_args(&v("--gen-reference")).unwrap().is_none());
    }
}
