//! The four workloads. Each pass sets up from scratch (timed as set-up),
//! runs its fixed job list in a seed-chosen order (timed as the run),
//! checks every result against the pinned reference, and tears down.
//! A traced pass additionally records spans around each layer call and
//! derives the per-layer metrics.

use crate::reference::{Reference, Tally};
use crate::spans::{layer_self_s, wall_s, Tracer};
use crate::stats::{put_first, Metrics};
use sofi_campaign::{Campaign, CampaignConfig, CampaignResult, ExecutorStats, FaultDomain};
use sofi_isa::Program;
use sofi_machine::{Machine, MachineConfig};
use sofi_rng::{Rng, SplitMix64};
use sofi_serve::wire::{put_campaign_result, take_campaign_result, Reader, Writer};
use sofi_serve::{
    run_worker, Client, ClientError, JobSpec, Journal, ServeConfig, Server, WarmStore, WorkerConfig,
};
use sofi_telemetry::{names, Snapshot};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 programs × {memory, register}: the paper's Figure 2.
    Sweep,
    /// 16 programs × the three control-flow domains.
    CfScan,
    /// 16 memory jobs through a remote-only daemon and leased workers.
    Fabric,
    /// 16 memory jobs submitted cold, then again warm, to a daemon with
    /// a warm store.
    WarmResubmit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::CfScan,
        Workload::Fabric,
        Workload::WarmResubmit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::CfScan => "cf-scan",
            Workload::Fabric => "fabric",
            Workload::WarmResubmit => "warm-resubmit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn domains(self) -> &'static [FaultDomain] {
        match self {
            Workload::Sweep => &[FaultDomain::Memory, FaultDomain::RegisterFile],
            Workload::CfScan => &[
                FaultDomain::InstrSkip,
                FaultDomain::OpcodeBit,
                FaultDomain::BranchInvert,
            ],
            Workload::Fabric | Workload::WarmResubmit => &[FaultDomain::Memory],
        }
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds from the start of the pass until the first experiment
    /// could run.
    pub setup_s: f64,
    /// Seconds of the run after set-up (teardown excluded).
    pub run_s: f64,
    /// Seconds of the run spent in the benchmark's own layer probes
    /// (traced passes only), excluded from the tracing-overhead figure.
    pub probe_s: f64,
    /// Experiments whose outcome was checked.
    pub experiments: u64,
    /// Client-observed seconds per job.
    pub job_s: Vec<f64>,
    pub tally: Tally,
    /// Per-layer metrics (traced passes only).
    pub layers: Metrics,
    /// Simulated cycles (pristine + faulted) over the pass's jobs.
    pub sim_cycles: u64,
    /// Peak resident set during the pass, in MB.
    pub peak_rss_mb: f64,
    /// Teardown still running; joined before the run ends.
    pub teardown: Option<std::thread::JoinHandle<()>>,
}

impl Pass {
    pub fn exp_per_s(&self) -> f64 {
        self.experiments as f64 / self.run_s
    }
}

/// Engine speed measured outside any campaign: each program's golden run
/// to halt, µop engine on and off.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpeed {
    pub block_ns_per_cycle: f64,
    pub step_ns_per_cycle: f64,
}

impl EngineSpeed {
    pub fn measure(programs: &[Program], min_s: f64) -> EngineSpeed {
        let per_cycle = |block_engine: bool| {
            let config = MachineConfig {
                block_engine,
                ..MachineConfig::default()
            };
            // Time only the runs: building a machine (ROM decode, RAM
            // allocation) is not per-cycle work.
            let (mut ns, mut cycles) = (0u128, 0u64);
            while ns < (min_s * 1e9) as u128 {
                for p in programs {
                    let mut m = Machine::with_config(p, config);
                    let start = Instant::now();
                    black_box(m.run(50_000_000));
                    ns += start.elapsed().as_nanos();
                    cycles += m.cycle();
                }
            }
            ns as f64 / cycles as f64
        };
        EngineSpeed {
            block_ns_per_cycle: per_cycle(true),
            step_ns_per_cycle: per_cycle(false),
        }
    }
}

/// Everything a pass needs besides the workload.
pub struct Ctx<'a> {
    pub reference: &'a Reference,
    pub tracer: &'a Tracer,
    pub engine: Option<EngineSpeed>,
    /// Directory for the passes' journals and stores (`.bench_out`).
    pub scratch: &'a Path,
    /// Fabric worker threads (`nproc`).
    pub workers: usize,
    /// Campaign threads of the in-process scans (`0`: the executor's
    /// default, the available parallelism).
    pub scan_threads: usize,
}

/// Runs one pass of `workload`; with `setup_only`, tears down right
/// after set-up (extra set-up samples).
pub fn run_pass(workload: Workload, ctx: &Ctx<'_>, rng: &mut SplitMix64, setup_only: bool) -> Pass {
    let request = ctx.tracer.begin_request();
    reset_peak_rss();
    let mut pass = ctx.tracer.span("bench.pass", || match workload {
        Workload::Sweep | Workload::CfScan => in_process(workload, ctx, rng, setup_only),
        Workload::Fabric | Workload::WarmResubmit => served(workload, ctx, rng, setup_only),
    });
    pass.peak_rss_mb = peak_rss_mb();
    if ctx.tracer.enabled() && !setup_only {
        let spans = ctx.tracer.spans();
        let layers = layer_self_s(&spans, request, "bench.pass");
        let wall = wall_s(&spans, request, "bench.pass");
        let accounted: f64 = layers
            .iter()
            .filter(|(l, _)| **l != "bench")
            .map(|(_, s)| s)
            .sum();
        put_first(
            &mut pass.layers,
            "bench.layer_closure_frac",
            accounted / wall,
            "frac",
        );
        if let Some(&s) = layers.get("lang") {
            put_first(&mut pass.layers, "lang.compile_s", s, "s");
        }
        if pass.probe_s > 0.0 {
            put_first(
                &mut pass.layers,
                "isa.parse_s",
                wall_s(&spans, request, "isa.parse"),
                "s",
            );
        }
        if let Some(e) = ctx.engine {
            put_first(
                &mut pass.layers,
                "machine.block_ns_per_cycle",
                e.block_ns_per_cycle,
                "ns",
            );
            put_first(
                &mut pass.layers,
                "machine.step_ns_per_cycle",
                e.step_ns_per_cycle,
                "ns",
            );
        }
    }
    pass
}

/// The 16 programs of `benchmark_pairs()` (baseline, hardened, ...) and
/// the pair names for the comparison.
fn programs(tracer: &Tracer) -> (Vec<Program>, Vec<(String, String)>) {
    let pairs = tracer.span("lang.compile", sofi_workloads::benchmark_pairs);
    let names = pairs
        .iter()
        .map(|(_, b, h)| (b.name.clone(), h.name.clone()))
        .collect();
    let programs = pairs.into_iter().flat_map(|(_, b, h)| [b, h]).collect();
    (programs, names)
}

/// The paper's comparison over every pair and domain: absolute failure
/// counts, `r` with its interval, and a Wilson interval on each
/// program's raw failure share.
fn compare(pairs: &[(String, String)], results: &HashMap<(String, FaultDomain), CampaignResult>) {
    for (b, h) in pairs {
        for d in FaultDomain::ALL {
            let (Some(rb), Some(rh)) = (results.get(&(b.clone(), d)), results.get(&(h.clone(), d)))
            else {
                continue;
            };
            let fb = sofi_metrics::exact_failures(rb);
            let fh = sofi_metrics::exact_failures(rh);
            if fb.failures > 0.0 {
                black_box(sofi_metrics::compare_failures(&fb, &fh));
            }
            for r in [rb, rh] {
                black_box(sofi_metrics::wilson_interval(
                    r.failure_raw(),
                    r.experiments_run().max(1),
                    0.95,
                ));
            }
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Campaign/machine layer metrics shared by every pass kind.
fn executor_layers(layers: &mut Metrics, stats: &ExecutorStats) {
    put_first(
        layers,
        "machine.sim_cycles",
        (stats.pristine_cycles + stats.faulted_cycles) as f64,
        "cycles",
    );
    put_first(
        layers,
        "campaign.early_term_rate",
        stats.early_termination_rate(),
        "frac",
    );
    put_first(
        layers,
        "campaign.memo_hit_rate",
        stats.memo_hit_rate(),
        "frac",
    );
    let shards = stats.gate_shards_on + stats.gate_shards_off;
    if shards > 0 {
        put_first(
            layers,
            "campaign.gate_off_frac",
            stats.gate_shards_off as f64 / shards as f64,
            "frac",
        );
    }
}

/// Layer metrics read from the executor's own telemetry.
fn telemetry_layers(layers: &mut Metrics, snap: &Snapshot, engine: Option<EngineSpeed>) {
    let block = snap.counter(names::BLOCK_CYCLES);
    let step = snap.counter(names::STEP_CYCLES);
    if block + step == 0 {
        return;
    }
    put_first(
        layers,
        "machine.block_cycle_frac",
        block as f64 / (block + step) as f64,
        "frac",
    );
    // The shard span exists where the executor drives a whole campaign
    // (in-process); the daemon runs and merges shards itself.
    if let Some(shard) = snap.histogram(names::SPAN_SHARD_NS).filter(|h| h.count > 0) {
        let shard_s = secs(shard.sum);
        put_first(layers, "campaign.shard_s", shard_s, "s");
        if let Some(e) = engine {
            let sim_s =
                (block as f64 * e.block_ns_per_cycle + step as f64 * e.step_ns_per_cycle) / 1e9;
            put_first(layers, "campaign.self_s", shard_s - sim_s, "s");
        }
    }
    // The merge span exists only where a scan was split across threads.
    if let Some(merge) = snap.histogram(names::SPAN_MERGE_NS).filter(|h| h.count > 0) {
        put_first(layers, "campaign.merge_s", secs(merge.sum), "s");
    }
    if let Some(h) = snap.histogram(names::RESTORE_DISTANCE_CYCLES) {
        put_first(layers, "campaign.restore_cycles", h.sum as f64, "cycles");
    }
    for (hist, metric) in [
        (names::MEMO_PROBE_NS, "campaign.memo_probe_ns_p50"),
        (names::DISPATCH_NS, "campaign.dispatch_ns_p50"),
    ] {
        if let Some(h) = snap.histogram(hist).filter(|h| h.count > 0) {
            put_first(layers, metric, h.quantile(0.5) as f64, "ns");
        }
    }
}

/// Sweep and cf-scan: in-process campaigns.
fn in_process(workload: Workload, ctx: &Ctx<'_>, rng: &mut SplitMix64, setup_only: bool) -> Pass {
    let tr = ctx.tracer;
    let traced = tr.enabled();
    let config = CampaignConfig {
        threads: ctx.scan_threads,
        telemetry: traced,
        ..CampaignConfig::default()
    };
    let domains = workload.domains();
    let setup = Instant::now();
    let (mut programs, pairs) = programs(tr);
    rng.shuffle(&mut programs);
    let mut golden_ns = 0;
    let mut defuse_ns = 0;
    let campaigns: Vec<Campaign> = programs
        .iter()
        .map(|p| {
            tr.span("campaign.prepare", || {
                let c = Campaign::with_config(p, config).expect("benchmark programs halt");
                if traced {
                    // The executor times golden capture and def/use
                    // pruning itself; record them as the children they
                    // were, ending where construction returned.
                    let snap = c.telemetry().snapshot();
                    let g = snap
                        .histogram(names::SPAN_GOLDEN_RUN_NS)
                        .map_or(0, |h| h.sum);
                    let d = snap.histogram(names::SPAN_DEFUSE_NS).map_or(0, |h| h.sum);
                    let now = tr.clock_ns();
                    tr.record("trace.golden", now.saturating_sub(d + g), g);
                    tr.record("space.defuse", now.saturating_sub(d), d);
                    golden_ns += g;
                    defuse_ns += d;
                }
                for &d in domains {
                    if matches!(d, FaultDomain::Memory | FaultDomain::RegisterFile) {
                        black_box(c.plan_for(d));
                    } else {
                        tr.span("space.cflow", || black_box(c.plan_for(d)));
                    }
                }
                c
            })
        })
        .collect();
    let setup_s = setup.elapsed().as_secs_f64();
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    if setup_only {
        return pass;
    }

    let run = Instant::now();
    let mut total = ExecutorStats::default();
    let mut results = HashMap::new();
    let mut check_s = 0.0;
    for c in &campaigns {
        for &d in domains {
            let job = Instant::now();
            let (result, stats) = tr.span("campaign.scan", || c.run_plan_stats(d, c.plan_for(d)));
            pass.job_s.push(job.elapsed().as_secs_f64());
            let check = Instant::now();
            pass.tally
                .add(tr.span("bench.check", || ctx.reference.check(&result)));
            check_s += check.elapsed().as_secs_f64();
            pass.experiments += result.results.len() as u64;
            pass.sim_cycles += stats.pristine_cycles + stats.faulted_cycles;
            total.absorb(&stats);
            results.insert((result.benchmark.clone(), d), result);
        }
    }
    tr.span("metrics.compare", || compare(&pairs, &results));
    // The reference check is the benchmark's own work, not the program's.
    pass.run_s = run.elapsed().as_secs_f64() - check_s;

    if traced {
        let l = &mut pass.layers;
        let spans = tr.spans();
        let sum = |name: &str| wall_s(&spans, tr.request(), name);
        put_first(l, "trace.golden_s", secs(golden_ns), "s");
        put_first(l, "space.defuse_s", secs(defuse_ns), "s");
        if domains
            .iter()
            .any(|d| !matches!(d, FaultDomain::Memory | FaultDomain::RegisterFile))
        {
            put_first(l, "space.cflow_s", sum("space.cflow"), "s");
        }
        put_first(l, "space.experiments", pass.experiments as f64, "count");
        put_first(l, "campaign.scan_s", sum("campaign.scan"), "s");
        put_first(l, "metrics.compare_s", sum("metrics.compare"), "s");
        executor_layers(l, &total);
        let mut snap = Snapshot::default();
        for c in &campaigns {
            snap.merge(&c.telemetry().snapshot());
        }
        telemetry_layers(l, &snap, ctx.engine);
    }
    pass
}

/// A running daemon with its threads.
struct Daemon {
    addr: String,
    coord: std::sync::Arc<sofi_serve::Coordinator>,
    handle: sofi_serve::ShutdownHandle,
    daemon: std::thread::JoinHandle<std::io::Result<()>>,
    workers: Vec<std::thread::JoinHandle<Result<sofi_serve::WorkerReport, ClientError>>>,
}

impl Daemon {
    fn start(tr: &Tracer, journal: &Path, config: ServeConfig, workers: usize) -> Daemon {
        let server = tr.span("serve.bind", || {
            Server::bind("127.0.0.1:0", journal, config).expect("daemon binds on 127.0.0.1")
        });
        let addr = server.local_addr().to_string();
        let coord = server.coordinator().clone();
        let handle = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run());
        let workers = tr.span("serve.register", || {
            let handles = (0..workers)
                .map(|i| {
                    let config = WorkerConfig {
                        addr: addr.clone(),
                        name: format!("bench-{i}"),
                        ..WorkerConfig::default()
                    };
                    std::thread::spawn(move || run_worker(&config))
                })
                .collect::<Vec<_>>();
            while coord.workers().iter().filter(|w| w.alive).count() < workers {
                std::thread::sleep(Duration::from_millis(1));
            }
            handles
        });
        Daemon {
            addr,
            coord,
            handle,
            daemon,
            workers,
        }
    }

    /// Drains, stops every thread and waits for each.
    fn stop(self) {
        self.coord.begin_drain();
        for w in self.workers {
            w.join()
                .expect("worker thread does not panic")
                .expect("worker exits cleanly on drain");
        }
        self.handle.shutdown();
        self.daemon
            .join()
            .expect("daemon thread does not panic")
            .expect("daemon drains cleanly");
    }
}

/// Fabric and warm-resubmit: jobs through an in-process daemon on
/// 127.0.0.1, one closed-loop client.
fn served(workload: Workload, ctx: &Ctx<'_>, rng: &mut SplitMix64, setup_only: bool) -> Pass {
    let tr = ctx.tracer;
    let traced = tr.enabled();
    let fabric = workload == Workload::Fabric;
    let dir = unique_dir(ctx.scratch);
    let journal = dir.join("journal");
    let store = dir.join("store");
    let job_config = CampaignConfig {
        threads: 1,
        telemetry: traced,
        ..CampaignConfig::default()
    };

    let setup = Instant::now();
    let (programs, pairs) = programs(tr);
    let mut jobs: Vec<(String, String)> = tr.span("isa.emit", || {
        programs
            .iter()
            .map(|p| (p.name.clone(), p.to_source()))
            .collect()
    });
    rng.shuffle(&mut jobs);
    let config = if fabric {
        ServeConfig {
            remote_only: true,
            ..ServeConfig::default()
        }
    } else {
        ServeConfig {
            warm_store: Some(store.clone()),
            ..ServeConfig::default()
        }
    };
    let daemon = Daemon::start(tr, &journal, config, if fabric { ctx.workers } else { 0 });
    let setup_s = setup.elapsed().as_secs_f64();
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    if setup_only {
        // Stopping waits for each worker's heartbeat thread, which
        // sleeps up to a third of the lease timeout: do it on a thread
        // of its own, joined before the run ends. No measured pass runs
        // after the set-up-only rounds.
        let dir = dir.clone();
        pass.teardown = Some(std::thread::spawn(move || {
            daemon.stop();
            let _ = std::fs::remove_dir_all(&dir);
        }));
        return pass;
    }

    let run = Instant::now();
    let mut client = Client::connect(&daemon.addr).expect("client connects to the daemon");
    let rounds = if fabric { 1 } else { 2 };
    let mut round_s = Vec::new();
    let mut stats_by_round = Vec::new();
    let mut rtt_s = Vec::new();
    let mut wire_s = 0.0;
    let mut results = HashMap::new();
    let mut check_s = 0.0;
    for _ in 0..rounds {
        let round = Instant::now();
        let round_check_s = check_s;
        let mut total = ExecutorStats::default();
        for (name, source) in &jobs {
            if traced {
                let probe = Instant::now();
                tr.span("serve.status", || black_box(client.status(None).ok()));
                rtt_s.push(probe.elapsed().as_secs_f64());
                tr.span("isa.parse", || {
                    black_box(sofi_isa::assemble_text(name, source).ok())
                });
                pass.probe_s += probe.elapsed().as_secs_f64();
            }
            let spec = JobSpec {
                name: name.clone(),
                source: source.clone(),
                domain: FaultDomain::Memory,
                config: job_config,
                warm_store: !fabric,
            };
            let job = Instant::now();
            let reply = tr.span("serve.job", || client.submit_wait(spec, |_, _, _| {}));
            pass.job_s.push(job.elapsed().as_secs_f64());
            match reply {
                Ok((_, result, stats)) => {
                    if traced {
                        let probe = Instant::now();
                        tr.span("serve.wire", || {
                            let mut w = Writer::new();
                            put_campaign_result(&mut w, &result);
                            let bytes = w.finish();
                            black_box(take_campaign_result(&mut Reader::new(&bytes)).ok());
                        });
                        let s = probe.elapsed().as_secs_f64();
                        wire_s += s;
                        pass.probe_s += s;
                    }
                    let check = Instant::now();
                    pass.tally
                        .add(tr.span("bench.check", || ctx.reference.check(&result)));
                    check_s += check.elapsed().as_secs_f64();
                    pass.experiments += result.results.len() as u64;
                    pass.sim_cycles += stats.pristine_cycles + stats.faulted_cycles;
                    total.absorb(&stats);
                    results.insert((result.benchmark.clone(), FaultDomain::Memory), result);
                }
                Err(e) => {
                    eprintln!("job {name} failed: {e}");
                    pass.tally
                        .add(ctx.reference.missing(name, FaultDomain::Memory));
                }
            }
        }
        round_s.push(round.elapsed().as_secs_f64() - (check_s - round_check_s));
        stats_by_round.push(total);
    }
    tr.span("metrics.compare", || compare(&pairs, &results));
    pass.run_s = run.elapsed().as_secs_f64() - check_s;
    let daemon_stats = if traced {
        client.stats(None).ok()
    } else {
        None
    };
    drop(client);
    daemon.stop();

    if traced {
        let exp_per_s = pass.exp_per_s();
        let l = &mut pass.layers;
        let mut all = ExecutorStats::default();
        for s in &stats_by_round {
            all.absorb(s);
        }
        put_first(l, "space.experiments", pass.experiments as f64, "count");
        executor_layers(l, &all);
        if let Some(snap) = &daemon_stats {
            telemetry_layers(l, snap, ctx.engine);
            if let Some(h) = snap
                .histogram(names::JOURNAL_FSYNC_NS)
                .filter(|h| h.count > 0)
            {
                put_first(
                    l,
                    "serve.journal.fsync_ns_p50",
                    h.quantile(0.5) as f64,
                    "ns",
                );
            }
            for (counter, metric) in [
                (names::BATCHES_COMMITTED, "serve.batches_committed"),
                (names::LEASES_GRANTED, "serve.leases_granted"),
                (names::HEARTBEATS, "serve.heartbeats"),
                (names::UPLOADS_STALE, "serve.uploads_stale"),
                (names::UPLOADS_DUPLICATE, "serve.uploads_duplicate"),
            ] {
                put_first(l, metric, snap.counter(counter) as f64, "count");
            }
            if !fabric {
                if let Some(h) = snap
                    .histogram(names::STORE_APPEND_NS)
                    .filter(|h| h.count > 0)
                {
                    put_first(l, "serve.store.append_ns_p50", h.quantile(0.5) as f64, "ns");
                }
            }
        }
        if let Some(rtt) = crate::stats::median(&rtt_s) {
            put_first(l, "serve.status_rtt_s", rtt, "s");
        }
        put_first(l, "serve.wire.result_s", wire_s, "s");
        let replay = Instant::now();
        let (j, records) = Journal::open(&journal).expect("journal reopens");
        black_box((&j, records.len()));
        put_first(
            l,
            "serve.journal.replay_s",
            replay.elapsed().as_secs_f64(),
            "s",
        );
        put_first(l, "serve.journal.bytes", file_len(&journal), "bytes");
        drop(j);
        if fabric {
            // Fabric efficiency: fabric exp/s over workers × in-process
            // single-thread exp/s on the same jobs.
            let start = Instant::now();
            let local = CampaignConfig {
                threads: 1,
                ..CampaignConfig::default()
            };
            let mut n = 0;
            for p in &programs {
                let c = Campaign::with_config(p, local).expect("benchmark programs halt");
                n += c.run_full_defuse_in(FaultDomain::Memory).results.len();
            }
            let single = n as f64 / start.elapsed().as_secs_f64();
            let workers = ctx.workers as f64;
            put_first(
                l,
                "serve.fabric_efficiency",
                exp_per_s / (workers * single),
                "frac",
            );
        } else {
            let warm = stats_by_round[1];
            put_first(l, "serve.store.cold_pass_s", round_s[0], "s");
            put_first(l, "serve.store.warm_pass_s", round_s[1], "s");
            put_first(
                l,
                "serve.store.hit_rate",
                warm.store_hits as f64 / warm.experiments.max(1) as f64,
                "frac",
            );
            let open = Instant::now();
            let s = WarmStore::open(&store).expect("warm store reopens");
            black_box(s.len());
            put_first(l, "serve.store.open_s", open.elapsed().as_secs_f64(), "s");
            put_first(l, "serve.store.bytes", file_len(&store), "bytes");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    pass
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so each pass reports its own peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0, |m| m.len()) as f64
}

/// A fresh directory under `scratch` for one pass's journal and store.
fn unique_dir(scratch: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = scratch.join(format!(
        "pass-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
