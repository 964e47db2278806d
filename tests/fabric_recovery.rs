//! Chaos oracle for the distributed campaign fabric: workers die
//! holding leases, uploads arrive after their lease expired, duplicate
//! uploads land after a re-grant, and the coordinator itself is killed
//! mid-campaign and restarted over a torn journal tail. In every
//! scenario the merged result must stay **bit-identical** to a
//! single-process [`sofi_campaign::Campaign`] run of the same spec —
//! the fabric is allowed to lose time, never results.
//!
//! The closing sweep drives every workload in the suite × both fault
//! domains through a two-worker fabric and compares each merged result
//! against its in-process twin.

use sofi::workloads::all_baselines;
use sofi_campaign::{Campaign, CampaignConfig, CampaignResult, ExecutorStats, FaultDomain};
use sofi_isa::{assemble_text, Program};
use sofi_serve::{
    run_worker, Client, Coordinator, JobSpec, JobState, LeaseOffer, ServeConfig, Server,
    SubmitOutcome, UploadOutcome, WorkerConfig,
};
use sofi_telemetry::names;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const PROG: &str = "
    .data
    msg: .space 2
    .text
    li r1, 'H'
    sb r1, msg(r0)
    li r1, 'i'
    sb r1, msg+1(r0)
    lb r2, msg(r0)
    serial r2
    lb r2, msg+1(r0)
    serial r2
";

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sofi-fabric-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn hi_spec(domain: FaultDomain) -> JobSpec {
    JobSpec {
        name: "hi".into(),
        source: PROG.into(),
        domain,
        config: CampaignConfig::default(),
        warm_store: false,
    }
}

fn in_process(name: &str, source: &str, domain: FaultDomain) -> CampaignResult {
    let program = assemble_text(name, source).unwrap();
    let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
    campaign.run_full_defuse_in(domain)
}

/// Executes one granted shard exactly the way `run_worker` does, so
/// tests can play a hand-driven worker over the coordinator API.
fn execute_shard(
    spec: &JobSpec,
    experiments: &[sofi_space::Experiment],
) -> (Vec<sofi_campaign::ExperimentResult>, ExecutorStats) {
    let program = assemble_text(&spec.name, &spec.source).unwrap();
    let campaign = Campaign::with_config(&program, spec.config).unwrap();
    campaign.run_experiments_stats(spec.domain, experiments)
}

fn counter(snapshot: &sofi_telemetry::Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// A worker that dies abruptly while holding an uncommitted lease loses
/// only that lease: the coordinator re-queues the shard on expiry and
/// the campaign still completes bit-identically (here via the
/// no-live-worker local fallback of a `remote_only` coordinator).
#[test]
fn worker_killed_mid_shard_loses_only_its_lease() {
    let journal = temp_path("kill.journal");
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 8,
            lease_timeout: Duration::from_millis(300),
            remote_only: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let coord = server.coordinator().clone();
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // Start the chaos worker FIRST so the coordinator's no-live-worker
    // local fallback cannot race it to the shards: it grabs its first
    // lease and exits without executing or uploading anything — a hard
    // kill mid-shard.
    let doomed = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(&WorkerConfig {
                addr,
                name: "doomed".into(),
                poll_interval: Duration::from_millis(5),
                die_holding_lease_after: Some(0),
                ..WorkerConfig::default()
            })
            .unwrap()
        })
    };
    while !coord.workers().iter().any(|w| w.alive) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let SubmitOutcome::Accepted(id) = coord.submit(hi_spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    let report = doomed.join().unwrap();
    assert_eq!(report.shards, 0, "the doomed worker must not commit");

    coord.wait_idle();
    let status = coord.status(Some(id)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Done, "{}", status.error);
    let (result, _) = coord.result(id).unwrap();
    assert_eq!(
        result,
        in_process("hi", PROG, FaultDomain::Memory),
        "re-queued shard changed the merged result"
    );
    let snap = coord.telemetry_snapshot(None).unwrap();
    assert!(
        counter(&snap, names::LEASES_REQUEUED) >= 1,
        "dead worker's lease was never re-queued: {snap:?}"
    );
    assert!(counter(&snap, names::LEASES_GRANTED) >= 1);

    handle.shutdown();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
}

/// Over-the-wire idempotence: a worker that re-sends a committed shard
/// gets `Duplicate`, an upload under an expired lease gets `StaleLease`
/// (or `Duplicate` when the re-queued shard already re-committed), and
/// neither corrupts the merged result.
#[test]
fn duplicate_and_expired_uploads_are_rejected_over_the_wire() {
    let journal = temp_path("dup.journal");
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            // Small shards: the duplicate re-send below needs the job
            // still running (more shards pending) when it lands.
            workers: 1,
            batch_size: 4,
            lease_timeout: Duration::from_millis(250),
            remote_only: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let coord = server.coordinator().clone();
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // Register before submitting: the hand-driven worker must be the
    // live worker of record, or the local fallback races it to every
    // shard of this tiny campaign.
    let mut client = Client::connect(&addr).unwrap();
    let (worker, lease_ms) = client.register("hand-driven").unwrap();
    assert_eq!(lease_ms, 250);
    let SubmitOutcome::Accepted(id) = coord.submit(hi_spec(FaultDomain::Memory)) else {
        panic!("refused");
    };

    // First grant: execute, upload, then re-send the identical upload.
    let (lease, job, shard, spec, experiments) = loop {
        match client.request_lease(worker).unwrap() {
            LeaseOffer::Grant {
                lease,
                job,
                shard,
                spec,
                experiments,
            } => break (lease, job, shard, spec, experiments),
            LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let (results, stats) = execute_shard(&spec, &experiments);
    let first = client
        .upload(worker, lease, job, shard, results.clone(), stats)
        .unwrap();
    assert_eq!(first, UploadOutcome::Committed);
    let again = client
        .upload(worker, lease, job, shard, results, stats)
        .unwrap();
    assert_eq!(again, UploadOutcome::Duplicate, "re-send must deduplicate");

    // Second grant: sit on it past expiry without heartbeating, then
    // upload late. The coordinator must have re-queued it; by then the
    // local fallback may even have re-committed it.
    if let LeaseOffer::Grant {
        lease,
        job,
        shard,
        spec,
        experiments,
    } = client.request_lease(worker).unwrap()
    {
        let (results, stats) = execute_shard(&spec, &experiments);
        std::thread::sleep(Duration::from_millis(600));
        let late = client
            .upload(worker, lease, job, shard, results, stats)
            .unwrap();
        assert!(
            matches!(late, UploadOutcome::StaleLease | UploadOutcome::Duplicate),
            "late upload under an expired lease was {late:?}"
        );
    }

    coord.wait_idle();
    let (result, _) = coord.result(id).unwrap();
    assert_eq!(result, in_process("hi", PROG, FaultDomain::Memory));
    let snap = coord.telemetry_snapshot(None).unwrap();
    assert!(counter(&snap, names::UPLOADS_DUPLICATE) >= 1);

    handle.shutdown();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
}

/// Killing the coordinator mid-campaign — with a remote worker holding
/// committed *and* uncommitted leases, and a torn tail scribbled on the
/// journal — must still converge: the restarted coordinator replays the
/// valid prefix, re-runs only the uncovered tail, rejects uploads under
/// pre-crash leases, and finishes bit-identically.
#[test]
fn coordinator_restart_with_torn_tail_and_live_worker() {
    let journal = temp_path("restart.journal");
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 4,
            lease_timeout: Duration::from_millis(200),
            remote_only: true,
            crash_after_commits: Some(2),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Hand-driven remote worker (registered before the submit so the
    // local fallback stays out) commits shards until the coordinator
    // "crashes" (the journaled-commit kill hook fires mid-upload).
    let (worker, _) = sched.register("pre-crash");
    let SubmitOutcome::Accepted(id) = sched.submit(hi_spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    let mut stale_lease = 0u64;
    while !sched.crashed() {
        match sched.request_lease(worker) {
            LeaseOffer::Grant {
                lease,
                job,
                shard,
                spec,
                experiments,
            } => {
                let (results, stats) = execute_shard(&spec, &experiments);
                stale_lease = lease;
                let _ = sched.upload(worker, lease, job, shard, results, &stats);
            }
            LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(sched.crashed());
    drop(sched);

    // The kill may tear an in-flight journal append.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(&[0x2C, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF])
            .unwrap();
    }

    // Restart without the kill hook. The interrupted job resumes from
    // the journaled prefix; a worker from the *previous* incarnation
    // re-registers and keeps contributing shards.
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 4,
            lease_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // An upload under a pre-crash lease id must be rejected, not merged.
    let (worker, _) = sched.register("post-crash");
    let (results, stats) = execute_shard(
        &hi_spec(FaultDomain::Memory),
        &[sofi_space::Experiment {
            id: 0,
            coord: sofi_space::FaultCoord { cycle: 1, bit: 0 },
            weight: 1,
        }],
    );
    // Depending on whether journal replay has re-dispatched the job yet,
    // the rejection is typed StaleLease (job not Running / lease gone) or
    // Duplicate (shard 0's pre-crash commit replayed from the journal).
    // Either way it must not merge.
    let outcome = sched.upload(worker, stale_lease, id, 0, results, &stats);
    assert_ne!(
        outcome,
        UploadOutcome::Committed,
        "pre-crash lease survived the restart and merged"
    );
    // Service leases alongside the local drivers until the job closes.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut post_crash_commits = 0u64;
    loop {
        let status = sched.status(Some(id)).unwrap().remove(0);
        if status.state.is_terminal() {
            break;
        }
        assert!(Instant::now() < deadline, "restarted job never finished");
        match sched.request_lease(worker) {
            LeaseOffer::Grant {
                lease,
                job,
                shard,
                spec,
                experiments,
            } => {
                let (results, stats) = execute_shard(&spec, &experiments);
                if sched.upload(worker, lease, job, shard, results, &stats)
                    == UploadOutcome::Committed
                {
                    post_crash_commits += 1;
                }
            }
            LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let status = sched.status(Some(id)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Done, "{}", status.error);
    let (result, _) = sched.result(id).unwrap();
    assert_eq!(
        result,
        in_process("hi", PROG, FaultDomain::Memory),
        "restart + torn tail changed the merged result"
    );
    eprintln!("post-crash worker committed {post_crash_commits} shards");

    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}

/// The full-suite oracle: every workload × both fault domains through a
/// two-worker `remote_only` fabric, each merged result bit-identical to
/// its single-process twin, with both workers actually contributing.
#[test]
fn full_suite_on_two_workers_is_bit_identical() {
    let journal = temp_path("suite.journal");
    let programs: Vec<Program> = all_baselines();
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            batch_size: 256,
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

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let config = WorkerConfig {
                addr: addr.clone(),
                name: format!("suite-{i}"),
                poll_interval: Duration::from_millis(5),
                ..WorkerConfig::default()
            };
            std::thread::spawn(move || run_worker(&config).unwrap())
        })
        .collect();
    // Both workers must be registered before the first submission, or
    // the no-live-worker local fallback races them to the early shards
    // (and the exactly-once accounting below would under-count).
    while coord.workers().iter().filter(|w| w.alive).count() < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut jobs = Vec::new();
    for program in &programs {
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let spec = JobSpec {
                name: program.name.clone(),
                source: program.to_source(),
                domain,
                config: CampaignConfig::default(),
                warm_store: false,
            };
            let SubmitOutcome::Accepted(id) = coord.submit(spec) else {
                panic!("refused {}/{domain:?}", program.name);
            };
            jobs.push((program.name.clone(), program.to_source(), domain, id));
        }
    }
    coord.wait_idle();
    coord.begin_drain();
    let reports: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    for (name, source, domain, id) in &jobs {
        let status = coord.status(Some(*id)).unwrap().remove(0);
        assert_eq!(
            status.state,
            JobState::Done,
            "{name}/{domain:?}: {}",
            status.error
        );
        let (result, stats) = coord.result(*id).unwrap();
        assert_eq!(
            result,
            in_process(name, source, *domain),
            "{name}/{domain:?}: fabric result differs from in-process run"
        );
        assert_eq!(stats.experiments, result.results.len() as u64);
    }
    for report in &reports {
        assert!(
            report.shards > 0,
            "a worker sat out the whole sweep: {report:?}"
        );
        assert_eq!(report.stale, 0, "no lease should expire here: {report:?}");
    }
    let total: u64 = reports.iter().map(|r| r.experiments).sum();
    let expected: u64 = jobs
        .iter()
        .map(|(_, _, _, id)| coord.result(*id).unwrap().0.results.len() as u64)
        .sum();
    assert_eq!(
        total, expected,
        "remote workers must have executed every experiment exactly once"
    );
    eprintln!(
        "suite: {} jobs, worker shards {:?}",
        jobs.len(),
        reports.iter().map(|r| r.shards).collect::<Vec<_>>()
    );

    handle.shutdown();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
}
