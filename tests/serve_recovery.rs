//! Crash-recovery proof for the serve journal: a daemon killed
//! mid-campaign (after N journal commits) is restarted on the same
//! journal and must produce a merged result bit-identical to an
//! uninterrupted run — no duplicated experiment ids, none dropped, and
//! only the uncovered tail re-executed.
//!
//! the "kill" is the coordinator's `crash_after_commits` hook: after N
//! batch commits the workers stop dead — no end record, no state
//! update, the journal left exactly as `kill -9` would leave it (the
//! in-flight batch is lost). Threads can't be killed mid-instruction in
//! safe Rust, but every observable artifact of the crash (the journal
//! file) is identical, and recovery only ever sees the journal.

use sofi_campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi_isa::assemble_text;
use sofi_serve::{Coordinator, JobSpec, JobState, ServeConfig, SubmitOutcome};
use std::collections::HashSet;
use std::path::PathBuf;

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

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sofi-recovery-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn spec(domain: FaultDomain) -> JobSpec {
    JobSpec {
        name: "hi".into(),
        source: PROG.into(),
        domain,
        config: CampaignConfig::default(),
        warm_store: true,
    }
}

/// Kills a daemon after `crash_after` batch commits, restarts on the
/// same journal, and checks the resumed job's merged result against an
/// uninterrupted in-process run.
fn crash_and_recover(domain: FaultDomain, batch_size: usize, crash_after: u64, tag: &str) {
    let journal = temp_journal(tag);

    // Reference: the uninterrupted run.
    let program = assemble_text("hi", PROG).unwrap();
    let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
    let expected = campaign.run_full_defuse_in(domain);
    let total = expected.results.len();
    let committed = batch_size * crash_after as usize;
    assert!(
        committed + batch_size < total,
        "scenario must crash mid-campaign: {committed}+{batch_size} vs {total}"
    );

    // First incarnation: dies after `crash_after` journal commits.
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size,
            crash_after_commits: Some(crash_after),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(spec(domain)) else {
        panic!("fresh daemon refused the job");
    };
    sched.wait_idle(); // returns once the crash hook fires
    assert!(sched.crashed(), "crash hook never fired");
    let status = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Running, "died mid-flight");
    assert_eq!(
        status.done as usize, committed,
        "exactly the committed batches count as done"
    );
    assert!(sched.result(job).is_none());
    drop(sched); // "kill": nothing further reaches the journal

    // Second incarnation: same journal path, no crash hook. Recovery
    // re-queues the interrupted job automatically — no resubmission.
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let replayed = sched.status(Some(job)).unwrap().remove(0);
    assert!(
        replayed.done as usize >= committed,
        "journal replay lost commits: {} < {committed}",
        replayed.done
    );
    sched.wait_idle();

    let status = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Done, "{}", status.error);
    let (result, stats) = sched.result(job).unwrap();

    // The merged (replayed + re-run) result is bit-identical to the
    // uninterrupted run.
    assert_eq!(result, expected);

    // No duplicated or dropped experiment ids.
    let ids: Vec<u32> = result.results.iter().map(|r| r.experiment.id).collect();
    let unique: HashSet<u32> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "duplicated experiment ids");
    let expected_ids: HashSet<u32> = expected.results.iter().map(|r| r.experiment.id).collect();
    assert_eq!(unique, expected_ids, "dropped/invented experiment ids");

    // The second incarnation re-ran only the uncovered tail.
    assert_eq!(
        stats.experiments as usize,
        total - committed,
        "resume re-executed journaled experiments"
    );

    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn memory_campaign_resumes_after_crash() {
    // 16-experiment plan, batches of 4: crash with 8 committed, 8 to go.
    crash_and_recover(FaultDomain::Memory, 4, 2, "mem");
}

#[test]
fn register_campaign_resumes_after_crash() {
    // 128-experiment plan, batches of 8: crash with 24 committed.
    crash_and_recover(FaultDomain::RegisterFile, 8, 3, "reg");
}

#[test]
fn finished_jobs_survive_restart_as_terminal() {
    let journal = temp_journal("terminal");
    let sched = Coordinator::open(&journal, ServeConfig::default()).unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    sched.wait_idle();
    assert_eq!(
        sched.status(Some(job)).unwrap().remove(0).state,
        JobState::Done
    );
    drop(sched);

    // Restart: the job replays as Done with its full coverage count and
    // is NOT re-queued (no new experiments run).
    let sched = Coordinator::open(&journal, ServeConfig::default()).unwrap();
    let status = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.done, 16);
    sched.wait_idle(); // no queued work; returns immediately
    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_with_torn_tail_still_recovers() {
    let journal = temp_journal("torn");
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 4,
            crash_after_commits: Some(2),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    sched.wait_idle();
    drop(sched);

    // Simulate a torn write at the kill point: append half a record.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(&[0x44, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap();
    drop(f);

    let sched = Coordinator::open(&journal, ServeConfig::default()).unwrap();
    sched.wait_idle();
    let (result, _) = sched.result(job).unwrap();
    let program = assemble_text("hi", PROG).unwrap();
    let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
    assert_eq!(result, campaign.run_full_defuse_in(FaultDomain::Memory));
    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}
