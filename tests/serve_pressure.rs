//! Resource-pressure survival: the degradation ladder, the drain protocol,
//! and the unified retry policy under randomized ENOSPC/stall schedules.
//!
//! The capstone property: a session driven through random out-of-space and
//! stall injections — with a client that retries through every structured
//! `err` — settles every request to a reply **byte-identical** to the
//! fault-free run's, ends the run back in the `healthy` ladder state, and a
//! final `drain` reports the session with its checkpoint byte-identical to
//! the fault-free checkpoint. Replies under pressure are
//! thus a prefix-consistent degradation of the fault-free run: the shed
//! requests disappear, the settled ones are exactly the baseline's. Every
//! `err` on the way commits nothing: `attach` still reports the
//! acknowledged observation count and `sessions` the same listing.
//!
//! The deterministic tests below pin the individual mechanisms: ladder
//! transitions (healthy → shedding-writes → healthy), the exponential
//! `retry-after-ms` hint and its reset, a stall on each verb either
//! shedding with `err deadline` before it commits or replying `ok`, and a
//! drain whose compaction fails on a dead disk without losing an
//! observation.
//!
//! Every test manipulates the process-global fault plane, so each takes
//! the plane's exclusive guard.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use alic::serve::{ConnState, Engine, HealthState, ServeConfig};
use alic::stats::fault::{self, FaultPlan, FaultSite};
use alic::stats::policy;

/// Bounded-but-deeper retry depth: the chaos budgets below total far less,
/// so every settle loop terminates with the budgets spent at the latest.
const MAX_TRIES: usize = 96;

const NEWSESSION: &str = "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp";
const SID: &str = "s000000";

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alic-serve-pressure-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The pressure config: a short deadline so injected stalls overrun it
/// well within the test.
fn pressure_config(dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(dir);
    config.deadline = Duration::from_millis(50);
    config
}

/// The workload ends on an `observe`: its settled `ok` proves the ladder
/// re-admitted writes, i.e. the probe promoted the engine back to healthy.
fn workload() -> Vec<&'static str> {
    vec![
        "observe 3,2 4.0",
        "observe 9,1 3.1",
        "best",
        "observe 14,5 2.8",
        "suggest 2",
        "observe 6,3 3.4",
        "best",
        "observe 18,0 2.9",
    ]
}

/// Fault-free replies plus the fault-free final checkpoint bytes, computed
/// once under a clean (guarded) plane. Observes only append to the
/// session's journal, so the baseline compacts with `checkpoint` before it
/// reads the checkpoint.
fn baseline() -> &'static (Vec<String>, String) {
    static BASELINE: OnceLock<(Vec<String>, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let _guard = fault::exclusive_clean();
        let dir = temp_dir("baseline");
        let mut engine = Engine::open(pressure_config(&dir)).unwrap();
        let mut conn = ConnState::new();
        let reply = engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
        assert!(reply.starts_with("ok session s000000 "), "{reply}");
        let replies = workload()
            .iter()
            .map(|line| {
                let reply = engine.handle_line(&mut conn, line).reply.unwrap();
                assert!(reply.starts_with("ok "), "{line:?} -> {reply}");
                reply
            })
            .collect();
        let reply = engine.handle_line(&mut conn, "checkpoint").reply.unwrap();
        assert_eq!(reply, format!("ok checkpoint sessions/{SID}.json"));
        let checkpoint =
            std::fs::read_to_string(dir.join("sessions").join(format!("{SID}.json"))).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (replies, checkpoint)
    })
}

/// A pressure plan: out-of-space failures on the checkpoint writer and the
/// journal append at rate 1.0, so with budget >= 5 the first commits exhaust
/// `RetryPolicy::LEDGER`'s attempts and trip the ladder, while the tail of
/// the budget is silently absorbed by the retries; occasional fd
/// exhaustion; and a small stall budget (each stall sleeps 2x the
/// deadline, so rate and budget stay low to bound wall-clock).
fn pressure_plan(seed: u64, enospc: u64, stall: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_site(FaultSite::Enospc, 1.0, Some(enospc))
        .with_site(FaultSite::FdLimit, 0.2, Some(2))
        .with_site(FaultSite::Stall, 0.05, Some(stall))
}

/// The `sessions` listing, asked again through injected fd exhaustion
/// (the one `err` the listing itself can draw).
fn listing(engine: &mut Engine, conn: &mut ConnState) -> String {
    for _ in 0..MAX_TRIES {
        let reply = engine.handle_line(conn, "sessions").reply.unwrap();
        if !reply.starts_with("err io ") {
            return reply;
        }
    }
    panic!("`sessions` never answered under a budgeted plan")
}

/// Asserts that an `err` reply committed nothing: the session still holds
/// exactly the acknowledged observations and is still the only one listed.
fn assert_nothing_committed(engine: &mut Engine, conn: &mut ConnState, obs_done: usize) {
    let reply = engine.handle_line(conn, &format!("attach {SID}")).reply;
    assert_eq!(reply.unwrap(), format!("ok attached {SID} obs {obs_done}"));
    assert_eq!(listing(engine, conn), format!("ok sessions {SID}"));
}

/// Settles one workload line to its final `ok` reply. Every structured
/// `err` — degraded, deadline, io — is transient under a budgeted plan and
/// commits nothing, so the line is simply sent again.
fn settle(engine: &mut Engine, conn: &mut ConnState, line: &str, obs_done: &mut usize) -> String {
    for _ in 0..MAX_TRIES {
        let reply = engine.handle_line(conn, line).reply.unwrap();
        if reply.starts_with("ok ") {
            if line.starts_with("observe ") {
                *obs_done += 1;
            }
            return reply;
        }
        assert_nothing_committed(engine, conn, *obs_done);
    }
    panic!("{line:?} never settled under a budgeted plan")
}

/// Creates the workload's session, retrying through the pressure. A
/// refused `newsession` uses up no id, so the listing stays empty and the
/// retry mints `s000000`.
fn create_session(engine: &mut Engine, conn: &mut ConnState) {
    for _ in 0..MAX_TRIES {
        let reply = engine.handle_line(conn, NEWSESSION).reply.unwrap();
        if reply.starts_with("ok session ") {
            assert!(reply.starts_with("ok session s000000 "), "{reply}");
            return;
        }
        assert_eq!(listing(engine, conn), "ok sessions", "after {reply}");
    }
    panic!("newsession never settled under a budgeted plan")
}

proptest! {
    #[test]
    fn pressured_session_settles_to_baseline_and_drains_clean(
        chaos_seed in 0u64..1_000_000,
        enospc in 1u64..16,
        stall in 0u64..2,
    ) {
        // Baseline first: it takes the (non-reentrant) exclusive guard.
        let (base_replies, base_checkpoint) = baseline();
        let dir = temp_dir("pressure");
        let _guard = fault::exclusive(pressure_plan(chaos_seed, enospc, stall));

        let mut engine = Engine::open(pressure_config(&dir)).unwrap();
        let mut conn = ConnState::new();
        create_session(&mut engine, &mut conn);
        let mut obs_done = 0usize;
        for (i, line) in workload().iter().enumerate() {
            let reply = settle(&mut engine, &mut conn, line, &mut obs_done);
            prop_assert_eq!(&reply, &base_replies[i], "op {} ({:?}) diverged", i, line);
        }

        // The pressure subsides (leftover budget would otherwise stall or
        // shed the control verbs below); what the chaos already proved —
        // the byte-identical settled replies — stands.
        fault::deactivate();

        // The final settled observe was admitted, so the ladder is back at
        // healthy whatever it walked through in between.
        prop_assert_eq!(engine.health_state(), HealthState::Healthy);
        let health = engine.handle_line(&mut conn, "health").reply.unwrap();
        prop_assert!(health.starts_with("ok health state=healthy "), "{}", health);

        // Drain: every acknowledged observe is already durable; the drain
        // compacts the journal into the checkpoint and reports the one
        // resident session.
        let drained = engine.handle_line(&mut conn, "drain").reply.unwrap();
        prop_assert_eq!(drained.as_str(), "ok drained 1");
        // Draining is terminal: no new work, reads included.
        let shed = engine.handle_line(&mut conn, "observe 1,1 9.9").reply.unwrap();
        prop_assert!(shed.starts_with("err draining "), "{}", shed);
        let health = engine.handle_line(&mut conn, "health").reply.unwrap();
        prop_assert!(health.starts_with("ok health state=draining "), "{}", health);

        // Every acknowledged observe survived into the checkpoint, which is
        // byte-identical to the fault-free run's.
        let checkpoint =
            std::fs::read_to_string(dir.join("sessions").join(format!("{SID}.json"))).unwrap();
        prop_assert_eq!(&checkpoint, base_checkpoint);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Ladder transitions are observable through `health`, and the
/// `retry-after-ms` hint backs off exponentially across consecutive sheds
/// and resets after a successful admission (the satellite regression for
/// the unified `RetryPolicy::SERVE_HINT`).
#[test]
fn degraded_hints_back_off_and_reset_after_readmission() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("ladder");
    // Default config: the 2s deadline keeps cooperative shedding out of
    // this test's way.
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    let reply = engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    assert!(reply.starts_with("ok session "), "{reply}");
    assert_eq!(engine.health_state(), HealthState::Healthy);
    let sleeps_before = policy::sleeps();

    // Every write hits ENOSPC: the first observe's journal append exhausts
    // the ledger policy's 5 attempts and demotes the ladder to
    // shedding-writes.
    fault::install(FaultPlan::new(3).with_site(FaultSite::Enospc, 1.0, Some(1000)));
    let reply = engine
        .handle_line(&mut conn, "observe 3,2 4.0")
        .reply
        .unwrap();
    assert!(
        reply.starts_with("err degraded retry-after-ms 50 "),
        "{reply}"
    );
    assert_eq!(engine.health_state(), HealthState::SheddingWrites);
    assert!(
        policy::sleeps() > sleeps_before,
        "the unified retry policy never slept while ENOSPC was firing"
    );

    // While degraded (and the probe still failing), consecutive write
    // attempts shed with an exponentially backed-off hint...
    for expected in ["100", "200", "400"] {
        let reply = engine
            .handle_line(&mut conn, "observe 3,2 4.0")
            .reply
            .unwrap();
        let prefix = format!("err degraded retry-after-ms {expected} ");
        assert!(reply.starts_with(&prefix), "want {prefix:?}, got {reply}");
    }
    // ...while reads keep answering (no observation committed yet, so the
    // read is `suggest`, which needs none).
    let reply = engine.handle_line(&mut conn, "suggest 1").reply.unwrap();
    assert!(
        reply.starts_with("ok suggest "),
        "shedding-writes must serve reads: {reply}"
    );
    let health = engine.handle_line(&mut conn, "health").reply.unwrap();
    assert!(
        health.starts_with("ok health state=shedding-writes "),
        "{health}"
    );

    // Disk recovers: the next admission probe promotes back to healthy,
    // the observe goes through, and the hint streak resets.
    fault::deactivate();
    let reply = engine
        .handle_line(&mut conn, "observe 3,2 4.0")
        .reply
        .unwrap();
    assert_eq!(reply, "ok observed 1");
    assert_eq!(engine.health_state(), HealthState::Healthy);

    fault::install(FaultPlan::new(5).with_site(FaultSite::Enospc, 1.0, Some(1000)));
    let reply = engine
        .handle_line(&mut conn, "observe 9,1 3.1")
        .reply
        .unwrap();
    assert!(
        reply.starts_with("err degraded retry-after-ms 50 "),
        "hint streak must reset after a successful admission: {reply}"
    );
    fault::deactivate();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file under the serve directory's `sessions/`, by name.
fn session_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("sessions"))
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// A stall on each verb either sheds with `err deadline` before anything
/// commits — the disk and the session stay as they were — or replies `ok`.
/// Nothing judges a request after it returns.
#[test]
fn a_stalled_request_sheds_before_committing_or_replies_ok() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("stall");
    let mut config = pressure_config(&dir);
    config.deadline = Duration::from_millis(30);
    let mut engine = Engine::open(config).unwrap();
    let mut conn = ConnState::new();
    engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    for line in ["observe 3,2 4.0", "observe 9,1 3.1"] {
        let reply = engine.handle_line(&mut conn, line).reply.unwrap();
        assert!(reply.starts_with("ok observed "), "{reply}");
    }

    for (line, sheds) in [
        (NEWSESSION, true),
        ("attach s000000", false),
        ("observe 14,5 2.8", true),
        ("suggest 2", true),
        ("best", false),
        ("checkpoint", false),
    ] {
        let before = session_files(&dir);
        fault::install(FaultPlan::new(9).with_site(FaultSite::Stall, 1.0, Some(1)));
        let reply = engine.handle_line(&mut conn, line).reply.unwrap();
        assert_eq!(fault::injections(FaultSite::Stall), 1, "{line:?}");
        fault::deactivate();
        if sheds {
            assert!(reply.starts_with("err deadline "), "{line:?} -> {reply}");
            assert_eq!(session_files(&dir), before, "{line:?} changed the disk");
        } else {
            assert!(reply.starts_with("ok "), "{line:?} -> {reply}");
        }
        assert_nothing_committed(&mut engine, &mut conn, 2);
    }

    // The shed requests left the session attached and whole: the shed
    // observe goes through on its retry, and the next session is s000001.
    let reply = engine.handle_line(&mut conn, "observe 14,5 2.8").reply;
    assert_eq!(reply.unwrap(), "ok observed 3");
    let reply = engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    assert!(reply.starts_with("ok session s000001 "), "{reply}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A drain compacts each session's journal into its checkpoint. Under a
/// dead disk that compaction fails, and the drain still replies `ok drained
/// 1` without losing anything: the checkpoint and the journal stay as they
/// were, a restart restores the acknowledged observation from them, and
/// once the disk is back `quit` compacts.
#[test]
fn drain_under_a_dead_disk_keeps_the_journal() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("drain-dead-disk");
    let checkpoint = dir.join("sessions").join(format!("{SID}.json"));
    let journal = dir.join("sessions").join(format!("{SID}.log"));
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
    let created = std::fs::read(&checkpoint).unwrap();
    let reply = engine
        .handle_line(&mut conn, "observe 3,2 4.0")
        .reply
        .unwrap();
    assert_eq!(reply, "ok observed 1");
    let journaled = std::fs::read(&journal).unwrap();
    assert_eq!(journaled.iter().filter(|&&b| b == b'\n').count(), 1);

    fault::install(FaultPlan::new(13).with_site(FaultSite::Enospc, 1.0, None));
    let reply = engine.handle_line(&mut conn, "drain").reply.unwrap();
    assert_eq!(reply, "ok drained 1");
    assert!(
        fault::injections(FaultSite::Enospc) > 0,
        "drain never tried to compact"
    );
    fault::deactivate();
    assert_eq!(std::fs::read(&checkpoint).unwrap(), created);
    assert_eq!(std::fs::read(&journal).unwrap(), journaled);

    // Draining pins the ladder: recovery does not re-admit work.
    let reply = engine
        .handle_line(&mut conn, "observe 9,1 3.1")
        .reply
        .unwrap();
    assert!(reply.starts_with("err draining "), "{reply}");
    drop(engine);
    for _ in 0..2 {
        // The first restart replays the journal and its `quit` compacts;
        // the second restores from the compacted checkpoint alone.
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        let reply = engine
            .handle_line(&mut conn, &format!("attach {SID}"))
            .reply
            .unwrap();
        assert_eq!(reply, format!("ok attached {SID} obs 1"));
        assert_eq!(
            engine.handle_line(&mut conn, "quit").reply.unwrap(),
            "ok bye"
        );
        assert!(!journal.exists(), "quit left the journal behind");
        assert_ne!(std::fs::read(&checkpoint).unwrap(), created);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `fdlimit` site reaches the directory-scan path with a structured
/// reply, and `health` surfaces per-site injection counters.
#[test]
fn fdlimit_fails_sessions_scan_structurally_and_health_counts_it() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("fdlimit");
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();

    fault::install(FaultPlan::new(21).with_site(FaultSite::FdLimit, 1.0, Some(1)));
    let reply = engine.handle_line(&mut conn, "sessions").reply.unwrap();
    assert!(
        reply.starts_with("err io ") && reply.contains("file-descriptor exhaustion"),
        "{reply}"
    );
    let health = engine.handle_line(&mut conn, "health").reply.unwrap();
    assert!(health.contains("fdlimit:1"), "{health}");
    fault::deactivate();

    let reply = engine.handle_line(&mut conn, "sessions").reply.unwrap();
    assert_eq!(reply, format!("ok sessions {SID}"));
    std::fs::remove_dir_all(&dir).unwrap();
}
