//! The serving layer's headline property: a tuning session driven through a
//! budgeted all-site chaos plan — torn checkpoint writes, transient I/O and
//! rename failures, injected request panics, jitter-ladder exhaustion,
//! dropped connections, short reads, torn replies — plus a SIGKILL and
//! restart at an arbitrary point, settles every request to a reply
//! **byte-identical** to the fault-free run's.
//!
//! The client driver here is the protocol's documented recovery recipe:
//!
//! * re-`attach` before each request — the reply's observation count
//!   reconciles the at-least-once window (an `observe` whose `ok` was lost
//!   after the durable commit is *settled*, not retried);
//! * retry on any structured `err` or broken connection — every fault is
//!   transient and budgeted, while the retry loop is bounded but deeper, so
//!   a bounded adversary is always out-lasted;
//! * `suggest` and `best` are pure functions of durable state (the suggest
//!   stream is keyed on the observation count), so their replies are
//!   byte-stable across retries, evictions, and restarts.
//!
//! The workload's lines are chosen so the short-read site's
//! half-truncation can never re-parse as a *valid mutating* command — a
//! torn request always draws a structured parse error instead of silently
//! committing something the baseline never saw.
//!
//! Every test takes the fault plane's process-wide exclusive guard: the
//! plane is global, and a plan installed for one test must never leak
//! injections into a concurrently running one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use alic::serve::chaos::{write_reply, ChaosLines};
use alic::serve::journal;
use alic::serve::{ConnState, Engine, ServeConfig};
use alic::stats::fault::{self, FaultPlan, FaultSite};

/// Bounded-but-deeper retry depth: total chaos budget across all sites is
/// far below this, so every loop below terminates with the fault budgets
/// spent at the latest.
const MAX_TRIES: usize = 64;

const NEWSESSION: &str = "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp";

#[derive(Debug, Clone, Copy)]
enum Op {
    Observe(&'static str),
    Suggest(usize),
    Best,
}

impl Op {
    fn line(&self) -> String {
        match self {
            // Every observe line stays under 22 bytes: its half-truncation
            // then never reaches three tokens, so a short read cannot forge
            // a different valid observation.
            Op::Observe(args) => format!("observe {args}"),
            Op::Suggest(k) => format!("suggest {k}"),
            Op::Best => "best".to_string(),
        }
    }
}

/// One session's workload: enough observations to fit and update the exact
/// GP (so the jitter-exhaustion site has a Cholesky ladder to break), with
/// pure reads interleaved at every stage.
fn workload() -> Vec<Op> {
    vec![
        Op::Observe("3,2 4.0"),
        Op::Observe("9,1 3.1"),
        Op::Best,
        Op::Observe("14,5 2.8"),
        Op::Observe("6,3 3.4"),
        Op::Suggest(2),
        Op::Best,
        Op::Observe("18,0 2.9"),
        Op::Suggest(3),
        Op::Observe("11,4 3.0"),
        Op::Best,
        Op::Suggest(1),
    ]
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alic-serve-resume-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fault-free reply per workload op, computed once under a clean
/// (guarded) plane.
fn baseline_replies() -> &'static [String] {
    static BASELINE: OnceLock<Vec<String>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let _guard = fault::exclusive_clean();
        let dir = temp_dir("baseline");
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        let reply = engine.handle_line(&mut conn, NEWSESSION).reply.unwrap();
        assert!(reply.starts_with("ok session s000000 "), "{reply}");
        let replies = workload()
            .iter()
            .map(|op| {
                let reply = engine.handle_line(&mut conn, &op.line()).reply.unwrap();
                assert!(reply.starts_with("ok "), "{:?} -> {reply}", op.line());
                reply
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        replies
    })
}

/// A chaos plan arming every site of the plane. The storage, compute, and
/// connection sites all fire on the serving path; the campaign-only sites
/// (eval errors, NaN observations) are armed for completeness and simply
/// never trigger here. All budgets are finite, so the retrying driver
/// always out-lasts the plan.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_site(FaultSite::WriteIo, 0.2, Some(2))
        .with_site(FaultSite::TornWrite, 0.2, Some(2))
        .with_site(FaultSite::RenameFail, 0.2, Some(2))
        .with_site(FaultSite::UnitPanic, 0.15, Some(2))
        .with_site(FaultSite::EvalError, 0.15, Some(2))
        .with_site(FaultSite::ObservationNan, 0.05, Some(2))
        .with_site(FaultSite::JitterExhaustion, 0.1, Some(2))
        .with_site(FaultSite::ConnDrop, 0.15, Some(3))
        .with_site(FaultSite::ShortRead, 0.15, Some(3))
        .with_site(FaultSite::TornReply, 0.15, Some(3))
}

/// One request over the chaotic wire; `None` is everything a real client
/// sees as a broken connection (request lost mid-line or reply torn).
fn wire_request(engine: &mut Engine, conn: &mut ConnState, line: &str) -> Option<String> {
    let framed = format!("{line}\n");
    let mut reader = ChaosLines::new(framed.as_bytes());
    let got = reader.next_line().expect("in-memory reads cannot fail")?;
    let reply = engine.handle_line(conn, &got).reply?;
    let mut out = Vec::new();
    match write_reply(&mut out, &reply) {
        Ok(()) => Some(String::from_utf8(out).unwrap().trim_end().to_string()),
        Err(_) => None,
    }
}

/// Creates the workload's session, retrying through the chaos. A lost
/// `newsession` reply is ambiguous (the commit happens before the ack), so
/// the driver probes the read-only `sessions` listing before retrying:
/// ids allocate densely from zero, so the first committed session is
/// always `s000000` and no duplicate is ever created.
fn create_session(engine: &mut Engine, conn: &mut ConnState) -> String {
    for _ in 0..MAX_TRIES {
        match wire_request(engine, conn, NEWSESSION) {
            Some(reply) if reply.starts_with("ok session ") => {
                return reply.split(' ').nth(2).unwrap().to_string();
            }
            // A structured error never commits a session: retry directly.
            Some(_) => continue,
            None => {
                for _ in 0..MAX_TRIES {
                    match wire_request(engine, conn, "sessions") {
                        Some(reply) if reply == "ok sessions" => break,
                        Some(reply) if reply.starts_with("ok sessions ") => {
                            return reply.split(' ').nth(2).unwrap().to_string();
                        }
                        _ => continue,
                    }
                }
            }
        }
    }
    panic!("newsession never settled under a budgeted plan")
}

/// Settles one workload op to its final `ok` reply, reconciling the
/// at-least-once window through `attach`'s observation count.
fn settle(
    engine: &mut Engine,
    conn: &mut ConnState,
    sid: &str,
    op: Op,
    obs_done: &mut usize,
) -> String {
    let attach = format!("attach {sid}");
    let prefix = format!("ok attached {sid} obs ");
    for _ in 0..MAX_TRIES {
        let Some(reply) = wire_request(engine, conn, &attach) else {
            continue;
        };
        let Some(rest) = reply.strip_prefix(prefix.as_str()) else {
            continue; // structured err (panic/io/degraded/...): retry
        };
        let durable: usize = rest.parse().unwrap();
        if matches!(op, Op::Observe(_)) && durable == *obs_done + 1 {
            // Committed but the ack was lost on the wire: settled. The
            // synthesized reply is exactly what the uninterrupted daemon
            // said, because the count is the whole payload.
            *obs_done += 1;
            return format!("ok observed {durable}");
        }
        assert_eq!(
            durable, *obs_done,
            "durable log diverged from the acknowledged prefix"
        );
        let Some(reply) = wire_request(engine, conn, &op.line()) else {
            continue;
        };
        if reply.starts_with("ok ") {
            if matches!(op, Op::Observe(_)) {
                *obs_done += 1;
            }
            return reply;
        }
        // Structured err — shed, panicked, model-rejected, or a short read
        // garbled the request into a parse error. All transient: retry.
    }
    panic!("{:?} never settled under a budgeted plan", op.line())
}

/// Drives the workload against a chaotic daemon, SIGKILLing (dropping the
/// engine with no shutdown handshake) and restarting before op `kill_at`,
/// and asserts every settled reply byte-identical to the baseline.
fn drive_chaotic(dir: &Path, kill_at: usize) {
    let mut engine = Engine::open(ServeConfig::new(dir)).unwrap();
    let mut conn = ConnState::new();
    let sid = create_session(&mut engine, &mut conn);
    assert_eq!(sid, "s000000");
    let baseline = baseline_replies();
    let mut obs_done = 0usize;
    for (i, op) in workload().iter().enumerate() {
        if i == kill_at {
            drop(engine);
            engine = Engine::open(ServeConfig::new(dir)).unwrap();
            conn = ConnState::new();
        }
        let reply = settle(&mut engine, &mut conn, &sid, *op, &mut obs_done);
        assert_eq!(reply, baseline[i], "op {i} ({:?}) diverged", op.line());
    }
}

proptest! {
    #[test]
    fn chaotic_killed_restarted_session_settles_to_baseline_replies(
        chaos_seed in 0u64..1_000_000,
        kill_at in 0usize..12,
    ) {
        // Baseline first: computing it takes the exclusive guard itself,
        // and the guard's mutex is not reentrant.
        let _ = baseline_replies();
        assert_eq!(workload().len(), 12);
        let dir = temp_dir("chaos");
        let _guard = fault::exclusive(chaos_plan(chaos_seed));
        drive_chaotic(&dir, kill_at);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn injected_faults_are_actually_firing_on_the_serving_path() {
    // Guard against a silently inert plane: with rates this high over the
    // workload, zero injections would mean the serving path is
    // disconnected from the chaos plane, and the byte-identity above
    // would be vacuous.
    let _ = baseline_replies();
    let dir = temp_dir("fire");
    let _guard = fault::exclusive(
        FaultPlan::new(7)
            .with_site(FaultSite::WriteIo, 0.5, Some(2))
            .with_site(FaultSite::UnitPanic, 0.3, Some(2))
            .with_site(FaultSite::TornReply, 0.3, Some(2)),
    );
    drive_chaotic(&dir, 6);
    let fired: u64 = FaultSite::ALL.iter().map(|&s| fault::injections(s)).sum();
    assert!(fired > 0, "no chaos site ever fired");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The stochastic model family survives the kill too: a dynatree session's
/// pure reads are byte-identical across a restart (the checkpoint replays
/// the observation log through the same seeded fit/update sequence, not a
/// serialized particle cloud).
#[test]
fn dynatree_session_restarts_bit_identically() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("dynatree");
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    let reply = engine
        .handle_line(
            &mut conn,
            "newsession mvt u:unroll:1:20,t:cache-tile:0:6 dynatree",
        )
        .reply
        .unwrap();
    assert!(reply.starts_with("ok session s000000 "), "{reply}");
    for op in workload() {
        if let Op::Observe(_) = op {
            let reply = engine.handle_line(&mut conn, &op.line()).reply.unwrap();
            assert!(reply.starts_with("ok observed "), "{reply}");
        }
    }
    let best = engine.handle_line(&mut conn, "best").reply.unwrap();
    let suggest = engine.handle_line(&mut conn, "suggest 4").reply.unwrap();
    drop(engine); // SIGKILL: no flush, no handshake.

    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    let reply = engine
        .handle_line(&mut conn, "attach s000000")
        .reply
        .unwrap();
    assert_eq!(reply, "ok attached s000000 obs 6");
    assert_eq!(engine.handle_line(&mut conn, "best").reply.unwrap(), best);
    assert_eq!(
        engine.handle_line(&mut conn, "suggest 4").reply.unwrap(),
        suggest
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// The session journal: `sessions/<id>.log`, one checksummed line per
// acknowledged observe, compacted into `sessions/<id>.json` by
// `checkpoint` (and by drain, quit, shutdown or EOF).

const JOURNAL_OBSERVES: [&str; 6] = [
    "observe 3,2 4.0",
    "observe 9,1 3.1",
    "observe 14,5 2.8",
    "observe 6,3 3.4",
    "observe 18,0 2.9",
    "observe 11,4 3.0",
];

/// The checkpoint and journal paths of `s000000` under `dir`.
fn session_files(dir: &Path) -> (PathBuf, PathBuf) {
    let sessions = dir.join("sessions");
    (sessions.join("s000000.json"), sessions.join("s000000.log"))
}

fn request(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
    engine.handle_line(conn, line).reply.unwrap()
}

fn ok(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
    let reply = request(engine, conn, line);
    assert!(reply.starts_with("ok "), "{line:?} -> {reply}");
    reply
}

/// A fresh engine on `dir` with `s000000` holding the first `n` journal
/// observes, none of them compacted.
fn journaled_session(dir: &Path, n: usize) -> (Engine, ConnState) {
    let mut engine = Engine::open(ServeConfig::new(dir)).unwrap();
    let mut conn = ConnState::new();
    ok(&mut engine, &mut conn, NEWSESSION);
    for line in &JOURNAL_OBSERVES[..n] {
        ok(&mut engine, &mut conn, line);
    }
    (engine, conn)
}

/// The compacted checkpoint of a session that observed only the first `k`
/// journal observes, for every `k`.
fn compacted_prefixes() -> Vec<Vec<u8>> {
    let dir = temp_dir("journal-prefixes");
    let (mut engine, mut conn) = journaled_session(&dir, 0);
    let (checkpoint, _) = session_files(&dir);
    let mut prefixes = vec![std::fs::read(&checkpoint).unwrap()];
    for line in JOURNAL_OBSERVES {
        ok(&mut engine, &mut conn, line);
        ok(&mut engine, &mut conn, "checkpoint");
        prefixes.push(std::fs::read(&checkpoint).unwrap());
    }
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
    prefixes
}

/// Attaches `s000000` in a restarted engine, asserts its observation
/// count, then compacts it and returns the checkpoint bytes.
fn attach_and_compact(dir: &Path, obs: usize) -> Vec<u8> {
    let mut engine = Engine::open(ServeConfig::new(dir)).unwrap();
    let mut conn = ConnState::new();
    assert_eq!(
        request(&mut engine, &mut conn, "attach s000000"),
        format!("ok attached s000000 obs {obs}")
    );
    ok(&mut engine, &mut conn, "checkpoint");
    let (checkpoint, journal) = session_files(dir);
    assert!(!journal.exists(), "checkpoint left the journal behind");
    std::fs::read(checkpoint).unwrap()
}

#[test]
fn each_observe_appends_one_line_and_leaves_the_checkpoint_alone() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("journal-append");
    let (mut engine, mut conn) = journaled_session(&dir, 0);
    let (checkpoint, journal) = session_files(&dir);
    let created = std::fs::read(&checkpoint).unwrap();
    let created_at = std::fs::metadata(&checkpoint).unwrap().modified().unwrap();
    assert!(!journal.exists());
    let mut lines = Vec::new();
    for (i, line) in JOURNAL_OBSERVES.iter().enumerate() {
        assert_eq!(
            request(&mut engine, &mut conn, line),
            format!("ok observed {}", i + 1)
        );
        let on_disk = std::fs::read(&journal).unwrap();
        let (grown, added) = on_disk.split_at(lines.len());
        assert_eq!(grown, &lines[..], "observe {} rewrote the journal", i + 1);
        let (index, _) = journal::parse_line(added).expect("one whole journal line");
        assert_eq!(index, i + 1);
        lines = on_disk;
        assert_eq!(std::fs::read(&checkpoint).unwrap(), created);
        let modified = std::fs::metadata(&checkpoint).unwrap().modified().unwrap();
        assert_eq!(
            modified,
            created_at,
            "observe {} rewrote the checkpoint",
            i + 1
        );
    }
    ok(&mut engine, &mut conn, "checkpoint");
    assert!(!journal.exists());
    assert_eq!(
        std::fs::read(&checkpoint).unwrap(),
        compacted_prefixes()[JOURNAL_OBSERVES.len()]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_cut_at_every_byte_recovers_the_whole_lines_before_the_cut() {
    let _guard = fault::exclusive_clean();
    let prefixes = compacted_prefixes();
    let source = temp_dir("journal-cut-source");
    let (engine, _) = journaled_session(&source, JOURNAL_OBSERVES.len());
    drop(engine); // killed: nothing compacted
    let (checkpoint, journal) = session_files(&source);
    let checkpoint = std::fs::read(checkpoint).unwrap();
    let journal = std::fs::read(journal).unwrap();
    for cut in 0..=journal.len() {
        let dir = temp_dir("journal-cut");
        std::fs::create_dir_all(dir.join("sessions")).unwrap();
        let (cut_checkpoint, cut_journal) = session_files(&dir);
        std::fs::write(&cut_checkpoint, &checkpoint).unwrap();
        std::fs::write(&cut_journal, &journal[..cut]).unwrap();
        let whole = journal[..cut].iter().filter(|&&b| b == b'\n').count();
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            request(&mut engine, &mut conn, "attach s000000"),
            format!("ok attached s000000 obs {whole}"),
            "cut at byte {cut}"
        );
        // The torn tail is gone before anything can append after it.
        let kept = std::fs::read(&cut_journal).unwrap();
        assert!(
            kept.is_empty() || kept.ends_with(b"\n"),
            "cut at byte {cut}"
        );
        assert_eq!(kept, journal[..kept.len()], "cut at byte {cut}");
        // A lone unterminated line is a killed append, cut silently.
        assert!(
            !dir.join("sessions").join("s000000.log.cut").exists(),
            "cut at byte {cut}"
        );
        drop(engine);
        assert_eq!(
            attach_and_compact(&dir, whole),
            prefixes[whole],
            "cut at byte {cut}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&source).unwrap();
}

#[test]
fn torn_append_is_never_acknowledged_and_the_next_observe_appends_cleanly() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("journal-torn");
    let (mut engine, mut conn) = journaled_session(&dir, 1);
    let (_, journal) = session_files(&dir);
    let before = std::fs::read(&journal).unwrap();

    // Every attempt of the append tears: the observe is refused and the
    // journal is back at its length before the append.
    fault::install(FaultPlan::new(31).with_site(FaultSite::TornWrite, 1.0, Some(5)));
    let reply = request(&mut engine, &mut conn, JOURNAL_OBSERVES[1]);
    assert!(reply.starts_with("err degraded "), "{reply}");
    assert_eq!(fault::injections(FaultSite::TornWrite), 5);
    assert_eq!(std::fs::read(&journal).unwrap(), before);
    fault::deactivate();
    assert_eq!(
        request(&mut engine, &mut conn, JOURNAL_OBSERVES[1]),
        "ok observed 2"
    );

    // Two torn attempts, then a clean one: acknowledged with one clean line.
    fault::install(FaultPlan::new(37).with_site(FaultSite::TornWrite, 1.0, Some(2)));
    assert_eq!(
        request(&mut engine, &mut conn, JOURNAL_OBSERVES[2]),
        "ok observed 3"
    );
    assert_eq!(fault::injections(FaultSite::TornWrite), 2);
    fault::deactivate();
    let on_disk = std::fs::read(&journal).unwrap();
    let indices: Vec<usize> = on_disk
        .split_inclusive(|&b| b == b'\n')
        .map(|line| journal::parse_line(line).expect("a whole line").0)
        .collect();
    assert_eq!(indices, [1, 2, 3]);
    drop(engine);
    assert_eq!(attach_and_compact(&dir, 3), compacted_prefixes()[3]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_between_compaction_and_journal_removal_loses_and_repeats_nothing() {
    let _guard = fault::exclusive_clean();
    let prefixes = compacted_prefixes();
    let dir = temp_dir("journal-stale");
    let (mut engine, mut conn) = journaled_session(&dir, 3);
    let (checkpoint, journal) = session_files(&dir);
    let stale = std::fs::read(&journal).unwrap();
    ok(&mut engine, &mut conn, "checkpoint");
    drop(engine);
    // The kill landed after the checkpoint's rename, before the removal.
    std::fs::write(&journal, &stale).unwrap();
    assert_eq!(std::fs::read(&checkpoint).unwrap(), prefixes[3]);
    assert_eq!(attach_and_compact(&dir, 3), prefixes[3]);

    // A session restored over stale lines appends after them, and a
    // second restart skips them again.
    std::fs::write(&journal, &stale).unwrap();
    let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
    let mut conn = ConnState::new();
    ok(&mut engine, &mut conn, "attach s000000");
    assert_eq!(
        request(&mut engine, &mut conn, JOURNAL_OBSERVES[3]),
        "ok observed 4"
    );
    drop(engine);
    assert_eq!(attach_and_compact(&dir, 4), prefixes[4]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_checksum_or_out_of_order_index_mid_journal_ends_recovery_there() {
    let _guard = fault::exclusive_clean();
    let prefixes = compacted_prefixes();
    let source = temp_dir("journal-damage-source");
    let (engine, _) = journaled_session(&source, 5);
    drop(engine);
    let (checkpoint, journal) = session_files(&source);
    let checkpoint = std::fs::read(checkpoint).unwrap();
    let journal = std::fs::read(journal).unwrap();
    let lines: Vec<&[u8]> = journal.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(lines.len(), 5);
    // Line 3's cost 2.8 becomes 2.9: a well-formed entry, a bad checksum.
    let flipped = String::from_utf8(lines[2].to_vec())
        .unwrap()
        .replacen("2.8", "2.9", 1);
    let cases: [(&str, Vec<&[u8]>); 3] = [
        (
            "bad checksum",
            vec![lines[0], lines[1], flipped.as_bytes(), lines[3], lines[4]],
        ),
        (
            "swapped lines",
            vec![lines[0], lines[1], lines[3], lines[2], lines[4]],
        ),
        (
            "repeated line",
            vec![lines[0], lines[1], lines[1], lines[2], lines[3]],
        ),
    ];
    for (label, damaged) in cases {
        let dir = temp_dir("journal-damage");
        std::fs::create_dir_all(dir.join("sessions")).unwrap();
        let (damaged_checkpoint, damaged_journal) = session_files(&dir);
        std::fs::write(&damaged_checkpoint, &checkpoint).unwrap();
        std::fs::write(&damaged_journal, damaged.concat()).unwrap();
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            request(&mut engine, &mut conn, "attach s000000"),
            "ok attached s000000 obs 2",
            "{label}"
        );
        assert_eq!(
            std::fs::read(&damaged_journal).unwrap(),
            [lines[0], lines[1]].concat(),
            "{label}: the tail from the damaged line on is truncated"
        );
        // The cut lines are kept, byte for byte, as evidence.
        let cut_lines = dir.join("sessions").join("s000000.log.cut");
        assert_eq!(
            std::fs::read(&cut_lines).unwrap(),
            damaged[2..].concat(),
            "{label}: the cut lines are kept"
        );
        drop(engine);
        // The same damage found again appends to the evidence.
        std::fs::write(&damaged_journal, damaged.concat()).unwrap();
        assert_eq!(attach_and_compact(&dir, 2), prefixes[2], "{label}");
        assert_eq!(
            std::fs::read(&cut_lines).unwrap(),
            [damaged[2..].concat(), damaged[2..].concat()].concat(),
            "{label}: a second cut appends"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&source).unwrap();
}
