//! Process-crash explorer for the storage layer, after ALICE (Pillai et
//! al., OSDI 2014) and CrashMonkey (Mohan et al., OSDI 2018).
//!
//! A serve workload runs once while a [`store::record`] guard logs every
//! completed storage operation. The workload is `newsession`, three
//! observes, `checkpoint`, three more observes, a second `newsession` whose
//! checkpoint is then damaged, a restart, an `attach` that quarantines the
//! damaged session, an `attach` of the first one, and `drain`.
//!
//! The crash states are the directory after every prefix of that log, plus
//! every `append` cut at every byte of its payload, plus every `replace`
//! stopped before its rename with a stray tmp holding none, half or all of
//! its bytes. Each state is rebuilt in a fresh directory, opened with
//! [`Engine::open`], and every `<id>.json` in it is attached. Then:
//!
//! * nothing panics and no tmp file survives the open;
//! * no `err corrupt` comes back, except for the damaged session;
//! * the first session restores with the number of observations
//!   acknowledged before the crash, or one more (a kill between a journal
//!   append and its reply: the documented at-least-once window);
//! * its restored observations are a prefix of the workload's.
//!
//! This is the process-crash model — every completed operation reached the
//! operating system. Power loss, which can also drop or reorder completed
//! operations, is out of its scope.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use alic::core::store::{self, Op};
use alic::serve::{ConnState, Engine, ServeConfig, TuningSession};
use alic::sim::space::Configuration;
use alic::stats::fault;

const NEWSESSION: &str = "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp";
const OBSERVES: [&str; 6] = [
    "observe 3,2 4.0",
    "observe 9,1 3.1",
    "observe 14,5 2.8",
    "observe 6,3 3.4",
    "observe 18,0 2.9",
    "observe 11,4 3.0",
];
/// The session the workload builds its observations in.
const TUNED: &str = "s000000";
/// The session whose checkpoint the workload damages.
const DAMAGED: &str = "s000001";

/// Number of crash states the workload yields. The log is deterministic,
/// so the count is too; a change here means the write pattern changed.
const STATES: usize = 245;

/// A directory as the recorded operations leave it: relative path to bytes.
type Files = BTreeMap<PathBuf, Vec<u8>>;

/// The recorded run.
struct Workload {
    root: PathBuf,
    ops: Vec<Op>,
    /// For each acknowledged observe of [`TUNED`], the number of operations
    /// completed when its reply was written.
    acked_at: Vec<usize>,
    /// [`TUNED`]'s observations after the workload.
    observations: Vec<(Configuration, f64)>,
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alic-crash-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reply(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
    engine.handle_line(conn, line).reply.unwrap()
}

fn run_workload() -> Workload {
    let root = temp_dir("workload");
    let recording = store::record();
    let mut engine = Engine::open(ServeConfig::new(&root)).unwrap();
    let mut conn = ConnState::new();
    let mut acked_at = Vec::new();
    let expect = |engine: &mut Engine, conn: &mut ConnState, line: &str, want: &str| {
        let got = reply(engine, conn, line);
        assert!(got.starts_with(want), "{line:?} -> {got}");
    };
    expect(&mut engine, &mut conn, NEWSESSION, "ok session s000000");
    for (i, line) in OBSERVES.iter().enumerate() {
        if i == 3 {
            expect(&mut engine, &mut conn, "checkpoint", "ok checkpoint");
        }
        expect(&mut engine, &mut conn, line, "ok observed");
        acked_at.push(recording.ops().len());
    }
    expect(&mut engine, &mut conn, NEWSESSION, "ok session s000001");
    // Damage the second session's checkpoint, restart so that `attach`
    // reads it from disk, and bring the first one back before the drain.
    let damaged = root.join("sessions").join(format!("{DAMAGED}.json"));
    store::replace(&damaged, b"{damaged").unwrap();
    drop(engine);
    let mut engine = Engine::open(ServeConfig::new(&root)).unwrap();
    let mut conn = ConnState::new();
    expect(
        &mut engine,
        &mut conn,
        &format!("attach {DAMAGED}"),
        "err corrupt",
    );
    expect(
        &mut engine,
        &mut conn,
        &format!("attach {TUNED}"),
        "ok attached",
    );
    expect(&mut engine, &mut conn, "drain", "ok drained");
    let ops = recording.ops();
    drop(recording);
    let text = std::fs::read_to_string(root.join("sessions").join(format!("{TUNED}.json")));
    let observations = TuningSession::from_checkpoint_str(&text.unwrap())
        .unwrap()
        .log()
        .to_vec();
    assert_eq!(observations.len(), OBSERVES.len());
    Workload {
        root,
        ops,
        acked_at,
        observations,
    }
}

/// Applies one completed operation to `files`; `cut` keeps only that many
/// bytes of an append's payload.
fn apply(files: &mut Files, root: &Path, op: &Op, cut: Option<usize>) {
    let rel = |path: &Path| path.strip_prefix(root).unwrap().to_path_buf();
    match op {
        // A directory is made for each file in it; an empty one changes
        // nothing the engine reads.
        Op::CreateDir(_) => {}
        Op::Replace(path, _, bytes) => {
            files.insert(rel(path), bytes.clone());
        }
        Op::Append(path, at, bytes) => {
            let file = files.entry(rel(path)).or_default();
            file.resize(*at as usize, 0);
            file.extend_from_slice(&bytes[..cut.unwrap_or(bytes.len())]);
        }
        Op::Truncate(path, len) => {
            files.get_mut(&rel(path)).unwrap().truncate(*len as usize);
        }
        Op::Remove(path) => {
            files.remove(&rel(path));
        }
        Op::SetAside(path, to) => {
            let bytes = files.remove(&rel(path)).unwrap();
            files.insert(rel(to), bytes);
        }
    }
}

/// One crash state: a name for failure messages, the files it leaves, and
/// how many observes of [`TUNED`] were surely acknowledged before it.
struct CrashState {
    name: String,
    files: Files,
    acked: usize,
}

fn crash_states(workload: &Workload) -> Vec<CrashState> {
    let root = &workload.root;
    // Replies written before op `k` started: those with at most `k` ops
    // completed. A crash *between* ops `k - 1` and `k` may precede the
    // replies written there, so only those with fewer than `k` count.
    let acked_before = |k: usize| workload.acked_at.iter().filter(|&&at| at <= k).count();
    let acked_between = |k: usize| workload.acked_at.iter().filter(|&&at| at < k).count();
    let file = |op: &Op| match op {
        Op::Append(path, ..) | Op::Replace(path, ..) => {
            path.strip_prefix(root).unwrap().display().to_string()
        }
        _ => unreachable!("only appends and replaces are cut"),
    };
    let mut states = Vec::new();
    let mut files = Files::new();
    for (k, op) in workload.ops.iter().enumerate() {
        states.push(CrashState {
            name: format!("after {k} ops"),
            files: files.clone(),
            acked: acked_between(k),
        });
        match op {
            Op::Append(_, _, bytes) => {
                for cut in 0..bytes.len() {
                    let mut torn = files.clone();
                    apply(&mut torn, root, op, Some(cut));
                    states.push(CrashState {
                        name: format!("op {k} (append {}) cut at byte {cut}", file(op)),
                        files: torn,
                        acked: acked_before(k),
                    });
                }
            }
            Op::Replace(_, tmp, bytes) => {
                for kept in [0, bytes.len() / 2, bytes.len()] {
                    let mut stray = files.clone();
                    let rel = tmp.strip_prefix(root).unwrap().to_path_buf();
                    stray.insert(rel, bytes[..kept].to_vec());
                    states.push(CrashState {
                        name: format!(
                            "op {k} (replace {}) before its rename, tmp holds {kept} bytes",
                            file(op)
                        ),
                        files: stray,
                        acked: acked_before(k),
                    });
                }
            }
            _ => {}
        }
        apply(&mut files, root, op, None);
    }
    let n = workload.ops.len();
    states.push(CrashState {
        name: format!("after all {n} ops"),
        files,
        acked: acked_between(n),
    });
    states
}

/// Rebuilds `state` in `dir`, restarts the engine on it and checks it.
fn check(state: &CrashState, dir: &Path, workload: &Workload) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    for (rel, bytes) in &state.files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
    let opened = catch_unwind(AssertUnwindSafe(|| Engine::open(ServeConfig::new(dir))));
    let mut engine = match opened {
        Ok(Ok(engine)) => engine,
        Ok(Err(e)) => return Err(format!("open failed: {e}")),
        Err(_) => return Err("open panicked".to_string()),
    };
    let sessions = dir.join("sessions");
    let names = store::list(&sessions).unwrap();
    let mut all = names.clone();
    all.extend(store::list(dir).unwrap());
    if let Some(stray) = all.iter().find(|name| name.contains(".tmp-")) {
        return Err(format!("{stray} survived open"));
    }
    let mut ids: Vec<&str> = names
        .iter()
        .filter_map(|n| n.strip_suffix(".json"))
        .collect();
    if state.acked > 0 && !ids.contains(&TUNED) {
        ids.push(TUNED);
    }
    for id in ids {
        let mut conn = ConnState::new();
        let attached = catch_unwind(AssertUnwindSafe(|| {
            reply(&mut engine, &mut conn, &format!("attach {id}"))
        }))
        .map_err(|_| format!("attach {id} panicked"))?;
        if id == DAMAGED && attached.starts_with("err corrupt") {
            continue;
        }
        let count = attached
            .strip_prefix(&format!("ok attached {id} obs "))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| format!("attach {id} -> {attached}"))?;
        if id != TUNED {
            if count != 0 {
                return Err(format!("{id} restored {count} observations"));
            }
            continue;
        }
        if count != state.acked && count != state.acked + 1 {
            return Err(format!(
                "{id} restored {count} observations, {} acknowledged",
                state.acked
            ));
        }
        let checkpoint = std::fs::read_to_string(sessions.join(format!("{id}.json"))).unwrap();
        let journal = std::fs::read(sessions.join(format!("{id}.log"))).unwrap_or_default();
        let (session, _) = TuningSession::restore(&checkpoint, &journal)
            .map_err(|e| format!("{id} no longer restores: {}", e.render()))?;
        if session.log() != &workload.observations[..count] {
            return Err(format!("{id} restored {:?}", session.log()));
        }
    }
    Ok(())
}

#[test]
fn every_process_crash_state_restores_what_was_acknowledged() {
    let _clean = fault::exclusive_clean();
    let started = Instant::now();
    let workload = run_workload();
    let states = crash_states(&workload);
    let dir = temp_dir("state");
    let failures: Vec<String> = states
        .iter()
        .filter_map(|state| {
            check(state, &dir, &workload)
                .err()
                .map(|why| format!("{}: {why}", state.name))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert_eq!(states.len(), STATES);
    eprintln!(
        "{} crash states checked in {:.2}s",
        states.len(),
        started.elapsed().as_secs_f64()
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&workload.root).unwrap();
}
