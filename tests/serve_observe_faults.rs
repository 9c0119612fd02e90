//! Fault-plane regression for the observe path's apply-then-commit order.
//!
//! An `observe` is applied to the live surrogate first and committed to
//! the session checkpoint second; any failure rolls it back in memory.
//! Two consequences are pinned here:
//!
//! * an observation the surrogate rejects never reaches disk — no write is
//!   even attempted, so the live session and its checkpoint agree;
//! * a commit that fails after a successful apply leaves the surrogate
//!   exactly as a fresh replay of the checkpoint would build it.
//!
//! Every test here manipulates the process-global fault plane, so this
//! binary holds the exclusive chaos lock for the whole test and must not
//! share a binary with unguarded tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use alic::model::SurrogateSpec;
use alic::serve::protocol::MAX_SUGGEST;
use alic::serve::session::FIT_MIN;
use alic::serve::{ConnState, Engine, ServeConfig};
use alic::stats::fault::{self, injections, FaultPlan, FaultSite};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alic-observe-faults-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const NEWSESSION: &str = "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp";

const OBSERVES: [&str; 6] = [
    "observe 3,2 4.0",
    "observe 9,1 3.1",
    "observe 14,5 2.8",
    "observe 6,3 3.4",
    "observe 18,0 2.9",
    "observe 11,4 3.0",
];

fn gp_engine(dir: &Path) -> Engine {
    let mut config = ServeConfig::new(dir);
    config.default_model = SurrogateSpec::from_name("gp").unwrap();
    Engine::open(config).unwrap()
}

fn reply(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
    engine.handle_line(conn, line).reply.unwrap()
}

/// A new GP session with the first `n` observations acknowledged.
fn session_with(engine: &mut Engine, conn: &mut ConnState, n: usize) {
    assert_eq!(reply(engine, conn, NEWSESSION), "ok session s000000 dim 2");
    for line in &OBSERVES[..n] {
        let r = reply(engine, conn, line);
        assert!(r.starts_with("ok observed"), "{line:?} -> {r}");
    }
}

#[test]
fn rejected_observe_never_reaches_disk() {
    // Hold the exclusive chaos lock with the plane off; faults are armed
    // mid-test for exactly one request.
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("rejected");
    let mut engine = gp_engine(&dir);
    let mut conn = ConnState::new();
    session_with(&mut engine, &mut conn, FIT_MIN - 1);

    // The FIT_MIN-th observation triggers the first real fit, which jitter
    // exhaustion fails. Every write would fail too — but none may be
    // attempted: the rejected observation is rolled back before the
    // commit.
    fault::install(
        FaultPlan::new(11)
            .with_site(FaultSite::JitterExhaustion, 1.0, Some(1))
            .with_site(FaultSite::WriteIo, 1.0, None),
    );
    let r = reply(&mut engine, &mut conn, OBSERVES[FIT_MIN - 1]);
    assert!(r.starts_with("err model"), "{r}");
    assert_eq!(injections(FaultSite::JitterExhaustion), 1);
    assert_eq!(
        injections(FaultSite::WriteIo),
        0,
        "a rejected observation must not trigger a checkpoint write"
    );
    fault::deactivate();

    // The live session and a restarted engine agree on the durable log.
    let attach = format!("ok attached s000000 obs {}", FIT_MIN - 1);
    assert_eq!(reply(&mut engine, &mut conn, "attach s000000"), attach);
    drop(engine);
    let mut engine = gp_engine(&dir);
    let mut conn = ConnState::new();
    assert_eq!(reply(&mut engine, &mut conn, "attach s000000"), attach);

    // With the plane clean, the same observation is accepted on retry.
    assert_eq!(
        reply(&mut engine, &mut conn, OBSERVES[FIT_MIN - 1]),
        format!("ok observed {FIT_MIN}")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_commit_rolls_the_surrogate_back_to_the_checkpoint() {
    let _guard = fault::exclusive_clean();
    let dir = temp_dir("commit");
    let mut engine = gp_engine(&dir);
    let mut conn = ConnState::new();
    session_with(&mut engine, &mut conn, FIT_MIN + 1);

    // Past FIT_MIN the surrogate absorbs the observation incrementally;
    // then every checkpoint write runs out of space, so the commit fails
    // after the apply succeeded.
    fault::install(FaultPlan::new(23).with_site(FaultSite::Enospc, 1.0, None));
    let r = reply(&mut engine, &mut conn, OBSERVES[FIT_MIN + 1]);
    assert!(r.starts_with("err degraded"), "{r}");
    assert!(injections(FaultSite::Enospc) > 0);
    fault::deactivate();

    // Model-driven reads from the live session are byte-identical to a
    // fresh replay of the checkpoint: the surrogate forgot the
    // observation along with the log. The widest batch ranks the whole
    // candidate pool; a top 3 can survive one stray training point.
    let suggest_all = format!("suggest {MAX_SUGGEST}");
    let suggest = reply(&mut engine, &mut conn, &suggest_all);
    assert!(suggest.starts_with("ok suggest "), "{suggest}");
    let best = reply(&mut engine, &mut conn, "best");
    assert!(best.starts_with("ok best "), "{best}");

    let mut fresh = gp_engine(&dir);
    let mut fresh_conn = ConnState::new();
    assert_eq!(
        reply(&mut fresh, &mut fresh_conn, "attach s000000"),
        format!("ok attached s000000 obs {}", FIT_MIN + 1)
    );
    assert_eq!(reply(&mut fresh, &mut fresh_conn, &suggest_all), suggest);
    assert_eq!(reply(&mut fresh, &mut fresh_conn, "best"), best);
    drop(fresh);
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
