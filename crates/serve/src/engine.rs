//! The request engine: session table, dispatch, durability, degradation.
//!
//! The engine is transport-agnostic — [`Engine::handle_line`] maps one
//! request line to one reply, and the stdin/TCP loops in [`crate::daemon`]
//! are thin shells around it. Its contracts:
//!
//! * **Replied ⇒ durable**: an `observe` is applied to the live surrogate
//!   and then committed as one verified line appended to the session's
//!   [journal] *before* the `ok` reply exists. Any failure
//!   rolls the observation back — the log entry is popped and the
//!   surrogate replayed from the remaining log — so a rejected observation
//!   never reaches disk and a resident session always equals its
//!   checkpoint plus journal. The replay is the one cost of
//!   this order: a commit that fails after a successful apply pays one
//!   `rebuild`, once per demotion, because `SheddingWrites` sheds later
//!   writes at admission. The converse of the guarantee does not hold — a
//!   kill between commit and reply can leave one acknowledged-looking
//!   observation on disk (at-least-once). Clients needing exactly-once
//!   re-`attach` and compare the reported observation count before
//!   retrying an unacknowledged `observe`. "Durable" means written to the
//!   operating system: neither file is fsynced, so the bytes survive a
//!   killed daemon but not a power loss.
//! * **One storage layer**: every file the engine writes, removes, cuts or
//!   quarantines goes through [`alic_core::store`], the layer the campaign
//!   ledger and the warm store use too. A damaged session is set aside to
//!   `<id>.json.corrupt` (`.corrupt.N` beside earlier evidence), and
//!   [`Engine::open`] sweeps the tmp files a kill during a checkpoint or
//!   probe write leaves behind.
//! * **Compaction**: `<id>.json` is written whole, with
//!   [`store::replace_verified`], only at `newsession`, at the `checkpoint`
//!   verb and when the engine drains, quits, shuts down or reaches EOF
//!   ([`Engine::flush_all`]). Each compaction then removes `<id>.log`, so
//!   an `observe` writes one line whatever the session's length.
//! * **Panic isolation**: dispatch runs under `catch_unwind`; a panicking
//!   request detaches the connection's live session (its on-disk
//!   checkpoint is unaffected) and yields `err panic`, like
//!   `heal_campaign` quarantines a panicking work unit.
//! * **Deadlines**: requests check a per-request deadline at safe points,
//!   before anything commits (`newsession`, `observe`) or after pure reads
//!   (`suggest`), and shed with `err deadline`. So within one process
//!   `ok` means the request committed and `err` means nothing did.
//! * **Bounded residency**: at most `max_live` sessions are resident;
//!   attaching one more evicts the least-recently-used session. Every
//!   resident session is already durable, so eviction never writes and
//!   never fails.
//! * **The degradation ladder** ([`HealthState`]): a failing checkpoint
//!   write or journal append moves the engine from `Healthy` to
//!   `SheddingWrites` (writes shed with `err degraded retry-after-ms
//!   <hint>`, the hint backing off exponentially via
//!   [`RetryPolicy::SERVE_HINT`]; reads still served).
//!   A successful probe write promotes it back to `Healthy`
//!   automatically. `Draining` is terminal: nothing new is admitted. The
//!   `health` verb reports the state plus per-site injection and retry
//!   counters; `drain` reports one [`DrainSummary`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use alic_core::store;
use alic_core::warmstore::{WarmKey, WarmStore};
use alic_model::spec::SurrogateSpec;
use alic_sim::space::ParameterSpace;
use alic_stats::fault::{inject, injections, FaultSite};
use alic_stats::policy::{self, RetryPolicy};
use alic_stats::rng::derive_seed2;

use crate::journal;
use crate::protocol::{
    self, code, format_config, format_cost, sanitize, ErrReply, Request, MAX_LINE_BYTES,
};
use crate::session::{TuningSession, WarmStart};

/// Subdirectory of the serve directory holding each session's checkpoint
/// (`<id>.json`) and journal (`<id>.log`).
pub const SESSIONS_DIR: &str = "sessions";

/// Default bound on resident live sessions.
pub const DEFAULT_MAX_LIVE: usize = 8;

/// Default per-request deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_millis(2_000);

/// The largest session number: ids are `s` plus exactly six digits.
const MAX_SESSION_ID: u64 = 999_999;

/// Relative path (under the serve directory) of the ladder's probe file:
/// one successful atomic write there proves the disk admits writes again.
pub const PROBE_FILE: &str = ".health-probe";

/// RNG stream label under which per-session seeds derive from the daemon
/// seed.
const STREAM_SESSION_SEED: u64 = 0x5e55;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the checkpoint directory (`<dir>/sessions/<id>.json`, with
    /// the journal `<id>.log` next to it).
    pub dir: PathBuf,
    /// Surrogate family for sessions that do not name one.
    pub default_model: SurrogateSpec,
    /// Base seed; per-session seeds derive from it and are checkpointed, so
    /// restarts (even with a different base seed) keep existing sessions'
    /// streams.
    pub seed: u64,
    /// Bound on resident live sessions before LRU eviction kicks in.
    pub max_live: usize,
    /// Per-request deadline.
    pub deadline: Duration,
    /// Optional warm-start store path. `None` (the default) disables warm
    /// starts entirely — every reply stays byte-identical to a build
    /// without the store.
    pub warm_store: Option<PathBuf>,
    /// Noise-regime label namespacing warm-store keys, so surrogates
    /// trained under an incompatible featurization (e.g. campaign
    /// normalizers) never seed serve sessions.
    pub noise_regime: String,
}

impl ServeConfig {
    /// A default-configured engine rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            default_model: SurrogateSpec::default(),
            seed: 0,
            max_live: DEFAULT_MAX_LIVE,
            deadline: DEFAULT_DEADLINE,
            warm_store: None,
            noise_regime: "default".to_string(),
        }
    }
}

/// The engine's position on the degradation ladder.
///
/// A failed checkpoint write or journal append demotes `Healthy` to
/// `SheddingWrites`; a successful probe write promotes straight back.
/// Nothing leaves `Draining`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// All verbs served.
    Healthy,
    /// Checkpoint writes are failing: mutating verbs are shed with
    /// `err degraded retry-after-ms`, reads are still served from memory.
    SheddingWrites,
    /// Terminal: no new work is admitted.
    Draining,
}

impl HealthState {
    /// The wire label reported by the `health` verb.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::SheddingWrites => "shedding-writes",
            HealthState::Draining => "draining",
        }
    }
}

/// Result of draining or shutting down the engine — the one summary shared
/// by the `drain` verb and the transport loop's exit path. Sessions are
/// durable whenever they are acknowledged, so there is nothing per-session
/// to report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Sessions resident when the summary was taken.
    pub sessions: usize,
    /// Error from persisting the warm store, if any (advisory: warm-store
    /// damage never fails a drain).
    pub warm_store_error: Option<String>,
}

impl DrainSummary {
    /// The one-line form: `drained <n> [warm-store=failed]`.
    pub fn render(&self) -> String {
        let mut out = format!("drained {}", self.sessions);
        if self.warm_store_error.is_some() {
            out.push_str(" warm-store=failed");
        }
        out
    }
}

/// What the transport loop should do after writing the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep reading requests.
    Continue,
    /// Close this connection (`quit`).
    CloseConnection,
    /// Stop the whole daemon (`shutdown`).
    ShutdownDaemon,
}

/// One handled request: the reply line (if any) and the follow-up action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Reply line without trailing newline; `None` for blank input.
    pub reply: Option<String>,
    /// Transport follow-up.
    pub action: Action,
}

impl Response {
    fn text(reply: String, action: Action) -> Self {
        Response {
            reply: Some(reply),
            action,
        }
    }
}

/// Per-connection state: which session the connection is talking to.
#[derive(Debug, Clone, Default)]
pub struct ConnState {
    current: Option<String>,
}

impl ConnState {
    /// A fresh connection attached to nothing.
    pub fn new() -> Self {
        ConnState::default()
    }
}

#[derive(Debug)]
struct LiveEntry {
    session: TuningSession,
    last_touch: u64,
    /// Verified length of the session's journal: 0 when the checkpoint
    /// holds every observation and no journal file is left.
    journal_len: u64,
}

/// The daemon's core: a bounded table of live sessions over a checkpoint
/// directory.
#[derive(Debug)]
pub struct Engine {
    config: ServeConfig,
    live: BTreeMap<String, LiveEntry>,
    clock: u64,
    next_id: u64,
    /// Consecutive shed replies; nonzero only while not `Healthy`, since
    /// the promoting probe resets it.
    shed_streak: u32,
    warm: Option<WarmStore>,
    state: HealthState,
}

impl Engine {
    /// Opens (creating if necessary) the serve directory, sweeps the tmp
    /// files a killed checkpoint or probe write left in it, and scans every
    /// `sNNNNNN.*` file so new session ids never collide with old ones: a
    /// journal whose checkpoint is gone must not extend a new session, and
    /// a quarantined id is not minted again.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created, swept or
    /// scanned.
    pub fn open(config: ServeConfig) -> Result<Engine, String> {
        let sessions = config.dir.join(SESSIONS_DIR);
        store::create_dir(&sessions)
            .map_err(|e| format!("cannot create {}: {e}", sessions.display()))?;
        for dir in [&config.dir, &sessions] {
            store::sweep(dir).map_err(|e| format!("cannot sweep {}: {e}", dir.display()))?;
        }
        let next_id = store::list(&sessions)
            .map_err(|e| format!("cannot scan {}: {e}", sessions.display()))?
            .iter()
            .filter_map(|name| {
                let (id, _) = name.split_once('.')?;
                protocol::parse_session_id(id).ok()?[1..]
                    .parse::<u64>()
                    .ok()
            })
            .map(|n| n + 1)
            .max()
            .unwrap_or(0);
        // A corrupt store quarantines inside `open` and comes back empty,
        // so warm-start damage can never fail daemon startup.
        let warm = config.warm_store.as_deref().map(WarmStore::open);
        Ok(Engine {
            config,
            live: BTreeMap::new(),
            clock: 0,
            next_id,
            shed_streak: 0,
            warm,
            state: HealthState::Healthy,
        })
    }

    /// The engine's current position on the degradation ladder.
    pub fn health_state(&self) -> HealthState {
        self.state
    }

    /// Warm-store hit/miss/store counters (`None` when disabled).
    fn warm_counters(&self) -> Option<(u64, u64, u64)> {
        self.warm
            .as_ref()
            .map(|w| (w.hits(), w.misses(), w.stores()))
    }

    /// Number of currently resident live sessions.
    #[cfg(test)]
    fn live_sessions(&self) -> usize {
        self.live.len()
    }

    fn sessions_dir(&self) -> PathBuf {
        self.config.dir.join(SESSIONS_DIR)
    }

    /// The checkpoint and journal paths of session `id`.
    fn session_files(&self, id: &str) -> (PathBuf, PathBuf) {
        session_files(&self.sessions_dir(), id)
    }

    /// Handles one raw input line and returns the reply plus transport
    /// action. Never panics: parsing is total and dispatch runs under
    /// `catch_unwind`.
    pub fn handle_line(&mut self, conn: &mut ConnState, line: &str) -> Response {
        // Length first, so whether a line is refused depends on its length
        // alone: the transports keep only the first `MAX_LINE_BYTES + 1`
        // bytes of a longer line, which must be refused whatever they hold.
        if line.len() > MAX_LINE_BYTES {
            return Response::text(
                ErrReply::new(code::PARSE, format!("line exceeds {MAX_LINE_BYTES} bytes")).render(),
                Action::Continue,
            );
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Response {
                reply: None,
                action: Action::Continue,
            };
        }
        let request = match protocol::parse_request(trimmed) {
            Ok(request) => request,
            Err(e) => return Response::text(e.render(), Action::Continue),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(conn, &request)));
        match outcome {
            Ok(Ok((reply, action))) => Response::text(reply, action),
            Ok(Err(e)) => Response::text(e.render(), Action::Continue),
            Err(payload) => {
                // The live state the panicking request touched is suspect;
                // detach it. The on-disk checkpoint is intact (an observe
                // commits only after its apply returned), so a re-attach
                // restores the session to its last durable state.
                if let Some(id) = conn.current.take() {
                    self.live.remove(&id);
                }
                Response::text(
                    ErrReply::new(
                        code::PANIC,
                        format!(
                            "request panicked ({}); session detached, re-attach to restore it",
                            sanitize(&panic_message(payload.as_ref()))
                        ),
                    )
                    .render(),
                    Action::Continue,
                )
            }
        }
    }

    fn dispatch(
        &mut self,
        conn: &mut ConnState,
        request: &Request,
    ) -> Result<(String, Action), ErrReply> {
        let started = Instant::now();
        // The chaos plane's panic site fires before any mutation, so an
        // injected panic is always clean: reply `err panic`, retry, heal.
        if inject(FaultSite::UnitPanic) {
            panic!("chaos: injected request panic");
        }
        // An injected stall sleeps past the deadline, so every cooperative
        // deadline check after it fires.
        if inject(FaultSite::Stall) {
            std::thread::sleep(self.config.deadline.mul_f64(2.0));
        }
        self.clock += 1;
        self.admit(request)?;
        let deadline = self.config.deadline;
        let over_deadline = || started.elapsed() > deadline;
        let deadline_err = || {
            ErrReply::new(
                code::DEADLINE,
                format!("request exceeded its {}ms deadline", deadline.as_millis()),
            )
        };
        match request {
            Request::NewSession {
                kernel,
                space,
                model,
            } => {
                let spec = match model {
                    None => self.config.default_model,
                    Some(name) => SurrogateSpec::from_name(name).ok_or_else(|| {
                        ErrReply::new(
                            code::BAD_MODEL,
                            format!(
                                "unknown model {:?} (known: {})",
                                sanitize(name),
                                SurrogateSpec::names().join(", ")
                            ),
                        )
                    })?,
                };
                // Ids are exactly six digits on the wire and on disk; a
                // seventh digit would mint an id no request can name.
                if self.next_id > MAX_SESSION_ID {
                    return Err(ErrReply::new(
                        code::INTERNAL,
                        format!("session ids exhausted (s{MAX_SESSION_ID} exists)"),
                    ));
                }
                // Last check before anything changes: past this point the
                // request evicts, probes the warm store and uses up an id.
                if over_deadline() {
                    return Err(deadline_err());
                }
                self.make_room();
                let id = format!("s{:06}", self.next_id);
                let seed = derive_seed2(self.config.seed, STREAM_SESSION_SEED, self.next_id);
                // Consult the warm store; a snapshot that fails to restore
                // degrades silently to a cold session.
                let session = self
                    .probe_warm(kernel, space, spec)
                    .and_then(|warm| {
                        TuningSession::new_warm(&id, kernel, space.clone(), spec, seed, warm).ok()
                    })
                    .unwrap_or_else(|| TuningSession::new(&id, kernel, space.clone(), spec, seed));
                let warm_obs = session.warm_observations();
                // Durable before acknowledged: the session exists on disk
                // before the client ever learns its id.
                let (checkpoint, _) = self.session_files(&id);
                if let Err(e) = checkpoint_session(&checkpoint, &session) {
                    return Err(self.degrade_write(e));
                }
                let dim = space.dimension();
                self.next_id += 1;
                self.live.insert(
                    id.clone(),
                    LiveEntry {
                        session,
                        last_touch: self.clock,
                        journal_len: 0,
                    },
                );
                conn.current = Some(id.clone());
                let reply = match warm_obs {
                    Some(n) => format!("ok session {id} dim {dim} warm {n}"),
                    None => format!("ok session {id} dim {dim}"),
                };
                Ok((reply, Action::Continue))
            }
            Request::Attach { id } => {
                self.ensure_live(id)?;
                conn.current = Some(id.clone());
                let n = self.live_ref(id)?.session.observations();
                Ok((format!("ok attached {id} obs {n}"), Action::Continue))
            }
            Request::Suggest { count } => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                let entry = self.live_mut(&id)?;
                let configs = entry.session.suggest(*count).map_err(model_err)?;
                // Reads are side-effect free; shedding after the work is
                // done still protects the *connection's* latency budget.
                if over_deadline() {
                    return Err(deadline_err());
                }
                let mut reply = String::from("ok suggest");
                for c in &configs {
                    reply.push(' ');
                    reply.push_str(&format_config(c));
                }
                Ok((reply, Action::Continue))
            }
            Request::Observe { config, cost } => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                // Validate everything and check the deadline *before* the
                // mutation: past this point the request always commits or
                // rolls back, never half-happens.
                self.live_ref(&id)?
                    .session
                    .space()
                    .validate(config)
                    .map_err(|e| ErrReply::new(code::BAD_CONFIG, e.to_string()))?;
                if over_deadline() {
                    return Err(deadline_err());
                }
                let (_, log) = self.session_files(&id);
                let entry = self.live_mut(&id)?;
                entry.session.record(config.clone(), *cost);
                // Apply, then commit: the disk only ever sees an
                // observation the surrogate accepted.
                let failure = match entry.session.apply_last() {
                    Err(e) => model_err(e),
                    Ok(()) => match commit(&log, entry) {
                        Ok(()) => {
                            let n = entry.session.observations();
                            return Ok((format!("ok observed {n}"), Action::Continue));
                        }
                        // A failing commit write is the ladder's entry
                        // point: demote and shed with a backoff hint.
                        Err(e) => self.degrade_write(e),
                    },
                };
                // One rollback for every failure: drop the observation and
                // replay the surrogate from the durable log. A surrogate
                // that will not rebuild leaves the table, so the next
                // attach replays the unchanged checkpoint.
                let entry = self.live_mut(&id)?;
                entry.session.unrecord();
                if entry.session.rebuild().is_err() {
                    self.live.remove(&id);
                }
                Err(failure)
            }
            Request::Best => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                let entry = self.live_ref(&id)?;
                match entry.session.best() {
                    Some((config, cost)) => Ok((
                        format!("ok best {} {}", format_config(config), format_cost(cost)),
                        Action::Continue,
                    )),
                    None => Err(ErrReply::new(code::EMPTY, "no observations recorded yet")),
                }
            }
            Request::Checkpoint => {
                let id = attached(conn)?;
                self.ensure_live(&id)?;
                let (checkpoint, log) = self.session_files(&id);
                match compact(&checkpoint, &log, self.live_mut(&id)?) {
                    Ok(()) => Ok((
                        format!("ok checkpoint {SESSIONS_DIR}/{id}.json"),
                        Action::Continue,
                    )),
                    Err(e) => Err(self.degrade_write(e)),
                }
            }
            Request::Sessions => {
                if inject(FaultSite::FdLimit) {
                    return Err(ErrReply::new(
                        code::IO,
                        "scanning sessions: chaos injected file-descriptor exhaustion",
                    ));
                }
                let mut ids: std::collections::BTreeSet<String> =
                    self.live.keys().cloned().collect();
                let names = store::list(&self.sessions_dir())
                    .map_err(|e| ErrReply::new(code::IO, format!("scanning sessions: {e}")))?;
                let checkpoints = names.iter().filter_map(|name| name.strip_suffix(".json"));
                ids.extend(
                    checkpoints
                        .filter(|id| protocol::parse_session_id(id).is_ok())
                        .map(str::to_string),
                );
                let mut reply = String::from("ok sessions");
                for id in ids {
                    reply.push(' ');
                    reply.push_str(&id);
                }
                Ok((reply, Action::Continue))
            }
            Request::Health => {
                let mut inj = String::new();
                for site in FaultSite::ALL {
                    let n = injections(site);
                    if n > 0 {
                        if !inj.is_empty() {
                            inj.push(',');
                        }
                        inj.push_str(site.name());
                        inj.push(':');
                        inj.push_str(&n.to_string());
                    }
                }
                if inj.is_empty() {
                    inj.push_str("none");
                }
                let warm = match self.warm_counters() {
                    Some((h, m, s)) => format!("{h}/{m}/{s}"),
                    None => "off".to_string(),
                };
                Ok((
                    format!(
                        "ok health state={} live={} shed-streak={} retry-sleeps={} inj={} warm={}",
                        self.state.label(),
                        self.live.len(),
                        self.shed_streak,
                        policy::sleeps(),
                        inj,
                        warm
                    ),
                    Action::Continue,
                ))
            }
            Request::Drain => {
                let summary = self.drain();
                Ok((format!("ok {}", summary.render()), Action::Continue))
            }
            Request::Quit => {
                let _ = self.flush_all();
                Ok(("ok bye".to_string(), Action::CloseConnection))
            }
            Request::Shutdown => {
                let _ = self.flush_all();
                Ok(("ok shutdown".to_string(), Action::ShutdownDaemon))
            }
        }
    }

    /// The ladder's admission gate: control verbs always pass; otherwise the
    /// current [`HealthState`] decides which verbs are shed. While degraded
    /// (but not draining), a probe write first attempts automatic promotion
    /// back to `Healthy`.
    fn admit(&mut self, request: &Request) -> Result<(), ErrReply> {
        if matches!(
            request,
            Request::Sessions
                | Request::Health
                | Request::Drain
                | Request::Quit
                | Request::Shutdown
        ) {
            return Ok(());
        }
        if self.state == HealthState::Draining {
            return Err(ErrReply::new(
                code::DRAINING,
                "daemon is draining; no new work is admitted",
            ));
        }
        if self.state == HealthState::Healthy {
            return Ok(());
        }
        // Shedding writes: one probe write may promote straight back.
        let probe = self.config.dir.join(PROBE_FILE);
        if store::replace(&probe, b"alic-serve health probe\n").is_ok() {
            self.state = HealthState::Healthy;
            self.shed_streak = 0;
            return Ok(());
        }
        match request {
            Request::NewSession { .. } | Request::Observe { .. } | Request::Checkpoint => Err(self
                .shed(
                    code::DEGRADED,
                    "shedding writes: checkpoint writes are failing; reads are still served",
                )),
            _ => Ok(()),
        }
    }

    /// Builds a load-shedding reply: bumps the shed streak and stamps the
    /// `retry-after-ms` hint from [`RetryPolicy::SERVE_HINT`], so the hint
    /// backs off exponentially while the condition persists and resets
    /// when the probe promotes the engine back to `Healthy`.
    fn shed(&mut self, code: &'static str, why: &str) -> ErrReply {
        self.shed_streak = self.shed_streak.saturating_add(1);
        let hint = RetryPolicy::SERVE_HINT.hint_ms(self.shed_streak);
        ErrReply::new(code, format!("retry-after-ms {hint} ({why})"))
    }

    /// A failed admission write (checkpoint commit) demotes to
    /// `SheddingWrites` and sheds with a `degraded` backoff hint carrying
    /// the underlying error.
    fn degrade_write(&mut self, e: ErrReply) -> ErrReply {
        if self.state == HealthState::Healthy {
            self.state = HealthState::SheddingWrites;
        }
        self.shed(code::DEGRADED, &e.msg)
    }

    fn internal_missing(id: &str) -> ErrReply {
        ErrReply::new(
            code::INTERNAL,
            format!(
                "session {id} expected resident but missing from the live table; \
                 re-attach to restore it"
            ),
        )
    }

    /// Graceful lookup of a session the dispatch path has already ensured
    /// live: a bookkeeping slip fails this one request with `err internal`
    /// instead of poisoning the session through a panic.
    fn live_ref(&self, id: &str) -> Result<&LiveEntry, ErrReply> {
        self.live.get(id).ok_or_else(|| Self::internal_missing(id))
    }

    /// Mutable sibling of [`Engine::live_ref`].
    fn live_mut(&mut self, id: &str) -> Result<&mut LiveEntry, ErrReply> {
        self.live
            .get_mut(id)
            .ok_or_else(|| Self::internal_missing(id))
    }

    /// Makes `id` resident: a no-op when live, otherwise a restore of its
    /// checkpoint and journal (with LRU eviction to make room). A torn
    /// journal tail is truncated here, before anything can append to it.
    fn ensure_live(&mut self, id: &str) -> Result<(), ErrReply> {
        if !self.live.contains_key(id) {
            let (path, log) = self.session_files(id);
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(ErrReply::new(
                        code::UNKNOWN_SESSION,
                        format!("no session {id} (see `sessions`)"),
                    ));
                }
                Err(e) => return Err(ErrReply::new(code::IO, format!("reading {id}: {e}"))),
            };
            let journal = match std::fs::read(&log) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => {
                    return Err(ErrReply::new(
                        code::IO,
                        format!("reading the journal of {id}: {e}"),
                    ))
                }
            };
            let (session, valid) = match TuningSession::restore(&text, &journal) {
                Ok(restored) => restored,
                Err(e) if e.code == code::CORRUPT => {
                    // Preserve the evidence and report structured
                    // corruption; the id is gone until re-created.
                    let aside = quarantine_session(&path, &log, id)?;
                    return Err(ErrReply::new(
                        code::CORRUPT,
                        format!(
                            "checkpoint of {id} was damaged and quarantined to {aside}: {}",
                            e.msg
                        ),
                    ));
                }
                Err(e) => return Err(e),
            };
            if session.id() != id {
                quarantine_session(&path, &log, id)?;
                return Err(ErrReply::new(
                    code::CORRUPT,
                    format!("checkpoint of {id} claims id {}; quarantined", session.id()),
                ));
            }
            if valid < journal.len() {
                keep_cut_lines(&log, &journal[valid..], id)?;
                store::truncate(&log, valid as u64).map_err(|e| {
                    ErrReply::new(
                        code::IO,
                        format!("truncating the torn journal tail of {id}: {e}"),
                    )
                })?;
            }
            self.make_room();
            self.live.insert(
                id.to_string(),
                LiveEntry {
                    session,
                    last_touch: self.clock,
                    journal_len: valid as u64,
                },
            );
        }
        self.live_mut(id)?.last_touch = self.clock;
        Ok(())
    }

    /// Evicts least-recently-used sessions until a slot is free. A
    /// resident session always equals its checkpoint plus journal, so
    /// eviction writes nothing and cannot fail.
    fn make_room(&mut self) {
        let cap = self.config.max_live.max(1);
        while self.live.len() >= cap {
            // Select the victim by reference — ties on `last_touch` break
            // to the lexicographically smallest id — and clone the one
            // winning id, not every id per comparison.
            let Some(victim) = self
                .live
                .iter()
                .min_by_key(|&(id, entry)| (entry.last_touch, id))
                .map(|(id, _)| id.clone())
            else {
                return;
            };
            // An evicted session's trained surrogate is exactly what the
            // warm store wants: harvest it as the entry leaves.
            if let Some(entry) = self.live.remove(&victim) {
                Self::harvest_warm(&mut self.warm, &self.config.noise_regime, &entry.session);
            }
        }
    }

    /// Builds the warm-store key for a session under this engine's noise
    /// regime.
    fn warm_key(noise: &str, kernel: &str, space: &ParameterSpace, spec: SurrogateSpec) -> WarmKey {
        WarmKey::new(kernel, space, spec.name(), noise)
    }

    /// Looks up a cached surrogate for a prospective session. `None` when
    /// the store is disabled or has no matching entry.
    fn probe_warm(
        &mut self,
        kernel: &str,
        space: &ParameterSpace,
        spec: SurrogateSpec,
    ) -> Option<WarmStart> {
        let store = self.warm.as_mut()?;
        let key = Self::warm_key(&self.config.noise_regime, kernel, space, spec);
        let entry = store.probe(&key)?;
        Some(WarmStart {
            snapshot: entry.model.clone(),
            observations: entry.observations,
        })
    }

    /// Offers a session's trained surrogate to the warm store (associated
    /// fn so callers can split the borrow of `self.warm` from `self.live`).
    fn harvest_warm(warm: &mut Option<WarmStore>, noise: &str, session: &TuningSession) {
        let Some(store) = warm.as_mut() else { return };
        let Some((depth, snapshot)) = session.model_snapshot() else {
            return;
        };
        let key = Self::warm_key(noise, session.kernel(), session.space(), session.spec());
        store.insert(&key, depth, snapshot);
    }

    /// The shutdown/EOF/quit/drain path: compacts every live session that
    /// has a journal, harvests every fitted live surrogate into the warm
    /// store, persists the store, and reports one [`DrainSummary`] — the
    /// drain verb and the transport loop render the same `drained <n>` line.
    ///
    /// Every session was durable when its last reply went out, so a
    /// compaction that fails loses nothing: the checkpoint and journal it
    /// leaves restore the same session. Compaction and warm-store
    /// failures are advisory; only the latter is carried in the summary.
    pub fn flush_all(&mut self) -> DrainSummary {
        let sessions = self.sessions_dir();
        for (id, entry) in &mut self.live {
            if entry.journal_len > 0 {
                let (checkpoint, log) = session_files(&sessions, id);
                let _ = compact(&checkpoint, &log, entry);
            }
        }
        let mut warm_store_error = None;
        if self.warm.is_some() {
            for entry in self.live.values() {
                Self::harvest_warm(&mut self.warm, &self.config.noise_regime, &entry.session);
            }
            if let Some(store) = &self.warm {
                if let Err(e) = store.save() {
                    warm_store_error =
                        Some(format!("saving warm store {}: {e}", store.path().display()));
                }
            }
        }
        DrainSummary {
            sessions: self.live.len(),
            warm_store_error,
        }
    }

    /// The drain protocol: stop admitting new work and report one
    /// [`DrainSummary`]. After this the ladder is pinned at
    /// [`HealthState::Draining`] — only `sessions`, `health`, `drain`,
    /// `quit` and `shutdown` keep answering.
    pub fn drain(&mut self) -> DrainSummary {
        self.state = HealthState::Draining;
        self.flush_all()
    }
}

fn attached(conn: &ConnState) -> Result<String, ErrReply> {
    conn.current.clone().ok_or_else(|| {
        ErrReply::new(
            code::NO_SESSION,
            "no session attached (newsession or attach first)",
        )
    })
}

fn model_err(e: alic_model::ModelError) -> ErrReply {
    ErrReply::new(code::MODEL, e.to_string())
}

/// `<sessions>/<id>.json` and `<sessions>/<id>.log`: a session's
/// checkpoint and journal.
fn session_files(sessions: &Path, id: &str) -> (PathBuf, PathBuf) {
    (
        sessions.join(format!("{id}.json")),
        sessions.join(format!("{id}.log")),
    )
}

/// Writes one whole session checkpoint with [`store::replace_verified`].
///
/// Verification matters more here than in the campaign ledger: a torn unit
/// record heals by deterministic re-execution, but a session checkpoint is
/// the only copy of client-provided observations — a torn write that went
/// undetected would surface later as quarantined (lost) state. The
/// verified writer turns it into a structured, retryable error instead.
fn checkpoint_session(path: &Path, session: &TuningSession) -> Result<(), ErrReply> {
    let text = session.to_checkpoint_string()?;
    store::replace_verified(path, text.as_bytes())
        .map_err(|e| ErrReply::new(code::IO, format!("checkpointing {}: {e}", session.id())))
}

/// Commits a session's last recorded observation: one line appended to its
/// journal, read back before this returns.
fn commit(log: &Path, entry: &mut LiveEntry) -> Result<(), ErrReply> {
    let session = &entry.session;
    let line = journal::line(session.observations(), session.last_entry()?);
    entry.journal_len = store::append(log, entry.journal_len, line.as_bytes())
        .map_err(|e| ErrReply::new(code::IO, format!("journaling {}: {e}", session.id())))?;
    Ok(())
}

/// Compacts a session: writes its whole checkpoint, which then holds every
/// journaled observation, and removes the journal. A kill between the two
/// steps leaves journal lines the checkpoint already holds, which restore
/// skips.
fn compact(checkpoint: &Path, log: &Path, entry: &mut LiveEntry) -> Result<(), ErrReply> {
    checkpoint_session(checkpoint, &entry.session)?;
    store::remove(log).map_err(|e| {
        ErrReply::new(
            code::IO,
            format!("removing the journal of {}: {e}", entry.session.id()),
        )
    })?;
    entry.journal_len = 0;
    Ok(())
}

/// Appends the journal bytes recovery is about to cut to `<id>.log.cut`
/// when they hold at least one whole line: a bad line mid-journal ends
/// recovery, and the acknowledged lines after it are evidence. A lone
/// unterminated line is what a killed append leaves behind; it is cut
/// silently.
fn keep_cut_lines(log: &Path, cut: &[u8], id: &str) -> Result<(), ErrReply> {
    if !cut.contains(&b'\n') {
        return Ok(());
    }
    let mut path = log.as_os_str().to_owned();
    path.push(".cut");
    let path = PathBuf::from(path);
    // The evidence so far; should its length be unreadable, so is the file,
    // and the append below fails instead of writing at 0.
    let at = std::fs::metadata(&path).map_or(0, |meta| meta.len());
    store::append(&path, at, cut).map_err(|e| {
        ErrReply::new(
            code::IO,
            format!("keeping the cut journal lines of {id}: {e}"),
        )
    })?;
    Ok(())
}

/// Moves a damaged session aside with [`store::set_aside`]: its checkpoint
/// to `<id>.json.corrupt` and its journal, if any, to `<id>.log.corrupt`
/// (`.corrupt.N` beside earlier evidence). Returns the checkpoint's new
/// file name.
fn quarantine_session(checkpoint: &Path, log: &Path, id: &str) -> Result<String, ErrReply> {
    let failed = |e: std::io::Error| ErrReply::new(code::IO, format!("quarantining {id}: {e}"));
    let aside = store::set_aside(checkpoint).map_err(failed)?;
    if log.exists() {
        store::set_aside(log).map_err(failed)?;
    }
    Ok(aside
        .file_name()
        .map_or_else(String::new, |name| name.to_string_lossy().into_owned()))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    fn temp_engine(label: &str) -> (Engine, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "alic-serve-engine-{label}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServeConfig::new(&dir);
        config.default_model = SurrogateSpec::from_name("gp").unwrap();
        (Engine::open(config).unwrap(), dir)
    }

    fn ok(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
        let response = engine.handle_line(conn, line);
        let reply = response.reply.expect("non-empty line yields a reply");
        assert!(reply.starts_with("ok "), "{line:?} -> {reply}");
        reply
    }

    fn err(engine: &mut Engine, conn: &mut ConnState, line: &str) -> String {
        let reply = engine.handle_line(conn, line).reply.unwrap();
        assert!(reply.starts_with("err "), "{line:?} -> {reply}");
        reply
    }

    #[test]
    fn full_session_lifecycle_over_the_wire() {
        let (mut engine, dir) = temp_engine("lifecycle");
        let mut conn = ConnState::new();
        let reply = ok(
            &mut engine,
            &mut conn,
            "newsession mvt u:unroll:1:9,t:cache-tile:0:5",
        );
        assert_eq!(reply, "ok session s000000 dim 2");
        assert!(dir.join(SESSIONS_DIR).join("s000000.json").exists());

        let suggest = ok(&mut engine, &mut conn, "suggest 2");
        assert_eq!(suggest.split_whitespace().count(), 4);
        ok(&mut engine, &mut conn, "observe 3,2 1.5");
        ok(&mut engine, &mut conn, "observe 4,1 1.25");
        assert_eq!(ok(&mut engine, &mut conn, "best"), "ok best 4,1 1.25");
        assert_eq!(
            ok(&mut engine, &mut conn, "checkpoint"),
            "ok checkpoint sessions/s000000.json"
        );
        assert_eq!(
            ok(&mut engine, &mut conn, "sessions"),
            "ok sessions s000000"
        );
        let response = engine.handle_line(&mut conn, "quit");
        assert_eq!(response.action, Action::CloseConnection);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn structured_errors_for_misuse() {
        let (mut engine, dir) = temp_engine("errors");
        let mut conn = ConnState::new();
        assert!(err(&mut engine, &mut conn, "best").starts_with("err no-session"));
        assert!(err(&mut engine, &mut conn, "attach s000009").starts_with("err unknown-session"));
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        assert!(err(&mut engine, &mut conn, "best").starts_with("err empty"));
        assert!(err(&mut engine, &mut conn, "observe 99 1.0").starts_with("err bad-config"));
        assert!(err(&mut engine, &mut conn, "observe 3,3 1.0").starts_with("err bad-config"));
        assert!(
            err(&mut engine, &mut conn, "newsession mvt u:unroll bogusmodel")
                .starts_with("err bad-model")
        );
        assert!(
            err(&mut engine, &mut conn, "newsession mvt u:unroll:1:9 sgp")
                .starts_with("err bad-model")
        );
        assert!(engine.handle_line(&mut conn, "   ").reply.is_none());
        let long = "x".repeat(MAX_LINE_BYTES + 1);
        assert!(err(&mut engine, &mut conn, &long).starts_with("err "));
        let blank = " ".repeat(MAX_LINE_BYTES + 1);
        assert!(err(&mut engine, &mut conn, &blank).starts_with("err parse "));
        assert!(engine
            .handle_line(&mut conn, &" ".repeat(MAX_LINE_BYTES))
            .reply
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_resumes_sessions_with_identical_reads() {
        let (mut engine, dir) = temp_engine("restart");
        let mut conn = ConnState::new();
        ok(
            &mut engine,
            &mut conn,
            "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp",
        );
        for line in [
            "observe 3,2 4.0",
            "observe 9,1 3.1",
            "observe 14,5 2.8",
            "observe 6,3 3.4",
            "observe 18,0 2.9",
        ] {
            ok(&mut engine, &mut conn, line);
        }
        let best = ok(&mut engine, &mut conn, "best");
        let suggest = ok(&mut engine, &mut conn, "suggest 3");
        // Simulated SIGKILL: drop the engine with no shutdown handshake.
        drop(engine);

        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "attach s000000"),
            "ok attached s000000 obs 5"
        );
        assert_eq!(ok(&mut engine, &mut conn, "best"), best);
        assert_eq!(ok(&mut engine, &mut conn, "suggest 3"), suggest);
        // Id allocation continues past restored sessions.
        let reply = ok(&mut engine, &mut conn, "newsession mvt u:unroll");
        assert!(reply.starts_with("ok session s000001 "), "{reply}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restored_session_appends_to_an_identical_checkpoint() {
        let observes: Vec<String> = (0..12u32)
            .map(|i| {
                let cost = 1.0 + f64::from((i * 7) % 11) / 3.0;
                format!("observe {},{} {cost}", 1 + (i * 5) % 20, (i * 3) % 7)
            })
            .collect();
        let newsession = "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp";
        let checkpoint =
            |dir: &Path| std::fs::read(dir.join(SESSIONS_DIR).join("s000000.json")).unwrap();

        let (mut straight, straight_dir) = temp_engine("append-straight");
        let mut conn = ConnState::new();
        ok(&mut straight, &mut conn, newsession);
        for line in &observes {
            ok(&mut straight, &mut conn, line);
        }
        ok(&mut straight, &mut conn, "checkpoint");
        drop(straight);

        let (mut engine, dir) = temp_engine("append-restarted");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, newsession);
        let (first, rest) = observes.split_at(observes.len() / 2);
        for line in first {
            ok(&mut engine, &mut conn, line);
        }
        drop(engine);
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "attach s000000");
        for line in rest {
            ok(&mut engine, &mut conn, line);
        }
        ok(&mut engine, &mut conn, "checkpoint");
        drop(engine);

        assert_eq!(checkpoint(&dir), checkpoint(&straight_dir));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&straight_dir).unwrap();
    }

    #[test]
    fn newsession_refuses_to_mint_a_seven_digit_id() {
        let (engine, dir) = temp_engine("id-overflow");
        drop(engine);
        let sessions = dir.join(SESSIONS_DIR);
        std::fs::write(sessions.join("s999999.json"), "{placeholder}").unwrap();
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        let reply = err(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        assert!(reply.starts_with("err internal "), "{reply}");
        assert!(!sessions.join("s1000000.json").exists());
        assert_eq!(
            ok(&mut engine, &mut conn, "sessions"),
            "ok sessions s999999"
        );
        assert_eq!(
            std::fs::read_to_string(sessions.join("s999999.json")).unwrap(),
            "{placeholder}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newsession_never_reuses_the_id_of_a_leftover_journal() {
        let (engine, dir) = temp_engine("leftover-journal");
        drop(engine);
        let sessions = dir.join(SESSIONS_DIR);
        let stray = journal::line(1, "[[4],1]");
        std::fs::write(sessions.join("s000003.log"), &stray).unwrap();
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9"),
            "ok session s000004 dim 1"
        );
        assert!(err(&mut engine, &mut conn, "best").starts_with("err empty"));
        assert_eq!(
            std::fs::read_to_string(sessions.join("s000003.log")).unwrap(),
            stray
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newsession_never_reuses_a_quarantined_id() {
        let (mut engine, dir) = temp_engine("quarantined-id");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        drop(engine);
        let sessions = dir.join(SESSIONS_DIR);
        let damaged = b"{first damage".to_vec();
        std::fs::write(sessions.join("s000000.json"), &damaged).unwrap();
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert!(err(&mut engine, &mut conn, "attach s000000").starts_with("err corrupt"));
        drop(engine);

        // Restarted, the daemon mints past the quarantined id, so the
        // next quarantine cannot rename over the first one's evidence.
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9"),
            "ok session s000001 dim 1"
        );
        drop(engine);
        std::fs::write(sessions.join("s000001.json"), "{second damage").unwrap();
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert!(err(&mut engine, &mut conn, "attach s000001").starts_with("err corrupt"));
        assert_eq!(
            std::fs::read(sessions.join("s000000.json.corrupt")).unwrap(),
            damaged
        );
        assert_eq!(
            ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9"),
            "ok session s000002 dim 1"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_second_quarantine_of_an_id_keeps_the_first_evidence() {
        let (mut engine, dir) = temp_engine("quarantined-twice");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        drop(engine);
        let sessions = dir.join(SESSIONS_DIR);
        for (damage, aside) in [
            ("{first damage", "s000000.json.corrupt"),
            ("{second damage", "s000000.json.corrupt.1"),
        ] {
            std::fs::write(sessions.join("s000000.json"), damage).unwrap();
            let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
            let mut conn = ConnState::new();
            let reply = err(&mut engine, &mut conn, "attach s000000");
            assert!(
                reply.contains(&format!("quarantined to {aside}:")),
                "{reply}"
            );
        }
        for (aside, damage) in [
            ("s000000.json.corrupt", "{first damage"),
            ("s000000.json.corrupt.1", "{second damage"),
        ] {
            assert_eq!(
                std::fs::read_to_string(sessions.join(aside)).unwrap(),
                damage
            );
        }
        // Neither evidence name is a session, and neither id is reminted.
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(ok(&mut engine, &mut conn, "sessions"), "ok sessions");
        assert_eq!(
            ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9"),
            "ok session s000001 dim 1"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_the_tmp_files_a_killed_write_leaves() {
        let (mut engine, dir) = temp_engine("sweep");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        let listed = ok(&mut engine, &mut conn, "sessions");
        drop(engine);
        let strays = [
            dir.join(SESSIONS_DIR).join("s000000.json.tmp-4242-7"),
            dir.join(format!("{PROBE_FILE}.tmp-4242-8")),
        ];
        for stray in &strays {
            std::fs::write(stray, "{half a write").unwrap();
        }
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        for stray in &strays {
            assert!(!stray.exists(), "{} survived open", stray.display());
        }
        let mut conn = ConnState::new();
        assert_eq!(ok(&mut engine, &mut conn, "sessions"), listed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_bounds_live_sessions_transparently() {
        let (mut engine, dir) = temp_engine("lru");
        engine.config.max_live = 2;
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession k0 u:unroll:1:9");
        ok(&mut engine, &mut conn, "observe 4 1.0");
        ok(&mut engine, &mut conn, "newsession k1 u:unroll:1:9");
        ok(&mut engine, &mut conn, "newsession k2 u:unroll:1:9");
        assert!(engine.live_sessions() <= 2);
        // The evicted session transparently reloads from its checkpoint.
        assert_eq!(
            ok(&mut engine, &mut conn, "attach s000000"),
            "ok attached s000000 obs 1"
        );
        assert_eq!(ok(&mut engine, &mut conn, "best"), "ok best 4 1.0");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_ties_on_last_touch_break_to_the_smallest_id() {
        let (mut engine, dir) = temp_engine("lru-tie");
        engine.config.max_live = 2;
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession k0 u:unroll:1:9");
        ok(&mut engine, &mut conn, "newsession k1 u:unroll:1:9");
        // Force the tie the LRU clock normally prevents.
        for entry in engine.live.values_mut() {
            entry.last_touch = 7;
        }
        ok(&mut engine, &mut conn, "newsession k2 u:unroll:1:9");
        let resident: Vec<&String> = engine.live.keys().collect();
        assert_eq!(resident, ["s000001", "s000002"], "s000000 should evict");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_store_seeds_sessions_across_restarts() {
        let (mut engine, dir) = temp_engine("warm");
        engine.config.warm_store = Some(dir.join("warm.json"));
        engine.warm = Some(WarmStore::open(dir.join("warm.json")));
        let mut conn = ConnState::new();
        assert_eq!(
            ok(
                &mut engine,
                &mut conn,
                "newsession mvt u:unroll:1:9,t:cache-tile:0:5 gp"
            ),
            "ok session s000000 dim 2",
            "empty store: cold reply is byte-identical to a store-less build"
        );
        for line in [
            "observe 3,2 4.0",
            "observe 9,1 3.1",
            "observe 5,5 2.8",
            "observe 6,3 3.4",
            "observe 8,0 2.9",
        ] {
            ok(&mut engine, &mut conn, line);
        }
        assert_eq!(
            engine.handle_line(&mut conn, "quit").action,
            Action::CloseConnection
        );
        assert_eq!(engine.warm_counters(), Some((0, 1, 1)));
        drop(engine);

        let mut config = ServeConfig::new(&dir);
        config.default_model = SurrogateSpec::from_name("gp").unwrap();
        config.warm_store = Some(dir.join("warm.json"));
        let mut engine = Engine::open(config).unwrap();
        let mut conn = ConnState::new();
        // Same kernel/space/family: seeded from the cached surrogate.
        let reply = ok(
            &mut engine,
            &mut conn,
            "newsession mvt u:unroll:1:9,t:cache-tile:0:5 gp",
        );
        assert_eq!(reply, "ok session s000001 dim 2 warm 5");
        // Counters persist in the store file: 1 miss + 1 store from the
        // first process, plus this hit.
        assert_eq!(engine.warm_counters(), Some((1, 1, 1)));
        // Model-driven from observation zero, and still fully functional.
        ok(&mut engine, &mut conn, "suggest 2");
        ok(&mut engine, &mut conn, "observe 4,4 2.7");
        assert_eq!(ok(&mut engine, &mut conn, "best"), "ok best 4,4 2.7");
        // A different space shape misses and starts cold.
        let reply = ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:5 gp");
        assert_eq!(reply, "ok session s000002 dim 1");
        // Warm sessions survive a second restart through their checkpoint
        // alone (the store is advisory after creation).
        ok(&mut engine, &mut conn, "attach s000001");
        let suggest = ok(&mut engine, &mut conn, "suggest 3");
        drop(engine);
        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "attach s000001"),
            "ok attached s000001 obs 1"
        );
        assert_eq!(ok(&mut engine, &mut conn, "suggest 3"), suggest);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_warm_store_degrades_to_cold_start() {
        let (engine, dir) = temp_engine("warm-corrupt");
        drop(engine);
        std::fs::write(dir.join("warm.json"), "{half a store").unwrap();
        let mut config = ServeConfig::new(&dir);
        config.default_model = SurrogateSpec::from_name("gp").unwrap();
        config.warm_store = Some(dir.join("warm.json"));
        let mut engine = Engine::open(config).unwrap();
        let mut conn = ConnState::new();
        assert_eq!(
            ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9"),
            "ok session s000000 dim 1"
        );
        assert!(dir.join("warm.json.corrupt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoints_are_quarantined_with_structured_errors() {
        let (mut engine, dir) = temp_engine("corrupt");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9 gp");
        drop(engine);
        let path = dir.join(SESSIONS_DIR).join("s000000.json");
        std::fs::write(&path, "{torn").unwrap();
        // A well-formed checkpoint naming a family that no longer exists.
        let retired = dir.join(SESSIONS_DIR).join("s000001.json");
        let text = std::fs::read_to_string(&retired).unwrap();
        assert!(text.contains("\"model\":\"gp\""), "{text}");
        std::fs::write(
            &retired,
            text.replace("\"model\":\"gp\"", "\"model\":\"sgp\""),
        )
        .unwrap();

        let mut engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let mut conn = ConnState::new();
        let reply = err(&mut engine, &mut conn, "attach s000000");
        assert!(reply.starts_with("err corrupt"), "{reply}");
        assert!(!path.exists());
        assert!(dir.join(SESSIONS_DIR).join("s000000.json.corrupt").exists());
        // The damaged id no longer resolves; the evidence is preserved.
        assert!(err(&mut engine, &mut conn, "attach s000000").starts_with("err unknown-session"));
        let reply = err(&mut engine, &mut conn, "attach s000001");
        assert!(
            reply.starts_with("err corrupt") && reply.contains("sgp"),
            "{reply}"
        );
        assert!(!retired.exists());
        assert!(dir.join(SESSIONS_DIR).join("s000001.json.corrupt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_deadline_sheds_requests_without_mutating() {
        let (mut engine, dir) = temp_engine("deadline");
        let mut conn = ConnState::new();
        ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9");
        engine.config.deadline = Duration::ZERO;
        assert!(err(&mut engine, &mut conn, "observe 4 1.0").starts_with("err deadline"));
        assert!(err(&mut engine, &mut conn, "suggest").starts_with("err deadline"));
        assert!(
            err(&mut engine, &mut conn, "newsession mvt u:unroll:1:9").starts_with("err deadline")
        );
        engine.config.deadline = DEFAULT_DEADLINE;
        // The shed observe left no trace, and the shed newsession used up
        // no id.
        assert!(err(&mut engine, &mut conn, "best").starts_with("err empty"));
        assert_eq!(
            ok(&mut engine, &mut conn, "sessions"),
            "ok sessions s000000"
        );
        assert_eq!(
            ok(&mut engine, &mut conn, "newsession mvt u:unroll:1:9"),
            "ok session s000001 dim 1"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
