//! `alic-serve` — the autotuning daemon.
//!
//! Turns the batch experiment stack into a long-lived service: a persistent
//! process speaking a hand-rolled line-based text protocol over stdin or
//! TCP, where each tuning session owns a live incremental surrogate
//! (PR 3/5 made updates cheap enough for interactive use).
//!
//! The headline property is **crash safety**, built from the same pieces as
//! the self-healing campaign runner:
//!
//! * every acknowledged mutation is written before the reply is — an
//!   observation is applied to the surrogate, then committed as one
//!   checksummed, read-back-verified line appended to the session's
//!   [`journal`] (a failure at either step rolls it back). The compacted
//!   checkpoint is rewritten whole when a session is created, on
//!   `checkpoint`, and on drain, quit, shutdown or EOF. Every one of these
//!   writes goes through [`alic_core::store`], the one storage layer the
//!   campaign ledger uses too (atomic rename or verified append, bounded
//!   retry with exponential backoff, read-back verification; damaged files
//!   set aside to `.corrupt`, `.corrupt.1`, …; stray tmp files swept on
//!   open). So a SIGKILLed daemon restarts and resumes every session with
//!   **bit-identical** surrogate state (checkpoint plus journal is an event
//!   log replayed through the deterministic fit/update paths, not
//!   serialized model internals); `tests/crash_states.rs` checks that
//!   against every process-crash state of a recorded workload. Nothing is
//!   fsynced: the bytes survive a killed daemon, not a power loss;
//! * read-only requests (`suggest`, `best`) are pure functions of durable
//!   state, so their replies are byte-identical before and after a restart;
//! * every request runs under a deadline with panic isolation
//!   (`catch_unwind`, like `heal_campaign`) — one poisoned session is
//!   detached and later restored from its checkpoint, never taking the
//!   process down. A request sheds with `err deadline` only before it
//!   commits, so an `err` reply always means nothing was committed;
//! * malformed input always yields a structured `err <code> <msg>` reply;
//! * the live-session table is bounded with LRU eviction; every resident
//!   session already equals its checkpoint plus journal, so eviction never
//!   writes;
//! * under *resource pressure* it walks an explicit degradation ladder
//!   (healthy → shedding-writes, and the terminal draining) instead of
//!   failing randomly: persistent write failures shed writes
//!   with a retry-after hint while reads keep answering, and a successful
//!   probe write promotes back to healthy ([`engine::HealthState`]);
//! * `health` reports the ladder state plus fault/retry counters, `drain`
//!   (or SIGTERM, which the one transport loop of [`daemon`] checks between
//!   requests over stdio and TCP alike) stops admission and reports one
//!   [`engine::DrainSummary`];
//! * TCP connections are bounded too: past a fixed cap a client is told
//!   `err busy` and closed, and a client that stops reading its replies is
//!   dropped after a write timeout instead of stalling the engine.
//!
//! The `alic_stats::fault` chaos plane reaches into the daemon end to end:
//! the connection layer has injection sites for dropped connections
//! mid-line, short reads, and torn replies (see [`chaos`]), on top of the
//! storage-layer write faults the checkpoints and journals inherit.
//!
//! See the crate's `README.md` "Serving" section for the protocol
//! reference, the session lifecycle, and the checkpoint directory layout.

#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod engine;
pub mod journal;
pub mod protocol;
pub mod session;
pub mod term;

pub use engine::{ConnState, Engine, HealthState, ServeConfig};
pub use protocol::{ErrReply, PROTOCOL_VERSION};
pub use session::TuningSession;
