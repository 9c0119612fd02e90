//! Transport loops: stdin/stdout and TCP.
//!
//! Both loops are thin shells over [`Engine::handle_line`]. The stdio loop
//! runs on the engine's own thread: it reads stdin itself, so a request
//! costs the engine's work plus one pipe round trip. The TCP mode accepts
//! concurrent connections but serializes engine access through a single
//! owner thread (requests queue on a channel in arrival order), so session
//! state needs no locking and surrogate internals — which already
//! multiplex their fit/update work onto the rayon pool — stay
//! single-owner. Connection I/O goes through the [`crate::chaos`] wrappers
//! so the fault plane reaches the wire.
//!
//! Both transports treat SIGTERM as a drain request (see [`crate::term`]):
//! the loop that owns the engine — the stdin loop, or the TCP owner
//! thread — polls the flag between requests, so the request in flight
//! finishes first. It then stops admitting input and the [`DrainSummary`]
//! goes to stderr — the same report the `drain` verb returns inline. Every
//! acknowledged observation is already durable, so a drain has nothing to
//! lose and the daemon exits 0; a nonzero exit means a transport error.

use std::io::{BufRead, BufReader, ErrorKind, Read, StdinLock};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use crate::chaos::{write_reply, ChaosLines};
use crate::engine::{Action, ConnState, DrainSummary, Engine};
use crate::protocol::PROTOCOL_VERSION;

/// How often the engine-owning loops poll the SIGTERM flag between
/// requests.
const TERM_POLL: Duration = Duration::from_millis(25);

/// Renders a drain summary to stderr, so both transports (and both exit
/// paths: EOF and SIGTERM) report identically.
fn report(summary: &DrainSummary) {
    eprintln!("alic-serve: {}", summary.render());
}

/// Stdin whose reads give up after [`TERM_POLL`] without input: `fill_buf`
/// then fails with `WouldBlock`, and [`ChaosLines`] keeps the line read so
/// far for the next call.
struct PolledStdin {
    lock: StdinLock<'static>,
    /// Bytes the lock has buffered and nobody has consumed yet. Only when
    /// it is zero can a read block, so only then does `fill_buf` wait.
    buffered: usize,
}

impl Read for PolledStdin {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PolledStdin {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.buffered == 0 && !crate::term::stdin_ready(TERM_POLL)? {
            return Err(ErrorKind::WouldBlock.into());
        }
        let bytes = self.lock.fill_buf()?;
        self.buffered = bytes.len();
        Ok(bytes)
    }

    fn consume(&mut self, n: usize) {
        self.buffered -= n;
        self.lock.consume(n);
    }
}

/// Runs the daemon over stdin/stdout until EOF, `quit`, `shutdown`, or
/// SIGTERM, then reports a [`DrainSummary`] on stderr (persisting the warm
/// store on the way). SIGTERM additionally pins the engine in the draining
/// state first, so nothing new is admitted while the process winds down.
///
/// The loop runs on the calling thread alone. Between requests it waits
/// for stdin at most 25 ms at a time (`poll(2)`, which the signal also
/// interrupts), so SIGTERM is noticed within that window whether the
/// daemon is idle or a line is half read; the half line is dropped.
///
/// # Errors
///
/// Propagates stdin read errors (write errors end the loop like EOF: the
/// one client is gone).
pub fn serve_stdio(mut engine: Engine) -> std::io::Result<()> {
    let term = crate::term::install();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut conn = ConnState::new();
    if write_reply(&mut out, &format!("ok {PROTOCOL_VERSION}")).is_err() {
        report(&engine.flush_all());
        return Ok(());
    }
    let mut lines = ChaosLines::new(PolledStdin {
        lock: std::io::stdin().lock(),
        buffered: 0,
    });
    loop {
        if term.load(Ordering::Acquire) {
            report(&engine.drain());
            return Ok(());
        }
        let line = match lines.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
            Err(e) => return Err(e),
        };
        let response = engine.handle_line(&mut conn, &line);
        if let Some(reply) = &response.reply {
            if write_reply(&mut out, reply).is_err() {
                break;
            }
        }
        match response.action {
            Action::Continue => {}
            Action::CloseConnection | Action::ShutdownDaemon => break,
        }
    }
    report(&engine.flush_all());
    Ok(())
}

enum EngineMsg {
    Line {
        conn: u64,
        line: String,
        reply: mpsc::Sender<(Option<String>, bool)>,
    },
    Close {
        conn: u64,
    },
}

/// Runs the daemon on a TCP listener; one thread per connection, one owner
/// thread for the engine. `shutdown` reports the drain summary and exits
/// the process (the accept loop holds no state worth unwinding); the owner
/// thread polls SIGTERM between requests and drains the same way.
///
/// # Errors
///
/// Returns bind errors; per-connection errors only end that connection.
pub fn serve_tcp(engine: Engine, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let (tx, rx) = mpsc::channel::<EngineMsg>();
    let term = crate::term::install();
    std::thread::spawn(move || engine_owner(engine, rx, term));
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let conn = next_conn;
        next_conn += 1;
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = handle_connection(stream, conn, &tx);
            let _ = tx.send(EngineMsg::Close { conn });
        });
    }
    Ok(())
}

fn engine_owner(mut engine: Engine, rx: mpsc::Receiver<EngineMsg>, term: &AtomicBool) {
    let mut conns: std::collections::HashMap<u64, ConnState> = std::collections::HashMap::new();
    loop {
        if term.load(Ordering::Acquire) {
            report(&engine.drain());
            std::process::exit(0);
        }
        let msg = match rx.recv_timeout(TERM_POLL) {
            Ok(msg) => msg,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        match msg {
            EngineMsg::Close { conn } => {
                conns.remove(&conn);
            }
            EngineMsg::Line { conn, line, reply } => {
                let state = conns.entry(conn).or_default();
                let response = engine.handle_line(state, &line);
                let shutdown = response.action == Action::ShutdownDaemon;
                let close = shutdown || response.action == Action::CloseConnection;
                if close {
                    conns.remove(&conn);
                }
                let _ = reply.send((response.reply, close));
                if shutdown {
                    report(&engine.flush_all());
                    std::process::exit(0);
                }
            }
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    conn: u64,
    tx: &mpsc::Sender<EngineMsg>,
) -> std::io::Result<()> {
    let mut reader = ChaosLines::new(BufReader::new(stream.try_clone()?));
    let mut out = stream;
    write_reply(&mut out, &format!("ok {PROTOCOL_VERSION}"))?;
    while let Some(line) = reader.next_line()? {
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx
            .send(EngineMsg::Line {
                conn,
                line,
                reply: reply_tx,
            })
            .is_err()
        {
            break;
        }
        let Ok((reply, close)) = reply_rx.recv() else {
            break;
        };
        if let Some(reply) = reply {
            write_reply(&mut out, &reply)?;
        }
        if close {
            break;
        }
    }
    Ok(())
}
