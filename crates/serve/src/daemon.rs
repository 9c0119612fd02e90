//! The transport loop: one loop on the engine's own thread serves stdio
//! and TCP alike.
//!
//! The loop owns the [`Engine`] (so session state needs no locking) and a
//! list of connections: stdin/stdout, or the clients of a TCP listener, at
//! most `MAX_CONNECTIONS` at once. Each pass waits on every source with
//! [`crate::term::wait`] for at most `TERM_POLL`, gives each ready
//! connection exactly one read, and answers every complete line it
//! delivered through [`Engine::handle_line`]. A line cut by the end of a
//! read waits in its connection's [`ChaosLines`], so a client that stalls
//! mid-line holds up no one; a TCP client that stops reading its replies
//! is dropped after `WRITE_TIMEOUT`. All connection I/O goes through the
//! [`crate::chaos`] wrappers, so the fault plane reaches the wire.
//!
//! SIGTERM is a drain request (see [`crate::term`]), checked between
//! requests and seen within `TERM_POLL` even while a line is half read
//! (the half line is dropped). SIGTERM, `shutdown` and the end of the
//! stdio connection leave through one exit path that reports the
//! [`crate::engine::DrainSummary`] on stderr. Without `poll(2)` (non-Unix)
//! the wait reports the open connection ready, or the listener when none
//! is open, so reads block and TCP serves one connection at a time.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::chaos::{write_reply, ChaosLines};
use crate::engine::{Action, ConnState, Engine};
use crate::protocol::{code, ErrReply, PROTOCOL_VERSION};
use crate::term::{wait, Watch};

/// The longest the loop waits for input before it checks SIGTERM again.
const TERM_POLL: Duration = Duration::from_millis(25);

/// The most TCP connections open at once; the next client is told
/// `err busy` and closed.
const MAX_CONNECTIONS: usize = 64;

/// How long one reply write to a TCP client may block before the client
/// is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// A source that is read at most once per wait that found it ready; other
/// reads fail with `WouldBlock`, and [`ChaosLines`] keeps the line so far.
struct Polled {
    inner: Box<dyn Read>,
    ready: bool,
}

impl Read for Polled {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !std::mem::take(&mut self.ready) {
            return Err(ErrorKind::WouldBlock.into());
        }
        self.inner.read(buf)
    }
}

/// One client: its request lines, its reply sink and its attachment.
struct Conn {
    lines: ChaosLines<BufReader<Polled>>,
    out: Box<dyn Write>,
    state: ConnState,
    watch: Watch,
}

impl Conn {
    /// Greets a new client; `None` when it is already gone.
    fn open(watch: Watch, inner: Box<dyn Read>, mut out: Box<dyn Write>) -> Option<Conn> {
        write_reply(&mut out, &format!("ok {PROTOCOL_VERSION}")).ok()?;
        let input = Polled {
            inner,
            ready: false,
        };
        Some(Conn {
            lines: ChaosLines::new(BufReader::new(input)),
            out,
            state: ConnState::new(),
            watch,
        })
    }

    /// Reads once and answers every complete line read so far; EOF and I/O
    /// errors close the connection, and SIGTERM shuts the daemon down.
    fn take_turn(&mut self, engine: &mut Engine, term: &AtomicBool) -> Action {
        self.lines.get_mut().get_mut().ready = true;
        loop {
            if term.load(Ordering::Acquire) {
                return Action::ShutdownDaemon;
            }
            let line = match self.lines.next_line() {
                Ok(Some(line)) => line,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Action::Continue,
                Ok(None) | Err(_) => return Action::CloseConnection,
            };
            let response = engine.handle_line(&mut self.state, &line);
            if let Some(reply) = &response.reply {
                if write_reply(&mut self.out, reply).is_err() {
                    return Action::CloseConnection;
                }
            }
            if response.action != Action::Continue {
                return response.action;
            }
        }
    }
}

/// Accepts one client and greets it; `None` when it is gone, or when the
/// daemon is `full` and has told it `err busy`.
fn accept(listener: &TcpListener, full: bool) -> Option<Conn> {
    let (stream, _) = listener.accept().ok()?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok()?;
    // A reply leaves as one segment, at once: with Nagle's algorithm, a
    // reply's second write would wait for the client's delayed ACK.
    stream.set_nodelay(true).ok()?;
    if full {
        let busy = ErrReply::new(code::BUSY, "too many connections open; retry later");
        let _ = write_reply(&mut &stream, &busy.render());
        return None;
    }
    let input = Box::new(stream.try_clone().ok()?);
    let watch = Watch::of(&stream);
    Conn::open(watch, input, Box::new(BufWriter::new(stream)))
}

/// Serves `conns` and the clients of `listener`, at most `max_conns` of
/// them at once, until `shutdown`, SIGTERM or, without a listener, the
/// end of the last connection; then reports the drain summary.
fn serve(
    mut engine: Engine,
    term: &AtomicBool,
    listener: Option<&TcpListener>,
    mut conns: Vec<Conn>,
    max_conns: usize,
) -> std::io::Result<()> {
    let mut watches = Vec::with_capacity(max_conns + 1);
    let mut exit = false;
    while !exit && !term.load(Ordering::Acquire) && (listener.is_some() || !conns.is_empty()) {
        watches.clear();
        watches.extend(listener.map(Watch::of));
        watches.extend(conns.iter().map(|conn| conn.watch));
        wait(&mut watches, TERM_POLL)?;
        let mut ready = watches.iter().map(Watch::ready);
        let listener_ready = listener.is_some() && ready.next() == Some(true);
        conns.retain_mut(|conn| {
            if exit || ready.next() != Some(true) {
                return true;
            }
            let action = conn.take_turn(&mut engine, term);
            exit = action == Action::ShutdownDaemon;
            action != Action::CloseConnection
        });
        if let Some(listener) = listener.filter(|_| listener_ready && !exit) {
            conns.extend(accept(listener, conns.len() >= max_conns));
        }
    }
    let summary = if term.load(Ordering::Acquire) {
        engine.drain()
    } else {
        engine.flush_all()
    };
    eprintln!("alic-serve: {}", summary.render());
    Ok(())
}

/// Runs the daemon over stdin/stdout until EOF, `quit`, `shutdown` or
/// SIGTERM, then reports a [`crate::engine::DrainSummary`] on stderr
/// (persisting the warm store on the way). SIGTERM first pins the engine
/// in the draining state, so nothing new is admitted while it winds down.
///
/// # Errors
///
/// Propagates a failure of the wait for input. A failed read or write ends
/// the loop like EOF: the one client is gone.
pub fn serve_stdio(engine: Engine) -> std::io::Result<()> {
    let term = crate::term::install();
    let stdin = std::io::stdin();
    let watch = Watch::of(&stdin);
    let conn = Conn::open(watch, Box::new(stdin), Box::new(std::io::stdout().lock()));
    serve(engine, term, None, conn.into_iter().collect(), 1)
}

/// Runs the daemon on a TCP listener until `shutdown` or SIGTERM, then
/// reports the drain summary on stderr like [`serve_stdio`]. A client past
/// `MAX_CONNECTIONS` is refused with `err busy`.
///
/// # Errors
///
/// Returns bind errors and failures of the wait for input; a failed read
/// or write only ends that connection.
pub fn serve_tcp(engine: Engine, addr: &str) -> std::io::Result<()> {
    let term = crate::term::install();
    let listener = TcpListener::bind(addr)?;
    serve(engine, term, Some(&listener), Vec::new(), MAX_CONNECTIONS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::{SocketAddr, TcpStream};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::time::Instant;

    use alic_stats::fault::exclusive_clean;

    use crate::engine::ServeConfig;

    /// How long a client waits for any one reply.
    const PATIENCE: Duration = Duration::from_secs(20);

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        /// Connects without reading the greeting.
        fn raw(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(PATIENCE)).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        /// Connects and checks the version greeting.
        fn connect(addr: SocketAddr) -> Client {
            let mut client = Client::raw(addr);
            assert_eq!(client.read_line(), format!("ok {PROTOCOL_VERSION}"));
            client
        }

        /// The next reply line, or `""` at EOF.
        fn read_line(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        }

        fn expect(&mut self, request: &str, reply: &str) {
            writeln!(self.writer, "{request}").unwrap();
            assert_eq!(self.read_line(), reply, "reply to {request:?}");
        }
    }

    /// Runs the loop on a second thread, over a fresh engine and an
    /// ephemeral port with at most `max_conns` clients at once, while
    /// `clients` talks to it; `clients` must end with a `shutdown`. Should
    /// `clients` fail, the SIGTERM flag stops the loop.
    fn with_daemon(name: &str, max_conns: usize, clients: impl FnOnce(SocketAddr)) {
        // Connection I/O consults the process-wide fault plane; hold it
        // clean so a concurrently running chaos test cannot fire here.
        let _guard = exclusive_clean();
        let dir =
            std::env::temp_dir().join(format!("alic-serve-daemon-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::open(ServeConfig::new(&dir)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let term = AtomicBool::new(false);
        let (outcome, served) = std::thread::scope(|s| {
            let server = s.spawn(|| serve(engine, &term, Some(&listener), Vec::new(), max_conns));
            let outcome = catch_unwind(AssertUnwindSafe(|| clients(addr)));
            term.store(outcome.is_err(), Ordering::Release);
            (outcome, server.join().unwrap())
        });
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(panic) = outcome {
            resume_unwind(panic);
        }
        served.unwrap();
    }

    #[test]
    fn a_client_past_the_cap_is_told_busy_and_a_quit_frees_a_place() {
        with_daemon("cap", 2, |addr| {
            let mut a = Client::connect(addr);
            let mut b = Client::connect(addr);
            let mut refused = Client::raw(addr);
            let busy = refused.read_line();
            assert!(busy.starts_with("err busy "), "{busy}");
            assert_eq!(refused.read_line(), "", "a refused client is closed");
            drop(refused);
            a.expect("quit", "ok bye");
            assert_eq!(a.read_line(), "");
            let mut c = Client::connect(addr);
            c.expect("newsession mvt u:unroll:1:9", "ok session s000000 dim 1");
            b.expect("attach s000000", "ok attached s000000 obs 0");
            c.expect("shutdown", "ok shutdown");
        });
    }

    #[test]
    fn a_client_that_never_reads_is_dropped_while_others_are_served() {
        with_daemon("stall", MAX_CONNECTIONS, |addr| {
            let mut a = Client::connect(addr);
            let mut b = Client::connect(addr);
            b.expect("newsession mvt u:unroll:1:9", "ok session s000000 dim 1");
            b.expect("observe 4 1.5", "ok observed 1");
            a.expect("attach s000000", "ok attached s000000 obs 1");
            // A pipelines `best`s and reads none of the replies. They fill the
            // socket buffers until the daemon's write to A blocks; it stops
            // reading A then, so A's writes block too, until the write timeout
            // cuts A off and its next write fails.
            a.writer
                .set_write_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            let requests = "best\n".repeat(1024);
            let started = Instant::now();
            let cut = loop {
                match a.writer.write_all(requests.as_bytes()) {
                    Ok(()) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(e) => break e,
                }
                assert!(started.elapsed() < PATIENCE, "A was never cut off");
            };
            assert!(
                matches!(
                    cut.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::BrokenPipe
                ),
                "{cut}"
            );
            // The loop goes on serving B.
            b.expect("best", "ok best 4 1.5");
            b.expect("shutdown", "ok shutdown");
        });
    }
}
