//! The TCP transport end to end, on the real `alic-serve` binary.
//!
//! One loop on the engine's thread serves every connection. Two
//! connections share the engine: each creates a session, and `observe`,
//! `attach` and `best` interleave across them with exact replies. A client
//! that stalls mid-line holds up no one, `quit` ends only its own
//! connection, and the connection-level chaos sites fire on TCP as on
//! stdio. SIGTERM or `shutdown` drains the daemon: it reports
//! `drained <n>` on stderr and exits 0.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use alic_serve::PROTOCOL_VERSION;

/// How long the daemon gets to start listening, and later to exit.
const PATIENCE: Duration = Duration::from_secs(20);

static CASE: AtomicUsize = AtomicUsize::new(0);

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects (retrying while the daemon starts up) without reading the
    /// greeting.
    fn raw(addr: &str) -> Client {
        let started = Instant::now();
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) if started.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("alic-serve never listened on {addr}: {e}"),
            }
        };
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Connects and checks the version greeting.
    fn connect(addr: &str) -> Client {
        let mut client = Client::raw(addr);
        assert_eq!(client.read_line(), format!("ok {PROTOCOL_VERSION}"));
        client
    }

    /// The next line, without its `\n` (`""` at EOF; a line torn before
    /// its `\n` comes back as the fragment).
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Writes `bytes` in one write.
    fn send(&mut self, bytes: &str) {
        self.writer.write_all(bytes.as_bytes()).unwrap();
    }

    /// Sends one request and asserts its exact reply.
    fn expect(&mut self, request: &str, reply: &str) {
        self.send(&format!("{request}\n"));
        assert_eq!(self.read_line(), reply, "reply to {request:?}");
    }
}

struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Starts the daemon on a free port and a fresh directory, with
    /// `chaos` as its `ALIC_CHAOS` plan.
    fn start(chaos: Option<&str>) -> Daemon {
        let dir = std::env::temp_dir().join(format!(
            "alic-serve-tcp-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Reserve a free port, then hand it to the daemon.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let mut command = Command::new(env!("CARGO_BIN_EXE_alic-serve"));
        command
            .args(["--tcp", &addr, "--dir"])
            .arg(&dir)
            .env_remove("ALIC_MODEL")
            .env_remove("ALIC_CHAOS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(plan) = chaos {
            command.env("ALIC_CHAOS", plan);
        }
        Daemon {
            child: command.spawn().unwrap(),
            addr,
            dir,
        }
    }

    /// Sends SIGTERM.
    fn terminate(&self) {
        let killed = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .unwrap();
        assert!(killed.success());
    }

    /// Waits for the exit (killing a daemon that overstays) and returns it
    /// with everything on stderr.
    fn finish(mut self) -> (ExitStatus, String) {
        let started = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            if started.elapsed() > PATIENCE {
                let _ = self.child.kill();
                panic!("alic-serve did not exit");
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut stderr = String::new();
        let mut err = self.child.stderr.take().unwrap();
        err.read_to_string(&mut stderr).unwrap();
        let _ = std::fs::remove_dir_all(&self.dir);
        (status, stderr)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Asserts a clean exit that reported `drained <n>`.
fn assert_drained((status, stderr): (ExitStatus, String), n: usize) {
    assert!(status.success(), "exit {status:?}, stderr: {stderr}");
    let drained = format!("alic-serve: drained {n}");
    assert!(
        stderr.lines().any(|line| line == drained),
        "stderr: {stderr}"
    );
}

#[test]
fn two_connections_interleave_and_sigterm_drains() {
    let daemon = Daemon::start(None);
    let mut a = Client::connect(&daemon.addr);
    let mut b = Client::connect(&daemon.addr);
    a.expect("newsession mvt u:unroll:1:9", "ok session s000000 dim 1");
    b.expect("newsession gemver u:unroll:1:9", "ok session s000001 dim 1");
    a.expect("observe 4 1.5", "ok observed 1");
    b.expect("observe 2 2.5", "ok observed 1");
    b.expect("observe 3 2.25", "ok observed 2");
    a.expect("best", "ok best 4 1.5");
    b.expect("best", "ok best 3 2.25");
    // Each connection keeps its own attachment while sharing the engine.
    a.expect("attach s000001", "ok attached s000001 obs 2");
    a.expect("best", "ok best 3 2.25");
    b.expect("attach s000000", "ok attached s000000 obs 1");
    b.expect("observe 7 1.25", "ok observed 2");
    a.expect("attach s000000", "ok attached s000000 obs 2");
    a.expect("best", "ok best 7 1.25");

    // SIGTERM with both connections still open: the loop drains.
    daemon.terminate();
    assert_drained(daemon.finish(), 2);
}

#[test]
fn a_client_stalled_mid_line_holds_up_no_one() {
    let daemon = Daemon::start(None);
    let mut a = Client::connect(&daemon.addr);
    let mut b = Client::connect(&daemon.addr);
    a.expect("newsession mvt u:unroll:1:9", "ok session s000000 dim 1");
    a.send("observe 4 1");
    // Longer than the daemon's wait, so it has read A's half line.
    std::thread::sleep(Duration::from_millis(80));
    b.expect("newsession gemver u:unroll:1:9", "ok session s000001 dim 1");
    b.expect("observe 2 2.5", "ok observed 1");
    b.expect("best", "ok best 2 2.5");
    a.send(".5\n");
    assert_eq!(a.read_line(), "ok observed 1");
    a.expect("best", "ok best 4 1.5");

    // SIGTERM with a half line pending: drained within the wait, the half
    // line never answered or recorded.
    a.send("observe 5 1.");
    std::thread::sleep(Duration::from_millis(50));
    let signalled = Instant::now();
    daemon.terminate();
    assert_eq!(a.read_line(), "", "the drained daemon closes A");
    let took = signalled.elapsed();
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
    // The loop closes its connections only after the drain's compaction.
    let checkpoint = daemon.dir.join("sessions").join("s000000.json");
    let saved = std::fs::read_to_string(checkpoint).unwrap();
    assert!(saved.contains("\"observations\":[[[4.0],1.5]]"), "{saved}");
    assert_drained(daemon.finish(), 2);
}

#[test]
fn quit_ends_one_connection_and_the_other_stays_attached() {
    let daemon = Daemon::start(None);
    let mut a = Client::connect(&daemon.addr);
    let mut b = Client::connect(&daemon.addr);
    a.expect("newsession mvt u:unroll:1:9", "ok session s000000 dim 1");
    b.expect("newsession gemver u:unroll:1:9", "ok session s000001 dim 1");
    b.expect("observe 3 2.25", "ok observed 1");
    a.expect("quit", "ok bye");
    assert_eq!(a.read_line(), "", "quit closes the connection");
    b.expect("observe 2 2.5", "ok observed 2");
    b.expect("best", "ok best 3 2.25");
    daemon.terminate();
    assert_drained(daemon.finish(), 2);
}

#[test]
fn shutdown_over_tcp_drains_and_exits_0() {
    let daemon = Daemon::start(None);
    let mut a = Client::connect(&daemon.addr);
    let _idle = Client::connect(&daemon.addr);
    a.expect("newsession mvt u:unroll:1:9", "ok session s000000 dim 1");
    a.expect("observe 4 1.5", "ok observed 1");
    a.expect("shutdown", "ok shutdown");
    assert_eq!(a.read_line(), "");
    assert_drained(daemon.finish(), 1);
}

#[test]
fn connection_chaos_sites_fire_on_tcp_and_the_daemon_serves_on() {
    let daemon = Daemon::start(Some("5:tornreply=1.0x1,conndrop=1.0x1,shortread=1.0x1"));
    let greeting = format!("ok {PROTOCOL_VERSION}");
    // The first reply written, the first client's greeting, tears: a
    // fragment without `\n`, then the connection is gone.
    let mut torn = Client::raw(&daemon.addr);
    let mut fragment = String::new();
    torn.reader.read_line(&mut fragment).unwrap();
    assert!(
        !fragment.ends_with('\n') && greeting.starts_with(fragment.as_str()),
        "{fragment:?}"
    );
    assert_eq!(torn.read_line(), "");
    // The next line read is lost with its connection.
    let mut dropped = Client::connect(&daemon.addr);
    dropped.send("newsession mvt u:unroll:1:9\n");
    assert_eq!(dropped.read_line(), "");
    // The next one reaches the engine torn, which refuses it; then the
    // budgets are spent and a fresh connection is served as usual.
    let mut client = Client::connect(&daemon.addr);
    client.send("newsession mvt u:unroll:1:9\n");
    let reply = client.read_line();
    assert!(reply.starts_with("err "), "{reply}");
    client.expect("newsession mvt u:unroll:1:9", "ok session s000000 dim 1");
    client.expect("observe 4 1.5", "ok observed 1");
    client.expect("best", "ok best 4 1.5");
    daemon.terminate();
    assert_drained(daemon.finish(), 1);
}
