//! The TCP transport end to end, on the real `alic-serve` binary.
//!
//! Two connections share one engine through the owner thread: each creates
//! a session, and `observe`, `attach` and `best` interleave across them
//! with exact replies. SIGTERM then drains the daemon: the owner thread
//! polls the flag between requests, reports `drained <n>` on stderr, and
//! the process exits 0.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use alic_serve::PROTOCOL_VERSION;

/// How long the daemon gets to start listening, and later to exit.
const PATIENCE: Duration = Duration::from_secs(20);

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects (retrying while the daemon starts up) and checks the
    /// version greeting.
    fn connect(addr: &str) -> Client {
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
        let mut client = Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        assert_eq!(client.read_line(), format!("ok {PROTOCOL_VERSION}"));
        client
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Sends one request and asserts its exact reply.
    fn expect(&mut self, request: &str, reply: &str) {
        writeln!(self.writer, "{request}").unwrap();
        assert_eq!(self.read_line(), reply, "reply to {request:?}");
    }
}

/// Waits for the daemon to exit, killing it if it overstays.
fn wait_for_exit(child: &mut Child) -> std::process::ExitStatus {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if started.elapsed() > PATIENCE {
            let _ = child.kill();
            panic!("alic-serve did not exit after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn two_connections_interleave_and_sigterm_drains() {
    let dir: PathBuf = std::env::temp_dir().join(format!("alic-serve-tcp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Reserve a free port, then hand it to the daemon.
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let addr = format!("127.0.0.1:{port}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_alic-serve"))
        .args(["--tcp", &addr, "--dir"])
        .arg(&dir)
        .env_remove("ALIC_MODEL")
        .env_remove("ALIC_CHAOS")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    let mut a = Client::connect(&addr);
    let mut b = Client::connect(&addr);
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

    // SIGTERM with both connections still open: the owner thread drains.
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let status = wait_for_exit(&mut child);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "exit {status:?}, stderr: {stderr}");
    assert!(
        stderr.lines().any(|line| line == "alic-serve: drained 2"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
