//! The stdio transport end to end, on the real `alic-serve` binary.
//!
//! The daemon reads stdin on its engine thread, waiting with `poll(2)`
//! between requests. These tests pin what that loop must get right about
//! the bytes on the pipe: pipelined and split requests, a final line
//! without `\n`, SIGTERM while a line is half read, an endless line, and
//! the connection-level chaos sites.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use alic_serve::PROTOCOL_VERSION;

/// How long the daemon gets to exit once it should.
const PATIENCE: Duration = Duration::from_secs(20);

const NEWSESSION: &str = "newsession mvt u:unroll:1:9";

static CASE: AtomicUsize = AtomicUsize::new(0);

struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    dir: PathBuf,
}

impl Daemon {
    /// Starts the daemon on a fresh directory, with `chaos` as its
    /// `ALIC_CHAOS` plan, and checks the version greeting.
    fn start(chaos: Option<&str>) -> Daemon {
        let dir = std::env::temp_dir().join(format!(
            "alic-serve-stdio-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut command = Command::new(env!("CARGO_BIN_EXE_alic-serve"));
        command
            .arg("--dir")
            .arg(&dir)
            .env_remove("ALIC_MODEL")
            .env_remove("ALIC_CHAOS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(plan) = chaos {
            command.env("ALIC_CHAOS", plan);
        }
        let mut child = command.spawn().unwrap();
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
            dir,
        };
        assert_eq!(daemon.read_line(), format!("ok {PROTOCOL_VERSION}"));
        daemon
    }

    /// Writes `bytes` to the daemon's stdin in one write.
    fn send(&mut self, bytes: &str) {
        let stdin = self.stdin.as_mut().unwrap();
        stdin.write_all(bytes.as_bytes()).unwrap();
        stdin.flush().unwrap();
    }

    /// The next reply line, or `""` at EOF.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Sends one request and asserts its exact reply.
    fn expect(&mut self, request: &str, reply: &str) {
        self.send(&format!("{request}\n"));
        assert_eq!(self.read_line(), reply, "reply to {request:?}");
    }

    /// Waits for the exit, then returns it with everything left on stdout
    /// and stderr.
    fn finish(mut self) -> (std::process::ExitStatus, String, String) {
        drop(self.stdin.take());
        let started = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            if started.elapsed() > PATIENCE {
                let _ = self.child.kill();
                panic!("alic-serve did not exit");
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut stdout = String::new();
        self.stdout.read_to_string(&mut stdout).unwrap();
        let mut stderr = String::new();
        let mut err = self.child.stderr.take().unwrap();
        err.read_to_string(&mut stderr).unwrap();
        let _ = std::fs::remove_dir_all(&self.dir);
        (status, stdout, stderr)
    }

    /// Sends SIGTERM.
    fn terminate(&self) {
        let killed = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .unwrap();
        assert!(killed.success());
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

#[test]
fn two_requests_in_one_write_are_answered_in_order() {
    let mut daemon = Daemon::start(None);
    daemon.send(&format!("{NEWSESSION}\nobserve 4 1.5\n"));
    assert_eq!(daemon.read_line(), "ok session s000000 dim 1");
    assert_eq!(daemon.read_line(), "ok observed 1");
    daemon.send("observe 2 2.5\nobserve 3 1.25\nbest\n");
    assert_eq!(daemon.read_line(), "ok observed 2");
    assert_eq!(daemon.read_line(), "ok observed 3");
    assert_eq!(daemon.read_line(), "ok best 3 1.25");
    let (status, rest, _) = daemon.finish();
    assert!(status.success());
    assert_eq!(rest, "");
}

#[test]
fn a_request_split_across_writes_is_answered_once() {
    let mut daemon = Daemon::start(None);
    daemon.expect(NEWSESSION, "ok session s000000 dim 1");
    daemon.send("obse");
    // Longer than the daemon's wait on stdin, so it times out mid-line.
    std::thread::sleep(Duration::from_millis(80));
    daemon.send("rve 4 1");
    std::thread::sleep(Duration::from_millis(80));
    daemon.send(".5\n");
    assert_eq!(daemon.read_line(), "ok observed 1");
    // Had any fragment been answered, this reply would be off by one.
    daemon.expect("observe 5 1.25", "ok observed 2");
    daemon.expect("best", "ok best 5 1.25");
    let (status, rest, _) = daemon.finish();
    assert!(status.success());
    assert_eq!(rest, "");
}

#[test]
fn a_final_line_without_a_newline_is_handled_at_eof() {
    let mut daemon = Daemon::start(None);
    daemon.expect(NEWSESSION, "ok session s000000 dim 1");
    daemon.send("observe 4 1.5\nbest");
    let (status, rest, stderr) = daemon.finish();
    assert!(status.success(), "stderr: {stderr}");
    assert_eq!(rest, "ok observed 1\nok best 4 1.5\n");
    assert!(
        stderr.lines().any(|l| l == "alic-serve: drained 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn sigterm_with_half_a_line_pending_drains_promptly() {
    let mut daemon = Daemon::start(None);
    daemon.expect(NEWSESSION, "ok session s000000 dim 1");
    daemon.expect("observe 4 1.5", "ok observed 1");
    daemon.send("observe 5 1.");
    std::thread::sleep(Duration::from_millis(50));
    let checkpoint = daemon.dir.join("sessions").join("s000000.json");
    let signalled = Instant::now();
    daemon.terminate();
    // The stdin pipe stays open: only the signal can end the daemon.
    let started = Instant::now();
    while daemon.child.try_wait().unwrap().is_none() {
        assert!(started.elapsed() < PATIENCE, "alic-serve ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The wait on stdin is 25 ms; the rest is the drain's compaction and
    // process exit, with room for a loaded machine.
    let took = signalled.elapsed();
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
    // The half line was dropped, never answered or recorded.
    let saved = std::fs::read_to_string(&checkpoint).unwrap();
    assert!(saved.contains("\"observations\":[[[4.0],1.5]]"), "{saved}");
    let (status, rest, stderr) = daemon.finish();
    assert!(status.success(), "exit {status:?}, stderr: {stderr}");
    assert_eq!(rest, "");
    assert!(
        stderr.lines().any(|l| l == "alic-serve: drained 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn an_endless_line_is_refused_without_being_buffered() {
    let mut daemon = Daemon::start(None);
    daemon.expect(NEWSESSION, "ok session s000000 dim 1");
    let mut stdin = daemon.stdin.take().unwrap();
    // 64 MiB without a newline, then a valid request; written from a
    // second thread, since the daemon replies while the line streams in.
    let writer = std::thread::spawn(move || {
        std::io::copy(&mut std::io::repeat(b'x').take(64 << 20), &mut stdin).unwrap();
        stdin.write_all(b"\nobserve 4 1.5\n").unwrap();
        stdin
    });
    assert_eq!(daemon.read_line(), "err parse line exceeds 8192 bytes");
    assert_eq!(daemon.read_line(), "ok observed 1");
    daemon.stdin = Some(writer.join().unwrap());
    #[cfg(target_os = "linux")]
    {
        // The peak resident set stays far below the line's size.
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id())).unwrap();
        let peak_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap();
        assert!(peak_kib < 32 << 10, "peak resident set {peak_kib} KiB");
    }
    let (status, _, _) = daemon.finish();
    assert!(status.success());
}

#[test]
fn conndrop_ends_the_connection_and_shortread_tears_a_line() {
    // A dropped connection loses the line in flight and reads as EOF.
    let mut daemon = Daemon::start(Some("3:conndrop=1.0x1"));
    daemon.send(&format!("{NEWSESSION}\nbest\n"));
    let (status, rest, _) = daemon.finish();
    assert!(status.success());
    assert_eq!(rest, "");

    // A short read hands the engine half the line, which it refuses with a
    // structured error; the budget spent, the next line goes through.
    let mut daemon = Daemon::start(Some("3:shortread=1.0x1"));
    daemon.send(&format!("{NEWSESSION}\n"));
    let torn = daemon.read_line();
    assert!(torn.starts_with("err "), "{torn}");
    daemon.expect(NEWSESSION, "ok session s000000 dim 1");
    let (status, _, _) = daemon.finish();
    assert!(status.success());
}
