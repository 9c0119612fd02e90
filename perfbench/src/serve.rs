//! `serve_session`: the real `alic-serve` binary over stdio, one client in a
//! closed loop with no think time.
//!
//! The client opens a session on a SPAPT kernel, then alternates `suggest 1`
//! and `observe <cfg> <cost>`, pricing each suggestion with the benchmark's
//! own simulated profiler. The profiler's seed, and with it the whole
//! suggestion stream, comes from one of [`INPUTS`] inputs derived from the
//! workload seed; a run cycles through them, because early-session latency
//! differs by up to 25% from one cost stream to another. It then quits,
//! restarts the daemon on the same directory and re-attaches.
//!
//! The traced run replays one session in process through the public pieces
//! the engine's `suggest` and `observe` paths are made of
//! (`TuningSession::suggest`; `record`, `to_checkpoint_string`,
//! `write_verified`, `apply_last`), and checks that it suggests what the
//! daemon suggested and ends on the daemon's final checkpoint, byte for
//! byte.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use alic_core::runner::ledger::write_verified;
use alic_serve::protocol::{format_config, parse_config};
use alic_serve::{TuningSession, PROTOCOL_VERSION};
use alic_sim::profiler::{Profiler, SimulatedProfiler};
use alic_sim::spapt::{spapt_kernel, SpaptKernel};
use alic_stats::rng::derive_seed;

use crate::layers::{self, ENCODE, ENCODE_BYTES, MEASURE, RUN, SCORE, UPDATE, WRITE};
use crate::report::{digest, median, percentile, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// The kernel every session tunes. The seed varies the measured costs (and
/// with them the whole suggestion stream); a fixed kernel keeps the session's
/// dimension, and so its per-request work, the same from seed to seed.
const KERNEL: SpaptKernel = SpaptKernel::Mvt;
/// Distinct cost streams per run.
const INPUTS: usize = 3;
/// `suggest` → `observe` pairs per session.
const PAIRS: usize = 2_000;
/// Daemon start-ups per session; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 10;
const SESSION: &str = "s000000";

/// A running daemon on piped stdio; killed and reaped if dropped early.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon and waits for its banner.
    fn start(bin: &Path, dir: &Path) -> std::io::Result<Daemon> {
        let mut child = Command::new(bin)
            .arg("--dir")
            .arg(dir)
            .env_remove("ALIC_MODEL")
            .env_remove("ALIC_CHAOS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
        };
        let banner = daemon.read_line()?;
        if banner != format!("ok {PROTOCOL_VERSION}") {
            return Err(std::io::Error::other(format!(
                "unexpected banner {banner:?}"
            )));
        }
        Ok(daemon)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("daemon closed its stdout"));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends one request line and returns the reply line.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        self.read_line()
    }

    /// Closes stdin and waits for a clean exit.
    fn finish(mut self) -> std::io::Result<bool> {
        drop(self.stdin.take());
        Ok(self.child.wait()?.success())
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

/// One full client session against the real binary.
#[derive(Default)]
struct Session {
    setup_s: Vec<f64>,
    run_s: f64,
    resume_s: f64,
    suggest_us: Vec<f64>,
    observe_us: Vec<f64>,
    /// Every reply, in order (before the restart).
    replies: Vec<String>,
    errors: u64,
    attempted: u64,
    /// Seed of the client's profiler.
    profiler_seed: u64,
    /// Each suggestion as the daemon sent it, and the cost observed for it.
    pairs: Vec<(String, f64)>,
    /// The session's checkpoint right after `newsession`, and after `quit`.
    initial_checkpoint: String,
    final_checkpoint: String,
}

impl Session {
    /// Sends one request of the session; returns the reply and its round
    /// trip in microseconds.
    fn send(&mut self, daemon: &mut Daemon, line: String) -> std::io::Result<(String, f64)> {
        let (reply, us) = time_us(|| daemon.request(&line));
        let reply = reply?;
        self.attempted += 1;
        if !reply.starts_with("ok") {
            self.errors += 1;
            eprintln!("perfbench: {line:?} -> {reply:?}");
        }
        self.replies.push(reply.clone());
        Ok((reply, us))
    }

    fn reply_digest(&self) -> u64 {
        digest(self.replies.join("\n").as_bytes())
    }
}

/// Runs one session: start-ups, the closed loop, quit, restart and attach.
fn run_session(args: &Args, bin: &Path, input: u64, out: &mut Outcome) -> std::io::Result<Session> {
    let dir = args.work_dir.join("serve");
    let checkpoint = dir.join("sessions").join(format!("{SESSION}.json"));
    let mut s = Session {
        profiler_seed: derive_seed(args.seed, 0x200 + input),
        ..Session::default()
    };
    let newsession = format!("newsession {} spapt", KERNEL.name());
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let mut d = Daemon::start(bin, &dir)?;
        let reply = d.request(&newsession)?;
        s.setup_s.push(start.elapsed().as_secs_f64());
        out.check(
            reply.starts_with(&format!("ok session {SESSION} dim ")),
            format!("newsession replied {reply:?}"),
        );
        if rep + 1 < SETUP_REPS {
            d.request("quit")?;
            out.check(d.finish()?, "daemon exited uncleanly after quit");
        } else {
            s.replies.push(reply);
            s.attempted += 1;
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one start-up");
    s.initial_checkpoint = std::fs::read_to_string(&checkpoint)?;

    let mut profiler = SimulatedProfiler::new(spapt_kernel(KERNEL), s.profiler_seed);
    let start = Instant::now();
    for i in 0..PAIRS {
        let (reply, us) = s.send(&mut daemon, "suggest 1".to_string())?;
        s.suggest_us.push(us);
        let Some(token) = reply.strip_prefix("ok suggest ") else {
            out.check(false, format!("suggest replied {reply:?}"));
            break;
        };
        let config = parse_config(token).map_err(|e| std::io::Error::other(e.render()))?;
        let cost = profiler.measure(&config).runtime;
        s.pairs.push((token.to_string(), cost));
        let line = format!("observe {} {cost:?}", format_config(&config));
        let (reply, us) = s.send(&mut daemon, line)?;
        s.observe_us.push(us);
        if reply != format!("ok observed {}", i + 1) {
            out.check(false, format!("observe {} replied {reply:?}", i + 1));
            break;
        }
    }
    s.run_s = start.elapsed().as_secs_f64();
    let (best, _) = s.send(&mut daemon, "best".to_string())?;
    let (bye, _) = s.send(&mut daemon, "quit".to_string())?;
    out.check(bye == "ok bye", format!("quit replied {bye:?}"));
    out.check(daemon.finish()?, "daemon exited uncleanly after quit");
    s.final_checkpoint = std::fs::read_to_string(&checkpoint)?;

    let start = Instant::now();
    let mut daemon = Daemon::start(bin, &dir)?;
    let attached = daemon.request(&format!("attach {SESSION}"))?;
    s.resume_s = start.elapsed().as_secs_f64();
    let best_after = daemon.request("best")?;
    daemon.request("quit")?;
    out.check(daemon.finish()?, "restarted daemon exited uncleanly");
    s.attempted += 3;
    out.check(
        attached == format!("ok attached {SESSION} obs {}", s.observe_us.len()),
        format!("attach after restart replied {attached:?}"),
    );
    out.check(best_after == best, "best changed across the restart");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(s)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let Some(bin) = args.serve_bin.clone() else {
        out.check(false, "--serve-bin is required for serve_session");
        return;
    };
    println!("serve: kernel {KERNEL}, {PAIRS} suggest/observe pairs, daemon default model");
    if let Err(e) = measure(args, &bin, out) {
        out.failed += 1;
        out.check(false, format!("serve session error: {e}"));
    }
}

fn measure(args: &Args, bin: &Path, out: &mut Outcome) -> std::io::Result<()> {
    let mut sessions: Vec<Session> = Vec::new();
    let budget = Instant::now();
    loop {
        let input = sessions.len() % INPUTS;
        let cycle = Instant::now();
        let s = run_session(args, bin, input as u64, out)?;
        out.attempted += s.attempted;
        out.failed += s.errors;
        let eighth = s.observe_us.len() / 8;
        println!(
            "serve: input {input}: {} requests, reply digest {:016x}, run {:.3} s, resume {:.3} s, \
             observe p50 first/last eighth {:.1}/{:.1} us",
            s.attempted,
            s.reply_digest(),
            s.run_s,
            s.resume_s,
            median(&s.observe_us[..eighth]),
            median(&s.observe_us[s.observe_us.len() - eighth..])
        );
        for (verb, v) in [("observe", &s.observe_us), ("suggest", &s.suggest_us)] {
            println!(
                "serve: {verb} n={} p50={:.1} p90={:.1} p99={:.1} max={:.1} us",
                v.len(),
                percentile(v, 0.5),
                percentile(v, 0.9),
                percentile(v, 0.99),
                percentile(v, 1.0)
            );
        }
        let same_input = sessions.len().checked_sub(INPUTS);
        if let Some(earlier) = same_input.and_then(|i| sessions.get(i)) {
            out.check(
                earlier.reply_digest() == s.reply_digest(),
                "reply stream differs between sessions of one input",
            );
        }
        sessions.push(s);
        let cycle_s = cycle.elapsed().as_secs_f64();
        let all_inputs_ran = sessions.len() >= INPUTS;
        if args.trace || (all_inputs_ran && budget.elapsed().as_secs_f64() + cycle_s > args.seconds)
        {
            break;
        }
    }

    if args.trace {
        return trace(args, &sessions[0], out);
    }
    let setup: Vec<f64> = sessions.iter().flat_map(|s| s.setup_s.clone()).collect();
    let run: Vec<f64> = sessions.iter().map(|s| s.run_s).collect();
    out.metric("setup_s", median(&setup), "s");
    out.metric("run_s", median(&run), "s");
    Ok(())
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e6)
}

/// Replays session `s` in process through the pieces of the engine's
/// `suggest` and `observe` paths, in the engine's order, with spans when
/// there is a tracer. Returns the replay's wall time.
fn replay(
    args: &Args,
    s: &Session,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> std::io::Result<f64> {
    let bad = |e: alic_serve::ErrReply| std::io::Error::other(e.render());
    let other = |e: &dyn std::fmt::Display| std::io::Error::other(e.to_string());
    let path = args.work_dir.join("serve-replay.json");
    let mut session = TuningSession::from_checkpoint_str(&s.initial_checkpoint).map_err(bad)?;
    let mut profiler = SimulatedProfiler::new(spapt_kernel(KERNEL), s.profiler_seed);
    let mut text = String::new();
    let start = Instant::now();
    let run = tracer.map(|t| t.span(RUN));
    for (token, cost) in &s.pairs {
        let suggested =
            Tracer::maybe_time(tracer, SCORE, || session.suggest(1)).map_err(|e| other(&e))?;
        let Some(config) = suggested.into_iter().next() else {
            out.check(false, "replay suggested nothing");
            break;
        };
        if format_config(&config) != *token {
            out.check(
                false,
                format!("replay suggested {config:?}, the daemon {token}"),
            );
            break;
        }
        let measured = Tracer::maybe_time(tracer, MEASURE, || profiler.measure(&config).runtime);
        if measured.to_bits() != cost.to_bits() {
            out.check(
                false,
                format!("replay measured {measured:?}, the client {cost:?}"),
            );
            break;
        }
        session.record(config, measured);
        text =
            Tracer::maybe_time(tracer, ENCODE, || session.to_checkpoint_string()).map_err(bad)?;
        if let Some(tracer) = tracer {
            tracer.count(ENCODE_BYTES, text.len() as u64);
        }
        Tracer::maybe_time(tracer, WRITE, || write_verified(&path, &text))
            .map_err(|e| other(&e))?;
        Tracer::maybe_time(tracer, UPDATE, || session.apply_last()).map_err(|e| other(&e))?;
    }
    drop(run);
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    out.check(
        text == s.final_checkpoint,
        "replayed checkpoint differs from the daemon's",
    );
    Ok(wall)
}

/// The traced run: an untraced replay for the overhead base, then the
/// traced replay at the default thread count and its one-thread twin.
fn trace(args: &Args, s: &Session, out: &mut Outcome) -> std::io::Result<()> {
    let untraced_s = replay(args, s, None, out)?;
    let tracer = Tracer::default();
    let traced_s = replay(args, s, Some(&tracer), out)?;
    let twin = Tracer::default();
    rayon::set_num_threads(1);
    let single = replay(args, s, Some(&twin), out);
    rayon::set_num_threads(0);
    single?;
    layers::report(out, &tracer, &twin, traced_s, untraced_s);
    crate::write_trace(args, &[("default", &tracer), ("t1", &twin)]);
    Ok(())
}
