//! The `alic-serve` daemon binary.
//!
//! ```text
//! alic-serve [--dir PATH] [--model NAME] [--seed N] [--max-sessions N]
//!            [--deadline-ms N] [--tcp ADDR]
//!            [--warm-store PATH] [--noise-regime LABEL]
//! ```
//!
//! Without `--tcp` the daemon speaks the protocol on stdin/stdout. The
//! model default honors `ALIC_MODEL`; arming `ALIC_CHAOS` injects faults
//! across the storage and connection sites (see the README's Robustness
//! and Serving sections).

use std::time::Duration;

use alic_model::spec::SurrogateSpec;
use alic_serve::daemon::{serve_stdio, serve_tcp};
use alic_serve::engine::{Engine, ServeConfig};

const USAGE: &str = "usage: alic-serve [--dir PATH] [--model NAME] [--seed N] \
[--max-sessions N] [--deadline-ms N] [--tcp ADDR] \
[--warm-store PATH] [--noise-regime LABEL]";

fn fail(msg: &str) -> ! {
    eprintln!("alic-serve: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut config = ServeConfig::new("alic-serve-data");
    if let Ok(name) = std::env::var("ALIC_MODEL") {
        match SurrogateSpec::from_name(&name) {
            Some(spec) => config.default_model = spec,
            None => fail(&format!("ALIC_MODEL names unknown model {name:?}")),
        }
    }
    let mut tcp: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--dir" => config.dir = value("a path").into(),
            "--model" => {
                let name = value("a model name");
                config.default_model = SurrogateSpec::from_name(&name)
                    .unwrap_or_else(|| fail(&format!("unknown model {name:?}")));
            }
            "--seed" => {
                config.seed = value("a u64")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs a u64"));
            }
            "--max-sessions" => {
                config.max_live = value("a count")
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--max-sessions needs a count >= 1"));
            }
            "--deadline-ms" => {
                let ms: u64 = value("milliseconds")
                    .parse()
                    .unwrap_or_else(|_| fail("--deadline-ms needs a u64"));
                config.deadline = Duration::from_millis(ms);
            }
            "--tcp" => tcp = Some(value("an address like 127.0.0.1:4317")),
            "--warm-store" => config.warm_store = Some(value("a path").into()),
            "--noise-regime" => config.noise_regime = value("a label"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    let engine = Engine::open(config).unwrap_or_else(|e| fail(&e));
    let served = match tcp {
        Some(addr) => serve_tcp(engine, &addr),
        None => serve_stdio(engine),
    };
    if let Err(e) = served {
        eprintln!("alic-serve: transport error: {e}");
        std::process::exit(1);
    }
}
