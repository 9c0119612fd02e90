//! The line-based text protocol: request grammar and structured replies.
//!
//! One request per line, one reply per line. Every reply starts with either
//! `ok` or `err <code>`, so a client can always dispatch on the first two
//! tokens; error payloads are free text with control characters stripped
//! (a reply can never span lines, whatever the input contained).
//!
//! ```text
//! newsession <kernel> <space> [<model>]   -> ok session <id> dim <d>
//! attach <id>                             -> ok attached <id> obs <n>
//! suggest [k]                             -> ok suggest <cfg> [<cfg> ...]
//! observe <cfg> <cost>                    -> ok observed <n>
//! best                                    -> ok best <cfg> <cost>
//! checkpoint                              -> ok checkpoint <relative-path>
//! sessions                                -> ok sessions [<id> ...]
//! health                                  -> ok health state=<s> live=<n> ...
//! drain                                   -> ok drained ok <n> failed <m> [<id>=<outcome> ...]
//! quit                                    -> ok bye          (closes the connection)
//! shutdown                                -> ok shutdown     (stops the daemon)
//! ```
//!
//! A `<cfg>` is the comma-joined parameter values, e.g. `3,0,7`. A
//! `<space>` is either the literal `spapt` (use the named SPAPT kernel's
//! own space) or comma-joined parameter specs
//! `<name>:<kind>[:<min>:<max>]` with `kind` one of `unroll`, `cache-tile`,
//! `register-tile` (ranges default to the paper's standard ranges).
//!
//! Parsing never panics, whatever bytes arrive — the protocol fuzz proptest
//! (`tests/serve_protocol.rs`) pins that.

use alic_sim::space::{Configuration, ParamKind, ParamSpec, ParameterSpace};
use alic_sim::spapt::{spapt_kernel, SpaptKernel};

/// Protocol identifier announced by the daemon when a connection opens.
pub const PROTOCOL_VERSION: &str = "alic-serve/1";

/// Longest request line the daemon accepts, in bytes.
pub const MAX_LINE_BYTES: usize = 8192;

/// Largest `suggest` batch a single request may ask for.
pub const MAX_SUGGEST: usize = 64;

/// Most tunable parameters a client-specified space may declare.
pub const MAX_SPACE_DIMENSION: usize = 32;

/// Error codes of the `err <code> <msg>` reply form.
pub mod code {
    /// The line is not a well-formed request.
    pub const PARSE: &str = "parse";
    /// The first token is not a known command.
    pub const UNKNOWN_CMD: &str = "unknown-cmd";
    /// A session command arrived with no session attached.
    pub const NO_SESSION: &str = "no-session";
    /// `attach` named a session that does not exist.
    pub const UNKNOWN_SESSION: &str = "unknown-session";
    /// The kernel name is not acceptable.
    pub const BAD_KERNEL: &str = "bad-kernel";
    /// The space spec did not parse or is out of bounds.
    pub const BAD_SPACE: &str = "bad-space";
    /// The model name is not a known surrogate family.
    pub const BAD_MODEL: &str = "bad-model";
    /// The configuration is malformed or invalid for the session's space.
    pub const BAD_CONFIG: &str = "bad-config";
    /// The observed cost is not a finite number.
    pub const BAD_COST: &str = "bad-cost";
    /// The daemon is shedding load; the message carries `retry-after-ms`.
    pub const BUSY: &str = "busy";
    /// The daemon is on the degradation ladder (checkpoint writes are
    /// failing): writes are shed with a `retry-after-ms` hint while reads
    /// are still served.
    pub const DEGRADED: &str = "degraded";
    /// The daemon is draining: state is flushed and no new work is admitted.
    pub const DRAINING: &str = "draining";
    /// The request exceeded its deadline.
    pub const DEADLINE: &str = "deadline";
    /// The watchdog flagged the request as stuck (it exceeded its deadline
    /// by the grace factor); the session was detached like the panic path.
    pub const STUCK: &str = "stuck";
    /// The request panicked; the session was detached (re-`attach` restores
    /// it from its last checkpoint).
    pub const PANIC: &str = "panic";
    /// A checkpoint or directory operation failed after bounded retries.
    pub const IO: &str = "io";
    /// A session checkpoint on disk is damaged (it was quarantined to
    /// `*.corrupt`).
    pub const CORRUPT: &str = "corrupt";
    /// `best` was asked of a session with no observations.
    pub const EMPTY: &str = "empty";
    /// The surrogate model rejected the operation; the observation was
    /// rolled back.
    pub const MODEL: &str = "model";
    /// An engine bookkeeping invariant failed mid-request. The request is
    /// abandoned (re-attach restores the session from its checkpoint); the
    /// process and the session's durable state are unaffected.
    pub const INTERNAL: &str = "internal";
}

/// A structured protocol error: the `err <code> <msg>` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrReply {
    /// One of the [`code`] constants.
    pub code: &'static str,
    /// Human-readable detail (sanitized to one line when rendered).
    pub msg: String,
}

impl ErrReply {
    /// Creates an error reply.
    pub fn new(code: &'static str, msg: impl Into<String>) -> Self {
        ErrReply {
            code,
            msg: msg.into(),
        }
    }

    /// Renders the single-line wire form `err <code> <msg>`.
    pub fn render(&self) -> String {
        format!("err {} {}", self.code, sanitize(&self.msg))
    }
}

/// Collapses a message onto one bounded line: control characters become
/// spaces and anything past 240 bytes is elided. Replies must never span
/// lines or echo unbounded attacker-controlled input.
pub fn sanitize(msg: &str) -> String {
    let mut out: String = msg
        .chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect();
    if out.len() > 240 {
        let mut cut = 240;
        while !out.is_char_boundary(cut) {
            cut -= 1;
        }
        out.truncate(cut);
        out.push_str("...");
    }
    out
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `newsession <kernel> <space> [<model>]`
    NewSession {
        /// Kernel identifier the session tunes.
        kernel: String,
        /// The tunable parameter space.
        space: ParameterSpace,
        /// Optional surrogate family name (daemon default when `None`).
        model: Option<String>,
    },
    /// `attach <id>`
    Attach {
        /// Session identifier, e.g. `s000003`.
        id: String,
    },
    /// `suggest [k]`
    Suggest {
        /// Number of candidate configurations to propose.
        count: usize,
    },
    /// `observe <cfg> <cost>`
    Observe {
        /// The evaluated configuration.
        config: Configuration,
        /// Its measured cost (finite).
        cost: f64,
    },
    /// `best`
    Best,
    /// `checkpoint`
    Checkpoint,
    /// `sessions`
    Sessions,
    /// `health`
    Health,
    /// `drain`
    Drain,
    /// `quit`
    Quit,
    /// `shutdown`
    Shutdown,
}

/// Parses one non-empty request line.
///
/// # Errors
///
/// Returns the structured [`ErrReply`] the daemon should send; never
/// panics, whatever the input bytes were.
pub fn parse_request(line: &str) -> Result<Request, ErrReply> {
    let mut tokens = line.split_whitespace();
    let command = tokens.next().unwrap_or("");
    let rest: Vec<&str> = tokens.collect();
    let arity = |want: &str| {
        ErrReply::new(
            code::PARSE,
            format!("usage: {command} {want}").trim().to_string(),
        )
    };
    match command {
        "newsession" => {
            if rest.len() < 2 || rest.len() > 3 {
                return Err(arity("<kernel> <space> [<model>]"));
            }
            let kernel = parse_kernel_name(rest[0])?;
            let space = parse_space(rest[1], &kernel)?;
            Ok(Request::NewSession {
                kernel,
                space,
                model: rest.get(2).map(|s| s.to_string()),
            })
        }
        "attach" => {
            if rest.len() != 1 {
                return Err(arity("<session-id>"));
            }
            parse_session_id(rest[0]).map(|id| Request::Attach { id })
        }
        "suggest" => {
            if rest.len() > 1 {
                return Err(arity("[k]"));
            }
            let count = match rest.first() {
                None => 1,
                Some(tok) => tok.parse::<usize>().ok().filter(|k| (1..=MAX_SUGGEST).contains(k)).ok_or_else(|| {
                    ErrReply::new(
                        code::PARSE,
                        format!("suggest count must be an integer in 1..={MAX_SUGGEST}"),
                    )
                })?,
            };
            Ok(Request::Suggest { count })
        }
        "observe" => {
            if rest.len() != 2 {
                return Err(arity("<cfg> <cost>"));
            }
            let config = parse_config(rest[0])?;
            let cost: f64 = rest[1].parse().map_err(|_| {
                ErrReply::new(code::BAD_COST, format!("cost {:?} is not a number", sanitize(rest[1])))
            })?;
            if !cost.is_finite() {
                return Err(ErrReply::new(code::BAD_COST, "cost must be finite"));
            }
            Ok(Request::Observe { config, cost })
        }
        "best" => no_args(&rest, Request::Best, arity("")),
        "checkpoint" => no_args(&rest, Request::Checkpoint, arity("")),
        "sessions" => no_args(&rest, Request::Sessions, arity("")),
        "health" => no_args(&rest, Request::Health, arity("")),
        "drain" => no_args(&rest, Request::Drain, arity("")),
        "quit" => no_args(&rest, Request::Quit, arity("")),
        "shutdown" => no_args(&rest, Request::Shutdown, arity("")),
        other => Err(ErrReply::new(
            code::UNKNOWN_CMD,
            format!(
                "unknown command {:?} (try: newsession attach suggest observe best checkpoint sessions health drain quit shutdown)",
                sanitize(&other.chars().take(32).collect::<String>())
            ),
        )),
    }
}

fn no_args(rest: &[&str], request: Request, err: ErrReply) -> Result<Request, ErrReply> {
    if rest.is_empty() {
        Ok(request)
    } else {
        Err(err)
    }
}

fn parse_kernel_name(token: &str) -> Result<String, ErrReply> {
    let ok = !token.is_empty()
        && token.len() <= 64
        && token
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(token.to_string())
    } else {
        Err(ErrReply::new(
            code::BAD_KERNEL,
            "kernel names are 1-64 chars of [A-Za-z0-9_-]",
        ))
    }
}

/// Parses and validates a session identifier (`s` + 6 digits).
pub fn parse_session_id(token: &str) -> Result<String, ErrReply> {
    let digits = token.strip_prefix('s').unwrap_or("");
    if digits.len() == 6 && digits.bytes().all(|b| b.is_ascii_digit()) {
        Ok(token.to_string())
    } else {
        Err(ErrReply::new(code::PARSE, "session ids look like s000042"))
    }
}

/// Parses a comma-joined configuration token like `3,0,7`.
pub fn parse_config(token: &str) -> Result<Configuration, ErrReply> {
    let bad = |detail: &str| {
        ErrReply::new(
            code::BAD_CONFIG,
            format!("configuration {:?}: {detail}", sanitize(token)),
        )
    };
    if token.len() > 512 {
        return Err(bad("too long"));
    }
    let values: Result<Vec<u32>, _> = token.split(',').map(|v| v.parse::<u32>()).collect();
    match values {
        Ok(values) if !values.is_empty() => Ok(Configuration::new(values)),
        _ => Err(bad("expected comma-joined unsigned integers like 3,0,7")),
    }
}

/// Renders a configuration in the wire form `3,0,7`.
pub fn format_config(config: &Configuration) -> String {
    let mut out = String::new();
    for (i, v) in config.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

/// Renders a cost in the shortest representation that round-trips
/// bit-exactly (the same float form the ledger's canonical JSON uses), so
/// replies are byte-stable across runs and restarts.
pub fn format_cost(cost: f64) -> String {
    format!("{cost:?}")
}

/// Parses a `<space>` token: `spapt` (the named kernel's own SPAPT space)
/// or comma-joined `<name>:<kind>[:<min>:<max>]` parameter specs.
///
/// # Errors
///
/// Returns a `bad-space` [`ErrReply`] describing the first offending entry.
pub fn parse_space(spec: &str, kernel: &str) -> Result<ParameterSpace, ErrReply> {
    let bad = |detail: String| ErrReply::new(code::BAD_SPACE, detail);
    if spec == "spapt" {
        let known = SpaptKernel::from_name(kernel).ok_or_else(|| {
            bad(format!(
                "kernel {:?} is not a SPAPT kernel; spell the space out as name:kind[:min:max],...",
                sanitize(kernel)
            ))
        })?;
        return Ok(spapt_kernel(known).space().clone());
    }
    let mut params = Vec::new();
    for entry in spec.split(',') {
        if params.len() >= MAX_SPACE_DIMENSION {
            return Err(bad(format!(
                "spaces may declare at most {MAX_SPACE_DIMENSION} parameters"
            )));
        }
        let parts: Vec<&str> = entry.split(':').collect();
        let context = || sanitize(&entry.chars().take(64).collect::<String>());
        if parts.len() != 2 && parts.len() != 4 {
            return Err(bad(format!(
                "parameter {:?}: expected name:kind or name:kind:min:max",
                context()
            )));
        }
        let name = parts[0];
        if name.is_empty()
            || name.len() > 64
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(bad(format!(
                "parameter {:?}: names are 1-64 chars of [A-Za-z0-9_-]",
                context()
            )));
        }
        let kind = ParamKind::from_label(parts[1]).ok_or_else(|| {
            bad(format!(
                "parameter {:?}: kind must be unroll, cache-tile, or register-tile",
                context()
            ))
        })?;
        let param = if parts.len() == 2 {
            match kind {
                ParamKind::Unroll => ParamSpec::unroll(name),
                ParamKind::CacheTile => ParamSpec::cache_tile(name),
                ParamKind::RegisterTile => ParamSpec::register_tile(name),
            }
        } else {
            let range = |tok: &str| {
                tok.parse::<u32>().map_err(|_| {
                    bad(format!(
                        "parameter {:?}: min/max must be unsigned integers",
                        context()
                    ))
                })
            };
            let (min, max) = (range(parts[2])?, range(parts[3])?);
            if min > max {
                return Err(bad(format!(
                    "parameter {:?}: empty range {min}..={max}",
                    context()
                )));
            }
            ParamSpec::new(name, kind, min, max)
        };
        params.push(param);
    }
    ParameterSpace::new(params).map_err(|_| bad("a space needs at least one parameter".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_and_misuse_is_structured() {
        assert_eq!(parse_request("best"), Ok(Request::Best));
        assert_eq!(parse_request("health"), Ok(Request::Health));
        assert_eq!(parse_request("drain"), Ok(Request::Drain));
        assert!(parse_request("health now").is_err());
        assert!(parse_request("drain fast").is_err());
        assert_eq!(parse_request("suggest"), Ok(Request::Suggest { count: 1 }));
        assert_eq!(
            parse_request("suggest 5"),
            Ok(Request::Suggest { count: 5 })
        );
        assert!(matches!(
            parse_request("observe 3,4 1.25"),
            Ok(Request::Observe { cost, .. }) if cost == 1.25
        ));
        for (line, expect) in [
            ("suggest 0", code::PARSE),
            ("suggest 65", code::PARSE),
            ("suggest 1 2", code::PARSE),
            ("observe 3,4 NaN", code::BAD_COST),
            ("observe 3,4 inf", code::BAD_COST),
            ("observe 3;4 1.0", code::BAD_CONFIG),
            ("observe", code::PARSE),
            ("attach nope", code::PARSE),
            ("frobnicate", code::UNKNOWN_CMD),
            ("newsession mvt", code::PARSE),
            ("newsession m!t u:unroll", code::BAD_KERNEL),
            ("newsession mvt u:quantum", code::BAD_SPACE),
            ("newsession mvt u:unroll:9:2", code::BAD_SPACE),
            ("newsession notakernel spapt", code::BAD_SPACE),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, expect, "{line:?} -> {}", err.render());
        }
    }

    #[test]
    fn spaces_parse_with_defaults_and_explicit_ranges() {
        let space = parse_space("u1:unroll,t:cache-tile:0:4,r:register-tile", "anything").unwrap();
        assert_eq!(space.dimension(), 3);
        assert_eq!(space.params()[0].max, 30);
        assert_eq!(space.params()[1].max, 4);
        let spapt = parse_space("spapt", "mvt").unwrap();
        assert!(spapt.dimension() > 0);
    }

    #[test]
    fn configs_round_trip_through_wire_form() {
        let c = parse_config("3,0,7").unwrap();
        assert_eq!(c.values(), &[3, 0, 7]);
        assert_eq!(format_config(&c), "3,0,7");
        assert!(parse_config("").is_err());
        assert!(parse_config("1,,2").is_err());
        assert!(parse_config("-1").is_err());
    }

    #[test]
    fn errors_render_on_one_bounded_line() {
        let err = ErrReply::new(code::PARSE, "a\nb\rc\u{7}d".to_string());
        assert_eq!(err.render(), "err parse a b c d");
        let long = ErrReply::new(code::PARSE, "x".repeat(1000));
        let rendered = long.render();
        assert!(rendered.len() < 300);
        assert!(!rendered.contains('\n'));
    }
}
