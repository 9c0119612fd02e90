//! Tuning sessions: a live incremental surrogate plus its durable event log.
//!
//! A cold session never serializes model internals. Its checkpoint is an
//! *event log* — (space, model family, seed, observations in arrival order)
//! — and restoring replays that log through the same deterministic
//! fit/update path the live session used. The PR 3/5 determinism contracts
//! (incremental update ≡ cold refit, thread-count-independent fits) are
//! what make the replayed surrogate **bit-identical** to the one that was
//! killed, which in turn makes the read-only requests (`suggest`, `best`)
//! — pure functions of the log — byte-identical across a restart.
//!
//! A **warm-started** session additionally carries the seeding surrogate's
//! snapshot (copied out of the warm store at creation) *inside its own
//! checkpoint*, so the replay recipe becomes "restore the snapshot, then
//! update once per logged observation" — still a pure function of the
//! checkpoint bytes, never of the warm store's later contents.
//!
//! The checkpoint is built and read with the workspace's JSON codec,
//! [`alic_data::io`]: the full-range seed is an [`io::hex_u64`] string and
//! is accepted back only as exactly 16 lowercase hex digits, so a
//! truncated or re-signed seed is `corrupt` rather than a replay with some
//! other seed. Any decode failure names the offending field.
//!
//! The session keeps its checkpoint encoded. Everything before the
//! observations and everything after them is encoded once, when the
//! session is created or restored; each observation is encoded once, when
//! it is recorded, and appended. A checkpoint is then those pieces joined,
//! so its cost per observe no longer grows with the log, and its bytes are
//! exactly what encoding the whole document as one codec tree gives.
//!
//! Between compactions the engine keeps each observation's entry in the
//! session's [journal] instead, and
//! [`restore`](TuningSession::restore) replays the journal after the
//! checkpoint it extends.

use std::collections::HashMap;

use alic_data::io::{self, JsonValue};
use alic_data::DataError;
use alic_model::snapshot::{restore_snapshot, Snapshot};
use alic_model::spec::SurrogateSpec;
use alic_model::traits::ActiveSurrogate;
use alic_model::ModelError;
use alic_sim::space::{Configuration, ParamKind, ParamSpec, ParameterSpace};
use alic_stats::rng::seeded_substream;

use crate::journal;
use crate::protocol::{code, sanitize, ErrReply};

/// Schema tag of a session checkpoint file.
pub const SESSION_SCHEMA: &str = "alic-serve-session/v1";

/// Observations required before the surrogate is first fitted; until then
/// suggestions are model-free random exploration (the learner's warmup).
pub const FIT_MIN: usize = 4;

/// Candidate-pool size drawn for each `suggest` (grows with the batch).
pub const SUGGEST_POOL: usize = 64;

/// How many of the most recent observations anchor the ALC reference set.
pub const REFERENCE_WINDOW: usize = 32;

/// RNG stream label separating suggest draws from every other consumer of
/// the session seed.
const STREAM_SUGGEST: u64 = 0x5347;

/// A warm-start seed: the trained surrogate snapshot a session adopted at
/// creation. Copied into the session checkpoint so replay never depends on
/// the warm store again.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// `alic-model-snapshot/v1` document of the seeding surrogate.
    pub snapshot: Snapshot,
    /// Observations the seeding surrogate had been trained on (provenance
    /// for replies and reporting; the snapshot itself carries the rows).
    pub observations: usize,
}

/// One tuning session: identity, space, model family, and the observation
/// log that *is* its durable state.
#[derive(Debug)]
pub struct TuningSession {
    id: String,
    kernel: String,
    space: ParameterSpace,
    spec: SurrogateSpec,
    seed: u64,
    log: Vec<(Configuration, f64)>,
    /// How many times each configuration occurs in `log`.
    seen: HashMap<Configuration, usize>,
    model: Option<Box<dyn ActiveSurrogate + Send>>,
    warm: Option<WarmStart>,
    /// The checkpoint of exactly `log`, or the codec's first error on it.
    encoded: Result<Encoded, DataError>,
}

/// A checkpoint in three pieces: `head + body + tail` is the document.
#[derive(Debug, Default)]
struct Encoded {
    /// Every field before the observations, through `"observations":[`.
    head: String,
    /// The comma-joined `[[values],cost]` entries, in log order.
    body: String,
    /// Where the last entry starts in `body`.
    last: usize,
    /// `]`, the `warm` field of a warm session, then `}` and a newline.
    tail: String,
}

impl Encoded {
    /// Appends one observation entry, `[[values],cost]`, to the body.
    fn push(&mut self, config: &Configuration, cost: f64) -> Result<(), DataError> {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.last = self.body.len();
        let values = config.values().iter();
        JsonValue::Array(vec![
            JsonValue::Array(values.map(|&v| JsonValue::Number(f64::from(v))).collect()),
            JsonValue::Number(cost),
        ])
        .write_into(&mut self.body)
    }
}

impl TuningSession {
    /// Creates an empty session.
    pub fn new(
        id: impl Into<String>,
        kernel: impl Into<String>,
        space: ParameterSpace,
        spec: SurrogateSpec,
        seed: u64,
    ) -> Self {
        Self::with_warm(id, kernel, space, spec, seed, None)
    }

    /// Creates an empty session with its warm start (if any) in place, and
    /// encodes the checkpoint fields that never change after this.
    fn with_warm(
        id: impl Into<String>,
        kernel: impl Into<String>,
        space: ParameterSpace,
        spec: SurrogateSpec,
        seed: u64,
        warm: Option<WarmStart>,
    ) -> Self {
        let mut session = TuningSession {
            id: id.into(),
            kernel: kernel.into(),
            space,
            spec,
            seed,
            log: Vec::new(),
            seen: HashMap::new(),
            model: None,
            warm,
            encoded: Ok(Encoded::default()),
        };
        session.encoded = session.encode();
        session
    }

    /// Creates a session seeded from a previously trained surrogate
    /// snapshot. The snapshot is restored immediately so a broken or
    /// incompatible one is rejected here — callers degrade to a cold
    /// [`TuningSession::new`] session on error.
    ///
    /// # Errors
    ///
    /// A `model` reply when the snapshot does not restore or its trained
    /// dimension disagrees with the space.
    pub fn new_warm(
        id: impl Into<String>,
        kernel: impl Into<String>,
        space: ParameterSpace,
        spec: SurrogateSpec,
        seed: u64,
        warm: WarmStart,
    ) -> Result<TuningSession, ErrReply> {
        let mut session = TuningSession::with_warm(id, kernel, space, spec, seed, Some(warm));
        session.rebuild().map_err(|e| {
            ErrReply::new(
                code::MODEL,
                format!(
                    "warm-starting session {}: {}",
                    session.id,
                    sanitize(&e.to_string())
                ),
            )
        })?;
        Ok(session)
    }

    /// The session identifier (`s000042`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The kernel name the session tunes.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The tunable space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The surrogate family.
    pub fn spec(&self) -> SurrogateSpec {
        self.spec
    }

    /// Number of recorded observations.
    pub fn observations(&self) -> usize {
        self.log.len()
    }

    /// The observation log, in arrival order.
    pub fn log(&self) -> &[(Configuration, f64)] {
        &self.log
    }

    /// Model-input features of a configuration: each parameter min-max
    /// normalized to `[0, 1]` (a pure function of the space, so live and
    /// replayed sessions featurize identically).
    pub fn features(&self, config: &Configuration) -> Vec<f64> {
        self.feature_rows(std::iter::once(config))
    }

    /// The [`features`](Self::features) of `configs`, one row each, in one
    /// flat buffer of `configs.len() × dimension` values.
    fn feature_rows<'c>(
        &self,
        configs: impl ExactSizeIterator<Item = &'c Configuration>,
    ) -> Vec<f64> {
        let params = self.space.params();
        let mut flat = Vec::with_capacity(configs.len() * params.len());
        for config in configs {
            flat.extend(config.values().iter().zip(params).map(|(&v, p)| {
                if p.max == p.min {
                    0.0
                } else {
                    (v as f64 - p.min as f64) / (p.max as f64 - p.min as f64)
                }
            }));
        }
        flat
    }

    /// Appends one observation to the log **without** touching the model.
    /// The engine follows it with [`apply_last`](Self::apply_last) and only
    /// then checkpoints, so the disk only ever holds observations the
    /// surrogate accepted, and a reply is only ever written for a durable
    /// one.
    ///
    /// The observation's checkpoint entry is encoded here, once, and
    /// appended to the session's encoded checkpoint. A cost the codec
    /// cannot write (NaN, infinite) is still logged; the failure is kept
    /// and [`to_checkpoint_string`](Self::to_checkpoint_string) reports it.
    pub fn record(&mut self, config: Configuration, cost: f64) {
        if let Ok(encoded) = &mut self.encoded {
            if let Err(e) = encoded.push(&config, cost) {
                self.encoded = Err(e);
            }
        }
        *self.seen.entry(config.clone()).or_default() += 1;
        self.log.push((config, cost));
    }

    /// The checkpoint entry of the most recent [`record`](Self::record),
    /// `[[values],cost]`: the payload of its journal line.
    ///
    /// # Errors
    ///
    /// The same `io` reply as
    /// [`to_checkpoint_string`](Self::to_checkpoint_string) when the log
    /// holds a cost the codec cannot write.
    pub fn last_entry(&self) -> Result<&str, ErrReply> {
        let encoded = self.encoded.as_ref().map_err(|e| self.encode_failed(e))?;
        Ok(&encoded.body[encoded.last..])
    }

    /// Rolls back the most recent [`record`](Self::record) (model or
    /// checkpoint failure: the observation must not survive in memory
    /// either; follow with [`rebuild`](Self::rebuild) to drop it from the
    /// surrogate too).
    ///
    /// Re-encodes the checkpoint from the remaining log: O(n), like the
    /// rebuild that follows it, and the bytes are those from before the
    /// `record`.
    pub fn unrecord(&mut self) {
        if let Some((config, _)) = self.log.pop() {
            if let Some(n) = self.seen.get_mut(&config) {
                *n -= 1;
                if *n == 0 {
                    self.seen.remove(&config);
                }
            }
        }
        self.encoded = self.encode();
    }

    /// Folds the most recently recorded observation into the surrogate.
    ///
    /// Cold sessions do nothing below [`FIT_MIN`] observations, an initial
    /// fit exactly at [`FIT_MIN`], an incremental update after. Warm
    /// sessions inherit a fitted model at creation, so **every**
    /// observation is an incremental update — no warmup phase.
    ///
    /// # Errors
    ///
    /// Propagates model errors (the caller rolls the observation back).
    pub fn apply_last(&mut self) -> alic_model::Result<()> {
        let n = self.log.len();
        if self.warm.is_none() {
            if n < FIT_MIN {
                return Ok(());
            }
            if n == FIT_MIN || self.model.is_none() {
                return self.rebuild();
            }
        } else if self.model.is_none() {
            return self.rebuild();
        }
        let (config, cost) = self.log.last().expect("apply_last follows a record");
        let (x, cost) = (self.features(config), *cost);
        let model = self.model.as_mut().expect("checked above");
        model.update(&x, cost)
    }

    /// Rebuilds the surrogate by replaying the log through the exact
    /// sequence a live session performs. Cold: fit on the first
    /// [`FIT_MIN`] observations, then one incremental update per later
    /// observation. Warm: restore the adopted snapshot, then one
    /// incremental update per logged observation — bit-identical to the
    /// live warm session by the snapshot round-trip contract.
    ///
    /// # Errors
    ///
    /// Leaves the model absent and propagates the first model error.
    pub fn rebuild(&mut self) -> alic_model::Result<()> {
        self.model = None;
        if let Some(warm) = &self.warm {
            let mut model = restore_snapshot(&warm.snapshot)?;
            if model.dimension() != Some(self.space.dimension()) {
                return Err(ModelError::Snapshot(
                    "warm snapshot dimension disagrees with the session space".to_string(),
                ));
            }
            let rows: Vec<Vec<f64>> = self.log.iter().map(|(c, _)| self.features(c)).collect();
            for (row, (_, y)) in rows.iter().zip(&self.log) {
                model.update(row, *y)?;
            }
            self.model = Some(model);
            return Ok(());
        }
        if self.log.len() < FIT_MIN {
            return Ok(());
        }
        let rows: Vec<Vec<f64>> = self.log.iter().map(|(c, _)| self.features(c)).collect();
        let views: Vec<&[f64]> = rows[..FIT_MIN].iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = self.log[..FIT_MIN].iter().map(|(_, y)| *y).collect();
        let mut model = self.spec.build(self.seed);
        model.fit(&views, &ys)?;
        for (row, (_, y)) in rows[FIT_MIN..].iter().zip(&self.log[FIT_MIN..]) {
            model.update(row, *y)?;
        }
        self.model = Some(model);
        Ok(())
    }

    /// Proposes `count` candidate configurations.
    ///
    /// This is a **pure function of durable state**: the candidate pool is
    /// drawn from the RNG substream keyed by `(session seed, observation
    /// count)`, already-observed configurations are filtered out, and with
    /// a fitted model candidates are ranked by their ALC score against the
    /// most recent [`REFERENCE_WINDOW`] observations (ties break on draw
    /// order) through [`ActiveSurrogate::alc_rank`]. Identical log ⇒
    /// identical reply — before or after a daemon restart, which is the
    /// restart-resume guarantee for reads.
    ///
    /// # Errors
    ///
    /// Propagates model scoring errors, including
    /// [`ModelError::Numerical`] for a non-finite score.
    pub fn suggest(&self, count: usize) -> alic_model::Result<Vec<Configuration>> {
        let mut rng = seeded_substream(self.seed, STREAM_SUGGEST, self.log.len() as u64);
        let pool = self
            .space
            .sample_distinct(&mut rng, SUGGEST_POOL.max(4 * count));
        let fresh: Vec<&Configuration> =
            pool.iter().filter(|c| !self.seen.contains_key(c)).collect();
        // A tiny, fully observed space still deserves an answer: fall back
        // to re-suggesting observed points rather than replying with fewer
        // than asked (or nothing).
        let candidates: Vec<&Configuration> = if fresh.is_empty() {
            pool.iter().collect()
        } else {
            fresh
        };
        let take = count.min(candidates.len());
        let model = match &self.model {
            None => return Ok(candidates[..take].iter().map(|c| (*c).clone()).collect()),
            Some(m) => m,
        };
        let dim = self.space.dimension();
        let rows = self.feature_rows(candidates.iter().copied());
        let views: Vec<&[f64]> = rows.chunks_exact(dim).collect();
        let tail = self.log.len().saturating_sub(REFERENCE_WINDOW);
        let ref_rows = self.feature_rows(self.log[tail..].iter().map(|(c, _)| c));
        let ref_views: Vec<&[f64]> = ref_rows.chunks_exact(dim).collect();
        Ok(model
            .alc_rank(&views, &ref_views, take)?
            .into_iter()
            .map(|i| candidates[i].clone())
            .collect())
    }

    /// The lowest-cost observation so far (earliest wins ties), or `None`
    /// for an empty session.
    pub fn best(&self) -> Option<(&Configuration, f64)> {
        let mut best: Option<(&Configuration, f64)> = None;
        for (config, cost) in &self.log {
            if best.is_none_or(|(_, b)| *cost < b) {
                best = Some((config, *cost));
            }
        }
        best
    }

    /// Warm-start provenance: the observation count of the seeding
    /// surrogate, or `None` for a cold session.
    pub fn warm_observations(&self) -> Option<usize> {
        self.warm.as_ref().map(|w| w.observations)
    }

    /// Serializes the trained surrogate for the warm store: `(training
    /// depth, snapshot document)`. `None` when no model is fitted yet or
    /// the family does not support snapshots.
    pub fn model_snapshot(&self) -> Option<(usize, Snapshot)> {
        let model = self.model.as_ref()?;
        let doc = model.snapshot().ok()?;
        Some((model.observation_count(), doc))
    }

    /// Serializes the session checkpoint (canonical JSON + newline).
    ///
    /// Joins the pieces encoded at creation and by each
    /// [`record`](Self::record): nothing is re-encoded, and the bytes equal
    /// those of the whole document written by the codec in one pass.
    ///
    /// # Errors
    ///
    /// Returns an `io` error reply if serialization failed (a non-finite
    /// cost cannot enter the engine's log, so this does not happen in
    /// practice).
    pub fn to_checkpoint_string(&self) -> Result<String, ErrReply> {
        let Encoded {
            head, body, tail, ..
        } = self.encoded.as_ref().map_err(|e| self.encode_failed(e))?;
        let mut text = String::with_capacity(head.len() + body.len() + tail.len());
        text.push_str(head);
        text.push_str(body);
        text.push_str(tail);
        Ok(text)
    }

    fn encode_failed(&self, e: &DataError) -> ErrReply {
        ErrReply::new(code::IO, format!("serializing session {}: {e}", self.id))
    }

    /// Encodes the whole checkpoint: the fixed fields, then one entry per
    /// logged observation.
    fn encode(&self) -> Result<Encoded, DataError> {
        let params = self.space.params().iter().map(|p| {
            io::object([
                ("name", JsonValue::String(p.name.clone())),
                ("kind", JsonValue::String(p.kind.label().to_string())),
                ("min", JsonValue::Number(f64::from(p.min))),
                ("max", JsonValue::Number(f64::from(p.max))),
            ])
        });
        let mut head = io::object([
            ("schema", JsonValue::String(SESSION_SCHEMA.to_string())),
            ("id", JsonValue::String(self.id.clone())),
            ("kernel", JsonValue::String(self.kernel.clone())),
            ("model", JsonValue::String(self.spec.name().to_string())),
            // Seeds use the full u64 range; hex keeps them exact where a
            // JSON number (f64) would round above 2^53.
            ("seed", io::hex_u64(self.seed)),
            ("space", JsonValue::Array(params.collect())),
            ("observations", JsonValue::Array(Vec::new())),
        ])
        .to_json_string()?;
        // Keep the open observations array: entries and `]` come later.
        head.truncate(head.len() - "]}".len());
        let mut tail = String::from("]");
        // Cold checkpoints omit the field entirely, keeping their bytes
        // identical to pre-warm-store builds.
        if let Some(warm) = &self.warm {
            tail.push_str(",\"warm\":");
            io::object([
                ("observations", io::int(warm.observations as u64)?),
                ("snapshot", warm.snapshot.clone()),
            ])
            .write_into(&mut tail)?;
        }
        tail.push_str("}\n");
        let mut encoded = Encoded {
            head,
            body: String::new(),
            last: 0,
            tail,
        };
        for (config, cost) in &self.log {
            encoded.push(config, *cost)?;
        }
        Ok(encoded)
    }

    /// Restores a session from checkpoint text and replays its log into a
    /// rebuilt surrogate.
    ///
    /// # Errors
    ///
    /// `corrupt` for anything structurally wrong with the checkpoint (the
    /// engine quarantines the file), `model` when the deterministic replay
    /// itself fails (e.g. an injected jitter-ladder exhaustion) — the file
    /// is fine and a retry may succeed.
    pub fn from_checkpoint_str(text: &str) -> Result<TuningSession, ErrReply> {
        Self::restore(text, b"").map(|(session, _)| session)
    }

    /// Restores a session from its checkpoint text and its
    /// [journal], then replays the whole log into a rebuilt
    /// surrogate. Returns the session and the length of the journal's
    /// valid prefix: everything after it is a torn tail the caller
    /// truncates.
    ///
    /// Journal lines at or below the checkpoint's observation count are
    /// skipped (a compaction finished but its journal was not yet
    /// removed). The first line with a bad checksum, a bad entry, or an
    /// index out of sequence ends the valid prefix.
    ///
    /// # Errors
    ///
    /// As [`from_checkpoint_str`](Self::from_checkpoint_str); a damaged
    /// journal is never an error.
    pub fn restore(checkpoint: &str, journal: &[u8]) -> Result<(TuningSession, usize), ErrReply> {
        let corrupt = |detail: String| ErrReply::new(code::CORRUPT, detail);
        let doc = JsonValue::parse(checkpoint)
            .map_err(|e| corrupt(format!("unparseable checkpoint: {e}")))?;
        let mut session = Self::decode(&doc).map_err(|e| corrupt(e.to_string()))?;
        let valid = session.replay_journal(journal);
        session.rebuild().map_err(|e| {
            // A snapshot that no longer restores is damage to the
            // checkpoint itself (quarantined), not a transient model fault.
            let code = match &e {
                ModelError::Snapshot(_) => code::CORRUPT,
                _ => code::MODEL,
            };
            ErrReply::new(
                code,
                format!(
                    "replaying session {}: {}",
                    session.id,
                    sanitize(&e.to_string())
                ),
            )
        })?;
        Ok((session, valid))
    }

    /// Records the journal's observations that follow the checkpoint and
    /// returns the length of its valid prefix.
    fn replay_journal(&mut self, journal: &[u8]) -> usize {
        let mut valid = 0;
        let mut previous = None;
        for raw in journal.split_inclusive(|&b| b == b'\n') {
            let Some((index, entry)) = journal::parse_line(raw) else {
                break;
            };
            if previous.is_some_and(|p: usize| index != p + 1) {
                break;
            }
            if index > self.log.len() {
                let decoded = JsonValue::parse(entry).and_then(|e| self.decode_entry(&e));
                match decoded {
                    Ok((config, cost)) if index == self.log.len() + 1 => self.record(config, cost),
                    _ => break,
                }
            }
            previous = Some(index);
            valid += raw.len();
        }
        valid
    }

    fn decode(doc: &JsonValue) -> alic_data::Result<TuningSession> {
        let schema = io::field_str(doc, "schema")?;
        if schema != SESSION_SCHEMA {
            return Err(DataError::Parse(format!(
                "schema {schema:?} (expected {SESSION_SCHEMA:?})"
            )));
        }
        let model_name = io::field_str(doc, "model")?;
        let spec = SurrogateSpec::from_name(model_name)
            .ok_or_else(|| DataError::Parse(format!("unknown model family {model_name:?}")))?;
        let mut params = Vec::new();
        for p in io::field_array(doc, "space")? {
            let name = io::field_str(p, "name")?;
            let kind = io::field_str(p, "kind")?;
            let kind = ParamKind::from_label(kind)
                .ok_or_else(|| DataError::Parse(format!("unknown parameter kind {kind:?}")))?;
            let bound = |field: &str| {
                u32::try_from(io::field_u64(p, field)?).map_err(|_| {
                    DataError::Parse(format!("space entry {name:?}: {field} out of range"))
                })
            };
            let (min, max) = (bound("min")?, bound("max")?);
            if min > max {
                return Err(DataError::Parse(format!(
                    "space entry {name:?}: empty range {min}..={max}"
                )));
            }
            params.push(ParamSpec::new(name, kind, min, max));
        }
        let space =
            ParameterSpace::new(params).map_err(|e| DataError::Parse(format!("space: {e}")))?;
        let warm = match io::optional_field(doc, "warm") {
            Some(warm) => Some(WarmStart {
                snapshot: warm.field("snapshot")?.clone(),
                observations: io::field_usize(warm, "observations")?,
            }),
            None => None,
        };
        let mut session = TuningSession::with_warm(
            io::field_str(doc, "id")?,
            io::field_str(doc, "kernel")?,
            space,
            spec,
            io::field_hex_u64(doc, "seed")?,
            warm,
        );
        for entry in io::field_array(doc, "observations")? {
            let (config, cost) = session.decode_entry(entry)?;
            session.record(config, cost);
        }
        Ok(session)
    }

    /// Decodes one observation entry, `[[values],cost]`, of this session's
    /// space.
    fn decode_entry(&self, entry: &JsonValue) -> alic_data::Result<(Configuration, f64)> {
        let [values, cost] = entry.as_array()? else {
            return Err(DataError::Parse(
                "observation entries are [values, cost] pairs".to_string(),
            ));
        };
        let values = values
            .as_array()?
            .iter()
            .map(|v| {
                u32::try_from(v.as_u64()?)
                    .map_err(|_| DataError::Parse("observation value out of range".to_string()))
            })
            .collect::<alic_data::Result<Vec<u32>>>()?;
        let config = Configuration::new(values);
        self.space
            .validate(&config)
            .map_err(|e| DataError::Parse(format!("observation outside the space: {e}")))?;
        // The parser admits only finite numbers, so the cost is finite.
        Ok((config, cost.as_f64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashSet;

    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The oracle for [`TuningSession::to_checkpoint_string`]: the whole
    /// checkpoint built as one codec tree and encoded in one pass.
    fn tree_checkpoint(s: &TuningSession) -> Result<String, ErrReply> {
        let params = s.space.params().iter().map(|p| {
            io::object([
                ("name", JsonValue::String(p.name.clone())),
                ("kind", JsonValue::String(p.kind.label().to_string())),
                ("min", JsonValue::Number(f64::from(p.min))),
                ("max", JsonValue::Number(f64::from(p.max))),
            ])
        });
        let observations = s.log.iter().map(|(c, y)| {
            JsonValue::Array(vec![
                JsonValue::Array(
                    c.values()
                        .iter()
                        .map(|&v| JsonValue::Number(f64::from(v)))
                        .collect(),
                ),
                JsonValue::Number(*y),
            ])
        });
        let mut fields = vec![
            ("schema", JsonValue::String(SESSION_SCHEMA.to_string())),
            ("id", JsonValue::String(s.id.clone())),
            ("kernel", JsonValue::String(s.kernel.clone())),
            ("model", JsonValue::String(s.spec.name().to_string())),
            ("seed", io::hex_u64(s.seed)),
            ("space", JsonValue::Array(params.collect())),
            ("observations", JsonValue::Array(observations.collect())),
        ];
        let failed =
            |e: DataError| ErrReply::new(code::IO, format!("serializing session {}: {e}", s.id));
        if let Some(warm) = &s.warm {
            fields.push((
                "warm",
                io::object([
                    (
                        "observations",
                        io::int(warm.observations as u64).map_err(failed)?,
                    ),
                    ("snapshot", warm.snapshot.clone()),
                ]),
            ));
        }
        io::object(fields)
            .to_json_string()
            .map(|s| s + "\n")
            .map_err(failed)
    }

    /// Both encoders' output, with errors rendered so they compare too.
    fn encodings(s: &TuningSession) -> (Result<String, String>, Result<String, String>) {
        let render = |e: ErrReply| e.render();
        (
            s.to_checkpoint_string().map_err(render),
            tree_checkpoint(s).map_err(render),
        )
    }

    fn small_session(spec: SurrogateSpec) -> TuningSession {
        let space = ParameterSpace::new(vec![
            ParamSpec::new("u1", ParamKind::Unroll, 1, 12),
            ParamSpec::new("t1", ParamKind::CacheTile, 0, 6),
        ])
        .unwrap();
        TuningSession::new("s000000", "mvt", space, spec, 42)
    }

    fn observe(session: &mut TuningSession, values: Vec<u32>, cost: f64) {
        session.record(Configuration::new(values), cost);
        session.apply_last().unwrap();
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        for spec in [
            SurrogateSpec::from_name("dynatree").unwrap(),
            SurrogateSpec::from_name("gp").unwrap(),
            SurrogateSpec::from_name("mean").unwrap(),
        ] {
            let mut live = small_session(spec);
            for (i, cost) in [4.0, 3.5, 3.8, 2.9, 3.1, 2.7].iter().enumerate() {
                observe(&mut live, vec![1 + i as u32, (i % 7) as u32], *cost);
            }
            let text = live.to_checkpoint_string().unwrap();
            let restored = TuningSession::from_checkpoint_str(&text).unwrap();
            assert_eq!(restored.to_checkpoint_string().unwrap(), text);
            assert_eq!(restored.observations(), live.observations());
            // Replayed surrogate state is bit-identical: pure reads agree
            // byte for byte.
            for k in [1, 4] {
                assert_eq!(
                    live.suggest(k).unwrap(),
                    restored.suggest(k).unwrap(),
                    "{spec}: suggest({k}) diverged after restore"
                );
            }
            assert_eq!(
                live.best().map(|(c, y)| (c.clone(), y)),
                restored.best().map(|(c, y)| (c.clone(), y))
            );
        }
    }

    #[test]
    fn suggest_is_pure_and_avoids_observed_points() {
        let mut s = small_session(SurrogateSpec::from_name("gp").unwrap());
        for (i, cost) in [4.0, 3.5, 3.8, 2.9, 3.1].iter().enumerate() {
            observe(&mut s, vec![1 + i as u32, (i % 7) as u32], *cost);
        }
        let a = s.suggest(3).unwrap();
        let b = s.suggest(3).unwrap();
        assert_eq!(a, b, "suggest must be idempotent between observations");
        let seen: HashSet<&Configuration> = s.log().iter().map(|(c, _)| c).collect();
        for c in &a {
            assert!(!seen.contains(c), "suggested an already-observed point");
        }
        observe(&mut s, vec![9, 3], 2.5);
        // New evidence may (and here does, by stream design) change the draw.
        let c = s.suggest(3).unwrap();
        assert_eq!(c, s.suggest(3).unwrap());
    }

    /// `suggest` as it ranked before `alc_rank`: every candidate scored
    /// with `alc_scores`, then a stable sort by descending score.
    fn sorted_suggest(s: &TuningSession, count: usize) -> Vec<Configuration> {
        let mut rng = seeded_substream(s.seed, STREAM_SUGGEST, s.log.len() as u64);
        let pool = s
            .space
            .sample_distinct(&mut rng, SUGGEST_POOL.max(4 * count));
        let fresh: Vec<&Configuration> = pool.iter().filter(|c| !s.seen.contains_key(c)).collect();
        let candidates: Vec<&Configuration> = if fresh.is_empty() {
            pool.iter().collect()
        } else {
            fresh
        };
        let take = count.min(candidates.len());
        let rows: Vec<Vec<f64>> = candidates.iter().map(|c| s.features(c)).collect();
        let views: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let tail = s.log.len().saturating_sub(REFERENCE_WINDOW);
        let ref_rows: Vec<Vec<f64>> = s.log[tail..].iter().map(|(c, _)| s.features(c)).collect();
        let ref_views: Vec<&[f64]> = ref_rows.iter().map(|r| r.as_slice()).collect();
        let model = s.model.as_ref().expect("fitted");
        let scores = model.alc_scores(&views, &ref_views).unwrap();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        order[..take]
            .iter()
            .map(|&i| candidates[i].clone())
            .collect()
    }

    #[test]
    fn ranked_suggestions_equal_the_sorted_replies() {
        // `u1` spans 12 values and `t1` 7: 84 configurations, so a count of
        // 30 draws the whole space (more than the pool) and 100 asks for
        // more than the candidates left.
        for spec in SurrogateSpec::all() {
            let mut s = small_session(spec);
            for i in 0..24u32 {
                let cost = 3.0 + f64::from((i * 7) % 5) * 0.3 - f64::from(i % 3) * 0.2;
                observe(&mut s, vec![1 + (i * 5) % 12, (i * 3) % 7], cost);
                if i >= 3 && i % 4 == 3 {
                    for count in [1, 3, 8, SUGGEST_POOL, 30, 100] {
                        assert_eq!(
                            s.suggest(count).unwrap(),
                            sorted_suggest(&s, count),
                            "{spec}: {} observations, suggest {count}",
                            i + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn best_prefers_lowest_cost_then_earliest() {
        let mut s = small_session(SurrogateSpec::from_name("mean").unwrap());
        s.record(Configuration::new(vec![2, 1]), 3.0);
        s.record(Configuration::new(vec![3, 1]), 2.5);
        s.record(Configuration::new(vec![4, 1]), 2.5);
        let (config, cost) = s.best().unwrap();
        assert_eq!((config.values(), cost), (&[3u32, 1u32][..], 2.5));
        assert!(small_session(SurrogateSpec::Mean).best().is_none());
    }

    #[test]
    fn damaged_checkpoints_are_structured_corruption_errors() {
        let mut s = small_session(SurrogateSpec::from_name("mean").unwrap());
        observe(&mut s, vec![2, 2], 1.0);
        let healthy = s.to_checkpoint_string().unwrap();
        for broken in [
            "",
            "{torn",
            &healthy[..healthy.len() / 2],
            "{\"schema\":\"bogus/v9\"}",
        ] {
            let err = TuningSession::from_checkpoint_str(broken).unwrap_err();
            assert_eq!(err.code, code::CORRUPT, "{broken:?}: {}", err.render());
        }
    }

    #[test]
    fn checkpoint_seeds_must_be_sixteen_lowercase_hex_digits() {
        // Seed 42 is written as "000000000000002a". A truncated, signed or
        // re-cased seed must not replay with some other seed.
        let mut s = small_session(SurrogateSpec::from_name("mean").unwrap());
        observe(&mut s, vec![2, 2], 1.0);
        let healthy = s.to_checkpoint_string().unwrap();
        let written = "\"seed\":\"000000000000002a\"";
        assert!(healthy.contains(written));
        for seed in ["2a", "+00000000000002a", "000000000000002A", ""] {
            let damaged = healthy.replace(written, &format!("\"seed\":\"{seed}\""));
            let err = TuningSession::from_checkpoint_str(&damaged).unwrap_err();
            assert_eq!(err.code, code::CORRUPT, "{seed:?}: {}", err.render());
            assert!(err.render().contains("seed"), "{}", err.render());
        }
    }

    #[test]
    fn warm_sessions_checkpoint_and_replay_bit_identically() {
        for name in ["gp", "dynatree", "mean"] {
            let spec = SurrogateSpec::from_name(name).unwrap();
            // Train a donor session, snapshot its surrogate.
            let mut donor = small_session(spec);
            for (i, cost) in [4.0, 3.5, 3.8, 2.9, 3.1, 2.7].iter().enumerate() {
                observe(&mut donor, vec![1 + i as u32, (i % 7) as u32], *cost);
            }
            let (depth, snapshot) = donor.model_snapshot().unwrap();
            assert_eq!(depth, donor.observations());
            // Seed a fresh session from it: fitted from observation zero.
            let space = donor.space().clone();
            let mut warm = TuningSession::new_warm(
                "s000001",
                "mvt",
                space,
                spec,
                99,
                WarmStart {
                    snapshot,
                    observations: depth,
                },
            )
            .unwrap();
            assert_eq!(warm.warm_observations(), Some(6));
            assert!(
                !warm.suggest(2).unwrap().is_empty(),
                "{name}: model-driven suggest at 0 obs"
            );
            // Every observation is an incremental update (no FIT_MIN warmup),
            // and the checkpoint replays to the same bits.
            for (i, cost) in [2.6, 2.8, 2.4].iter().enumerate() {
                observe(&mut warm, vec![7 + i as u32, (i % 7) as u32], *cost);
            }
            let text = warm.to_checkpoint_string().unwrap();
            let restored = TuningSession::from_checkpoint_str(&text).unwrap();
            assert_eq!(restored.to_checkpoint_string().unwrap(), text);
            assert_eq!(restored.warm_observations(), Some(6));
            for k in [1, 4] {
                assert_eq!(
                    warm.suggest(k).unwrap(),
                    restored.suggest(k).unwrap(),
                    "{name}: warm suggest({k}) diverged after restore"
                );
            }
        }
    }

    #[test]
    fn broken_warm_snapshot_is_rejected_at_creation_and_corrupt_on_replay() {
        let spec = SurrogateSpec::from_name("gp").unwrap();
        let bogus = WarmStart {
            snapshot: JsonValue::Object(vec![(
                "schema".to_string(),
                JsonValue::String("bogus/v9".to_string()),
            )]),
            observations: 5,
        };
        let space = small_session(spec).space().clone();
        let err = TuningSession::new_warm("s000002", "mvt", space, spec, 7, bogus).unwrap_err();
        assert_eq!(err.code, code::MODEL);
        // A checkpoint whose embedded snapshot is damaged is corrupt.
        let mut donor = small_session(spec);
        for (i, cost) in [4.0, 3.5, 3.8, 2.9].iter().enumerate() {
            observe(&mut donor, vec![1 + i as u32, i as u32], *cost);
        }
        let (depth, snapshot) = donor.model_snapshot().unwrap();
        let warm = TuningSession::new_warm(
            "s000003",
            "mvt",
            donor.space().clone(),
            spec,
            7,
            WarmStart {
                snapshot,
                observations: depth,
            },
        )
        .unwrap();
        let text = warm.to_checkpoint_string().unwrap();
        let sabotaged = text.replace("alic-model-snapshot/v1", "alic-model-snapshot/v9");
        let err = TuningSession::from_checkpoint_str(&sabotaged).unwrap_err();
        assert_eq!(err.code, code::CORRUPT, "{}", err.render());
    }

    #[test]
    fn cold_checkpoints_carry_no_warm_field() {
        let mut s = small_session(SurrogateSpec::from_name("gp").unwrap());
        for (i, cost) in [4.0, 3.5, 3.8, 2.9, 3.1].iter().enumerate() {
            observe(&mut s, vec![1 + i as u32, (i % 7) as u32], *cost);
        }
        let text = s.to_checkpoint_string().unwrap();
        assert!(!text.contains("\"warm\""));
        assert!(s.warm_observations().is_none());
    }

    #[test]
    fn rollback_keeps_log_and_model_consistent() {
        let spec = SurrogateSpec::from_name("gp").unwrap();
        let mut cold = small_session(spec);
        for (i, cost) in [4.0, 3.5, 3.8, 2.9].iter().enumerate() {
            observe(&mut cold, vec![1 + i as u32, i as u32], *cost);
        }
        let (depth, snapshot) = cold.model_snapshot().unwrap();
        let mut warm = TuningSession::new_warm(
            "s000001",
            "mvt",
            cold.space().clone(),
            spec,
            7,
            WarmStart {
                snapshot,
                observations: depth,
            },
        )
        .unwrap();
        observe(&mut warm, vec![5, 4], 3.3);
        for s in [&mut cold, &mut warm] {
            let before = s.to_checkpoint_string().unwrap();
            let suggestion = s.suggest(2).unwrap();
            s.record(Configuration::new(vec![7, 3]), 2.0);
            s.apply_last().unwrap();
            s.unrecord();
            s.rebuild().unwrap();
            assert_eq!(s.to_checkpoint_string().unwrap(), before);
            assert_eq!(s.suggest(2).unwrap(), suggestion);
        }
    }

    #[test]
    fn non_finite_cost_fails_the_checkpoint_until_rolled_back() {
        let mut s = small_session(SurrogateSpec::from_name("mean").unwrap());
        observe(&mut s, vec![2, 2], 1.0);
        let before = s.to_checkpoint_string().unwrap();
        s.record(Configuration::new(vec![3, 1]), f64::NAN);
        let err = s.to_checkpoint_string().unwrap_err();
        assert_eq!(err.code, code::IO, "{}", err.render());
        // Later records do not mask the failure.
        s.record(Configuration::new(vec![4, 1]), 2.0);
        assert_eq!(s.to_checkpoint_string().unwrap_err().code, code::IO);
        s.unrecord();
        s.unrecord();
        assert_eq!(s.to_checkpoint_string().unwrap(), before);
    }

    /// A warm start for `spec`, taken from a donor fitted on six points.
    fn donor_warm_start(spec: SurrogateSpec) -> WarmStart {
        let mut donor = small_session(spec);
        for (i, cost) in [4.0, 3.5, 3.8, 2.9, 3.1, 2.7].iter().enumerate() {
            observe(&mut donor, vec![1 + i as u32, (i % 7) as u32], *cost);
        }
        let (observations, snapshot) = donor.model_snapshot().unwrap();
        WarmStart {
            snapshot,
            observations,
        }
    }

    proptest! {
        /// The kept checkpoint equals the tree encoder's, byte for byte,
        /// after every step: records, rolled-back records (some of them
        /// non-finite, so both encoders fail alike), and round trips
        /// through the checkpoint text into a restored session that then
        /// records more.
        #[test]
        fn kept_checkpoint_matches_the_tree_encoder(
            family in 0usize..2,
            warm in 0usize..2,
            ops in vec(0usize..6, 1..16),
            values in vec(0u32..1_000, 32),
            mantissas in vec(-1e3f64..1e3, 16),
            exponents in vec(-30i32..30, 16),
        ) {
            let spec = SurrogateSpec::from_name(["mean", "dynatree"][family]).unwrap();
            let mut s = if warm == 1 {
                let space = small_session(spec).space().clone();
                TuningSession::new_warm("s000007", "mvt", space, spec, 5, donor_warm_start(spec))
                    .unwrap()
            } else {
                small_session(spec)
            };
            let (kept, tree) = encodings(&s);
            prop_assert_eq!(kept, tree);
            for (i, op) in ops.iter().enumerate() {
                let (u1, t1) = (1 + values[2 * i] % 12, values[2 * i + 1] % 7);
                let config = Configuration::new(vec![u1, t1]);
                let cost = mantissas[i] * 10f64.powi(exponents[i]);
                match op {
                    0..=2 => s.record(config, cost),
                    3 | 4 => {
                        let cost = if *op == 4 { [f64::NAN, f64::INFINITY][i % 2] } else { cost };
                        let before = s.to_checkpoint_string();
                        s.record(config, cost);
                        let (kept, tree) = encodings(&s);
                        prop_assert_eq!(kept, tree);
                        s.unrecord();
                        prop_assert_eq!(
                            s.to_checkpoint_string().map_err(|e| e.render()),
                            before.map_err(|e| e.render())
                        );
                    }
                    _ => {
                        let text = s.to_checkpoint_string().unwrap();
                        s = TuningSession::from_checkpoint_str(&text).unwrap();
                        prop_assert_eq!(s.to_checkpoint_string().unwrap(), text);
                    }
                }
                let (kept, tree) = encodings(&s);
                prop_assert_eq!(kept, tree);
            }
        }
    }
}
