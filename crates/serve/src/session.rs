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

use std::collections::HashSet;

use alic_data::io::{self, JsonValue};
use alic_data::DataError;
use alic_model::snapshot::{restore_snapshot, Snapshot};
use alic_model::spec::SurrogateSpec;
use alic_model::traits::ActiveSurrogate;
use alic_model::ModelError;
use alic_sim::space::{Configuration, ParamKind, ParamSpec, ParameterSpace};
use alic_stats::rng::seeded_substream;

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
    model: Option<Box<dyn ActiveSurrogate + Send>>,
    warm: Option<WarmStart>,
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
        TuningSession {
            id: id.into(),
            kernel: kernel.into(),
            space,
            spec,
            seed,
            log: Vec::new(),
            model: None,
            warm: None,
        }
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
        let mut session = TuningSession::new(id, kernel, space, spec, seed);
        session.warm = Some(warm);
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
        config
            .values()
            .iter()
            .zip(self.space.params())
            .map(|(&v, p)| {
                if p.max == p.min {
                    0.0
                } else {
                    (v as f64 - p.min as f64) / (p.max as f64 - p.min as f64)
                }
            })
            .collect()
    }

    /// Appends one observation to the log **without** touching the model —
    /// the engine checkpoints between [`record`](Self::record) and
    /// [`apply_last`](Self::apply_last) so a reply is only ever written for
    /// a durable observation.
    pub fn record(&mut self, config: Configuration, cost: f64) {
        self.log.push((config, cost));
    }

    /// Rolls back the most recent [`record`](Self::record) (checkpoint or
    /// model failure: the observation must not survive in memory either).
    pub fn unrecord(&mut self) {
        self.log.pop();
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
        let x = {
            let config = config.clone();
            let cost = *cost;
            let x = self.features(&config);
            (x, cost)
        };
        let model = self.model.as_mut().expect("checked above");
        model.update(&x.0, x.1)
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
    /// order). Identical log ⇒ identical reply — before or after a daemon
    /// restart, which is the restart-resume guarantee for reads.
    ///
    /// # Errors
    ///
    /// Propagates model scoring errors.
    pub fn suggest(&self, count: usize) -> alic_model::Result<Vec<Configuration>> {
        let mut rng = seeded_substream(self.seed, STREAM_SUGGEST, self.log.len() as u64);
        let pool = self
            .space
            .sample_distinct(&mut rng, SUGGEST_POOL.max(4 * count));
        let seen: HashSet<&Configuration> = self.log.iter().map(|(c, _)| c).collect();
        let fresh: Vec<&Configuration> = pool.iter().filter(|c| !seen.contains(c)).collect();
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
        let rows: Vec<Vec<f64>> = candidates.iter().map(|c| self.features(c)).collect();
        let views: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let tail = self.log.len().saturating_sub(REFERENCE_WINDOW);
        let ref_rows: Vec<Vec<f64>> = self.log[tail..]
            .iter()
            .map(|(c, _)| self.features(c))
            .collect();
        let ref_views: Vec<&[f64]> = ref_rows.iter().map(|r| r.as_slice()).collect();
        let scores = model.alc_scores(&views, &ref_views)?;
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        Ok(order[..take]
            .iter()
            .map(|&i| candidates[i].clone())
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
    /// # Errors
    ///
    /// Returns an `io` error reply if serialization fails (a non-finite
    /// cost cannot enter the log, so this does not happen in practice).
    pub fn to_checkpoint_string(&self) -> Result<String, ErrReply> {
        let params = self.space.params().iter().map(|p| {
            io::object([
                ("name", JsonValue::String(p.name.clone())),
                ("kind", JsonValue::String(p.kind.label().to_string())),
                ("min", JsonValue::Number(f64::from(p.min))),
                ("max", JsonValue::Number(f64::from(p.max))),
            ])
        });
        let observations = self.log.iter().map(|(c, y)| {
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
            ("id", JsonValue::String(self.id.clone())),
            ("kernel", JsonValue::String(self.kernel.clone())),
            ("model", JsonValue::String(self.spec.name().to_string())),
            // Seeds use the full u64 range; hex keeps them exact where a
            // JSON number (f64) would round above 2^53.
            ("seed", io::hex_u64(self.seed)),
            ("space", JsonValue::Array(params.collect())),
            ("observations", JsonValue::Array(observations.collect())),
        ];
        let failed =
            |e: DataError| ErrReply::new(code::IO, format!("serializing session {}: {e}", self.id));
        // Cold checkpoints omit the field entirely, keeping their bytes
        // identical to pre-warm-store builds.
        if let Some(warm) = &self.warm {
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
        let corrupt = |detail: String| ErrReply::new(code::CORRUPT, detail);
        let doc =
            JsonValue::parse(text).map_err(|e| corrupt(format!("unparseable checkpoint: {e}")))?;
        let mut session = Self::decode(&doc).map_err(|e| corrupt(e.to_string()))?;
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
        Ok(session)
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
        let mut session = TuningSession::new(
            io::field_str(doc, "id")?,
            io::field_str(doc, "kernel")?,
            space,
            spec,
            io::field_hex_u64(doc, "seed")?,
        );
        for entry in io::field_array(doc, "observations")? {
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
            session
                .space
                .validate(&config)
                .map_err(|e| DataError::Parse(format!("observation outside the space: {e}")))?;
            // The parser admits only finite numbers, so the cost is finite.
            session.log.push((config, cost.as_f64()?));
        }
        if let Some(warm) = io::optional_field(doc, "warm") {
            session.warm = Some(WarmStart {
                snapshot: warm.field("snapshot")?.clone(),
                observations: io::field_usize(warm, "observations")?,
            });
        }
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut s = small_session(SurrogateSpec::from_name("gp").unwrap());
        for (i, cost) in [4.0, 3.5, 3.8, 2.9].iter().enumerate() {
            observe(&mut s, vec![1 + i as u32, i as u32], *cost);
        }
        let before = s.to_checkpoint_string().unwrap();
        let suggestion = s.suggest(2).unwrap();
        s.record(Configuration::new(vec![7, 3]), 2.0);
        s.unrecord();
        s.rebuild().unwrap();
        assert_eq!(s.to_checkpoint_string().unwrap(), before);
        assert_eq!(s.suggest(2).unwrap(), suggestion);
    }
}
