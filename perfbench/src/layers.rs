//! The layers every workload's traced run reports, and the timing shims
//! that see them.
//!
//! The manifest asks every traced run for the same per-layer metrics, so
//! each workload times the same five layers at its own call boundaries:
//!
//! | Span | `learner_paper` | `campaign_laptop` | `serve_session` |
//! |---|---|---|---|
//! | `acquisition.score` | shim `alc_scores` | shim `alc_scores` / `alm_scores` | `TuningSession::suggest` |
//! | `model.update` | shim `fit` + `update` | shim `fit` + `update` | `apply_last` |
//! | `sim.measure` | shim `Profiler::measure` | shim `Profiler::measure` | the client's `SimulatedProfiler::measure` |
//! | `codec.encode` | `unit_record_to_json_string` | `unit_record_to_json_string` | `to_checkpoint_string` |
//! | `ledger.write` | `write_atomic` | `CampaignLedger::record` | `write_verified` |
//!
//! `run` spans cover the work the layers sit in: one learner run with its
//! record write, one campaign unit with its record write, or the whole
//! session replay. The shims forward every call unchanged, which the
//! workloads check by comparing the traced outputs with the untraced ones.

use alic_model::snapshot::Snapshot;
use alic_model::traits::{ActiveSurrogate, Prediction, SurrogateModel};
use alic_sim::profiler::{Measurement, Profiler};
use alic_sim::{Configuration, ParameterSpace};

use crate::report::Outcome;
use crate::trace::Tracer;

pub const RUN: &str = "run";
pub const SCORE: &str = "acquisition.score";
pub const UPDATE: &str = "model.update";
pub const MEASURE: &str = "sim.measure";
pub const ENCODE: &str = "codec.encode";
pub const WRITE: &str = "ledger.write";
/// Counter of encoded bytes.
pub const ENCODE_BYTES: &str = "codec.encode_bytes";

/// Reports the per-layer metrics of `traced` (default thread count) and its
/// one-thread `twin`, with the tracing overhead measured as the traced wall
/// time over the untraced wall time of the same work. Prints a report-only
/// flag for every layer that is slower at the default thread count than on
/// one thread, then every span and counter of both tracers.
pub fn report(out: &mut Outcome, traced: &Tracer, twin: &Tracer, traced_s: f64, untraced_s: f64) {
    let layers = [SCORE, UPDATE, MEASURE, ENCODE, WRITE];
    let inside: f64 = layers.iter().map(|l| traced.total(l)).sum();
    out.metric("acquisition.score_s", traced.total(SCORE), "s");
    out.metric(
        "acquisition.score_calls",
        traced.calls(SCORE) as f64,
        "count",
    );
    out.metric("model.update_s", traced.total(UPDATE), "s");
    out.metric("model.update_calls", traced.calls(UPDATE) as f64, "count");
    out.metric("sim.measure_s", traced.total(MEASURE), "s");
    out.metric("sim.measure_calls", traced.calls(MEASURE) as f64, "count");
    out.metric("codec.encode_s", traced.total(ENCODE), "s");
    out.metric(
        "codec.encode_bytes",
        traced.counter(ENCODE_BYTES) as f64,
        "bytes",
    );
    out.metric("ledger.write_s", traced.total(WRITE), "s");
    out.metric("ledger.write_calls", traced.calls(WRITE) as f64, "count");
    out.metric("run.self_s", traced.total(RUN) - inside, "s");
    out.metric("acquisition.score_t1_s", twin.total(SCORE), "s");
    out.metric("model.update_t1_s", twin.total(UPDATE), "s");
    out.metric("run.t1_s", twin.total(RUN), "s");
    out.metric("trace.overhead", traced_s / untraced_s, "ratio");

    for span in [SCORE, UPDATE, RUN] {
        let (default, single) = (traced.total(span), twin.total(span));
        if default > single {
            println!(
                "FLAG parallel-slower-than-t1: {span} {default:.3} s at {} threads > {single:.3} s at 1",
                rayon::current_num_threads()
            );
        }
    }
    for (label, tracer) in [("default", traced), ("t1", twin)] {
        for line in tracer.summary() {
            println!("layers {label}: {line}");
        }
    }
}

/// Timing shim around a surrogate: every call is forwarded unchanged;
/// `fit` and `update` are timed as [`UPDATE`], the batch scores as
/// [`SCORE`], and `predict_batch` (the learner's RMSE evaluation) as
/// `model.predict`, which is reported only in the span summary.
#[derive(Debug)]
pub struct TracedModel<'t> {
    pub inner: Box<dyn ActiveSurrogate + Send>,
    pub tracer: &'t Tracer,
}

impl SurrogateModel for TracedModel<'_> {
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> alic_model::Result<()> {
        let _span = self.tracer.span(UPDATE);
        self.inner.fit(xs, ys)
    }

    fn update(&mut self, x: &[f64], y: f64) -> alic_model::Result<()> {
        let _span = self.tracer.span(UPDATE);
        self.inner.update(x, y)
    }

    fn predict(&self, x: &[f64]) -> alic_model::Result<Prediction> {
        self.inner.predict(x)
    }

    fn predict_batch(&self, inputs: &[&[f64]]) -> alic_model::Result<Vec<Prediction>> {
        let _span = self.tracer.span("model.predict");
        self.inner.predict_batch(inputs)
    }

    fn observation_count(&self) -> usize {
        self.inner.observation_count()
    }

    fn dimension(&self) -> Option<usize> {
        self.inner.dimension()
    }

    fn snapshot(&self) -> alic_model::Result<Snapshot> {
        self.inner.snapshot()
    }
}

impl ActiveSurrogate for TracedModel<'_> {
    fn alm_score(&self, candidate: &[f64]) -> alic_model::Result<f64> {
        self.inner.alm_score(candidate)
    }

    fn alm_scores(&self, candidates: &[&[f64]]) -> alic_model::Result<Vec<f64>> {
        let _span = self.tracer.span(SCORE);
        self.inner.alm_scores(candidates)
    }

    fn alc_score(&self, candidate: &[f64], reference: &[&[f64]]) -> alic_model::Result<f64> {
        self.inner.alc_score(candidate, reference)
    }

    fn alc_scores(
        &self,
        candidates: &[&[f64]],
        reference: &[&[f64]],
    ) -> alic_model::Result<Vec<f64>> {
        let _span = self.tracer.span(SCORE);
        self.inner.alc_scores(candidates, reference)
    }
}

/// Timing shim around a profiler.
pub struct TracedProfiler<'t, P> {
    pub inner: P,
    pub tracer: &'t Tracer,
}

impl<P: Profiler> Profiler for TracedProfiler<'_, P> {
    fn space(&self) -> &ParameterSpace {
        self.inner.space()
    }

    fn kernel_name(&self) -> &str {
        self.inner.kernel_name()
    }

    fn measure(&mut self, config: &Configuration) -> Measurement {
        let _span = self.tracer.span(MEASURE);
        self.inner.measure(config)
    }

    fn true_mean(&self, config: &Configuration) -> f64 {
        self.inner.true_mean(config)
    }
}
