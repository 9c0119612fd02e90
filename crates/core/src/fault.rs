//! Core-side surface of the deterministic fault-injection plane.
//!
//! The plane itself (sites, plans, the `ALIC_CHAOS` knob, the global
//! activation switch) lives in [`alic_stats::fault`] so that every layer of
//! the stack — including the model crate's GP factorization — can consult
//! it. This module re-exports that API and adds the injection adapters that
//! need core/sim types:
//!
//! * [`ChaosProfiler`] — wraps any [`Profiler`] and corrupts individual
//!   observations to NaN at the [`FaultSite::ObservationNan`] site,
//! * [`maybe_unit_panic`] / [`evaluator_fault`] — the unit-execution
//!   injection points used by the campaign runner.
//!
//! # Why `ChaosProfiler` replays instead of re-measuring
//!
//! The chaos contract (see `tests/chaos_campaign.rs`) is that a fully healed
//! faulty run is **byte-identical** to the fault-free run. A simulated
//! profiler owns an RNG that advances on every `measure` call, so the healing
//! retry must *not* consume an extra draw from it. `ChaosProfiler` therefore
//! stashes the true measurement when it corrupts one and replays the stash on
//! the next call: the inner profiler sees exactly one `measure` per logical
//! observation, faults or no faults, and the recorded cost ledger and model
//! inputs come out identical.

pub use alic_stats::fault::{
    deactivate, exclusive, exclusive_clean, inject, injections, install, is_active, plan_seed,
    ChaosGuard, FaultPlan, FaultSite, SiteSpec, CHAOS_ENV,
};

use alic_sim::profiler::{Measurement, Profiler};
use alic_sim::space::{Configuration, ParameterSpace};

use crate::CoreError;

/// A [`Profiler`] wrapper that injects non-finite observations.
///
/// When the [`FaultSite::ObservationNan`] site fires, the true measurement is
/// stashed and a copy with `runtime = NaN` is returned; the next `measure`
/// call (the learner's healing retry, necessarily for the same
/// configuration) returns the stashed true value without touching the inner
/// profiler. With no fault plane installed this is a zero-overhead
/// passthrough.
#[derive(Debug)]
pub struct ChaosProfiler<P> {
    inner: P,
    pending: Option<Measurement>,
}

impl<P> ChaosProfiler<P> {
    /// Wraps `inner` with NaN-observation injection.
    pub fn new(inner: P) -> Self {
        ChaosProfiler {
            inner,
            pending: None,
        }
    }
}

impl<P: Profiler> Profiler for ChaosProfiler<P> {
    fn space(&self) -> &ParameterSpace {
        self.inner.space()
    }

    fn kernel_name(&self) -> &str {
        self.inner.kernel_name()
    }

    fn measure(&mut self, config: &Configuration) -> Measurement {
        if let Some(stash) = self.pending.take() {
            return stash;
        }
        let measurement = self.inner.measure(config);
        if inject(FaultSite::ObservationNan) {
            self.pending = Some(measurement);
            return Measurement {
                runtime: f64::NAN,
                ..measurement
            };
        }
        measurement
    }

    fn true_mean(&self, config: &Configuration) -> f64 {
        self.inner.true_mean(config)
    }
}

/// Unit-execution injection point: panics when the
/// [`FaultSite::UnitPanic`] site fires.
///
/// The campaign runner's `catch_unwind` isolation converts the panic into a
/// recorded unit failure; the bounded re-execution pass then heals it.
pub fn maybe_unit_panic(unit: usize) {
    if inject(FaultSite::UnitPanic) {
        panic!("chaos: injected panic in work unit {unit}");
    }
}

/// Unit-execution injection point: returns a transient
/// [`CoreError::Evaluator`] error when the [`FaultSite::EvalError`] site
/// fires.
pub fn evaluator_fault(unit: usize) -> crate::Result<()> {
    if inject(FaultSite::EvalError) {
        return Err(CoreError::Evaluator(format!(
            "chaos: injected transient evaluator error in work unit {unit}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_sim::profiler::SimulatedProfiler;
    use alic_sim::spapt::{spapt_kernel, SpaptKernel};

    #[test]
    fn chaos_profiler_is_a_passthrough_without_a_plane() {
        let guard = exclusive_clean();
        let kernel = spapt_kernel(SpaptKernel::Mvt);
        let mut plain = SimulatedProfiler::new(kernel.clone(), 9);
        let mut wrapped = ChaosProfiler::new(SimulatedProfiler::new(kernel, 9));
        let config = plain.space().default_configuration();
        for _ in 0..8 {
            assert_eq!(plain.measure(&config), wrapped.measure(&config));
        }
        drop(guard);
    }

    #[test]
    fn chaos_profiler_corrupts_then_replays_the_true_measurement() {
        // Reference stream from an identical profiler, no chaos.
        let kernel = spapt_kernel(SpaptKernel::Mvt);
        let mut reference = SimulatedProfiler::new(kernel.clone(), 4);
        let config = reference.space().default_configuration();
        let expected: Vec<Measurement> = (0..6).map(|_| reference.measure(&config)).collect();

        let guard = exclusive(FaultPlan::new(8).with_site(FaultSite::ObservationNan, 1.0, Some(3)));
        let mut chaotic = ChaosProfiler::new(SimulatedProfiler::new(kernel, 4));
        let mut healed = Vec::new();
        for _ in 0..6 {
            let mut m = chaotic.measure(&config);
            if !m.runtime.is_finite() {
                // The healing retry the learner performs.
                m = chaotic.measure(&config);
            }
            healed.push(m);
        }
        drop(guard);
        // Every logical observation heals to the exact fault-free stream:
        // the inner profiler's RNG never sees the retries.
        assert_eq!(healed, expected);
        assert_eq!(chaotic.inner.runs(), 6);
    }
}
