//! Cost accounting.
//!
//! The paper measures training cost as "the cumulative compilation and
//! runtimes of any executables used in training" (§4.3). The ledger records
//! exactly that, separating compile from run time so experiments can report
//! both.

use serde::{Deserialize, Serialize};

use alic_sim::profiler::Measurement;

/// Cumulative profiling cost of a learning run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostLedger {
    run_seconds: f64,
    compile_seconds: f64,
    runs: u64,
    compilations: u64,
    quarantined: u64,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Reconstructs a ledger from previously captured state — the inverse of
    /// the [`run_seconds`](CostLedger::run_seconds) /
    /// [`compile_seconds`](CostLedger::compile_seconds) /
    /// [`runs`](CostLedger::runs) / [`compilations`](CostLedger::compilations)
    /// accessors. Used by the campaign ledger codec to restore checkpointed
    /// unit records bit-exactly.
    pub fn from_parts(
        run_seconds: f64,
        compile_seconds: f64,
        runs: u64,
        compilations: u64,
    ) -> Self {
        CostLedger {
            run_seconds,
            compile_seconds,
            runs,
            compilations,
            quarantined: 0,
        }
    }

    /// Returns the ledger with its quarantine counter set — the second half
    /// of the [`from_parts`](CostLedger::from_parts) reconstruction, kept
    /// separate so fault-free call sites never mention it.
    #[must_use]
    pub fn with_quarantined(mut self, quarantined: u64) -> Self {
        self.quarantined = quarantined;
        self
    }

    /// Records one measurement. The run/compilation counters saturate at
    /// `u64::MAX` instead of wrapping, so a pathological campaign can never
    /// report a *small* count after overflowing.
    pub fn record(&mut self, measurement: &Measurement) {
        self.run_seconds += measurement.runtime;
        self.compile_seconds += measurement.compile_time;
        self.runs = self.runs.saturating_add(1);
        if measurement.compiled {
            self.compilations = self.compilations.saturating_add(1);
        }
    }

    /// Total cost (compile + run), in seconds — the paper's x-axis.
    pub fn total_seconds(&self) -> f64 {
        self.run_seconds + self.compile_seconds
    }

    /// Cumulative runtime of all profiling runs, in seconds.
    pub fn run_seconds(&self) -> f64 {
        self.run_seconds
    }

    /// Cumulative compilation time, in seconds.
    pub fn compile_seconds(&self) -> f64 {
        self.compile_seconds
    }

    /// Number of profiling runs.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Number of compilations.
    pub fn compilations(&self) -> u64 {
        self.compilations
    }

    /// Counts one observation lost to quarantine: the evaluator produced
    /// only non-finite garbage for it, even after bounded retries. Lost
    /// observations contribute to *no* other counter or cost sum — their
    /// cost is unknowable — but the count is kept so a persistently broken
    /// evaluator is visible in the report. (Glitches that heal on retry are
    /// deliberately *not* counted here: they must leave the run's bytes
    /// untouched. The fault plane's own `injections` counters observe them.)
    pub fn record_quarantined(&mut self) {
        self.quarantined = self.quarantined.saturating_add(1);
    }

    /// Number of observations lost to quarantine.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(runtime: f64, compile_time: f64, compiled: bool) -> Measurement {
        Measurement {
            runtime,
            compile_time,
            compiled,
        }
    }

    #[test]
    fn records_runs_and_compilations() {
        let mut ledger = CostLedger::new();
        ledger.record(&measurement(1.5, 0.5, true));
        ledger.record(&measurement(1.4, 0.0, false));
        assert_eq!(ledger.runs(), 2);
        assert_eq!(ledger.compilations(), 1);
        assert!((ledger.total_seconds() - 3.4).abs() < 1e-12);
        assert!((ledger.run_seconds() - 2.9).abs() < 1e-12);
        assert!((ledger.compile_seconds() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_zero() {
        let ledger = CostLedger::new();
        assert_eq!(ledger.total_seconds(), 0.0);
        assert_eq!(ledger.runs(), 0);
    }

    #[test]
    fn from_parts_restores_the_accessors_exactly() {
        let mut original = CostLedger::new();
        original.record(&measurement(0.1 + 0.2, 1.0 / 3.0, true));
        original.record(&measurement(1e-300, 0.0, false));
        let restored = CostLedger::from_parts(
            original.run_seconds(),
            original.compile_seconds(),
            original.runs(),
            original.compilations(),
        );
        assert_eq!(restored, original);
    }

    #[test]
    fn quarantined_measurements_count_without_contaminating_costs() {
        let mut ledger = CostLedger::new();
        ledger.record(&measurement(1.0, 0.5, true));
        ledger.record_quarantined();
        ledger.record_quarantined();
        assert_eq!(ledger.quarantined(), 2);
        assert_eq!(ledger.runs(), 1);
        assert!((ledger.total_seconds() - 1.5).abs() < 1e-12);

        // Saturation, as for every other counter.
        let mut saturated = CostLedger::new().with_quarantined(u64::MAX);
        saturated.record_quarantined();
        assert_eq!(saturated.quarantined(), u64::MAX);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut ledger = CostLedger::from_parts(1.0, 1.0, u64::MAX - 1, u64::MAX);
        ledger.record(&measurement(1.0, 0.5, true));
        ledger.record(&measurement(1.0, 0.5, true));
        assert_eq!(ledger.runs(), u64::MAX);
        assert_eq!(ledger.compilations(), u64::MAX);
    }
}
