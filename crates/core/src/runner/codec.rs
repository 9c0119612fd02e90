//! JSON codecs for campaign records and reports.
//!
//! The vendored `serde` is a no-op marker, so every type that crosses the
//! campaign ledger's process boundary is encoded explicitly with the
//! workspace's one JSON codec, [`alic_data::io`]. Two properties matter
//! here:
//!
//! * **exactness** — floats are written in Rust's shortest round-trip
//!   representation, so decode(encode(x)) is bit-identical to `x`; a report
//!   merged from on-disk unit records equals the in-memory report byte for
//!   byte;
//! * **canonical output** — field order is fixed and no whitespace is
//!   emitted, so equal values serialize to identical bytes (the
//!   shard/resume/merge equality checks compare raw strings).
//!
//! Integer counters are JSON numbers written by [`io::int`], exact up to
//! 2^53 — far beyond any realistic campaign (2^53 profiler runs at a
//! millisecond each is ~285,000 machine-years). Both directions enforce the
//! bound: encoding a larger value (a saturated cost-ledger counter, a seed
//! above 2^53) is an error rather than a silent rounding that decoding
//! would then reject. Fields added after the format shipped (`quarantined`,
//! `failures`) are omitted when empty and read with [`io::optional_field`],
//! so fault-free records keep their original bytes.

use alic_data::io::{self, int, JsonValue};
use alic_stats::summary::OnlineStats;

use crate::cost::CostLedger;
use crate::curve::{AveragedCurve, CurvePoint, LearningCurve};
use crate::experiment::{ComparisonOutcome, PlanResult};
use crate::learner::{ExampleRecord, LearnerRun};
use crate::plan::SamplingPlan;
use crate::runner::{CampaignReport, UnitFailure, UnitRecord};
use crate::{CoreError, Result};

/// Schema tag of one on-disk unit record.
pub const UNIT_SCHEMA: &str = "alic-campaign-unit/v1";
/// Schema tag of a merged campaign report.
pub const REPORT_SCHEMA: &str = "alic-campaign-report/v1";

fn num(n: f64) -> JsonValue {
    JsonValue::Number(n)
}

fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

fn f64_array(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| num(v)).collect())
}

fn parse_f64_array(value: &JsonValue) -> Result<Vec<f64>> {
    value
        .as_array()?
        .iter()
        .map(|v| v.as_f64().map_err(CoreError::from))
        .collect()
}

fn bad(message: impl Into<String>) -> CoreError {
    CoreError::Campaign(message.into())
}

// --- Sampling plans. --------------------------------------------------------

/// Encodes a sampling plan.
///
/// # Errors
///
/// Returns an error for observation counts above 2^53.
fn plan_to_json(plan: &SamplingPlan) -> Result<JsonValue> {
    Ok(match plan {
        SamplingPlan::Fixed { observations } => io::object([
            ("kind", string("fixed")),
            ("observations", int(*observations as u64)?),
        ]),
        SamplingPlan::Sequential { max_observations } => io::object([
            ("kind", string("sequential")),
            ("max_observations", int(*max_observations as u64)?),
        ]),
    })
}

/// Decodes a sampling plan.
///
/// # Errors
///
/// Returns an error for unknown kinds or zero observation counts.
fn plan_from_json(value: &JsonValue) -> Result<SamplingPlan> {
    match io::field_str(value, "kind")? {
        "fixed" => {
            let observations = io::field_usize(value, "observations")?;
            if observations == 0 {
                return Err(bad("fixed plan with zero observations"));
            }
            Ok(SamplingPlan::Fixed { observations })
        }
        "sequential" => {
            let max_observations = io::field_usize(value, "max_observations")?;
            if max_observations == 0 {
                return Err(bad("sequential plan with a zero observation cap"));
            }
            Ok(SamplingPlan::Sequential { max_observations })
        }
        other => Err(bad(format!("unknown sampling-plan kind '{other}'"))),
    }
}

// --- Online statistics and cost ledgers. ------------------------------------

fn stats_to_json(stats: &OnlineStats) -> Result<JsonValue> {
    if stats.count() == 0 {
        // min/max are ±infinity on an empty accumulator; JSON cannot hold
        // them, and count alone reconstructs the state.
        return Ok(io::object([("count", int(0)?)]));
    }
    Ok(io::object([
        ("count", int(stats.count() as u64)?),
        ("mean", num(stats.mean())),
        ("m2", num(stats.m2())),
        ("min", num(stats.min())),
        ("max", num(stats.max())),
    ]))
}

fn stats_from_json(value: &JsonValue) -> Result<OnlineStats> {
    let count = io::field_usize(value, "count")?;
    if count == 0 {
        return Ok(OnlineStats::new());
    }
    Ok(OnlineStats::from_parts(
        count,
        io::field_f64(value, "mean")?,
        io::field_f64(value, "m2")?,
        io::field_f64(value, "min")?,
        io::field_f64(value, "max")?,
    ))
}

/// Encodes a cost ledger.
///
/// # Errors
///
/// Returns an error when a (saturating) counter exceeds 2^53 and could not
/// be decoded back exactly.
fn cost_ledger_to_json(ledger: &CostLedger) -> Result<JsonValue> {
    let mut fields = vec![
        ("run_seconds", num(ledger.run_seconds())),
        ("compile_seconds", num(ledger.compile_seconds())),
        ("runs", int(ledger.runs())?),
        ("compilations", int(ledger.compilations())?),
    ];
    // Emitted only when measurements were actually quarantined, so ledgers
    // from clean runs keep their pre-robustness byte encoding.
    if ledger.quarantined() > 0 {
        fields.push(("quarantined", int(ledger.quarantined())?));
    }
    Ok(io::object(fields))
}

/// Decodes a cost ledger.
///
/// # Errors
///
/// Returns an error on malformed input.
fn cost_ledger_from_json(value: &JsonValue) -> Result<CostLedger> {
    let quarantined = match io::optional_field(value, "quarantined") {
        Some(v) => v.as_u64()?,
        None => 0,
    };
    Ok(CostLedger::from_parts(
        io::field_f64(value, "run_seconds")?,
        io::field_f64(value, "compile_seconds")?,
        io::field_u64(value, "runs")?,
        io::field_u64(value, "compilations")?,
    )
    .with_quarantined(quarantined))
}

// --- Learning curves and runs. ----------------------------------------------

fn curve_point_to_json(point: &CurvePoint) -> Result<JsonValue> {
    Ok(io::object([
        ("iterations", int(point.iterations as u64)?),
        ("training_examples", int(point.training_examples as u64)?),
        ("observations", int(point.observations)?),
        ("cost_seconds", num(point.cost_seconds)),
        ("rmse", num(point.rmse)),
    ]))
}

fn curve_point_from_json(value: &JsonValue) -> Result<CurvePoint> {
    Ok(CurvePoint {
        iterations: io::field_usize(value, "iterations")?,
        training_examples: io::field_usize(value, "training_examples")?,
        observations: io::field_u64(value, "observations")?,
        cost_seconds: io::field_f64(value, "cost_seconds")?,
        rmse: io::field_f64(value, "rmse")?,
    })
}

fn curve_to_json(curve: &LearningCurve) -> Result<JsonValue> {
    Ok(JsonValue::Array(
        curve
            .points()
            .iter()
            .map(curve_point_to_json)
            .collect::<Result<_>>()?,
    ))
}

fn curve_from_json(value: &JsonValue) -> Result<LearningCurve> {
    let points: Vec<CurvePoint> = value
        .as_array()?
        .iter()
        .map(curve_point_from_json)
        .collect::<Result<_>>()?;
    // `LearningCurve::push` panics on decreasing costs; reject hostile input
    // (including NaN costs, which are incomparable) as an error instead.
    if points.windows(2).any(|w| {
        !matches!(
            w[0].cost_seconds.partial_cmp(&w[1].cost_seconds),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    }) {
        return Err(bad("learning-curve costs must be non-decreasing"));
    }
    Ok(points.into_iter().collect())
}

/// Encodes one learning run.
///
/// # Errors
///
/// Returns an error when a counter exceeds 2^53.
fn run_to_json(run: &LearnerRun) -> Result<JsonValue> {
    Ok(io::object([
        ("plan", plan_to_json(&run.plan)?),
        ("iterations", int(run.iterations as u64)?),
        ("curve", curve_to_json(&run.curve)?),
        ("ledger", cost_ledger_to_json(&run.ledger)?),
        (
            "visited",
            JsonValue::Array(
                run.visited
                    .iter()
                    .map(|record| {
                        Ok(io::object([
                            ("dataset_index", int(record.dataset_index as u64)?),
                            ("runtimes", stats_to_json(&record.runtimes)?),
                        ]))
                    })
                    .collect::<Result<_>>()?,
            ),
        ),
    ]))
}

/// Decodes one learning run.
///
/// # Errors
///
/// Returns an error on malformed input.
fn run_from_json(value: &JsonValue) -> Result<LearnerRun> {
    let visited: Vec<ExampleRecord> = io::field_array(value, "visited")?
        .iter()
        .map(|record| {
            Ok(ExampleRecord {
                dataset_index: io::field_usize(record, "dataset_index")?,
                runtimes: stats_from_json(record.field("runtimes")?)?,
            })
        })
        .collect::<Result<_>>()?;
    Ok(LearnerRun {
        plan: plan_from_json(value.field("plan")?)?,
        curve: curve_from_json(value.field("curve")?)?,
        ledger: cost_ledger_from_json(value.field("ledger")?)?,
        visited,
        iterations: io::field_usize(value, "iterations")?,
    })
}

// --- Unit records. ----------------------------------------------------------

/// Encodes one unit record (the on-disk checkpoint format).
///
/// # Errors
///
/// Returns an error when a counter exceeds 2^53.
fn unit_record_to_json(record: &UnitRecord) -> Result<JsonValue> {
    Ok(io::object([
        ("schema", string(UNIT_SCHEMA)),
        ("index", int(record.index as u64)?),
        ("kernel", string(&record.kernel)),
        ("model", string(&record.model)),
        ("plan", plan_to_json(&record.plan)?),
        ("repetition", int(record.repetition)?),
        ("run", run_to_json(&record.run)?),
    ]))
}

/// Serializes one unit record to its canonical JSON string.
///
/// # Errors
///
/// Returns an error when the record contains non-finite numbers.
pub fn unit_record_to_json_string(record: &UnitRecord) -> Result<String> {
    unit_record_to_json(record)?
        .to_json_string()
        .map_err(CoreError::from)
}

/// Decodes one unit record.
///
/// # Errors
///
/// Returns an error on malformed input or a wrong schema tag.
fn unit_record_from_json(value: &JsonValue) -> Result<UnitRecord> {
    let schema = io::field_str(value, "schema")?;
    if schema != UNIT_SCHEMA {
        return Err(bad(format!(
            "unexpected unit-record schema '{schema}' (expected '{UNIT_SCHEMA}')"
        )));
    }
    Ok(UnitRecord {
        index: io::field_usize(value, "index")?,
        kernel: io::field_str(value, "kernel")?.to_string(),
        model: io::field_str(value, "model")?.to_string(),
        plan: plan_from_json(value.field("plan")?)?,
        repetition: io::field_u64(value, "repetition")?,
        run: run_from_json(value.field("run")?)?,
    })
}

/// Parses one unit record from its canonical JSON string.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn unit_record_from_json_str(text: &str) -> Result<UnitRecord> {
    unit_record_from_json(&JsonValue::parse(text)?)
}

// --- Comparison outcomes and campaign reports. ------------------------------

fn averaged_to_json(averaged: &AveragedCurve) -> JsonValue {
    io::object([
        ("costs", f64_array(&averaged.costs)),
        ("mean_rmse", f64_array(&averaged.mean_rmse)),
    ])
}

fn json_array<T>(items: &[T], encode: impl Fn(&T) -> Result<JsonValue>) -> Result<JsonValue> {
    Ok(JsonValue::Array(
        items.iter().map(encode).collect::<Result<_>>()?,
    ))
}

fn averaged_from_json(value: &JsonValue) -> Result<AveragedCurve> {
    Ok(AveragedCurve {
        costs: parse_f64_array(value.field("costs")?)?,
        mean_rmse: parse_f64_array(value.field("mean_rmse")?)?,
    })
}

fn plan_result_to_json(result: &PlanResult) -> Result<JsonValue> {
    Ok(io::object([
        ("plan", plan_to_json(&result.plan)?),
        ("runs", json_array(&result.runs, run_to_json)?),
        ("averaged", averaged_to_json(&result.averaged)),
    ]))
}

fn plan_result_from_json(value: &JsonValue) -> Result<PlanResult> {
    Ok(PlanResult {
        plan: plan_from_json(value.field("plan")?)?,
        runs: io::field_array(value, "runs")?
            .iter()
            .map(run_from_json)
            .collect::<Result<_>>()?,
        averaged: averaged_from_json(value.field("averaged")?)?,
    })
}

/// Encodes a plan-comparison outcome.
///
/// # Errors
///
/// Returns an error when a counter exceeds 2^53.
fn outcome_to_json(outcome: &ComparisonOutcome) -> Result<JsonValue> {
    Ok(io::object([
        ("kernel", string(&outcome.kernel)),
        ("plans", json_array(&outcome.plans, plan_result_to_json)?),
        ("lowest_common_rmse", num(outcome.lowest_common_rmse)),
        (
            "cost_to_common_rmse",
            JsonValue::Array(
                outcome
                    .cost_to_common_rmse
                    .iter()
                    .map(|c| c.map_or(JsonValue::Null, num))
                    .collect(),
            ),
        ),
    ]))
}

/// Serializes a plan-comparison outcome to its canonical JSON string (the
/// golden-snapshot format of `tests/golden_reports.rs`).
///
/// # Errors
///
/// Returns an error when the outcome contains non-finite numbers.
pub fn outcome_to_json_string(outcome: &ComparisonOutcome) -> Result<String> {
    outcome_to_json(outcome)?
        .to_json_string()
        .map_err(CoreError::from)
}

/// Decodes a plan-comparison outcome.
///
/// # Errors
///
/// Returns an error on malformed input.
fn outcome_from_json(value: &JsonValue) -> Result<ComparisonOutcome> {
    Ok(ComparisonOutcome {
        kernel: io::field_str(value, "kernel")?.to_string(),
        plans: io::field_array(value, "plans")?
            .iter()
            .map(plan_result_from_json)
            .collect::<Result<_>>()?,
        lowest_common_rmse: io::field_f64(value, "lowest_common_rmse")?,
        cost_to_common_rmse: io::field_array(value, "cost_to_common_rmse")?
            .iter()
            .map(|c| {
                if c.is_null() {
                    Ok(None)
                } else {
                    c.as_f64().map(Some).map_err(CoreError::from)
                }
            })
            .collect::<Result<_>>()?,
    })
}

/// Parses a plan-comparison outcome from its canonical JSON string.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn outcome_from_json_str(text: &str) -> Result<ComparisonOutcome> {
    outcome_from_json(&JsonValue::parse(text)?)
}

fn unit_failure_to_json(failure: &UnitFailure) -> Result<JsonValue> {
    Ok(io::object([
        ("index", int(failure.index as u64)?),
        ("kernel", string(&failure.kernel)),
        ("model", string(&failure.model)),
        ("error", string(&failure.error)),
        ("attempts", int(failure.attempts as u64)?),
    ]))
}

/// Encodes a merged campaign report. The `failures` field is emitted only
/// when non-empty: a fault-free report serializes to exactly the bytes it
/// did before resilient execution existed (golden snapshots stay valid).
///
/// # Errors
///
/// Returns an error when a counter or the campaign seed exceeds 2^53.
pub fn report_to_json(report: &CampaignReport) -> Result<JsonValue> {
    let mut fields = vec![
        ("schema", string(REPORT_SCHEMA)),
        (
            "kernels",
            JsonValue::Array(report.kernels.iter().map(|k| string(k)).collect()),
        ),
        (
            "models",
            JsonValue::Array(report.models.iter().map(|m| string(m)).collect()),
        ),
        ("plans", json_array(&report.plans, plan_to_json)?),
        ("repetitions", int(report.repetitions as u64)?),
        ("seed", int(report.seed)?),
        (
            "entries",
            JsonValue::Array(
                report
                    .entries
                    .iter()
                    .map(|entry| {
                        Ok(io::object([
                            ("model", string(&entry.model)),
                            ("kernel", string(&entry.kernel)),
                            ("outcome", outcome_to_json(&entry.outcome)?),
                        ]))
                    })
                    .collect::<Result<_>>()?,
            ),
        ),
    ];
    if !report.failures.is_empty() {
        fields.push((
            "failures",
            json_array(&report.failures, unit_failure_to_json)?,
        ));
    }
    Ok(io::object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::compare_plans;
    use crate::runner::run_campaign;
    use crate::runner::tests::{tiny_base, tiny_campaign, toy_kernel};
    use alic_sim::profiler::Measurement;

    #[test]
    fn plan_codec_round_trips_and_validates() {
        for plan in [
            SamplingPlan::fixed35(),
            SamplingPlan::one_observation(),
            SamplingPlan::sequential(7),
        ] {
            let json = plan_to_json(&plan).unwrap().to_json_string().unwrap();
            let back = plan_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(back, plan);
        }
        let zero = JsonValue::parse("{\"kind\":\"fixed\",\"observations\":0}").unwrap();
        assert!(plan_from_json(&zero).is_err());
        let unknown = JsonValue::parse("{\"kind\":\"bogus\"}").unwrap();
        assert!(plan_from_json(&unknown).is_err());
    }

    #[test]
    fn cost_ledger_serde_round_trip_is_exact() {
        let mut ledger = CostLedger::new();
        ledger.record(&Measurement {
            runtime: 0.1 + 0.2,
            compile_time: 1.0 / 3.0,
            compiled: true,
        });
        ledger.record(&Measurement {
            runtime: 1e-300,
            compile_time: 0.0,
            compiled: false,
        });
        let json = cost_ledger_to_json(&ledger)
            .unwrap()
            .to_json_string()
            .unwrap();
        let back = cost_ledger_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, ledger);
        // Canonical: re-encoding gives identical bytes.
        assert_eq!(
            cost_ledger_to_json(&back)
                .unwrap()
                .to_json_string()
                .unwrap(),
            json
        );
    }

    #[test]
    fn counters_beyond_exact_f64_range_error_at_encode_time() {
        // A saturated ledger cannot be stored exactly as JSON numbers; the
        // encoder must refuse rather than write a file decoding will reject.
        let saturated = CostLedger::from_parts(1.0, 1.0, u64::MAX, 3);
        let err = cost_ledger_to_json(&saturated).unwrap_err();
        assert!(err.to_string().contains("2^53"), "{err}");
        // Same contract for the campaign seed in a report.
        let mut report = run_campaign(&tiny_campaign()).unwrap();
        report.seed = u64::MAX;
        assert!(report_to_json(&report).is_err());
    }

    #[test]
    fn empty_and_filled_online_stats_round_trip() {
        let empty = OnlineStats::new();
        let back = stats_from_json(&stats_to_json(&empty).unwrap()).unwrap();
        assert_eq!(back, empty);

        let filled: OnlineStats = [0.3, 1.7, -2.5, 8.1].iter().copied().collect();
        let json = stats_to_json(&filled).unwrap().to_json_string().unwrap();
        let back = stats_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, filled);
    }

    #[test]
    fn decreasing_curve_costs_are_an_error_not_a_panic() {
        let hostile = JsonValue::parse(
            "[{\"iterations\":0,\"training_examples\":1,\"observations\":1,\
             \"cost_seconds\":2.0,\"rmse\":0.5},\
             {\"iterations\":1,\"training_examples\":2,\"observations\":2,\
             \"cost_seconds\":1.0,\"rmse\":0.4}]",
        )
        .unwrap();
        assert!(curve_from_json(&hostile).is_err());
    }

    #[test]
    fn learner_run_round_trips_bit_exactly() {
        let kernel = toy_kernel("alpha", 3);
        let outcome = compare_plans(&kernel, &tiny_base()).unwrap();
        for plan_result in &outcome.plans {
            for run in &plan_result.runs {
                let json = run_to_json(run).unwrap().to_json_string().unwrap();
                let back = run_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
                assert_eq!(&back, run);
            }
        }
    }

    #[test]
    fn outcome_and_report_round_trip_bit_exactly() {
        let report = run_campaign(&tiny_campaign()).unwrap();
        for entry in &report.entries {
            let json = outcome_to_json_string(&entry.outcome).unwrap();
            assert_eq!(outcome_from_json_str(&json).unwrap(), entry.outcome);
        }
    }

    #[test]
    fn wrong_schema_tags_are_rejected() {
        let value = JsonValue::parse("{\"schema\":\"bogus/v9\"}").unwrap();
        assert!(unit_record_from_json(&value).is_err());
    }
}
