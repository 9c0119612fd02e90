//! Golden-snapshot regression suite for the experiment pipeline.
//!
//! For two kernels × all six [`SurrogateSpec`] families, a smoke-scale
//! `compare_plans` outcome is serialized to canonical JSON and diffed
//! against the snapshots committed under `tests/golden/`. Any behavioural
//! change anywhere in the stack — simulator, dataset generation, learner,
//! acquisition, surrogate models, curve averaging, campaign runner, codec —
//! shows up as a byte diff here.
//!
//! When a change is *intentional*, regenerate the snapshots with
//!
//! ```text
//! ALIC_UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and commit the updated files (the failure message repeats this command).
//!
//! The snapshots double as cross-version fixtures for the campaign codec:
//! every committed file must parse back into an outcome that re-serializes
//! to identical bytes.

mod common;

use std::fs;

use common::{compare_or_update, golden_dir, update_requested};

use alic::core::experiment::{compare_plans, ComparisonConfig};
use alic::core::learner::LearnerConfig;
use alic::core::plan::SamplingPlan;
use alic::core::runner::codec;
use alic::data::dataset::DatasetConfig;
use alic::model::SurrogateSpec;
use alic::sim::spapt::{spapt_kernel, SpaptKernel};

const GOLDEN_KERNELS: [SpaptKernel; 2] = [SpaptKernel::Mvt, SpaptKernel::Gemver];

/// The six model families at smoke-friendly hyper-parameters (the dynamic
/// tree is shrunk so the whole suite stays fast in debug builds; the other
/// families are scale-independent defaults).
fn golden_models() -> [SurrogateSpec; 5] {
    let mut models = SurrogateSpec::all();
    models[0] = SurrogateSpec::dynatree(30);
    models
}

/// Smoke-scale comparison preserving the full experimental structure: the
/// paper's three plans, seeded repetitions, ALC acquisition.
fn golden_config(model: SurrogateSpec) -> ComparisonConfig {
    ComparisonConfig {
        learner: LearnerConfig {
            initial_examples: 4,
            initial_observations: 6,
            candidates_per_iteration: 18,
            max_iterations: 20,
            evaluate_every: 5,
            ..Default::default()
        },
        plans: vec![
            SamplingPlan::fixed(6),
            SamplingPlan::one_observation(),
            SamplingPlan::sequential(6),
        ],
        repetitions: 2,
        model,
        dataset: DatasetConfig {
            configurations: 200,
            observations: 6,
            seed: 0,
        },
        train_size: 150,
        grid_resolution: 32,
        seed: 11,
    }
}

#[test]
fn golden_reports_match_for_every_model_family() {
    let dir = golden_dir();
    let mut failures = Vec::new();

    for kernel in GOLDEN_KERNELS {
        for model in golden_models() {
            let label = format!("{}_{}", kernel.name(), model.name());
            let outcome = compare_plans(&spapt_kernel(kernel), &golden_config(model))
                .unwrap_or_else(|e| panic!("{label}: comparison failed: {e}"));
            let actual = codec::outcome_to_json_string(&outcome)
                .unwrap_or_else(|e| panic!("{label}: serialization failed: {e}"))
                + "\n";

            // The snapshot format must round-trip exactly, independent of
            // whether it matches the committed bytes.
            let reparsed = codec::outcome_from_json_str(actual.trim_end())
                .unwrap_or_else(|e| panic!("{label}: snapshot does not re-parse: {e}"));
            assert_eq!(reparsed, outcome, "{label}: codec round-trip drifted");

            let path = dir.join(format!("compare_plans_{label}.json"));
            if let Some(diff) = compare_or_update(&path, &actual) {
                failures.push(format!("{label}: {diff}"));
            }
        }
    }

    assert!(
        failures.is_empty(),
        "{} golden snapshot(s) out of date:\n{}\n\n\
         If this change is intentional, regenerate the snapshots with:\n\n    \
         ALIC_UPDATE_GOLDEN=1 cargo test --test golden_reports\n\n\
         and commit the updated tests/golden/ files.",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn committed_snapshots_reparse_and_reserialize_identically() {
    // Guards the codec against format drift even when the pipeline output
    // changes: every committed snapshot must be a fixed point of
    // parse -> serialize.
    if update_requested() {
        // The sibling test is (re)writing the snapshots concurrently; check
        // the committed files on the next normal run instead.
        return;
    }
    let dir = golden_dir();
    let mut seen = 0;
    for entry in fs::read_dir(&dir).expect("tests/golden/ exists and is readable") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let outcome = codec::outcome_from_json_str(text.trim_end())
            .unwrap_or_else(|e| panic!("{}: does not parse: {e}", path.display()));
        let rewritten = codec::outcome_to_json_string(&outcome).unwrap() + "\n";
        assert_eq!(
            rewritten,
            text,
            "{}: not a serialization fixed point",
            path.display()
        );
        seen += 1;
    }
    assert_eq!(
        seen,
        GOLDEN_KERNELS.len() * golden_models().len(),
        "unexpected number of snapshots in tests/golden/"
    );
}
