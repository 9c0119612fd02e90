//! Autotuning scenario: use the learned runtime model to search a huge
//! configuration space for a fast configuration, paying only a tiny
//! profiling budget — the workload that motivates the paper's introduction.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example autotune_kernel [kernel] [--model FAMILY]
//! ```
//!
//! where `kernel` is one of the 11 SPAPT names (default: `mm`) and `FAMILY`
//! is any surrogate family name accepted by `SurrogateSpec::from_name`
//! (`dynatree`, `cart`, `gp`, `knn`, `mean`; default `dynatree`).
//! The `ALIC_MODEL` environment variable sets the family too, with the
//! `--model` flag taking precedence — the same override the experiment
//! binaries honour.

use alic::core::prelude::*;
use alic::data::dataset::{Dataset, DatasetConfig};
use alic::model::SurrogateSpec;
use alic::sim::profiler::{Profiler, SimulatedProfiler};
use alic::sim::spapt::{spapt_kernel, SpaptKernel};
use alic::stats::rng::seeded_rng;

fn main() -> Result<(), CoreError> {
    let mut kernel_name: Option<String> = None;
    let mut model_name = std::env::var("ALIC_MODEL").ok();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--model" {
            model_name = args.next();
        } else if kernel_name.is_none() {
            kernel_name = Some(arg);
        }
    }
    let kernel = kernel_name
        .as_deref()
        .and_then(SpaptKernel::from_name)
        .unwrap_or(SpaptKernel::Mm);
    let spec = match model_name.as_deref() {
        None => SurrogateSpec::dynatree(80),
        Some(name) => match SurrogateSpec::from_name(name) {
            // The example's profiling budget suits a mid-sized ensemble.
            Some(SurrogateSpec::DynaTree(_)) => SurrogateSpec::dynatree(80),
            Some(other) => other,
            None => {
                eprintln!(
                    "unknown model family {name:?}; valid names: {}",
                    SurrogateSpec::names().join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    let model_spec = spec;
    let spec = spapt_kernel(kernel);
    println!(
        "autotuning {} over {:.2e} configurations",
        spec.name(),
        spec.space().cardinality_f64()
    );

    // Build the model with a small profiling budget.
    let mut profiler = SimulatedProfiler::new(spec.clone(), 11);
    let dataset = Dataset::generate(
        &mut profiler,
        &DatasetConfig {
            configurations: 500,
            observations: 8,
            seed: 5,
        },
    );
    let split = dataset.split(400, 6);
    let config = LearnerConfig {
        initial_examples: 5,
        initial_observations: 8,
        candidates_per_iteration: 50,
        max_iterations: 200,
        evaluate_every: 50,
        plan: SamplingPlan::sequential(8),
        ..Default::default()
    };
    let mut model = model_spec.build(7);
    let run = ActiveLearner::new(config, &mut profiler).run(model.as_mut(), &dataset, &split)?;
    println!(
        "model trained: RMSE {:.4} s after {:.1} s of profiling ({} runs)",
        run.curve.final_rmse().unwrap_or(f64::NAN),
        run.ledger.total_seconds(),
        run.ledger.runs()
    );

    // Search: score a large random sample of *unprofiled* configurations with
    // the model, then verify only the most promising handful.
    let mut rng = seeded_rng(99);
    let candidates = spec.space().sample_distinct(&mut rng, 5_000);
    let mut scored: Vec<(f64, &alic::sim::space::Configuration)> = candidates
        .iter()
        .map(|c| {
            let features = dataset.features_of(c);
            let prediction = model.predict(&features).map(|p| p.mean).unwrap_or(f64::MAX);
            (prediction, c)
        })
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite predictions"));

    let baseline = spec.space().default_configuration();
    let baseline_runtime = profiler.true_mean(&baseline);
    println!("\nuntuned (-O2 style) configuration: {baseline} -> {baseline_runtime:.4} s");
    println!("\ntop predicted configurations (verified with 5 runs each):");
    let mut best_measured = baseline_runtime;
    for (predicted, config) in scored.iter().take(5) {
        let measured: f64 = (0..5)
            .map(|_| profiler.measure(config).runtime)
            .sum::<f64>()
            / 5.0;
        best_measured = best_measured.min(measured);
        println!("  {config} predicted {predicted:.4} s, measured {measured:.4} s");
    }
    println!(
        "\nspeed-up over the untuned configuration: {:.2}x",
        baseline_runtime / best_measured
    );
    Ok(())
}
