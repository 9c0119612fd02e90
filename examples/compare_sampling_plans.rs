//! Compare the paper's three sampling plans on one kernel.
//!
//! Reproduces, for a single benchmark, the comparison behind Table 1 and
//! Figure 6: the fixed 35-observation baseline, the single-observation plan,
//! and the paper's variable-observation (sequential analysis) plan, all
//! driven by the same ALC active learner over any surrogate family.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example compare_sampling_plans [kernel] [model]
//! ```
//!
//! where `model` is one of `dynatree` (default), `cart`, `gp`, `knn`, `mean`.

use alic::core::experiment::{compare_plans, ComparisonConfig};
use alic::core::prelude::*;
use alic::sim::spapt::{spapt_kernel, SpaptKernel};

fn main() -> Result<(), CoreError> {
    let kernel = match std::env::args().nth(1) {
        None => SpaptKernel::Jacobi,
        Some(name) => SpaptKernel::from_name(&name).unwrap_or_else(|| {
            eprintln!("unknown kernel '{name}'");
            std::process::exit(2);
        }),
    };
    let model = std::env::args().nth(2).map(|name| {
        SurrogateSpec::from_name(&name).unwrap_or_else(|| {
            eprintln!(
                "unknown model '{name}' (expected one of: {})",
                SurrogateSpec::names().join(", ")
            );
            std::process::exit(2);
        })
    });
    let spec = spapt_kernel(kernel);

    let mut config = ComparisonConfig {
        repetitions: 3,
        ..ComparisonConfig::laptop_scale()
    };
    if let Some(model) = model {
        config = config.with_model(model);
    }
    println!(
        "comparing sampling plans on {} with the {} surrogate\n",
        spec.name(),
        config.model
    );
    let outcome = compare_plans(&spec, &config)?;

    println!("plan                     mean cost (s)  best RMSE (s)  obs/example");
    println!("--------------------------------------------------------------------");
    for plan in &outcome.plans {
        let mean_cost: f64 = plan
            .runs
            .iter()
            .map(|r| r.ledger.total_seconds())
            .sum::<f64>()
            / plan.runs.len().max(1) as f64;
        println!(
            "{:<24} {:>12.1}  {:>12.4}  {:>10.2}",
            plan.plan.label(),
            mean_cost,
            plan.averaged.best_rmse().unwrap_or(f64::NAN),
            plan.mean_observations_per_example(),
        );
    }

    if let Some(pair) = outcome.pairwise(
        config.plans[0], // fixed baseline
        *config.plans.last().expect("three plans configured"),
    ) {
        println!(
            "\nlowest common RMSE between the baseline and the variable plan: {:.4} s",
            pair.lowest_common_rmse
        );
        println!(
            "cost to reach it: baseline {:?} s, variable {:?} s",
            pair.cost_first.map(|c| c.round()),
            pair.cost_second.map(|c| c.round())
        );
        match pair.speedup() {
            Some(s) => println!("reduction of profiling cost: {s:.2}x"),
            None => println!("one of the plans never reached the common error in the window"),
        }
    }
    Ok(())
}
