//! Runs the two ablations: acquisition-function choice (ALC vs. ALM vs.
//! random) and robustness to artificially scaled noise.

use alic_experiments::ablation;
use alic_experiments::options::RunOptions;
use alic_experiments::report::{emit, format_sci, TextTable};
use alic_sim::spapt::SpaptKernel;

fn main() {
    let options = RunOptions::from_args();
    let config = options.comparison_config();
    println!("== Ablations ({}) ==\n", options.describe());

    // Acquisition-function ablation on a quiet and a noisy kernel.
    let mut acquisition_table = TextTable::new(vec![
        "benchmark",
        "acquisition",
        "best RMSE (s)",
        "mean cost (s)",
    ]);
    for kernel in [SpaptKernel::Gemver, SpaptKernel::Correlation] {
        for row in ablation::acquisition_ablation_with(kernel, &config) {
            acquisition_table.push_row(vec![
                kernel.name().to_string(),
                row.acquisition,
                format_sci(row.best_rmse),
                format_sci(row.mean_cost),
            ]);
        }
    }
    emit(
        "Acquisition-function ablation (variable-observation plan)",
        &acquisition_table,
        "ablation_acquisition.csv",
    );

    // Noise-robustness ablation (the paper's proposed future work, §7).
    let mut noise_table = TextTable::new(vec![
        "benchmark",
        "noise scale",
        "lowest common RMSE (s)",
        "speed-up vs baseline",
    ]);
    for kernel in [SpaptKernel::Gemver, SpaptKernel::Jacobi] {
        for row in ablation::noise_ablation_with(kernel, &[0.5, 1.0, 2.0, 4.0], &config) {
            noise_table.push_row(vec![
                kernel.name().to_string(),
                format!("{:.1}x", row.noise_scale),
                format_sci(row.lowest_common_rmse),
                row.speedup
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    emit(
        "Noise-robustness ablation",
        &noise_table,
        "ablation_noise.csv",
    );
}
