//! Regenerates Figure 1: MAE over the `mm` unroll plane for one sample vs.
//! the optimal number of samples, plus the optimal sample counts.

use alic_experiments::report::{emit, format_sci, TextTable};
use alic_experiments::{fig1, options::RunOptions};

fn main() {
    // Figure 1 is a dataset-level study: the surrogate model plays no role,
    // but the option is still validated for a uniform CLI.
    let options = RunOptions::from_args();
    let scale = options.scale;
    println!("== Figure 1: sample-size study on the mm unroll plane ({scale} scale) ==");
    println!("(kernels are profiled directly here; --model/ALIC_MODEL does not apply)\n");
    let result = fig1::run(scale);

    let mut table = TextTable::new(vec![
        "unroll i1",
        "unroll i2",
        "mean runtime (s)",
        "MAE 1 sample (s)",
        "MAE optimal (s)",
        "optimal samples",
    ]);
    for p in &result.points {
        table.push_row(vec![
            p.unroll_i1.to_string(),
            p.unroll_i2.to_string(),
            format_sci(p.mean_runtime),
            format_sci(p.mae_single),
            format_sci(p.mae_optimal),
            p.optimal_samples.to_string(),
        ]);
    }
    emit("Figure 1 (a-c): per-point statistics", &table, "fig1.csv");

    println!(
        "fixed plan ({} samples/point): {} runs",
        result.observations_per_point, result.fixed_plan_runs
    );
    println!(
        "optimal plan ('perfect knowledge'): {} runs ({:.1}% of the fixed plan)",
        result.optimal_plan_runs,
        100.0 * result.optimal_fraction()
    );
    println!(
        "\n(The paper reports 31,500 runs for the fixed plan versus 15,131 with perfect \
         knowledge — roughly half; the simulated kernel reproduces the same qualitative gap.)"
    );
}
