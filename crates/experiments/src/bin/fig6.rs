//! Regenerates Figure 6: RMSE over evaluation time for the three sampling
//! plans on the six benchmarks the paper plots.

use alic_experiments::report::{emit_text, format_sci, TextTable};
use alic_experiments::{fig6, options::RunOptions};

fn main() {
    let options = RunOptions::from_args();
    println!(
        "== Figure 6: RMSE vs. evaluation time for three sampling plans ({}) ==\n",
        options.describe()
    );
    let result = fig6::run_with(&options.comparison_config());

    for kernel in &result.kernels {
        println!("--- {} ---", kernel.benchmark);
        let mut table = TextTable::new(vec!["cost (s)", "all obs", "one obs", "variable obs"]);
        // All series share the same grid; print a subsampled view.
        let grid_len = kernel.series[0].costs.len();
        let stride = (grid_len / 12).max(1);
        for i in (0..grid_len).step_by(stride) {
            let row: Vec<String> = std::iter::once(format_sci(kernel.series[0].costs[i]))
                .chain(kernel.series.iter().map(|s| format_sci(s.rmse[i])))
                .collect();
            table.push_row(row);
        }
        println!("{table}");

        // Full-resolution CSV per kernel.
        let mut csv = TextTable::new(vec![
            "cost_seconds",
            "all_observations",
            "one_observation",
            "variable_observations",
        ]);
        for i in 0..grid_len {
            let row: Vec<String> = std::iter::once(kernel.series[0].costs[i].to_string())
                .chain(kernel.series.iter().map(|s| s.rmse[i].to_string()))
                .collect();
            csv.push_row(row);
        }
        if let Some(path) = emit_text(&format!("fig6_{}.csv", kernel.benchmark), &csv.to_csv()) {
            println!("[csv written to {}]\n", path.display());
        }
    }
    println!(
        "(Interpretation, as in the paper: 'one observation' plateaus early on noisy kernels, \
         'all observations' is accurate but slow, and 'variable observations' tracks the accurate \
         curve at a fraction of the cost on most kernels.)"
    );
}
