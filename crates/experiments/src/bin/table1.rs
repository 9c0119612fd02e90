//! Regenerates Table 1: lowest common RMSE, cost to reach it for the
//! 35-observation baseline and the variable-observation technique, and the
//! per-benchmark speed-up with its geometric mean.

use alic_experiments::report::{emit, format_sci, TextTable};
use alic_experiments::{options::RunOptions, table1};

fn main() {
    let options = RunOptions::from_args();
    println!(
        "== Table 1: profiling cost to reach the lowest common RMSE ({}) ==\n",
        options.describe()
    );
    let (table1_result, _outcomes) = table1::run_with(&options.comparison_config());

    let mut table = TextTable::new(vec![
        "benchmark",
        "search space",
        "lowest common RMSE (s)",
        "cost of the baseline (s)",
        "cost of our approach (s)",
        "speed-up",
    ]);
    for row in &table1_result.rows {
        table.push_row(vec![
            row.benchmark.clone(),
            format_sci(row.search_space),
            format_sci(row.lowest_common_rmse),
            row.baseline_cost
                .map(format_sci)
                .unwrap_or_else(|| "-".into()),
            row.variable_cost
                .map(format_sci)
                .unwrap_or_else(|| "-".into()),
            row.speedup
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    emit("Table 1", &table, "table1.csv");

    match table1_result.geometric_mean_speedup {
        Some(gm) => println!("geometric mean speed-up: {gm:.2}x"),
        None => println!(
            "geometric mean speed-up: not available (no kernel produced a finite speed-up)"
        ),
    }
    println!(
        "\n(The paper reports a geometric-mean reduction of 3.97x, ranging from 0.29x on adi to \
         26x on gemver; absolute seconds differ on the simulator but the qualitative ordering \
         should match.)"
    );
}
