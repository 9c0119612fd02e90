//! Regenerates Table 2: the spread of runtime variance and of the 95% CI to
//! mean ratio for the full-sample and 5-sample plans.

use alic_experiments::report::{emit, format_sci, TextTable};
use alic_experiments::{options::RunOptions, table2};

fn main() {
    // Table 2 characterizes the kernels' noise, independent of any surrogate
    // model; options are still validated for a uniform CLI.
    let options = RunOptions::from_args();
    let scale = options.scale;
    println!("== Table 2: variance and confidence-interval spreads ({scale} scale) ==");
    println!("(kernels are profiled directly here; --model/ALIC_MODEL does not apply)\n");
    let result = table2::run(scale);

    let mut table = TextTable::new(vec![
        "benchmark",
        "var min",
        "var mean",
        "var max",
        "full-sample CI/mean min",
        "full-sample CI/mean mean",
        "full-sample CI/mean max",
        "5-sample CI/mean min",
        "5-sample CI/mean mean",
        "5-sample CI/mean max",
    ]);
    for row in &result.rows {
        table.push_row(vec![
            row.benchmark.clone(),
            format_sci(row.variance.min),
            format_sci(row.variance.mean),
            format_sci(row.variance.max),
            format_sci(row.ci_ratio_full.min),
            format_sci(row.ci_ratio_full.mean),
            format_sci(row.ci_ratio_full.max),
            format_sci(row.ci_ratio_5.min),
            format_sci(row.ci_ratio_5.mean),
            format_sci(row.ci_ratio_5.max),
        ]);
    }
    emit("Table 2", &table, "table2.csv");

    println!(
        "(Columns mirror the paper's Table 2; the full-sample plan uses {} observations at this \
         scale. Note how correlation dwarfs every other kernel and how each kernel's variance \
         spans orders of magnitude across its own space.)",
        result.rows.first().map(|r| r.observations).unwrap_or(35)
    );
}
