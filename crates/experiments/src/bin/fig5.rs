//! Regenerates Figure 5: the per-benchmark reduction of profiling cost
//! (speed-up of the variable-observation plan over the baseline) as an ASCII
//! bar chart.

use alic_experiments::fig5::Fig5Result;
use alic_experiments::report::{emit, TextTable};
use alic_experiments::{options::RunOptions, table1};

fn main() {
    let options = RunOptions::from_args();
    println!(
        "== Figure 5: reduction of profiling cost ({}) ==\n",
        options.describe()
    );
    let (table1_result, _outcomes) = table1::run_with(&options.comparison_config());
    let fig = Fig5Result::from_table1(&table1_result);

    let mut table = TextTable::new(vec!["benchmark", "reduction of profiling cost"]);
    for bar in &fig.bars {
        table.push_row(vec![bar.label.clone(), format!("{:.2}", bar.reduction)]);
    }
    emit("Figure 5 data", &table, "fig5.csv");

    println!("{}", fig.ascii_chart());
    println!(
        "(The paper's figure ranges from 0.29x on adi to 26x on gemver with a 3.97x geometric \
         mean.)"
    );
}
