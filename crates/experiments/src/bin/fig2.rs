//! Regenerates Figure 2: runtime versus unroll factor for `adi` with a single
//! observation per factor.

use alic_experiments::fig2;
use alic_experiments::options::RunOptions;
use alic_experiments::report::{emit, TextTable};

fn main() {
    // Figure 2 is a raw measurement sweep; options are validated for a
    // uniform CLI even though neither scale nor surrogate changes the sweep.
    let _options = RunOptions::from_args();
    println!("== Figure 2: adi runtime vs. unroll factor, one sample per point ==");
    println!("(kernels are profiled directly here; scale and --model/ALIC_MODEL do not apply)\n");
    let result = fig2::run(1);

    let mut table = TextTable::new(vec![
        "unroll factor",
        "observed runtime (s)",
        "true mean (s)",
    ]);
    for p in &result.points {
        table.push_row(vec![
            p.unroll.to_string(),
            format!("{:.4}", p.observed_runtime),
            format!("{:.4}", p.true_mean),
        ]);
    }
    emit("Figure 2: single-sample sweep", &table, "fig2.csv");

    println!(
        "low-unroll plateau (factors 1-8):   {:.3} s",
        result.plateau_level()
    );
    println!(
        "high-unroll plateau (factors 25-30): {:.3} s",
        result.high_level()
    );
    println!(
        "\n(The paper observes a plateau around 2.1 s climbing to about 3.1 s past an unroll \
         factor of 10; the simulated adi kernel reproduces that shape.)"
    );
}
