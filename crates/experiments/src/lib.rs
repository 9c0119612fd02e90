//! Reproduction harness for every table and figure of the paper.
//!
//! Each module regenerates one piece of the paper's evaluation on top of the
//! simulated SPAPT kernels and prints the same rows/series the paper reports:
//!
//! | Module / binary | Paper artefact |
//! |---|---|
//! | [`fig1`]    (`cargo run -p alic-experiments --bin fig1`)    | Figure 1 (a–c): MAE over the `mm` unroll plane for 1 vs. optimal samples, and the optimal sample count |
//! | [`fig2`]    (`--bin fig2`)    | Figure 2: runtime vs. unroll factor for `adi`, one sample per point |
//! | [`table1`]  (`--bin table1`)  | Table 1: lowest common RMSE, cost to reach it for the baseline and the variable plan, speed-up, geometric mean |
//! | [`table2`]  (`--bin table2`)  | Table 2: spread of variance and 95% CI/mean for 35- and 5-sample plans |
//! | [`fig5`]    (`--bin fig5`)    | Figure 5: per-kernel reduction of profiling cost (bar-chart values) |
//! | [`fig6`]    (`--bin fig6`)    | Figure 6 (a–f): RMSE vs. evaluation time for the three sampling plans |
//! | [`ablation`](`--bin ablation`)| §3.3 / §7 ablations: acquisition function and artificial-noise robustness |
//! | [`campaign`] (`--bin campaign`)| Sharded, resumable campaign over kernels × models × plans × repetitions |
//!
//! Every binary accepts an optional scale argument (`quick`, `laptop`,
//! `full`) controlling how much work is done; `laptop` (the default)
//! reproduces the qualitative shapes in seconds to minutes, while `full`
//! approaches the paper's protocol sizes. Binaries that build learners also
//! accept `--model <name>` (or the `ALIC_MODEL` environment variable) to run
//! the whole protocol against any surrogate family of
//! [`SurrogateSpec`](alic_model::SurrogateSpec) — see [`options`].
//!
//! All learner-driven binaries run on the zero-copy batched scoring pipeline
//! (flat [`FeatureMatrix`](alic_stats::features::FeatureMatrix) pools, batch
//! `alc_scores`/`predict_batch`), the same path the `learner_paper` workload
//! of the `perfbench/` benchmark times; results stay bit-identical for a
//! fixed seed regardless of the worker-thread count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod campaign;
pub mod fig1;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod options;
pub mod report;
pub mod scale;
pub mod table1;
pub mod table2;

pub use scale::Scale;
