//! Integration smoke tests of the experiment harness: every table/figure
//! module must run end to end at quick scale and produce sane artefacts.

use alic::experiments::{ablation, fig1, fig2, fig5, fig6, table1, table2, Scale};
use alic::sim::spapt::SpaptKernel;

#[test]
fn figure1_study_runs_and_saves_samples() {
    let result = fig1::run_with(5, 10, fig1::MAE_THRESHOLD_SECONDS, 3);
    assert_eq!(result.points.len(), 25);
    assert!(result.optimal_plan_runs <= result.fixed_plan_runs);
    assert!(result.optimal_fraction() > 0.0);
}

#[test]
fn figure2_sweep_matches_the_papers_shape() {
    let result = fig2::run(7);
    assert_eq!(result.points.len(), 30);
    assert!(result.high_level() > result.plateau_level());
}

#[test]
fn table1_and_fig5_quick_scale() {
    let kernels = [SpaptKernel::Lu, SpaptKernel::Mvt];
    let (table, outcomes) =
        table1::run_for_kernels_with(&kernels, &Scale::Quick.comparison_config());
    assert_eq!(table.rows.len(), 2);
    assert_eq!(outcomes.len(), 2);
    for row in &table.rows {
        assert!(row.lowest_common_rmse.is_finite());
        assert!(row.lowest_common_rmse > 0.0);
    }
    let fig = fig5::Fig5Result::from_table1(&table);
    // Bars only exist for kernels with a finite speed-up, plus the geo-mean.
    assert!(fig.bars.len() <= 3);
    if !fig.bars.is_empty() {
        assert!(!fig.ascii_chart().is_empty());
    }
}

#[test]
fn fig6_quick_scale_produces_aligned_series() {
    let (_, outcomes) =
        table1::run_for_kernels_with(&[SpaptKernel::Hessian], &Scale::Quick.comparison_config());
    let fig = fig6::curves_from_outcomes(&outcomes);
    assert_eq!(fig.kernels.len(), 1);
    for series in &fig.kernels[0].series {
        assert_eq!(series.costs.len(), series.rmse.len());
    }
}

#[test]
fn table2_quick_scale_rows_are_ordered() {
    let row = table2::run_kernel(SpaptKernel::Bicgkernel, 30, 10, 5);
    assert!(row.variance.min <= row.variance.max);
    assert!(row.ci_ratio_full.mean <= row.ci_ratio_5.mean * 10.0);
}

#[test]
fn acquisition_ablation_quick_scale() {
    let rows =
        ablation::acquisition_ablation_with(SpaptKernel::Lu, &Scale::Quick.comparison_config());
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.mean_cost > 0.0));
}
