//! `campaign_laptop`: the `campaign laptop --model dynatree` matrix over five
//! SPAPT kernels, healed on an on-disk ledger and merged into `report.json`
//! the way the `campaign` binary does it. The seed sets the order of the
//! `--kernels` list, which decides how units are laid out and scheduled on
//! the workers; the kernels and the base seed stay fixed, so every seed does
//! the same work. A seeded kernel subset or base seed moved the work by
//! about 20% from seed to seed.
//!
//! The traced run does not go through `heal_campaign`: it calls the runner's
//! public pieces itself (context preparation, each unit's learner run under
//! `map_units` with the model and profiler in the timing shims of
//! [`crate::layers`], the record codec, the ledger, the merge) so that each
//! one can be timed, and checks that the report it writes is byte-identical
//! to the untraced run's. Its one-thread twin does the same on one thread.

use std::path::Path;
use std::time::Instant;

use alic_core::learner::{ActiveLearner, LearnerConfig, LearnerRun};
use alic_core::runner::{
    self, codec, CampaignLedger, CampaignReport, CampaignSpec, KernelContext, UnitKey, UnitRecord,
};
use alic_experiments::campaign::CampaignOptions;
use alic_experiments::table1;
use alic_sim::profiler::SimulatedProfiler;
use alic_sim::spapt::SpaptKernel;
use alic_stats::rng::derive_seed;

use crate::layers::{self, TracedModel, TracedProfiler, ENCODE, ENCODE_BYTES, RUN, WRITE};
use crate::report::{digest, median, percentile, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Set-up repetitions after each campaign; `setup_s` is the median of all
/// set-ups of the run.
const SETUP_REPS: usize = 3;

/// The campaign's kernels: the learner workload's five, whose units cost
/// about the same, so that a run holds five or more campaigns.
const KERNELS: [SpaptKernel; 5] = [
    SpaptKernel::Hessian,
    SpaptKernel::Jacobi,
    SpaptKernel::Lu,
    SpaptKernel::Mvt,
    SpaptKernel::Bicgkernel,
];

/// [`KERNELS`] in seeded order, as a `--kernels` list.
pub fn kernel_list(seed: u64) -> String {
    let mut order: Vec<(u64, SpaptKernel)> = KERNELS
        .into_iter()
        .enumerate()
        .map(|(i, k)| (derive_seed(seed, 0xCA00 + i as u64), k))
        .collect();
    order.sort_unstable();
    let names: Vec<&str> = order.iter().map(|(_, k)| k.name()).collect();
    names.join(",")
}

/// Spec build and ledger open.
fn setup(kernels: &str, dir: &Path) -> alic_core::Result<(CampaignSpec, CampaignLedger)> {
    let args = [
        "laptop",
        "--model",
        "dynatree",
        "--kernels",
        kernels,
        "--dir",
        &dir.display().to_string(),
    ]
    .map(String::from);
    let options = CampaignOptions::parse_with_env(args, None, None, None)
        .map_err(alic_core::CoreError::InvalidConfig)?;
    let spec = options.campaign_spec();
    let ledger = CampaignLedger::open(&options.dir, &spec)?;
    Ok((spec, ledger))
}

/// The set-up a campaign pays before its first unit: spec build, ledger
/// open, and every kernel's dataset and split. `heal_campaign` prepares the
/// kernel contexts itself, so they are built here only to be timed and are
/// built again inside `run_s`. Dataset generation makes this a CPU-bound
/// measurement; the ledger open alone is a ~150 us burst of file-system
/// calls whose time doubles from one minute to the next on a shared host.
fn timed_setup(
    kernels: &str,
    dir: &Path,
) -> alic_core::Result<(CampaignSpec, CampaignLedger, f64)> {
    let start = Instant::now();
    let (spec, ledger) = setup(kernels, dir)?;
    let kernel_ids: Vec<usize> = (0..spec.kernels.len()).collect();
    let contexts = runner::map_units(&kernel_ids, |&k| {
        KernelContext::prepare(&spec.kernels[k], &spec.base)
    });
    let seconds = start.elapsed().as_secs_f64();
    drop(contexts);
    Ok((spec, ledger, seconds))
}

/// Table 1's geometric-mean speed-up of the sequential plan over the fixed
/// plan, from the merged report.
fn cost_speedup(spec: &CampaignSpec, report: &CampaignReport) -> Option<f64> {
    let outcomes: Vec<_> = report
        .outcomes_for_model("dynatree")
        .into_iter()
        .cloned()
        .collect();
    table1::rows_from_outcomes(&outcomes, &spec.base).geometric_mean_speedup
}

/// What one untraced campaign produced.
struct Finished {
    run_s: f64,
    report_digest: u64,
    report_bytes: usize,
    speedup: Option<f64>,
}

/// Heals every unit on the ledger, then merges and writes `report.json`.
fn run_untraced(
    spec: &CampaignSpec,
    ledger: &CampaignLedger,
    out: &mut Outcome,
) -> alic_core::Result<Finished> {
    let indices: Vec<usize> = (0..spec.unit_count()).collect();
    let start = Instant::now();
    let healed = runner::heal_campaign(spec, ledger, &indices)?;
    let records = ledger.load_all(spec)?;
    let report = runner::assemble_report(spec, records)?;
    let path = ledger.write_report(&report)?;
    let run_s = start.elapsed().as_secs_f64();
    out.attempted += indices.len() as u64;
    out.failed += healed.failures.len() as u64;
    out.check(healed.is_healed(), "campaign left failed units");
    out.check(report.failures.is_empty(), "report lists failed units");
    let bytes = std::fs::read(path)?;
    Ok(Finished {
        run_s,
        report_digest: digest(&bytes),
        report_bytes: bytes.len(),
        speedup: cost_speedup(spec, &report),
    })
}

fn fresh_dir(args: &Args, label: &str) -> std::path::PathBuf {
    let dir = args.work_dir.join(format!("campaign-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn run(args: &Args, out: &mut Outcome) {
    let kernels = kernel_list(args.seed);
    println!("campaign: laptop scale, dynatree, kernels {kernels}");
    if let Err(e) = measure(args, &kernels, out) {
        out.failed += 1;
        out.check(false, format!("campaign error: {e}"));
    }
}

fn measure(args: &Args, kernels: &str, out: &mut Outcome) -> alic_core::Result<()> {
    let mut setup_times = Vec::new();
    let mut runs: Vec<Finished> = Vec::new();
    let budget = Instant::now();
    loop {
        let dir = fresh_dir(args, &format!("rep{}", runs.len()));
        let (spec, ledger, setup_s) = timed_setup(kernels, &dir)?;
        setup_times.push(setup_s);
        let finished = run_untraced(&spec, &ledger, out)?;
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "campaign: {} units in {:.3} s, report {} bytes digest {:016x}, speed-up {:?}",
            spec.unit_count(),
            finished.run_s,
            finished.report_bytes,
            finished.report_digest,
            finished.speedup
        );
        if let Some(first) = runs.first() {
            out.check(
                first.report_digest == finished.report_digest,
                "report.json differs between repetitions",
            );
        }
        let last_s = finished.run_s;
        runs.push(finished);
        for _ in 0..SETUP_REPS {
            let dir = fresh_dir(args, "setup");
            setup_times.push(timed_setup(kernels, &dir)?.2);
            let _ = std::fs::remove_dir_all(&dir);
        }
        if args.trace || budget.elapsed().as_secs_f64() + last_s > args.seconds {
            break;
        }
    }
    println!(
        "campaign: set-up n={} p50={:.4} max={:.4} s",
        setup_times.len(),
        median(&setup_times),
        percentile(&setup_times, 1.0)
    );
    let speedup = runs[0].speedup;
    out.check(speedup.is_some(), "Table 1 has no geometric-mean speed-up");

    if !args.trace {
        let times: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("run_s", median(&times), "s");
        return Ok(());
    }

    let expected = runs[0].report_digest;
    let (tracer, traced_s) = traced_campaign(args, kernels, "traced", expected, out)?;
    rayon::set_num_threads(1);
    let twin = traced_campaign(args, kernels, "t1", expected, out);
    rayon::set_num_threads(0);
    let (twin, _) = twin?;
    layers::report(out, &tracer, &twin, traced_s, runs[0].run_s);
    crate::write_trace(args, &[("default", &tracer), ("t1", &twin)]);
    Ok(())
}

/// One traced campaign in a fresh directory; checks that its report is
/// byte-identical to the untraced one and returns the tracer and the
/// campaign's wall time.
fn traced_campaign(
    args: &Args,
    kernels: &str,
    label: &str,
    expected: u64,
    out: &mut Outcome,
) -> alic_core::Result<(Tracer, f64)> {
    let tracer = Tracer::default();
    let dir = fresh_dir(args, label);
    let (spec, ledger) = setup(kernels, &dir)?;
    let traced_s = run_traced(&spec, &ledger, &tracer, out)?;
    let bytes = std::fs::read(ledger.report_path())?;
    out.check(
        digest(&bytes) == expected,
        format!("{label} report.json differs from the untraced one"),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok((tracer, traced_s))
}

/// [`runner::execute_unit`] through the timing shims: the same seeds, plan
/// and model, derived and built the same way, so the unit's run is
/// bit-identical (the report digest check proves it).
fn execute_unit_traced(
    spec: &CampaignSpec,
    ctx: &KernelContext,
    key: UnitKey,
    tracer: &Tracer,
) -> alic_core::Result<LearnerRun> {
    let config = &spec.base;
    let seed = derive_seed(config.seed, 1000 + key.repetition);
    let mut profiler = TracedProfiler {
        inner: SimulatedProfiler::new(spec.kernels[key.kernel].clone(), derive_seed(seed, 3)),
        tracer,
    };
    let learner_config = LearnerConfig {
        plan: config.plans[key.plan],
        seed: derive_seed(seed, 4),
        ..config.learner
    };
    let mut model = TracedModel {
        inner: spec.models[key.model].build(derive_seed(seed, 5)),
        tracer,
    };
    ActiveLearner::new(learner_config, &mut profiler).run(&mut model, &ctx.dataset, &ctx.split)
}

/// The campaign again, through the runner's public pieces, one span each;
/// every unit is one [`RUN`] span. Returns the campaign's wall time.
fn run_traced(
    spec: &CampaignSpec,
    ledger: &CampaignLedger,
    tracer: &Tracer,
    out: &mut Outcome,
) -> alic_core::Result<f64> {
    let start = Instant::now();
    let campaign = tracer.span("campaign.run");
    let parent = Some(campaign.id());

    let kernel_ids: Vec<usize> = (0..spec.kernels.len()).collect();
    let contexts: Vec<KernelContext> = runner::map_units(&kernel_ids, |&k| {
        let _span = tracer.span_under("runner.prepare", parent);
        KernelContext::prepare(&spec.kernels[k], &spec.base)
    });

    let indices: Vec<usize> = (0..spec.unit_count()).collect();
    let execute = tracer.span("runner.execute");
    let execute_id = Some(execute.id());
    let results: Vec<alic_core::Result<()>> = runner::map_units(&indices, |&index| {
        let key = spec.unit(index);
        let _unit = tracer.span_under(RUN, execute_id);
        let run = execute_unit_traced(spec, &contexts[key.kernel], key, tracer)?;
        let record = UnitRecord {
            index,
            kernel: spec.kernels[key.kernel].name().to_string(),
            model: spec.models[key.model].name().to_string(),
            plan: spec.base.plans[key.plan],
            repetition: key.repetition,
            run,
        };
        let encoded = tracer.time(ENCODE, || codec::unit_record_to_json_string(&record))?;
        tracer.count(ENCODE_BYTES, encoded.len() as u64 + 1);
        // `record` encodes the record again before its atomic write.
        tracer.time(WRITE, || ledger.record(&record))
    });
    drop(execute);
    out.attempted += indices.len() as u64;
    for result in results {
        if let Err(e) = result {
            out.failed += 1;
            out.check(false, format!("traced unit failed: {e}"));
        }
    }

    let recovery = tracer.time("ledger.recover", || ledger.recover(spec))?;
    out.check(recovery.is_clean(), "ledger recovery had to repair records");
    let records = tracer.time("ledger.load", || ledger.load_all(spec))?;
    let report = tracer.time("runner.merge", || runner::assemble_report(spec, records))?;
    tracer.time("ledger.report_write", || ledger.write_report(&report))?;
    drop(campaign);
    Ok(start.elapsed().as_secs_f64())
}
