//! `learner_paper`: one `ActiveLearner::run` at the paper's per-iteration
//! shape, in process.
//!
//! A run prepares one input per kernel of [`KERNELS`], with dataset, split
//! and learner seeds derived from the workload seed, and cycles through
//! them. How fast the dynamic tree grows differs from input to input by up
//! to 50%, so the median over several inputs is what keeps `run_s` steady
//! from seed to seed.
//!
//! Every run ends by writing its unit record (`codec` + `write_atomic`), as
//! a campaign does for each of its units; that is a few milliseconds of a
//! run of seconds.
//!
//! The traced run wraps the spec-built surrogate and the simulated profiler
//! in the timing shims of [`crate::layers`], which forward every call
//! unchanged, so the run's results stay bit-identical to the untraced run's
//! (checked).

use std::path::Path;
use std::time::Instant;

use alic_core::acquisition::Acquisition;
use alic_core::criteria::CompletionCriteria;
use alic_core::learner::{ActiveLearner, LearnerConfig, LearnerRun};
use alic_core::plan::SamplingPlan;
use alic_core::runner::ledger::write_atomic;
use alic_core::runner::{codec, UnitRecord};
use alic_data::dataset::{Dataset, DatasetConfig};
use alic_data::split::TrainTestSplit;
use alic_model::SurrogateSpec;
use alic_sim::profiler::SimulatedProfiler;
use alic_sim::spapt::{spapt_kernel, SpaptKernel};
use alic_sim::KernelSpec;
use alic_stats::rng::derive_seed;

use crate::layers::{self, TracedModel, TracedProfiler, ENCODE, ENCODE_BYTES, RUN, WRITE};
use crate::report::{digest, median, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// One input per kernel, on the five kernels with 5 or 6 parameters, so
/// every seed asks for about the same amount of model work.
const KERNELS: [SpaptKernel; 5] = [
    SpaptKernel::Hessian,
    SpaptKernel::Jacobi,
    SpaptKernel::Lu,
    SpaptKernel::Mvt,
    SpaptKernel::Bicgkernel,
];

/// Pool size and train share (the paper's 10,000 split 7,500/2,500).
const CONFIGURATIONS: usize = 10_000;
const TRAIN: usize = 7_500;
/// Observations per configuration, for the seed examples and the dataset
/// means the RMSE is measured against.
const OBSERVATIONS: usize = 35;
/// Learning iterations per run.
const ITERATIONS: usize = 500;
/// Distinct inputs per run; `setup_s` is the median of their set-ups.
const INPUTS: usize = KERNELS.len();

fn learner_config(seed: u64) -> LearnerConfig {
    LearnerConfig {
        initial_examples: 5,
        initial_observations: OBSERVATIONS,
        candidates_per_iteration: 500,
        max_iterations: ITERATIONS,
        evaluate_every: 25,
        acquisition: Acquisition::Alc { reference_size: 50 },
        plan: SamplingPlan::sequential(OBSERVATIONS),
        criteria: CompletionCriteria::none(),
        seed: derive_seed(seed, 4),
    }
}

struct Inputs {
    spec: KernelSpec,
    dataset: Dataset,
    split: TrainTestSplit,
    seed: u64,
}

fn setup(kernel: SpaptKernel, seed: u64) -> Inputs {
    let spec = spapt_kernel(kernel);
    let mut profiler = SimulatedProfiler::new(spec.clone(), derive_seed(seed, 1));
    let dataset = Dataset::generate(
        &mut profiler,
        &DatasetConfig {
            configurations: CONFIGURATIONS,
            observations: OBSERVATIONS,
            seed: derive_seed(seed, 2),
        },
    );
    let split = dataset.split(TRAIN, derive_seed(seed, 3));
    Inputs {
        spec,
        dataset,
        split,
        seed,
    }
}

/// One learner run, with its record written the way a campaign unit's is;
/// with a tracer, through the timing shims and inside one [`RUN`] span.
fn run_once(
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    record_path: &Path,
) -> alic_core::Result<LearnerRun> {
    let _span = tracer.map(|t| t.span(RUN));
    let config = learner_config(inputs.seed);
    let spec = SurrogateSpec::default();
    let profiler = SimulatedProfiler::new(inputs.spec.clone(), derive_seed(inputs.seed, 5));
    let model = spec.build(derive_seed(inputs.seed, 6));
    let run = match tracer {
        None => {
            let (mut profiler, mut model) = (profiler, model);
            ActiveLearner::new(config, &mut profiler).run(
                model.as_mut(),
                &inputs.dataset,
                &inputs.split,
            )?
        }
        Some(tracer) => {
            let mut profiler = TracedProfiler {
                inner: profiler,
                tracer,
            };
            let mut model = TracedModel {
                inner: model,
                tracer,
            };
            ActiveLearner::new(config, &mut profiler).run(
                &mut model,
                &inputs.dataset,
                &inputs.split,
            )?
        }
    };
    let record = UnitRecord {
        index: 0,
        kernel: inputs.spec.name().to_string(),
        model: spec.name().to_string(),
        plan: config.plan,
        repetition: 0,
        run,
    };
    let json = Tracer::maybe_time(tracer, ENCODE, || {
        codec::unit_record_to_json_string(&record)
    })? + "\n";
    if let Some(tracer) = tracer {
        tracer.count(ENCODE_BYTES, json.len() as u64);
    }
    Tracer::maybe_time(tracer, WRITE, || write_atomic(record_path, &json))?;
    Ok(record.run)
}

fn curve_digest(run: &LearnerRun) -> u64 {
    digest(format!("{:?}", run.curve).as_bytes())
}

/// Checks one run's output against the first learning curve of its input.
fn check_run(out: &mut Outcome, run: &alic_core::Result<LearnerRun>, reference: &mut Option<u64>) {
    out.attempted += 1;
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            out.failed += 1;
            out.check(false, format!("learner run failed: {e}"));
            return;
        }
    };
    let points = run.curve.points();
    let seed_rmse = points.first().map_or(f64::NAN, |p| p.rmse);
    let final_rmse = run.curve.final_rmse().unwrap_or(f64::NAN);
    out.check(
        final_rmse < seed_rmse,
        format!("final RMSE {final_rmse} is not below the seed RMSE {seed_rmse}"),
    );
    out.check(
        run.iterations == ITERATIONS,
        format!(
            "run stopped after {} of {ITERATIONS} iterations",
            run.iterations
        ),
    );
    let d = curve_digest(run);
    match reference {
        None => {
            println!(
                "learner: {} measurements, curve digest {d:016x}, RMSE {seed_rmse:.6} -> {final_rmse:.6}, \
                 {} examples, {:.2} observations per example",
                run.ledger.runs(),
                run.distinct_examples(),
                run.mean_observations_per_example()
            );
            *reference = Some(d);
        }
        Some(r) => out.check(d == *r, "learning curve differs between repetitions"),
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut setup_times = Vec::new();
    let mut inputs = Vec::new();
    // The traced run uses the first input only.
    let count = if args.trace { 1 } else { INPUTS };
    for (i, &kernel) in KERNELS.iter().enumerate().take(count) {
        let start = Instant::now();
        let input = setup(kernel, derive_seed(args.seed, 0x100 + i as u64));
        setup_times.push(start.elapsed().as_secs_f64());
        println!(
            "learner: input {i}: kernel {} ({} parameters), {CONFIGURATIONS} configurations, \
             {ITERATIONS} iterations",
            input.spec.name(),
            input.spec.space().dimension()
        );
        inputs.push(input);
    }
    let mut references = [None; INPUTS];
    let record_path = args.work_dir.join("learner-record.json");

    if !args.trace {
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); INPUTS];
        let budget = Instant::now();
        for rep in 0.. {
            let i = rep % INPUTS;
            let start = Instant::now();
            let run = run_once(&inputs[i], None, &record_path);
            let run_s = start.elapsed().as_secs_f64();
            times[i].push(run_s);
            check_run(out, &run, &mut references[i]);
            // Set-up again, so that `setup_s` samples the whole run and not
            // only its first second.
            let start = Instant::now();
            let again = setup(KERNELS[i], inputs[i].seed);
            setup_times.push(start.elapsed().as_secs_f64());
            drop(again);
            let spent = budget.elapsed().as_secs_f64();
            if run.is_err() || (rep + 1 >= INPUTS && spent + run_s > args.seconds) {
                break;
            }
        }
        let _ = std::fs::remove_file(&record_path);
        for (input, t) in inputs.iter().zip(&times) {
            println!("learner: {} run_s {t:?}", input.spec.name());
        }
        // Each input's median over its repetitions, averaged over the
        // inputs, so that every kernel weighs the same whichever inputs the
        // time budget let run once more.
        let per_input: Vec<f64> = times.iter().map(|t| median(t)).collect();
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("run_s", per_input.iter().sum::<f64>() / INPUTS as f64, "s");
        return;
    }

    let input = &inputs[0];
    let mut reference = None;
    // Traced: a warm-up and an untraced run for the overhead base, then the
    // traced run at the default thread count and its one-thread twin.
    let warm_up = run_once(input, None, &record_path);
    check_run(out, &warm_up, &mut reference);
    let start = Instant::now();
    let base = run_once(input, None, &record_path);
    let untraced_s = start.elapsed().as_secs_f64();
    check_run(out, &base, &mut reference);

    let tracer = Tracer::default();
    let start = Instant::now();
    let traced = run_once(input, Some(&tracer), &record_path);
    let traced_s = start.elapsed().as_secs_f64();
    check_run(out, &traced, &mut reference);

    let twin = Tracer::default();
    rayon::set_num_threads(1);
    let single = run_once(input, Some(&twin), &record_path);
    rayon::set_num_threads(0);
    check_run(out, &single, &mut reference);
    let _ = std::fs::remove_file(&record_path);

    layers::report(out, &tracer, &twin, traced_s, untraced_s);
    crate::write_trace(args, &[("default", &tracer), ("t1", &twin)]);
}
