//! The `alic-runner` layer: sharded, resumable campaign orchestration.
//!
//! The paper's evaluation is a large matrix — 11 SPAPT kernels × 3 sampling
//! plans × 10 seeded repetitions (§4), multiplied in this workspace by the
//! [`SurrogateSpec`] model families. This module decomposes any such matrix
//! into independent **work units** — one `(kernel, model, plan, repetition)`
//! cell each, with deterministic per-unit derived seeds — and executes them
//! on the rayon shim's persistent thread pool. Each completed unit can be
//! checkpointed as a JSON record in an on-disk [`CampaignLedger`], which
//! makes every experiment built on the runner:
//!
//! * **resumable** — a killed campaign continues from its last completed
//!   unit (unit writes are atomic rename operations, so a kill can never
//!   leave a torn record);
//! * **shardable** — disjoint unit subsets can run in separate processes or
//!   on separate machines and be merged back afterwards;
//! * **bit-reproducible** — unit results depend only on the campaign
//!   specification, never on thread count, execution order, shard layout or
//!   kill/resume points, so a sharded, killed-and-resumed, merged campaign
//!   produces **byte-identical** reports to a single-process run (enforced
//!   by `tests/campaign_resume.rs` and the `campaign-smoke` CI job). One
//!   caveat: unit results flow through `libm`-backed float functions
//!   (`exp`, `ln`, `powf`, …), whose last-ulp behaviour can differ across
//!   libc implementations and architectures — the byte-identity guarantee
//!   therefore holds across *processes and machines of the same platform
//!   and toolchain*; shards merged from heterogeneous platforms may differ
//!   in final float ulps.
//!
//! Curve averaging and the Table 1 statistics are a *pure merge step* over
//! unit records ([`assemble_report`] → [`assemble_outcome`]), so they can
//! run long after — and on a different machine than — the units themselves.
//!
//! [`compare_plans`](crate::experiment::compare_plans), the experiment
//! binaries (`table1`, `fig5`, `fig6`, `ablation`) and the `campaign` CLI
//! all execute through this module.
//!
//! # Entry points
//!
//! * [`execute_unit`] runs one unit and returns its run and trained
//!   surrogate. Only the executor calls it.
//! * [`execute_units`] is the one executor. Every unit runs panic-isolated
//!   with up to [`UNIT_ATTEMPTS`] attempts, and a checkpoint callback sees
//!   each completed record and model. Units that fail every attempt come
//!   back as [`UnitFailure`]s.
//! * [`run_campaign`] runs a whole matrix in memory through the executor and
//!   merges it; a unit that still fails is a [`CoreError::Campaign`].
//! * [`heal_campaign`] drives the executor against a [`CampaignLedger`],
//!   alternating passes with recovery scans of the on-disk records.
//! * [`assemble_report`] is the pure merge step over unit records.
//! * [`map_units`] is the order-preserving parallel map beneath the
//!   executor, for experiment stages with their own unit shape.
//!
//! # Quickstart
//!
//! ```
//! use alic_core::experiment::ComparisonConfig;
//! use alic_core::prelude::*;
//! use alic_core::runner::{self, CampaignSpec};
//! use alic_data::dataset::DatasetConfig;
//! use alic_sim::kernel::KernelSpec;
//! use alic_sim::noise::NoiseProfile;
//! use alic_sim::space::ParamSpec;
//!
//! // A toy kernel and a deliberately tiny comparison matrix.
//! let kernel = KernelSpec::new(
//!     "toy",
//!     vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
//!     1.0,
//!     0.5,
//!     NoiseProfile::quiet(),
//! )
//! .unwrap()
//! .with_surface_seed(5);
//! let base = ComparisonConfig {
//!     learner: LearnerConfig {
//!         initial_examples: 3,
//!         initial_observations: 4,
//!         candidates_per_iteration: 10,
//!         max_iterations: 8,
//!         evaluate_every: 4,
//!         ..Default::default()
//!     },
//!     plans: vec![SamplingPlan::fixed(4), SamplingPlan::sequential(4)],
//!     repetitions: 1,
//!     model: SurrogateSpec::dynatree(15),
//!     dataset: DatasetConfig { configurations: 120, observations: 4, seed: 0 },
//!     train_size: 90,
//!     grid_resolution: 20,
//!     seed: 7,
//! };
//!
//! // Every (kernel × model × plan × repetition) cell is one shardable unit.
//! let campaign = CampaignSpec::single(kernel, base);
//! assert_eq!(campaign.unit_count(), 2); // 1 kernel × 1 model × 2 plans × 1 rep
//!
//! let report = runner::run_campaign(&campaign)?;
//! assert_eq!(report.entries.len(), 1);
//! let json = report.to_json_string()?; // canonical — byte-stable across runs
//! assert!(json.starts_with("{\"schema\":\"alic-campaign-report/v1\""));
//! # Ok::<(), alic_core::CoreError>(())
//! ```

pub mod codec;
pub mod ledger;

use rayon::prelude::*;

use alic_data::dataset::Dataset;
use alic_data::split::TrainTestSplit;
use alic_model::traits::ActiveSurrogate;
use alic_model::SurrogateSpec;
use alic_sim::kernel::KernelSpec;
use alic_sim::profiler::SimulatedProfiler;
use alic_stats::rng::derive_seed;

use crate::experiment::{assemble_outcome, ComparisonConfig, ComparisonOutcome};
use crate::learner::{ActiveLearner, LearnerConfig, LearnerRun};
use crate::plan::SamplingPlan;
use crate::{CoreError, Result};

pub use ledger::CampaignLedger;

/// A campaign: the full experiment matrix `kernels × models × plans ×
/// repetitions` plus the shared learner/dataset configuration.
///
/// The `base` configuration's `model` field is ignored in favour of the
/// explicit `models` axis (use [`CampaignSpec::single`] when there is only
/// one model, as in the classic [`compare_plans`](crate::experiment::compare_plans)
/// protocol).
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The kernels of the matrix, in report order.
    pub kernels: Vec<KernelSpec>,
    /// The surrogate families of the matrix, in report order.
    pub models: Vec<SurrogateSpec>,
    /// Shared configuration: plans, repetitions, learner, dataset protocol
    /// and the base seed every per-unit seed is derived from.
    pub base: ComparisonConfig,
}

impl CampaignSpec {
    /// Creates a campaign over explicit kernel and model axes.
    pub fn new(
        kernels: Vec<KernelSpec>,
        models: Vec<SurrogateSpec>,
        base: ComparisonConfig,
    ) -> Self {
        CampaignSpec {
            kernels,
            models,
            base,
        }
    }

    /// The single-kernel, single-model campaign equivalent to one
    /// [`compare_plans`](crate::experiment::compare_plans) call: the model
    /// axis is `base.model`.
    pub fn single(kernel: KernelSpec, base: ComparisonConfig) -> Self {
        let model = base.model;
        CampaignSpec {
            kernels: vec![kernel],
            models: vec![model],
            base,
        }
    }

    /// Checks that every axis of the matrix is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the campaign has no
    /// kernels, models, plans or repetitions.
    pub fn validate(&self) -> Result<()> {
        let problem = if self.kernels.is_empty() {
            Some("no kernels")
        } else if self.models.is_empty() {
            Some("no models")
        } else if self.base.plans.is_empty() {
            Some("no sampling plans")
        } else if self.base.repetitions == 0 {
            Some("zero repetitions")
        } else {
            None
        };
        match problem {
            Some(p) => Err(CoreError::InvalidConfig(format!("campaign has {p}"))),
            None => Ok(()),
        }
    }

    /// Total number of work units in the matrix.
    pub fn unit_count(&self) -> usize {
        self.kernels.len() * self.models.len() * self.base.plans.len() * self.base.repetitions
    }

    /// Decomposes a linear unit index into its matrix coordinates. Units are
    /// ordered kernel-major, then model, then plan, with the repetition
    /// varying fastest — the layout [`assemble_report`] relies on.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.unit_count()`.
    pub fn unit(&self, index: usize) -> UnitKey {
        assert!(
            index < self.unit_count(),
            "unit index {index} out of range (campaign has {} units)",
            self.unit_count()
        );
        let reps = self.base.repetitions;
        let plans = self.base.plans.len();
        let models = self.models.len();
        let repetition = (index % reps) as u64;
        let rest = index / reps;
        let plan = rest % plans;
        let rest = rest / plans;
        let model = rest % models;
        let kernel = rest / models;
        UnitKey {
            kernel,
            model,
            plan,
            repetition,
        }
    }

    /// The linear index of a unit key (inverse of [`CampaignSpec::unit`]).
    pub fn index_of(&self, key: UnitKey) -> usize {
        ((key.kernel * self.models.len() + key.model) * self.base.plans.len() + key.plan)
            * self.base.repetitions
            + key.repetition as usize
    }

    /// The unit indices of shard `shard` (1-based) of `of`: a contiguous,
    /// balanced slice of the unit range, so a shard usually touches only a
    /// subset of the kernels (and therefore prepares fewer datasets).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `1 <= shard <= of`.
    pub fn shard(&self, shard: usize, of: usize) -> Result<Vec<usize>> {
        if of == 0 || shard == 0 || shard > of {
            return Err(CoreError::InvalidConfig(format!(
                "shard {shard}/{of} is not a valid 1-based shard specification"
            )));
        }
        let n = self.unit_count();
        let start = (shard - 1) * n / of;
        let end = shard * n / of;
        Ok((start..end).collect())
    }

    /// A stable fingerprint of the whole campaign configuration (FNV-1a over
    /// the canonical debug rendering). The on-disk ledger stores it in its
    /// manifest and refuses to mix units from differently configured
    /// campaigns.
    ///
    /// `base.model` is normalized away before hashing: the explicit `models`
    /// axis is what units are built from, so two specs differing only in the
    /// (documented-as-ignored) base model field are the *same* campaign and
    /// must be able to resume each other's ledgers.
    pub fn fingerprint(&self) -> u64 {
        let mut base = self.base.clone();
        base.model = SurrogateSpec::default();
        let rendered = format!("{:?}|{:?}|{:?}", self.kernels, self.models, base);
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in rendered.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

/// Matrix coordinates of one work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitKey {
    /// Index into [`CampaignSpec::kernels`].
    pub kernel: usize,
    /// Index into [`CampaignSpec::models`].
    pub model: usize,
    /// Index into the base configuration's plan list.
    pub plan: usize,
    /// Repetition number (`0..repetitions`).
    pub repetition: u64,
}

/// One completed work unit: its coordinates (with human-readable names for
/// the on-disk record) and the learning run it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// Linear unit index within the campaign.
    pub index: usize,
    /// Kernel name (for ledger inspection and validation).
    pub kernel: String,
    /// Model family name.
    pub model: String,
    /// The sampling plan the unit ran.
    pub plan: SamplingPlan,
    /// Repetition number.
    pub repetition: u64,
    /// The unit's learning run.
    pub run: LearnerRun,
}

/// Per-kernel shared state: the profiled dataset and its train/test split,
/// generated once per kernel exactly as in the paper (§4.5) and shared by
/// every plan, model and repetition. Deterministic in the campaign seed, so
/// every shard regenerates the identical context.
#[derive(Debug)]
pub struct KernelContext {
    /// The profiled dataset.
    pub dataset: Dataset,
    /// Train/test split over the dataset.
    pub split: TrainTestSplit,
}

impl KernelContext {
    /// Generates the dataset and split for one kernel.
    pub fn prepare(spec: &KernelSpec, config: &ComparisonConfig) -> Self {
        let mut profiler = SimulatedProfiler::new(spec.clone(), derive_seed(config.seed, 1));
        let dataset = Dataset::generate(&mut profiler, &config.dataset);
        let train_size = config.train_size.min(dataset.len().saturating_sub(1));
        let split = dataset.split(train_size, derive_seed(config.seed, 2));
        KernelContext { dataset, split }
    }
}

/// Executes one work unit: builds the unit's profiler, learner and surrogate
/// from seeds derived deterministically from the campaign seed and the
/// repetition number, and runs Algorithm 1. Returns the unit's run together
/// with its trained surrogate, which [`execute_units`] hands to its
/// checkpoint callback (the warm-store harvest snapshots it).
///
/// The derivation matches the pre-runner `compare_plans` exactly (repetition
/// seeds shared across plans, models and kernels), so paired comparisons
/// across those axes see identical candidate streams and measurement noise.
///
/// # Errors
///
/// Propagates learner errors (for example inconsistent configurations).
pub fn execute_unit(
    spec: &CampaignSpec,
    ctx: &KernelContext,
    key: UnitKey,
) -> Result<(LearnerRun, Box<dyn ActiveSurrogate + Send>)> {
    let unit = spec.index_of(key);
    // Chaos sites for unit execution: a transient whole-unit evaluator
    // error, and a mid-unit panic. Both are inert without an installed
    // fault plane; both heal by re-execution (units are deterministic).
    crate::fault::evaluator_fault(unit)?;
    crate::fault::maybe_unit_panic(unit);
    let config = &spec.base;
    let seed = derive_seed(config.seed, 1000 + key.repetition);
    let mut profiler = crate::fault::ChaosProfiler::new(SimulatedProfiler::new(
        spec.kernels[key.kernel].clone(),
        derive_seed(seed, 3),
    ));
    // Every plan shares `config.learner.initial_observations` for its seed
    // examples, so all plans start from equally accurate seed data.
    let learner_config = LearnerConfig {
        plan: config.plans[key.plan],
        seed: derive_seed(seed, 4),
        ..config.learner
    };
    let mut model = spec.models[key.model].build(derive_seed(seed, 5));
    let mut learner = ActiveLearner::new(learner_config, &mut profiler);
    let run = learner.run(model.as_mut(), &ctx.dataset, &ctx.split)?;
    Ok((run, model))
}

/// Order-preserving parallel map — the primitive beneath
/// [`execute_units`], exposed so experiment stages with their own
/// unit shape (for example Table 2's per-kernel noise rows) run on the same
/// pool. Nothing steals work: every thread claims its next items from one
/// shared atomic cursor, so a thread that finishes a cheap unit early just
/// claims another. Results are written back by index, so the output is
/// independent of the thread count and scheduling order.
pub fn map_units<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync + Send,
{
    items.par_iter().map(f).collect()
}

fn make_record(spec: &CampaignSpec, index: usize, key: UnitKey, run: LearnerRun) -> UnitRecord {
    UnitRecord {
        index,
        kernel: spec.kernels[key.kernel].name().to_string(),
        model: spec.models[key.model].name().to_string(),
        plan: spec.base.plans[key.plan],
        repetition: key.repetition,
        run,
    }
}

/// One work unit [`execute_units`] could not complete, after bounded
/// re-execution. Recorded in [`CampaignReport::failures`] instead of killing
/// the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitFailure {
    /// Linear unit index within the campaign.
    pub index: usize,
    /// Kernel name of the failed unit.
    pub kernel: String,
    /// Model family name of the failed unit.
    pub model: String,
    /// Human-readable description of the last error (or panic payload).
    pub error: String,
    /// How many execution attempts were made.
    pub attempts: usize,
}

/// What one [`execute_units`] pass produced: the completed records plus the
/// units that kept failing.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// Successfully completed (and checkpointed) unit records.
    pub records: Vec<UnitRecord>,
    /// Units that failed every attempt, in index order.
    pub failures: Vec<UnitFailure>,
}

impl ExecutionOutcome {
    /// The completed records of a pass that must not lose any unit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Campaign`] naming the first failed unit, its last
    /// error and its attempt count.
    pub fn complete(self) -> Result<Vec<UnitRecord>> {
        match self.failures.first() {
            Some(f) => Err(CoreError::Campaign(format!(
                "unit {} ({}, {}) failed after {} attempts: {}",
                f.index, f.kernel, f.model, f.attempts, f.error
            ))),
            None => Ok(self.records),
        }
    }
}

/// Execution attempts per unit within one [`execute_units`] pass (the first
/// run plus bounded re-execution). Transient faults — injected chaos, a flaky
/// evaluator — heal within this budget; deterministic errors fail fast into
/// a [`UnitFailure`].
pub const UNIT_ATTEMPTS: usize = 3;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The one unit executor: runs the given unit indices on the shared thread
/// pool and invokes `checkpoint` with every completed unit's record and
/// trained surrogate. The on-disk ledger records the former
/// ([`heal_campaign`]), the warm-store harvest snapshots the latter, and
/// in-memory callers ([`run_campaign`]) pass a no-op.
///
/// Kernel contexts (dataset + split) are prepared once per distinct kernel
/// appearing in `indices`, in parallel, before any unit runs. Every unit runs
/// inside `catch_unwind`, so a panicking unit (or a transient
/// evaluator/checkpoint error) is re-executed up to [`UNIT_ATTEMPTS`] times
/// and then becomes a [`UnitFailure`] instead of poisoning the whole pass.
///
/// # Errors
///
/// Returns an error only for an invalid campaign or out-of-range indices;
/// unit-level problems are reported in the outcome, never as an `Err`.
pub fn execute_units<F>(
    spec: &CampaignSpec,
    indices: &[usize],
    checkpoint: &F,
) -> Result<ExecutionOutcome>
where
    F: Fn(&UnitRecord, &dyn ActiveSurrogate) -> Result<()> + Sync,
{
    spec.validate()?;
    let count = spec.unit_count();
    if let Some(&bad) = indices.iter().find(|&&i| i >= count) {
        return Err(CoreError::InvalidConfig(format!(
            "unit index {bad} out of range (campaign has {count} units)"
        )));
    }
    let mut kernel_ids: Vec<usize> = indices.iter().map(|&i| spec.unit(i).kernel).collect();
    kernel_ids.sort_unstable();
    kernel_ids.dedup();
    let contexts: Vec<KernelContext> = map_units(&kernel_ids, |&k| {
        KernelContext::prepare(&spec.kernels[k], &spec.base)
    });
    let context_for = |kernel: usize| match kernel_ids.binary_search(&kernel) {
        Ok(slot) => &contexts[slot],
        Err(_) => unreachable!("context prepared for every kernel in the unit set"),
    };
    let results: Vec<std::result::Result<UnitRecord, UnitFailure>> = indices
        .par_iter()
        .map(|&index| {
            let key = spec.unit(index);
            let mut last_error = String::new();
            for _ in 0..UNIT_ATTEMPTS {
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || -> Result<UnitRecord> {
                        let (run, model) = execute_unit(spec, context_for(key.kernel), key)?;
                        let record = make_record(spec, index, key, run);
                        checkpoint(&record, &*model)?;
                        Ok(record)
                    },
                ));
                match attempt {
                    Ok(Ok(record)) => return Ok(record),
                    Ok(Err(e)) => last_error = e.to_string(),
                    Err(payload) => last_error = format!("panic: {}", panic_message(&*payload)),
                }
            }
            Err(UnitFailure {
                index,
                kernel: spec.kernels[key.kernel].name().to_string(),
                model: spec.models[key.model].name().to_string(),
                error: last_error,
                attempts: UNIT_ATTEMPTS,
            })
        })
        .collect();

    let mut outcome = ExecutionOutcome {
        records: Vec::with_capacity(results.len()),
        failures: Vec::new(),
    };
    for result in results {
        match result {
            Ok(record) => outcome.records.push(record),
            Err(failure) => outcome.failures.push(failure),
        }
    }
    outcome.failures.sort_by_key(|f| f.index);
    Ok(outcome)
}

/// Bounded passes of the self-healing campaign loop ([`heal_campaign`]).
pub const HEAL_PASSES: usize = 4;

/// What [`heal_campaign`] did: how many passes ran, how many corrupt
/// records were quarantined along the way, and which units still fail.
#[derive(Debug)]
pub struct HealOutcome {
    /// Execution passes performed (at least 1).
    pub passes: usize,
    /// Total unit records quarantined to `*.corrupt` across all passes.
    pub quarantined: usize,
    /// Stale `*.tmp` files swept across all passes.
    pub swept_tmp: usize,
    /// Units that still fail after every pass (empty = fully healed).
    pub failures: Vec<UnitFailure>,
}

impl HealOutcome {
    /// True when every requested unit is complete and verified on disk.
    pub fn is_healed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The self-healing campaign driver: executes `indices` against `ledger`
/// through [`execute_units`], then alternates recovery scans (quarantining
/// corrupt on-disk records) with re-execution of whatever failed or was
/// quarantined, for up to [`HEAL_PASSES`] passes.
///
/// Against a *bounded* adversary (transient faults, or the chaos plane with
/// per-site budgets) this converges: every pass re-runs only the units that
/// are not yet complete-and-valid on disk, and deterministic units always
/// produce the same bytes, so the healed ledger is indistinguishable from a
/// fault-free run's.
///
/// # Errors
///
/// Returns configuration and unrecoverable ledger I/O errors; unit failures
/// and corruption are healed or reported in the outcome.
pub fn heal_campaign(
    spec: &CampaignSpec,
    ledger: &CampaignLedger,
    indices: &[usize],
) -> Result<HealOutcome> {
    let checkpoint = |record: &UnitRecord, _: &dyn ActiveSurrogate| ledger.record(record);
    let mut outcome = HealOutcome {
        passes: 0,
        quarantined: 0,
        swept_tmp: 0,
        failures: Vec::new(),
    };
    let mut to_run: Vec<usize> = indices.to_vec();
    for _ in 0..HEAL_PASSES {
        outcome.passes += 1;
        let pass = execute_units(spec, &to_run, &checkpoint)?;
        // Verify what actually landed on disk: a torn unit write reports
        // success but leaves a record the recovery scan rejects.
        let recovery = ledger.recover(spec)?;
        outcome.quarantined += recovery.quarantined.len();
        outcome.swept_tmp += recovery.swept_tmp;
        outcome.failures = pass.failures;
        let mut redo: Vec<usize> = outcome.failures.iter().map(|f| f.index).collect();
        redo.extend(recovery.quarantined);
        redo.sort_unstable();
        redo.dedup();
        if redo.is_empty() {
            return Ok(outcome);
        }
        to_run = redo;
    }
    // Whatever is still broken after the last pass is reported as failed,
    // including records the final recovery scan quarantined.
    for &index in &to_run {
        if !outcome.failures.iter().any(|f| f.index == index) {
            let key = spec.unit(index);
            outcome.failures.push(UnitFailure {
                index,
                kernel: spec.kernels[key.kernel].name().to_string(),
                model: spec.models[key.model].name().to_string(),
                error: "unit record remained corrupt after healing passes".to_string(),
                attempts: UNIT_ATTEMPTS,
            });
        }
    }
    outcome.failures.sort_by_key(|f| f.index);
    Ok(outcome)
}

/// One `(model, kernel)` cell of a campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEntry {
    /// Model family name.
    pub model: String,
    /// Kernel name.
    pub kernel: String,
    /// The assembled plan-comparison outcome for this cell.
    pub outcome: ComparisonOutcome,
}

/// The merged result of a campaign: one [`ComparisonOutcome`] per
/// `(kernel, model)` cell, in unit order (kernel-major, model inner).
///
/// Serializes canonically through [`CampaignReport::to_json_string`]; two
/// reports assembled from the same unit results — regardless of sharding,
/// kills, resumes or execution order — produce byte-identical JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Kernel names, in campaign order.
    pub kernels: Vec<String>,
    /// Model family names, in campaign order.
    pub models: Vec<String>,
    /// The compared sampling plans.
    pub plans: Vec<SamplingPlan>,
    /// Repetitions per cell.
    pub repetitions: usize,
    /// The campaign base seed.
    pub seed: u64,
    /// One entry per `(kernel, model)` cell, kernel-major.
    pub entries: Vec<CampaignEntry>,
    /// Work units that could not be completed even after bounded healing
    /// (empty for a fault-free campaign; serialized only when non-empty, so
    /// clean reports are byte-identical to pre-resilience ones).
    pub failures: Vec<UnitFailure>,
}

impl CampaignReport {
    /// The outcomes of one model family, in kernel order.
    pub fn outcomes_for_model(&self, model: &str) -> Vec<&ComparisonOutcome> {
        self.entries
            .iter()
            .filter(|e| e.model == model)
            .map(|e| &e.outcome)
            .collect()
    }

    /// Serializes the report as canonical JSON (see [`codec`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the report contains non-finite numbers.
    pub fn to_json_string(&self) -> Result<String> {
        codec::report_to_json(self)?
            .to_json_string()
            .map_err(CoreError::from)
    }
}

/// The pure merge step: validates that `records` cover the campaign's full
/// unit matrix and folds them — grouped per `(kernel, model)` cell, plans
/// and repetitions in campaign order — into averaged curves and Table 1
/// statistics via [`assemble_outcome`].
///
/// Records may arrive in any order (they are sorted by unit index), so
/// shards can be merged from any interleaving.
///
/// # Errors
///
/// Returns [`CoreError::Campaign`] when units are missing, duplicated, or
/// inconsistent with the campaign specification.
pub fn assemble_report(spec: &CampaignSpec, records: Vec<UnitRecord>) -> Result<CampaignReport> {
    assemble_report_with_failures(spec, records, Vec::new())
}

/// [`assemble_report`] for a campaign that healed everything it could but
/// still has permanently failed units: `records` must cover exactly the units
/// *not* listed in `failures`, and every `(cell, plan)` group must keep at
/// least one surviving repetition — a plan with zero runs has no learning
/// curve and the cell's Table 1 statistics would silently degenerate.
///
/// Surviving cells are assembled from their remaining repetitions via
/// [`assemble_outcome`]; with an empty failure list this is exactly
/// [`assemble_report`].
///
/// # Errors
///
/// Returns [`CoreError::Campaign`] when records and failures together do not
/// cover the unit matrix, records are duplicated or inconsistent with the
/// specification, or a `(cell, plan)` group lost all its repetitions.
pub fn assemble_report_with_failures(
    spec: &CampaignSpec,
    records: Vec<UnitRecord>,
    failures: Vec<UnitFailure>,
) -> Result<CampaignReport> {
    spec.validate()?;
    let expected = spec.unit_count();
    let mut failed = vec![false; expected];
    for failure in &failures {
        if failure.index >= expected {
            return Err(CoreError::Campaign(format!(
                "failed unit index {} out of range (campaign has {expected} units)",
                failure.index
            )));
        }
        failed[failure.index] = true;
    }
    let failed_count = failed.iter().filter(|&&f| f).count();
    let mut records = records;
    records.sort_by_key(|r| r.index);
    if records.len() + failed_count != expected {
        return Err(CoreError::Campaign(format!(
            "campaign is incomplete: {} of {expected} unit records present \
             ({failed_count} failed)",
            records.len()
        )));
    }
    let mut surviving = (0..expected).filter(|&i| !failed[i]);
    for record in &records {
        let i = surviving
            .next()
            .expect("record and failure counts partition the unit matrix");
        if record.index != i {
            return Err(CoreError::Campaign(format!(
                "unit records are inconsistent: expected index {i}, found {}",
                record.index
            )));
        }
        let key = spec.unit(i);
        let kernel = spec.kernels[key.kernel].name();
        let model = spec.models[key.model].name();
        if record.kernel != kernel || record.model != model {
            return Err(CoreError::Campaign(format!(
                "unit {i} belongs to ({}, {}) but the campaign expects ({kernel}, {model}); \
                 the ledger was probably written by a differently configured campaign",
                record.kernel, record.model
            )));
        }
    }

    // Group the surviving runs per (cell, plan). The unit layout is
    // kernel-major with plan then repetition fastest, so walking the full
    // index space in order while skipping failed indices lands every run in
    // its group.
    let mut runs = records.into_iter().map(|r| r.run);
    let mut entries = Vec::with_capacity(spec.kernels.len() * spec.models.len());
    let mut index = 0;
    for kernel in &spec.kernels {
        for model in &spec.models {
            let mut plan_runs: Vec<(SamplingPlan, Vec<LearnerRun>)> =
                Vec::with_capacity(spec.base.plans.len());
            for &plan in &spec.base.plans {
                let mut group = Vec::with_capacity(spec.base.repetitions);
                for _ in 0..spec.base.repetitions {
                    if !failed[index] {
                        group.push(runs.next().expect("one surviving run per non-failed unit"));
                    }
                    index += 1;
                }
                if group.is_empty() {
                    return Err(CoreError::Campaign(format!(
                        "cell ({}, {}) lost every repetition of plan {plan} to failed \
                         units; the campaign cannot be assembled",
                        kernel.name(),
                        model.name()
                    )));
                }
                plan_runs.push((plan, group));
            }
            entries.push(CampaignEntry {
                model: model.name().to_string(),
                kernel: kernel.name().to_string(),
                outcome: assemble_outcome(kernel.name(), &spec.base, plan_runs),
            });
        }
    }

    let mut failures = failures;
    failures.sort_by_key(|f| f.index);
    Ok(CampaignReport {
        kernels: spec.kernels.iter().map(|k| k.name().to_string()).collect(),
        models: spec.models.iter().map(|m| m.name().to_string()).collect(),
        plans: spec.base.plans.clone(),
        repetitions: spec.base.repetitions,
        seed: spec.base.seed,
        entries,
        failures,
    })
}

/// Runs a whole campaign in memory — every unit through [`execute_units`],
/// no ledger — and merges the results. This is the path the classic
/// experiment entry points ([`compare_plans`](crate::experiment::compare_plans),
/// `table1::run_for_kernels_with`) go through. Panics and transient faults
/// heal by re-execution exactly as in a ledger-backed campaign.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an invalid campaign, and
/// [`CoreError::Campaign`] naming the first unit that failed all
/// [`UNIT_ATTEMPTS`] attempts, with its last error.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignReport> {
    let indices: Vec<usize> = (0..spec.unit_count()).collect();
    let records = execute_units(spec, &indices, &|_, _| Ok(()))?.complete()?;
    assemble_report(spec, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_data::dataset::DatasetConfig;
    use alic_sim::noise::NoiseProfile;
    use alic_sim::space::ParamSpec;

    pub(crate) fn toy_kernel(name: &str, surface_seed: u64) -> KernelSpec {
        KernelSpec::new(
            name,
            vec![ParamSpec::unroll("u1"), ParamSpec::unroll("u2")],
            1.0,
            0.5,
            NoiseProfile::moderate(),
        )
        .unwrap()
        .with_surface_seed(surface_seed)
    }

    pub(crate) fn tiny_base() -> ComparisonConfig {
        ComparisonConfig {
            learner: LearnerConfig {
                initial_examples: 3,
                initial_observations: 4,
                candidates_per_iteration: 12,
                max_iterations: 10,
                evaluate_every: 5,
                ..Default::default()
            },
            plans: vec![
                SamplingPlan::fixed(4),
                SamplingPlan::one_observation(),
                SamplingPlan::sequential(4),
            ],
            repetitions: 2,
            model: SurrogateSpec::dynatree(20),
            dataset: DatasetConfig {
                configurations: 150,
                observations: 4,
                seed: 0,
            },
            train_size: 110,
            grid_resolution: 30,
            seed: 5,
        }
    }

    /// Runs `indices` with a no-op checkpoint; every unit must complete.
    fn run_units(spec: &CampaignSpec, indices: &[usize]) -> Vec<UnitRecord> {
        let outcome = execute_units(spec, indices, &|_, _| Ok(())).unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome.records
    }

    pub(crate) fn tiny_campaign() -> CampaignSpec {
        CampaignSpec::new(
            vec![toy_kernel("alpha", 3), toy_kernel("beta", 9)],
            vec![SurrogateSpec::dynatree(20), SurrogateSpec::Mean],
            tiny_base(),
        )
    }

    #[test]
    fn unit_indexing_round_trips() {
        let spec = tiny_campaign();
        assert_eq!(spec.unit_count(), 2 * 2 * 3 * 2);
        for index in 0..spec.unit_count() {
            let key = spec.unit(index);
            assert_eq!(spec.index_of(key), index);
            assert!(key.kernel < 2 && key.model < 2 && key.plan < 3 && key.repetition < 2);
        }
        // Kernel-major, repetition fastest.
        assert_eq!(
            spec.unit(0),
            UnitKey {
                kernel: 0,
                model: 0,
                plan: 0,
                repetition: 0
            }
        );
        assert_eq!(spec.unit(1).repetition, 1);
        assert_eq!(spec.unit(spec.unit_count() - 1).kernel, 1);
    }

    #[test]
    fn shards_partition_the_unit_range() {
        let spec = tiny_campaign();
        let n = spec.unit_count();
        for of in 1..=5 {
            let mut all = Vec::new();
            for shard in 1..=of {
                all.extend(spec.shard(shard, of).unwrap());
            }
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "shards 1..={of}");
        }
        assert!(spec.shard(0, 3).is_err());
        assert!(spec.shard(4, 3).is_err());
        assert!(spec.shard(1, 0).is_err());
    }

    #[test]
    fn fingerprint_tracks_the_configuration() {
        let spec = tiny_campaign();
        assert_eq!(spec.fingerprint(), tiny_campaign().fingerprint());
        let mut other = tiny_campaign();
        other.base.seed += 1;
        assert_ne!(spec.fingerprint(), other.fingerprint());
        let mut fewer = tiny_campaign();
        fewer.models.pop();
        assert_ne!(spec.fingerprint(), fewer.fingerprint());
        // The base model field is documented as ignored (the models axis is
        // what units are built from), so it must not affect the fingerprint
        // — otherwise a reconstructed campaign could not resume its ledger.
        let mut ignored_model = tiny_campaign();
        ignored_model.base.model = SurrogateSpec::Mean;
        assert_eq!(spec.fingerprint(), ignored_model.fingerprint());
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut spec = tiny_campaign();
        spec.kernels.clear();
        assert!(matches!(
            run_campaign(&spec),
            Err(CoreError::InvalidConfig(_))
        ));
        let mut spec = tiny_campaign();
        spec.base.repetitions = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn out_of_range_unit_indices_are_rejected() {
        let spec = tiny_campaign();
        let bad = vec![spec.unit_count()];
        assert!(matches!(
            execute_units(&spec, &bad, &|_, _| Ok(())),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn campaign_report_matches_per_cell_compare_plans() {
        // The campaign path and the classic single-cell path must agree
        // exactly: compare_plans is itself a single-cell campaign.
        let spec = tiny_campaign();
        let report = run_campaign(&spec).unwrap();
        assert_eq!(report.entries.len(), 4);
        for (k, kernel) in spec.kernels.iter().enumerate() {
            for (m, model) in spec.models.iter().enumerate() {
                let mut config = spec.base.clone();
                config.model = *model;
                let direct = crate::experiment::compare_plans(kernel, &config).unwrap();
                let entry = &report.entries[k * spec.models.len() + m];
                assert_eq!(entry.kernel, kernel.name());
                assert_eq!(entry.model, model.name());
                assert_eq!(entry.outcome, direct, "cell ({k}, {m})");
            }
        }
    }

    #[test]
    fn execution_order_and_sharding_do_not_change_the_report() {
        let spec = tiny_campaign();
        let baseline = run_campaign(&spec).unwrap();

        // Execute the units in reverse order, in two calls, and merge.
        let mut indices: Vec<usize> = (0..spec.unit_count()).rev().collect();
        let (first, second) = indices.split_at_mut(5);
        let mut records = run_units(&spec, first);
        records.extend(run_units(&spec, second));
        let merged = assemble_report(&spec, records).unwrap();

        assert_eq!(merged, baseline);
        assert_eq!(
            merged.to_json_string().unwrap(),
            baseline.to_json_string().unwrap()
        );
    }

    #[test]
    fn assemble_report_rejects_missing_and_foreign_units() {
        let spec = tiny_campaign();
        let indices: Vec<usize> = (0..spec.unit_count()).collect();
        let records = run_units(&spec, &indices);

        let mut missing = records.clone();
        missing.pop();
        assert!(matches!(
            assemble_report(&spec, missing),
            Err(CoreError::Campaign(_))
        ));

        let mut foreign = records;
        foreign[0].kernel = "someone-else".to_string();
        assert!(matches!(
            assemble_report(&spec, foreign),
            Err(CoreError::Campaign(_))
        ));
    }

    #[test]
    fn resilient_executor_isolates_panics_and_retries_transient_errors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = tiny_campaign();
        let indices: Vec<usize> = (0..8).collect();
        let transient_denials = AtomicUsize::new(2);
        let checkpoint = |record: &UnitRecord, _: &dyn ActiveSurrogate| match record.index {
            3 => panic!("chaos monkey in the checkpoint"),
            5 => Err(CoreError::Evaluator("persistently flaky".to_string())),
            7 => {
                // Fails twice, then succeeds: must heal within UNIT_ATTEMPTS.
                if transient_denials
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    Err(CoreError::Evaluator("transient".to_string()))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        };
        let outcome = execute_units(&spec, &indices, &checkpoint).unwrap();
        let failed: Vec<usize> = outcome.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![3, 5]);
        for failure in &outcome.failures {
            assert_eq!(failure.attempts, UNIT_ATTEMPTS);
            assert_eq!(failure.kernel, "alpha");
        }
        assert!(outcome.failures[0].error.contains("panic"));
        assert!(outcome.failures[1].error.contains("persistently flaky"));
        let completed: Vec<usize> = outcome.records.iter().map(|r| r.index).collect();
        assert_eq!(completed, vec![0, 1, 2, 4, 6, 7]);
    }

    #[test]
    fn assemble_report_with_failures_uses_surviving_repetitions() {
        let spec = tiny_campaign();
        let indices: Vec<usize> = (0..spec.unit_count()).collect();
        let records = run_units(&spec, &indices);
        let baseline = assemble_report(&spec, records.clone()).unwrap();

        // Fail one repetition of cell (alpha, dynatree), plan 0; the group's
        // surviving repetition must carry the cell.
        let failure = UnitFailure {
            index: 1,
            kernel: "alpha".to_string(),
            model: spec.models[0].name().to_string(),
            error: "boom".to_string(),
            attempts: UNIT_ATTEMPTS,
        };
        let survivors: Vec<UnitRecord> = records.iter().filter(|r| r.index != 1).cloned().collect();
        let report =
            assemble_report_with_failures(&spec, survivors, vec![failure.clone()]).unwrap();
        assert_eq!(report.failures, vec![failure.clone()]);
        assert_eq!(report.entries.len(), 4);
        assert_eq!(report.entries[0].outcome.plans[0].runs.len(), 1);
        assert_eq!(report.entries[0].outcome.plans[1].runs.len(), 2);
        // Unaffected cells are bit-identical to the fault-free merge.
        assert_eq!(report.entries[1..], baseline.entries[1..]);

        // The failures field is written, and clean reports omit it (their
        // bytes must match pre-resilience reports exactly).
        let json = report.to_json_string().unwrap();
        assert!(json.contains("\"failures\""));
        assert!(!baseline.to_json_string().unwrap().contains("\"failures\""));

        // Losing every repetition of a (cell, plan) group is unrecoverable.
        let both = vec![
            UnitFailure {
                index: 0,
                ..failure.clone()
            },
            failure,
        ];
        let neither: Vec<UnitRecord> = records.into_iter().filter(|r| r.index > 1).collect();
        assert!(matches!(
            assemble_report_with_failures(&spec, neither, both),
            Err(CoreError::Campaign(_))
        ));
    }

    #[test]
    fn heal_campaign_reexecutes_quarantined_records_to_a_clean_ledger() {
        let dir = std::env::temp_dir().join(format!("alic-campaign-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_campaign();
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        let indices: Vec<usize> = (0..spec.unit_count()).collect();

        let outcome = heal_campaign(&spec, &ledger, &indices).unwrap();
        assert!(outcome.is_healed());
        assert_eq!(outcome.passes, 1);
        let baseline = assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();

        // Damage two checkpointed records; a heal pass with an *empty* work
        // list must still find them, quarantine them and re-execute.
        for i in [2usize, 9] {
            let path = ledger.dir().join("units").join(format!("unit-{i:06}.json"));
            std::fs::write(&path, "{ torn mid-write").unwrap();
        }
        let outcome = heal_campaign(&spec, &ledger, &[]).unwrap();
        assert!(outcome.is_healed());
        assert_eq!(outcome.passes, 2);
        assert_eq!(outcome.quarantined, 2);
        for i in [2usize, 9] {
            let corrupt = ledger
                .dir()
                .join("units")
                .join(format!("unit-{i:06}.json.corrupt"));
            assert!(corrupt.exists(), "quarantined evidence must be preserved");
        }

        // The healed ledger merges to the byte-identical fault-free report.
        let healed = assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();
        assert_eq!(
            healed.to_json_string().unwrap(),
            baseline.to_json_string().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn map_units_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = map_units(&items, |&i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }
}
