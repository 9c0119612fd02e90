//! Property test for the campaign runner's headline invariant: a sharded,
//! killed-and-resumed, merged campaign produces **byte-identical** reports
//! to a single-process in-memory run — for random shard counts, kill
//! points and unit execution orders.
//!
//! Each case deals a shuffled unit order round-robin into N shards, kills
//! shard 0 after a random prefix (atomic unit writes mean a real `SIGKILL`
//! is observationally identical to simply not running the remaining units,
//! plus possibly a torn `*.tmp` file — which is also simulated), resumes
//! the ledger to completion, merges from disk, and compares the canonical
//! report JSON against the unsharded baseline string.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::seq::SliceRandom;

use alic::core::experiment::ComparisonConfig;
use alic::core::learner::LearnerConfig;
use alic::core::plan::SamplingPlan;
use alic::core::runner::{self, CampaignLedger, CampaignSpec, UnitRecord};
use alic::data::dataset::DatasetConfig;
use alic::model::traits::ActiveSurrogate;
use alic::model::SurrogateSpec;
use alic::sim::kernel::KernelSpec;
use alic::sim::noise::NoiseProfile;
use alic::sim::space::ParamSpec;
use alic::stats::rng::seeded_rng;

fn toy_kernel(name: &str, surface_seed: u64) -> KernelSpec {
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

/// Two kernels × two model families × the paper's three plans × one
/// repetition = 12 units, each small enough that 64 proptest cases stay
/// fast in debug builds while still crossing every matrix axis.
fn tiny_campaign() -> CampaignSpec {
    CampaignSpec::new(
        vec![toy_kernel("alpha", 3), toy_kernel("beta", 9)],
        vec![SurrogateSpec::dynatree(15), SurrogateSpec::Mean],
        ComparisonConfig {
            learner: LearnerConfig {
                initial_examples: 3,
                initial_observations: 4,
                candidates_per_iteration: 10,
                max_iterations: 8,
                evaluate_every: 4,
                ..Default::default()
            },
            plans: vec![
                SamplingPlan::fixed(4),
                SamplingPlan::one_observation(),
                SamplingPlan::sequential(4),
            ],
            repetitions: 1,
            model: SurrogateSpec::dynatree(15),
            dataset: DatasetConfig {
                configurations: 120,
                observations: 4,
                seed: 0,
            },
            train_size: 90,
            grid_resolution: 24,
            seed: 13,
        },
    )
}

/// The unsharded single-process report, computed once and shared by every
/// proptest case.
fn baseline_json() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        runner::run_campaign(&tiny_campaign())
            .expect("tiny campaign is internally consistent")
            .to_json_string()
            .expect("campaign report is finite")
    })
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #[test]
    fn sharded_killed_resumed_campaign_merges_bit_identically(
        shard_count in 1usize..5,
        kill_fraction in 0.0f64..1.0,
        order_seed in 0u64..1_000_000,
    ) {
        let spec = tiny_campaign();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "alic-campaign-resume-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        let sink = |record: &UnitRecord, _: &dyn ActiveSurrogate| ledger.record(record);

        // Random execution order, dealt round-robin into the shards (so a
        // shard's unit set is arbitrary, not the contiguous CLI layout —
        // the merge must not care).
        let mut indices: Vec<usize> = (0..spec.unit_count()).collect();
        indices.shuffle(&mut seeded_rng(order_seed));
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        for (slot, index) in indices.iter().enumerate() {
            shards[slot % shard_count].push(*index);
        }

        // Shard 0 is killed part-way through: only a prefix of its units
        // ever reaches the ledger.
        let kill = (shards[0].len() as f64 * kill_fraction) as usize;
        shards[0].truncate(kill);
        for shard in &shards {
            prop_assert!(runner::execute_units(&spec, shard, &sink).unwrap().failures.is_empty());
        }
        // A kill can also leave a torn temp file behind; it must be ignored
        // by resume and merge alike.
        std::fs::write(dir.join("units").join("unit-000000.json.tmp"), "{torn").unwrap();

        // Resume to completion.
        let completed = ledger.completed().unwrap();
        let remaining: Vec<usize> = (0..spec.unit_count())
            .filter(|i| !completed.contains(i))
            .collect();
        prop_assert!(runner::execute_units(&spec, &remaining, &sink).unwrap().failures.is_empty());

        // Merge from the on-disk records; byte-compare against the
        // unsharded in-memory baseline.
        let report = runner::assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();
        prop_assert_eq!(report.to_json_string().unwrap().as_str(), baseline_json());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
