//! Golden fixtures for the durable JSON formats.
//!
//! Sharded campaigns, serve sessions that resume after a kill, and warm
//! starts all rest on one property: every durable record round-trips byte
//! for byte. Each test below pins one format under `tests/golden/formats/`
//! and checks two things against the committed file:
//!
//! * encoding a fixed, deterministic value yields exactly the fixture;
//! * decoding the fixture and encoding the result yields the fixture again.
//!
//! Regenerate intentionally changed formats with
//!
//! ```text
//! ALIC_UPDATE_GOLDEN=1 cargo test --test golden_formats
//! ```

mod common;

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use alic::core::experiment::ComparisonConfig;
use alic::core::learner::LearnerConfig;
use alic::core::plan::SamplingPlan;
use alic::core::runner::{CampaignLedger, CampaignSpec};
use alic::core::warmstore::{WarmKey, WarmStore};
use alic::data::dataset::DatasetConfig;
use alic::data::JsonValue;
use alic::model::snapshot::restore_snapshot;
use alic::model::SurrogateSpec;
use alic::serve::session::WarmStart;
use alic::serve::TuningSession;
use alic::sim::space::{Configuration, ParamKind, ParamSpec, ParameterSpace};
use alic::sim::spapt::{spapt_kernel, SpaptKernel};

use common::{compare_or_update, golden_dir, update_requested};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alic-golden-formats-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(name: &str) -> PathBuf {
    golden_dir().join("formats").join(name)
}

/// Pins `encoded` to the fixture `name`, then checks that `reencode`
/// (decode the committed bytes, encode the result) is a fixed point.
fn check(name: &str, encoded: &str, reencode: impl FnOnce(&str) -> String) {
    let path = fixture(name);
    if let Some(diff) = compare_or_update(&path, encoded) {
        panic!(
            "{name}: format fixture out of date: {diff}\n\n\
             If the format change is intentional, regenerate with:\n\n    \
             ALIC_UPDATE_GOLDEN=1 cargo test --test golden_formats"
        );
    }
    let committed = fs::read_to_string(&path).unwrap();
    assert_eq!(
        reencode(&committed),
        committed,
        "{name}: decode then encode is not the identity"
    );
}

/// A two-parameter space shared by the session and warm-store fixtures.
fn space() -> ParameterSpace {
    ParameterSpace::new(vec![
        ParamSpec::new("u", ParamKind::Unroll, 1, 20),
        ParamSpec::new("t", ParamKind::CacheTile, 0, 6),
        ParamSpec::new("r", ParamKind::RegisterTile, 1, 8),
    ])
    .unwrap()
}

fn spec(name: &str) -> SurrogateSpec {
    SurrogateSpec::from_name(name).unwrap()
}

/// A seed above 2^53, so the fixture proves the full u64 range survives.
const SEED: u64 = 0xdead_beef_0123_4567;

fn observations() -> Vec<(Configuration, f64)> {
    (0..6u32)
        .map(|i| {
            let config = Configuration::new(vec![1 + 3 * i, i % 7, 1 + (5 * i) % 8]);
            (config, 1.0 + 0.1 * f64::from(i) + 1.0 / 3.0)
        })
        .collect()
}

fn cold_session(spec: SurrogateSpec) -> TuningSession {
    let mut session = TuningSession::new("s000007", "mvt", space(), spec, SEED);
    for (config, cost) in observations() {
        session.record(config, cost);
    }
    session.rebuild().unwrap();
    session
}

fn session_round_trip(text: &str) -> String {
    TuningSession::from_checkpoint_str(text)
        .unwrap()
        .to_checkpoint_string()
        .unwrap()
}

#[test]
fn cold_session_checkpoint_is_pinned() {
    let session = cold_session(spec("gp"));
    check(
        "session_cold.json",
        &session.to_checkpoint_string().unwrap(),
        session_round_trip,
    );
}

#[test]
fn warm_session_checkpoint_is_pinned() {
    let (observations, snapshot) = cold_session(spec("knn")).model_snapshot().unwrap();
    let mut session = TuningSession::new_warm(
        "s000008",
        "mvt",
        space(),
        spec("knn"),
        SEED ^ 1,
        WarmStart {
            snapshot,
            observations,
        },
    )
    .unwrap();
    session.record(Configuration::new(vec![4, 2, 3]), 0.75);
    session.apply_last().unwrap();
    check(
        "session_warm.json",
        &session.to_checkpoint_string().unwrap(),
        session_round_trip,
    );
}

/// The families at fixture-friendly sizes: a four-particle dynamic tree,
/// defaults for the rest.
fn fixture_models() -> [SurrogateSpec; 5] {
    let mut models = SurrogateSpec::all();
    models[0] = SurrogateSpec::dynatree(4);
    models
}

#[test]
fn every_model_snapshot_family_is_pinned() {
    let xs: Vec<Vec<f64>> = (0..10)
        .map(|i| vec![f64::from(i) / 9.0, f64::from(i % 3)])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() + 0.1 * x[1]).collect();
    let views: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    for spec in fixture_models() {
        let mut model = spec.build(11);
        model.fit(&views, &ys).unwrap();
        let encoded = model.snapshot().unwrap().to_json_string().unwrap() + "\n";
        check(
            &format!("snapshot_{}.json", spec.name()),
            &encoded,
            |text| {
                restore_snapshot(&JsonValue::parse(text.trim_end()).unwrap())
                    .unwrap()
                    .snapshot()
                    .unwrap()
                    .to_json_string()
                    .unwrap()
                    + "\n"
            },
        );
    }
}

/// The strict-decoder probe: duplicating a key of the committed mean
/// snapshot used to restore whichever copy came first (a count of 99). A
/// repeated key is now a parse error naming the key, so the damaged
/// document never reaches `restore_snapshot`.
#[test]
fn a_duplicated_key_in_a_committed_snapshot_is_refused() {
    let committed = fs::read_to_string(fixture("snapshot_mean.json")).unwrap();
    let damaged = committed.replacen("\"count\":10.0", "\"count\":99.0,\"count\":10.0", 1);
    assert_ne!(damaged, committed, "fixture no longer holds \"count\":10.0");
    let err = JsonValue::parse(damaged.trim_end())
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate key \"count\""), "{err}");
}

#[test]
fn warm_store_file_is_pinned() {
    let (observations, snapshot) = cold_session(spec("mean")).model_snapshot().unwrap();
    let dir = temp_dir("store");
    let path = dir.join("warm.json");
    let mut store = WarmStore::open(&path);
    let key = WarmKey::new("mvt", &space(), "mean", "default");
    assert!(store.probe(&key).is_none());
    assert!(store.insert(&key, observations, snapshot));
    assert!(store.probe(&key).is_some());
    store.save().unwrap();
    let encoded = fs::read_to_string(&path).unwrap();
    check("warmstore.json", &encoded, |text| {
        let copy = temp_dir("store-reload").join("warm.json");
        fs::write(&copy, text).unwrap();
        let reloaded = WarmStore::open(&copy);
        assert_eq!(reloaded.len(), 1, "the fixture must reload, not quarantine");
        reloaded.save().unwrap();
        fs::read_to_string(&copy).unwrap()
    });
}

fn manifest_spec() -> CampaignSpec {
    CampaignSpec::new(
        vec![
            spapt_kernel(SpaptKernel::Mvt),
            spapt_kernel(SpaptKernel::Lu),
        ],
        vec![SurrogateSpec::dynatree(30), SurrogateSpec::Mean],
        ComparisonConfig {
            learner: LearnerConfig {
                initial_examples: 4,
                initial_observations: 6,
                candidates_per_iteration: 18,
                max_iterations: 20,
                evaluate_every: 5,
                ..Default::default()
            },
            plans: vec![
                SamplingPlan::fixed(6),
                SamplingPlan::one_observation(),
                SamplingPlan::sequential(6),
            ],
            repetitions: 3,
            model: SurrogateSpec::Mean,
            dataset: DatasetConfig {
                configurations: 200,
                observations: 6,
                seed: 0,
            },
            train_size: 150,
            grid_resolution: 32,
            seed: SEED >> 11,
        },
    )
}

#[test]
fn campaign_manifest_is_pinned() {
    let spec = manifest_spec();
    let ledger = CampaignLedger::open(temp_dir("manifest"), &spec).unwrap();
    let encoded = fs::read_to_string(ledger.manifest_path()).unwrap();
    check("campaign_manifest.json", &encoded, |text| {
        // Opening a ledger over the committed manifest validates it and
        // leaves it in place.
        let dir = temp_dir("manifest-reopen");
        fs::write(dir.join("manifest.json"), text).unwrap();
        let reopened = CampaignLedger::open(&dir, &spec).unwrap();
        let on_disk = fs::read_to_string(reopened.manifest_path()).unwrap();
        assert_eq!(on_disk, text, "reopening rewrote the manifest");
        JsonValue::parse(text.trim_end())
            .unwrap()
            .to_json_string()
            .unwrap()
            + "\n"
    });
}

#[test]
fn every_format_fixture_is_covered() {
    if update_requested() {
        return;
    }
    let mut names: Vec<String> = fs::read_dir(golden_dir().join("formats"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = fixture_models()
        .iter()
        .map(|m| format!("snapshot_{}.json", m.name()))
        .chain(
            [
                "campaign_manifest.json",
                "session_cold.json",
                "session_warm.json",
                "warmstore.json",
            ]
            .map(String::from),
        )
        .collect();
    expected.sort();
    assert_eq!(names, expected);
}
