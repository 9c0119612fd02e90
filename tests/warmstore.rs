//! Warm-store contracts that hold the whole stack together:
//!
//! * the Zobrist fingerprint is a pure function of the key — stable across
//!   rebuilds and process restarts (pinned by a golden constant and by the
//!   persisted store's bucket-placement validation);
//! * distinct parameter spaces can *never* alias a cached surrogate: the
//!   structured (non-hashed) discriminant is injective, even for
//!   adversarial parameter names containing the signature's own
//!   punctuation;
//! * a torn warm-store write is quarantined and the daemon falls back to a
//!   cold start whose replies are **byte-identical** to running with no
//!   store at all;
//! * a warm start pays off: a GP restored from a stored donor snapshot
//!   reaches a cold run's final held-out RMSE in fewer than half the cold
//!   run's observations.
//!
//! These tests never install the fault plane and are safe to run
//! concurrently with each other.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use alic::core::warmstore::{space_signature, WarmKey, WarmStore};
use alic::model::snapshot::restore_snapshot;
use alic::model::{ActiveSurrogate, SurrogateSpec};
use alic::serve::{ConnState, Engine, ServeConfig};
use alic::sim::space::{ParamKind, ParamSpec, ParameterSpace};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alic-warmstore-it-{label}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A parameter as its raw generator parts: (name, kind index, min, max).
type Part = (String, u8, u32, u32);

fn build_space(parts: &[Part]) -> ParameterSpace {
    ParameterSpace::new(
        parts
            .iter()
            .map(|(name, kind, min, max)| {
                let kind = match kind % 3 {
                    0 => ParamKind::Unroll,
                    1 => ParamKind::CacheTile,
                    _ => ParamKind::RegisterTile,
                };
                ParamSpec::new(name.clone(), kind, *min, *max)
            })
            .collect(),
    )
    .unwrap()
}

/// Name alphabet deliberately includes the signature's own punctuation
/// (`:`, `,`) plus quotes and backslashes, so discriminant injectivity
/// cannot lean on "nice" parameter names.
const NAME_CHARS: &[char] = &['a', 'b', 'z', ':', ',', '"', '\\', '_'];

/// Decodes one generator word into a parameter part: kind, bounds, and a
/// 1–6 character name drawn from the adversarial alphabet.
fn decode_part(code: u64) -> Part {
    let kind = (code % 3) as u8;
    let min = ((code >> 2) % 40) as u32;
    let span = ((code >> 8) % 8) as u32;
    let name_len = 1 + (code >> 16) % 6;
    let mut name = String::new();
    let mut bits = code >> 24;
    for _ in 0..name_len {
        name.push(NAME_CHARS[(bits % 8) as usize]);
        bits /= 8;
    }
    (name, kind, min, min + span)
}

fn decode_parts(codes: &[u64]) -> Vec<Part> {
    codes.iter().map(|&c| decode_part(c)).collect()
}

proptest! {
    /// Fingerprint and discriminant are pure functions of the key parts:
    /// two keys built independently from the same parts agree exactly.
    #[test]
    fn fingerprint_is_a_pure_function_of_the_key(
        codes in proptest::collection::vec(0u64..u64::MAX, 1..5),
        kernel_tag in 0u64..1_000_000,
        noise_tag in 0usize..3,
    ) {
        let parts = decode_parts(&codes);
        let kernel = format!("k{kernel_tag}");
        let noise = ["default", "campaign", "lowsnr"][noise_tag];
        let a = WarmKey::new(&kernel, &build_space(&parts), "gp", noise);
        let b = WarmKey::new(&kernel, &build_space(&parts), "gp", noise);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.discriminant(), b.discriminant());
    }

    /// Distinct spaces never collide on the structured discriminant —
    /// the store's authoritative identity check — whatever the names.
    #[test]
    fn distinct_spaces_never_collide_on_the_discriminant(
        codes_a in proptest::collection::vec(0u64..u64::MAX, 1..5),
        codes_b in proptest::collection::vec(0u64..u64::MAX, 1..5),
    ) {
        let parts_a = decode_parts(&codes_a);
        let parts_b = decode_parts(&codes_b);
        if parts_a == parts_b {
            continue;
        }
        let a = WarmKey::new("gemm", &build_space(&parts_a), "gp", "default");
        let b = WarmKey::new("gemm", &build_space(&parts_b), "gp", "default");
        prop_assert_ne!(a.discriminant(), b.discriminant());
        prop_assert_ne!(space_signature(&build_space(&parts_a)),
                        space_signature(&build_space(&parts_b)));
    }

    /// A saved store probed after reload hits exactly the keys it stored —
    /// fingerprints recomputed in a fresh process keep resolving to the
    /// persisted entries (the reload path re-derives bucket placement from
    /// the persisted fingerprint and rejects mismatches as corruption).
    #[test]
    fn persisted_fingerprints_survive_reload(
        codes in proptest::collection::vec(0u64..u64::MAX, 1..5),
        kernel_tag in 0u64..1_000_000,
    ) {
        let dir = temp_dir("reload");
        let path = dir.join("warm.json");
        let parts = decode_parts(&codes);
        let kernel = format!("k{kernel_tag}");
        let key = WarmKey::new(&kernel, &build_space(&parts), "dynatree", "default");
        let mut store = WarmStore::open(&path);
        store.insert(&key, 9, alic::data::io::JsonValue::Null);
        store.save().unwrap();
        let mut reloaded = WarmStore::open(&path);
        prop_assert_eq!(reloaded.len(), 1);
        prop_assert!(reloaded.probe(&key).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Golden fingerprint: the hash chain (SplitMix64 over salted 8-byte words)
/// is part of the on-disk contract — old stores must keep probing correctly
/// in new builds. If this constant moves, bump `WARMSTORE_SCHEMA` instead
/// of silently invalidating persisted stores.
#[test]
fn fingerprint_golden_value_is_stable_across_builds() {
    let space = ParameterSpace::new(vec![
        ParamSpec::new("u1", ParamKind::Unroll, 1, 12),
        ParamSpec::new("t1", ParamKind::CacheTile, 0, 6),
    ])
    .unwrap();
    let key = WarmKey::new("mvt", &space, "gp", "default");
    assert_eq!(format!("{:016x}", key.fingerprint()), GOLDEN_FINGERPRINT);
}

const GOLDEN_FINGERPRINT: &str = "8e4ded26694d10ed";

fn drive(engine: &mut Engine, conn: &mut ConnState, lines: &[&str]) -> Vec<String> {
    lines
        .iter()
        .map(|line| engine.handle_line(conn, line).reply.expect("reply"))
        .collect()
}

const WORKLOAD: &[&str] = &[
    "newsession mvt u:unroll:1:20,t:cache-tile:0:6 gp",
    "observe 3,2 4.0",
    "observe 9,1 3.1",
    "observe 14,5 2.8",
    "observe 6,3 3.4",
    "suggest 3",
    "best",
];

/// A torn (half-written) warm store must quarantine on open and leave the
/// daemon's behavior byte-identical to never having had a store.
#[test]
fn torn_warm_store_quarantines_and_cold_start_is_byte_identical() {
    // Reference: a store-less daemon in its own directory.
    let cold_dir = temp_dir("cold");
    let mut config = ServeConfig::new(&cold_dir);
    config.default_model = SurrogateSpec::from_name("gp").unwrap();
    let mut engine = Engine::open(config).unwrap();
    let mut conn = ConnState::new();
    let reference = drive(&mut engine, &mut conn, WORKLOAD);
    drop(engine);

    // Populate a warm store from a donor daemon, then tear its file.
    let donor_dir = temp_dir("donor");
    let store_path = donor_dir.join("warm.json");
    let mut config = ServeConfig::new(&donor_dir);
    config.default_model = SurrogateSpec::from_name("gp").unwrap();
    config.warm_store = Some(store_path.clone());
    let mut engine = Engine::open(config).unwrap();
    let mut conn = ConnState::new();
    drive(&mut engine, &mut conn, WORKLOAD);
    assert_eq!(
        engine.handle_line(&mut conn, "quit").reply.unwrap(),
        "ok bye"
    );
    drop(engine);
    let full = std::fs::read_to_string(&store_path).unwrap();
    assert!(full.len() > 2, "donor should have persisted a store");
    std::fs::write(&store_path, &full[..full.len() / 2]).unwrap();

    // A fresh daemon (fresh session directory, same torn store) degrades
    // to cold: byte-identical replies, evidence preserved.
    let subject_dir = temp_dir("subject");
    let mut config = ServeConfig::new(&subject_dir);
    config.default_model = SurrogateSpec::from_name("gp").unwrap();
    config.warm_store = Some(store_path.clone());
    let mut engine = Engine::open(config).unwrap();
    let mut conn = ConnState::new();
    let replies = drive(&mut engine, &mut conn, WORKLOAD);
    assert_eq!(replies, reference);
    assert!(!store_path.exists());
    assert!(donor_dir.join("warm.json.corrupt").exists());
    // The degraded store is fully functional again: this run's surrogate
    // is harvested into a fresh file on quit.
    assert_eq!(
        engine.handle_line(&mut conn, "quit").reply.unwrap(),
        "ok bye"
    );
    assert!(store_path.exists());

    for dir in [cold_dir, donor_dir, subject_dir] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The smooth 2-D response surface the warm-start payoff is measured on.
fn surface(a: f64, b: f64) -> f64 {
    (4.0 * a).sin() + 0.5 * b + 0.3 * (3.0 * b).cos()
}

/// Deterministic low-discrepancy observation streams over [`surface`]: the
/// donor tuned the kernel earlier (phase 0); the new session sees phase 1.
fn stream(phase: usize, i: usize) -> (Vec<f64>, f64) {
    let a = (((i + 1) * (13 + 7 * phase)) % 97) as f64 / 96.0;
    let b = (((i + 1) * (29 + 11 * phase)) % 89) as f64 / 88.0;
    (vec![a, b], surface(a, b))
}

/// Fits a fresh GP (seed 17) on the first `n` points of a stream.
fn fitted_gp(phase: usize, n: usize) -> Box<dyn ActiveSurrogate + Send> {
    let mut model = SurrogateSpec::Gp(Default::default()).build(17);
    let points: Vec<(Vec<f64>, f64)> = (0..n).map(|i| stream(phase, i)).collect();
    let views: Vec<&[f64]> = points.iter().map(|(x, _)| x.as_slice()).collect();
    let ys: Vec<f64> = points.iter().map(|(_, y)| *y).collect();
    model.fit(&views, &ys).unwrap();
    model
}

/// Sample efficiency of the probe → restore → update path `alic-serve`
/// takes on a fingerprint hit. The cold reference mirrors the daemon's
/// warmup (fit on 4 points, then one update per observation) up to a
/// 40-observation budget; its final RMSE on a held-out grid is the target.
/// A donor GP trained on 32 earlier observations of the same kernel goes
/// through a real store file, and the restored model must hit the target in
/// fewer than half the cold budget.
#[test]
fn warm_start_reaches_cold_rmse_in_under_half_the_observations() {
    const FIT_MIN: usize = 4;
    const COLD_BUDGET: usize = 40;
    const DONOR: usize = 32;

    // Held-out grid with coprime strides, overlapping neither stream.
    let eval: Vec<(Vec<f64>, f64)> = (0..64)
        .map(|i| {
            let a = ((i * 41) % 64) as f64 / 63.0;
            let b = ((i * 23) % 64) as f64 / 63.0;
            (vec![a, b], surface(a, b))
        })
        .collect();
    let rmse = |model: &dyn ActiveSurrogate| {
        let sq: f64 = eval
            .iter()
            .map(|(x, y)| {
                let p = model.predict(x).unwrap();
                (p.mean - y) * (p.mean - y)
            })
            .sum();
        (sq / eval.len() as f64).sqrt()
    };

    let mut cold = fitted_gp(1, FIT_MIN);
    for i in FIT_MIN..COLD_BUDGET {
        let (x, y) = stream(1, i);
        cold.update(&x, y).unwrap();
    }
    let target = rmse(cold.as_ref());

    let dir = temp_dir("payoff");
    let store_path = dir.join("warm.json");
    let space = ParameterSpace::new(vec![
        ParamSpec::new("a", ParamKind::Unroll, 0, 96),
        ParamSpec::new("b", ParamKind::CacheTile, 0, 88),
    ])
    .unwrap();
    let key = WarmKey::new("payoff-surface", &space, "gp", "default");
    let mut store = WarmStore::open(&store_path);
    assert!(store.insert(&key, DONOR, fitted_gp(0, DONOR).snapshot().unwrap()));
    store.save().unwrap();

    let mut store = WarmStore::open(&store_path);
    let entry = store.probe(&key).expect("donor entry persisted");
    let mut warm = restore_snapshot(&entry.model).unwrap();
    let mut used = 0;
    while rmse(warm.as_ref()) > target && used < COLD_BUDGET {
        let (x, y) = stream(1, used);
        warm.update(&x, y).unwrap();
        used += 1;
    }
    assert!(
        used < COLD_BUDGET / 2,
        "warm GP needed {used} observations to reach the cold RMSE {target:.4} \
         ({COLD_BUDGET} cold)"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
