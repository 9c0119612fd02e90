//! Warm-start transposition store for trained surrogates.
//!
//! Tuning the same kernel twice from a cold surrogate wastes every
//! observation the first session already paid for. This module keys trained
//! model snapshots (see `alic_model::snapshot`) by a Zobrist-style 64-bit
//! fingerprint over the *tuning situation* — kernel identity, search-space
//! shape, surrogate family, and noise regime — in a fixed-size,
//! two-slot-per-bucket transposition table, persisted through
//! [`store::replace_verified`] so the store survives daemon restarts.
//!
//! # Fingerprint and discriminant
//!
//! Each [`WarmKey`] component is hashed independently with a SplitMix64
//! chain ([`alic_stats::rng::derive_seed`]) salted by a per-component label,
//! and the four component hashes are XOR-combined — the classic Zobrist
//! construction, so any single differing component flips the fingerprint.
//! The fingerprint only selects the bucket; equality is decided by the
//! structured **discriminant**, a canonical JSON rendering of the four
//! components. Distinct keys therefore *cannot* alias each other through a
//! 64-bit collision: at worst they compete for bucket slots.
//!
//! # Replacement policy
//!
//! The table is `DEFAULT_WARM_BUCKETS` buckets × 2 slots — a hard memory
//! bound. Within a bucket the slots follow the classic two-tier
//! transposition-table policy:
//!
//! - **slot 0 (depth-preferred):** kept unless the incoming entry has at
//!   least as many observations (same key refreshes in place);
//! - **slot 1 (always-replace):** unconditionally overwritten, except by a
//!   strictly shallower copy of the key it already holds.
//!
//! A displaced slot-0 entry demotes into slot 1 rather than vanishing.
//!
//! # Determinism contract
//!
//! The store is *advisory*: probing it never mutates a session's inputs.
//! A warm-started session copies the snapshot into its own checkpoint at
//! creation, so resumed sessions remain a pure function of (checkpoint
//! bytes, event log) whether the store has since changed, been corrupted,
//! or been deleted. A store that fails to parse is quarantined with
//! [`store::set_aside`] (`<name>.corrupt`, or `<name>.corrupt.N` beside
//! earlier evidence) and replaced by an empty one — cold-start behavior is
//! byte-identical to running with no store at all.

use std::path::{Path, PathBuf};

use alic_data::io::{self, JsonValue};
use alic_sim::space::ParameterSpace;
use alic_stats::rng::derive_seed;

use crate::store;
use crate::{CoreError, Result};

/// Number of buckets in the table (power of two). With two slots per
/// bucket the store holds at most `2 * DEFAULT_WARM_BUCKETS` snapshots.
pub const DEFAULT_WARM_BUCKETS: usize = 64;

/// Schema tag of the persisted store document.
pub const WARMSTORE_SCHEMA: &str = "alic-warmstore/v1";

/// Per-component Zobrist salts (ASCII mnemonics of the field names).
const SALT_KERNEL: u64 = 0x4b45_524e;
const SALT_SPACE: u64 = 0x5350_4143;
const SALT_FAMILY: u64 = 0x4641_4d49;
const SALT_NOISE: u64 = 0x4e4f_4953;

/// Identity of a tuning situation: everything that must match for a cached
/// surrogate to be a valid warm start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmKey {
    /// Kernel (benchmark) name being tuned.
    pub kernel: String,
    /// Canonical signature of the search space ([`space_signature`]).
    pub space: String,
    /// Surrogate family name (`"gp"`, `"dynatree"`, …).
    pub family: String,
    /// Noise-regime label; namespaces incompatible featurizations
    /// (e.g. `"default"` for serve sessions vs `"campaign"`).
    pub noise: String,
}

/// Canonical, injective signature of a parameter space: a JSON array of
/// `[name, kind, min, max]` rows. JSON string escaping makes the signature
/// collision-free even for adversarial parameter names.
pub fn space_signature(space: &ParameterSpace) -> String {
    let rows = space
        .params()
        .iter()
        .map(|p| {
            JsonValue::Array(vec![
                JsonValue::String(p.name.clone()),
                JsonValue::String(p.kind.label().to_string()),
                JsonValue::Number(f64::from(p.min)),
                JsonValue::Number(f64::from(p.max)),
            ])
        })
        .collect();
    JsonValue::Array(rows)
        .to_json_string()
        .expect("space signatures contain only finite numbers")
}

/// SplitMix64 chain over a labelled byte string: the label and length seed
/// the chain, then each 8-byte little-endian word (zero-padded tail) is
/// folded in. Deterministic across processes and platforms.
fn component_hash(salt: u64, text: &str) -> u64 {
    let mut h = derive_seed(salt, text.len() as u64);
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = derive_seed(h, u64::from_le_bytes(word));
    }
    h
}

impl WarmKey {
    /// Builds a key for `kernel` tuned over `space` with the given
    /// surrogate family and noise-regime label.
    pub fn new(kernel: &str, space: &ParameterSpace, family: &str, noise: &str) -> WarmKey {
        WarmKey {
            kernel: kernel.to_string(),
            space: space_signature(space),
            family: family.to_string(),
            noise: noise.to_string(),
        }
    }

    /// Zobrist fingerprint: XOR of the four independently salted component
    /// hashes. Stable across process restarts.
    pub fn fingerprint(&self) -> u64 {
        component_hash(SALT_KERNEL, &self.kernel)
            ^ component_hash(SALT_SPACE, &self.space)
            ^ component_hash(SALT_FAMILY, &self.family)
            ^ component_hash(SALT_NOISE, &self.noise)
    }

    /// Structured discriminant: canonical JSON of the four components.
    /// Injective, so equality checks never trust the 64-bit fingerprint.
    pub fn discriminant(&self) -> String {
        JsonValue::Array(vec![
            JsonValue::String(self.kernel.clone()),
            JsonValue::String(self.space.clone()),
            JsonValue::String(self.family.clone()),
            JsonValue::String(self.noise.clone()),
        ])
        .to_json_string()
        .expect("strings always render")
    }
}

/// One cached surrogate.
#[derive(Debug, Clone)]
pub struct WarmEntry {
    /// [`WarmKey::fingerprint`] of the key this entry was stored under.
    pub fingerprint: u64,
    /// [`WarmKey::discriminant`] — the authoritative identity.
    pub discriminant: String,
    /// Observations the snapshotted model was trained on (the "depth" used
    /// by the replacement policy).
    pub observations: usize,
    /// Serialized model (`alic-model-snapshot/v1` document).
    pub model: JsonValue,
}

/// Memory-bounded transposition table of trained surrogates, persisted via
/// the ledger's verified atomic writer.
#[derive(Debug)]
pub struct WarmStore {
    path: PathBuf,
    buckets: Vec<[Option<WarmEntry>; 2]>,
    hits: u64,
    misses: u64,
    stores: u64,
}

impl WarmStore {
    fn blank(path: PathBuf, buckets: usize) -> WarmStore {
        let mut table = Vec::with_capacity(buckets);
        table.resize_with(buckets, || [None, None]);
        WarmStore {
            path,
            buckets: table,
            hits: 0,
            misses: 0,
            stores: 0,
        }
    }

    /// Opens the store at `path`. A missing file yields an empty store; a
    /// present-but-invalid file is quarantined ([`store::set_aside`], best
    /// effort) and likewise yields an empty store, so corruption
    /// degrades to cold starts instead of failing the daemon.
    pub fn open(path: impl Into<PathBuf>) -> WarmStore {
        let path = path.into();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return WarmStore::blank(path, DEFAULT_WARM_BUCKETS);
            }
            Err(_) => {
                let _ = store::set_aside(&path);
                return WarmStore::blank(path, DEFAULT_WARM_BUCKETS);
            }
        };
        match WarmStore::decode(&path, &text) {
            Ok(store) => store,
            Err(_) => {
                let _ = store::set_aside(&path);
                WarmStore::blank(path, DEFAULT_WARM_BUCKETS)
            }
        }
    }

    fn decode(path: &Path, text: &str) -> Result<WarmStore> {
        let doc = JsonValue::parse(text)?;
        let schema = io::field_str(&doc, "schema")?;
        if schema != WARMSTORE_SCHEMA {
            return Err(CoreError::Campaign(format!(
                "warm store schema {schema:?} (expected {WARMSTORE_SCHEMA:?})"
            )));
        }
        let buckets = io::field_usize(&doc, "buckets")?;
        if buckets == 0 || !buckets.is_power_of_two() {
            return Err(CoreError::Campaign(format!(
                "warm store bucket count {buckets} is not a power of two"
            )));
        }
        let entries = io::field_array(&doc, "entries")?;
        if entries.len() != buckets * 2 {
            return Err(CoreError::Campaign(format!(
                "warm store has {} entries for {buckets} buckets",
                entries.len()
            )));
        }
        let mut store = WarmStore::blank(path.to_path_buf(), DEFAULT_WARM_BUCKETS);
        store.hits = io::field_u64(&doc, "hits")?;
        store.misses = io::field_u64(&doc, "misses")?;
        store.stores = io::field_u64(&doc, "stores")?;
        let same_layout = buckets == DEFAULT_WARM_BUCKETS;
        for (index, slot_doc) in entries.iter().enumerate() {
            if slot_doc.is_null() {
                continue;
            }
            let entry = WarmStore::decode_entry(slot_doc)?;
            let home = (entry.fingerprint as usize) & (buckets - 1);
            if home != index / 2 {
                return Err(CoreError::Campaign(format!(
                    "warm store entry {index} does not map to its bucket"
                )));
            }
            if same_layout {
                // Restore the exact slot layout so save → open → save is
                // idempotent (no replacement-policy reshuffle).
                store.buckets[index / 2][index % 2] = Some(entry);
            } else {
                // Bucket count changed between versions: re-insert through
                // the normal policy.
                store.insert_entry(entry);
                store.stores = store.stores.saturating_sub(1);
            }
        }
        Ok(store)
    }

    fn decode_entry(doc: &JsonValue) -> Result<WarmEntry> {
        Ok(WarmEntry {
            fingerprint: io::field_hex_u64(doc, "fingerprint")?,
            discriminant: io::field_str(doc, "discriminant")?.to_string(),
            observations: io::field_usize(doc, "observations")?,
            model: doc.field("model")?.clone(),
        })
    }

    /// Persists the store with one [`store::replace_verified`]. No fsync is
    /// issued, so a power loss can still lose the latest save.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O or serialization failures.
    pub fn save(&self) -> Result<()> {
        let mut entries = Vec::with_capacity(self.buckets.len() * 2);
        for bucket in &self.buckets {
            for slot in bucket {
                entries.push(match slot {
                    None => JsonValue::Null,
                    Some(e) => io::object([
                        ("fingerprint", io::hex_u64(e.fingerprint)),
                        ("discriminant", JsonValue::String(e.discriminant.clone())),
                        ("observations", io::int(e.observations as u64)?),
                        ("model", e.model.clone()),
                    ]),
                });
            }
        }
        let doc = io::object([
            ("schema", JsonValue::String(WARMSTORE_SCHEMA.to_string())),
            ("buckets", io::int(self.buckets.len() as u64)?),
            ("hits", io::int(self.hits)?),
            ("misses", io::int(self.misses)?),
            ("stores", io::int(self.stores)?),
            ("entries", JsonValue::Array(entries)),
        ]);
        Ok(store::replace_verified(
            &self.path,
            doc.to_json_string()?.as_bytes(),
        )?)
    }

    /// Looks up a cached surrogate for `key`, bumping the hit/miss counter.
    pub fn probe(&mut self, key: &WarmKey) -> Option<&WarmEntry> {
        let fingerprint = key.fingerprint();
        let discriminant = key.discriminant();
        let bucket = (fingerprint as usize) & (self.buckets.len() - 1);
        let slot = (0..2).find(|&s| {
            self.buckets[bucket][s]
                .as_ref()
                .is_some_and(|e| e.fingerprint == fingerprint && e.discriminant == discriminant)
        });
        match slot {
            Some(s) => {
                self.hits += 1;
                self.buckets[bucket][s].as_ref()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Offers a trained snapshot for `key`. Returns `true` when the entry
    /// was stored, `false` when the replacement policy kept what it had.
    pub fn insert(&mut self, key: &WarmKey, observations: usize, model: JsonValue) -> bool {
        self.insert_entry(WarmEntry {
            fingerprint: key.fingerprint(),
            discriminant: key.discriminant(),
            observations,
            model,
        })
    }

    fn insert_entry(&mut self, entry: WarmEntry) -> bool {
        let index = (entry.fingerprint as usize) & (self.buckets.len() - 1);
        let bucket = &mut self.buckets[index];
        let same_key = |slot: &Option<WarmEntry>| {
            slot.as_ref()
                .is_some_and(|e| e.discriminant == entry.discriminant)
        };
        let depth = |slot: &Option<WarmEntry>| slot.as_ref().map_or(0, |e| e.observations);
        let stored = if same_key(&bucket[0]) {
            // Same-key refresh of the primary slot: keep the deeper model.
            if entry.observations >= depth(&bucket[0]) {
                bucket[0] = Some(entry);
                true
            } else {
                false
            }
        } else if bucket[0].is_none() {
            bucket[0] = Some(entry);
            true
        } else if entry.observations >= depth(&bucket[0]) {
            // Displace the shallower primary into the always-replace slot.
            bucket[1] = bucket[0].take();
            bucket[0] = Some(entry);
            true
        } else if same_key(&bucket[1]) && depth(&bucket[1]) > entry.observations {
            // Never downgrade an existing copy of the same key.
            false
        } else {
            bucket[1] = Some(entry);
            true
        };
        if stored {
            self.stores += 1;
        }
        stored
    }

    /// Path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of cached snapshots.
    pub fn len(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.iter().filter(|s| s.is_some()).count())
            .sum()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful probes since the store was created or loaded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Failed probes.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accepted inserts.
    pub fn stores(&self) -> u64 {
        self.stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_sim::space::{ParamKind, ParamSpec, ParameterSpace};

    fn space(params: &[(&str, ParamKind, u32, u32)]) -> ParameterSpace {
        ParameterSpace::new(
            params
                .iter()
                .map(|&(name, kind, min, max)| ParamSpec {
                    name: name.to_string(),
                    kind,
                    min,
                    max,
                })
                .collect(),
        )
        .unwrap()
    }

    fn demo_space() -> ParameterSpace {
        space(&[
            ("U_i", ParamKind::Unroll, 1, 8),
            ("T_j", ParamKind::CacheTile, 4, 64),
        ])
    }

    fn model_doc(tag: usize) -> JsonValue {
        JsonValue::Object(vec![("tag".to_string(), JsonValue::Number(tag as f64))])
    }

    fn key(kernel: &str) -> WarmKey {
        WarmKey::new(kernel, &demo_space(), "gp", "default")
    }

    #[test]
    fn fingerprint_is_stable_and_component_sensitive() {
        let base = key("gemm");
        assert_eq!(base.fingerprint(), key("gemm").fingerprint());
        // Each component flip changes the fingerprint.
        assert_ne!(base.fingerprint(), key("conv2d").fingerprint());
        let other_space = space(&[("U_i", ParamKind::Unroll, 1, 16)]);
        assert_ne!(
            base.fingerprint(),
            WarmKey::new("gemm", &other_space, "gp", "default").fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            WarmKey::new("gemm", &demo_space(), "dynatree", "default").fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            WarmKey::new("gemm", &demo_space(), "gp", "campaign").fingerprint()
        );
    }

    #[test]
    fn space_signature_distinguishes_kind_and_bounds() {
        let a = space(&[("p", ParamKind::Unroll, 1, 8)]);
        let b = space(&[("p", ParamKind::CacheTile, 1, 8)]);
        let c = space(&[("p", ParamKind::Unroll, 1, 16)]);
        assert_ne!(space_signature(&a), space_signature(&b));
        assert_ne!(space_signature(&a), space_signature(&c));
        assert_eq!(space_signature(&a), space_signature(&a));
    }

    #[test]
    fn probe_miss_then_insert_then_hit() {
        let dir = std::env::temp_dir().join("alic-warmstore-basic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = WarmStore::open(dir.join("store.json"));
        let k = key("gemm");
        assert!(store.probe(&k).is_none());
        assert!(store.insert(&k, 12, model_doc(1)));
        let entry = store.probe(&k).expect("hit after insert");
        assert_eq!(entry.observations, 12);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.stores(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn depth_preferred_slot_rejects_shallower_same_key() {
        let mut store = WarmStore::blank("unused".into(), 4);
        let k = key("gemm");
        assert!(store.insert(&k, 20, model_doc(1)));
        // A shallower snapshot of the same situation must not clobber it.
        assert!(!store.insert(&k, 5, model_doc(2)));
        assert_eq!(store.probe(&k).unwrap().observations, 20);
        // A deeper one refreshes in place.
        assert!(store.insert(&k, 30, model_doc(3)));
        assert_eq!(store.probe(&k).unwrap().observations, 30);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn displaced_primary_demotes_to_secondary_slot() {
        // One bucket forces every key to collide.
        let mut store = WarmStore::blank("unused".into(), 1);
        let a = key("gemm");
        let b = key("conv2d");
        let c = key("stencil");
        assert!(store.insert(&a, 10, model_doc(1)));
        assert!(store.insert(&b, 15, model_doc(2)));
        // b took slot 0; a demoted to slot 1 — both still probe-able.
        assert!(store.probe(&a).is_some());
        assert!(store.probe(&b).is_some());
        // c shallower than slot 0 → always-replace slot 1, evicting a.
        assert!(store.insert(&c, 3, model_doc(3)));
        assert!(store.probe(&a).is_none());
        assert!(store.probe(&b).is_some());
        assert!(store.probe(&c).is_some());
    }

    #[test]
    fn save_and_open_round_trip_preserves_layout_and_counters() {
        let dir = std::env::temp_dir().join("alic-warmstore-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let mut store = WarmStore::open(&path);
        let a = key("gemm");
        let b = key("conv2d");
        store.insert(&a, 10, model_doc(1));
        store.insert(&b, 25, model_doc(2));
        store.probe(&a);
        store.probe(&key("absent"));
        store.save().unwrap();
        let mut reloaded = WarmStore::open(&path);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.hits(), 1);
        assert_eq!(reloaded.misses(), 1);
        assert_eq!(reloaded.stores(), 2);
        assert_eq!(reloaded.probe(&a).unwrap().observations, 10);
        assert_eq!(reloaded.probe(&b).unwrap().observations, 25);
        // Idempotent: save → open → save produces identical bytes.
        reloaded.hits = store.hits;
        reloaded.misses = store.misses;
        reloaded.save().unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let again = WarmStore::open(&path);
        again.save().unwrap();
        assert_eq!(first, std::fs::read_to_string(&path).unwrap());
    }

    #[test]
    fn corrupt_store_quarantines_and_degrades_to_cold() {
        let dir = std::env::temp_dir().join("alic-warmstore-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        std::fs::write(&path, "{\"schema\": \"alic-warmstore/v1\", \"bro").unwrap();
        let mut store = WarmStore::open(&path);
        assert!(store.is_empty());
        assert!(store.probe(&key("gemm")).is_none());
        assert!(!path.exists(), "corrupt file should be renamed away");
        assert!(dir.join("store.json.corrupt").exists());
        // The empty store can be saved and reopened normally afterwards.
        store.insert(&key("gemm"), 8, model_doc(1));
        store.save().unwrap();
        assert_eq!(WarmStore::open(&path).len(), 1);
    }

    #[test]
    fn a_second_quarantine_keeps_the_first_evidence() {
        let dir = std::env::temp_dir().join("alic-warmstore-corrupt-twice");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.json");
        for damage in ["{first damage", "{second damage"] {
            std::fs::write(&path, damage).unwrap();
            assert!(WarmStore::open(&path).is_empty());
        }
        let kept = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(kept("warm.json.corrupt"), "{first damage");
        assert_eq!(kept("warm.json.corrupt.1"), "{second damage");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_in_wrong_bucket_is_rejected_as_corrupt() {
        let dir = std::env::temp_dir().join("alic-warmstore-wrongbucket");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let mut store = WarmStore::open(&path);
        store.insert(&key("gemm"), 8, model_doc(1));
        store.save().unwrap();
        // Move the lone entry to a wrong slot index by rewriting the file.
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = JsonValue::parse(&text).unwrap();
        let entries = doc.field("entries").unwrap().as_array().unwrap();
        let occupied = entries.iter().position(|e| !e.is_null()).unwrap();
        let mut moved: Vec<JsonValue> = entries.to_vec();
        let target = (occupied + 2) % moved.len();
        moved.swap(occupied, target);
        let mut fields: Vec<(String, JsonValue)> = match doc {
            JsonValue::Object(fields) => fields,
            _ => unreachable!(),
        };
        for field in &mut fields {
            if field.0 == "entries" {
                field.1 = JsonValue::Array(moved.clone());
            }
        }
        std::fs::write(&path, JsonValue::Object(fields).to_json_string().unwrap()).unwrap();
        let store = WarmStore::open(&path);
        assert!(store.is_empty());
        assert!(dir.join("store.json.corrupt").exists());
    }

    #[test]
    fn signed_or_short_fingerprints_are_rejected_as_corrupt() {
        for (label, bad) in [("signed", "+"), ("short", ""), ("upper", "upper")] {
            let dir = std::env::temp_dir().join(format!("alic-warmstore-fp-{label}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("store.json");
            let mut store = WarmStore::open(&path);
            store.insert(&key("gemm"), 8, model_doc(1));
            store.save().unwrap();
            let written = format!("{:016x}", key("gemm").fingerprint());
            let damaged = match bad {
                "upper" => written.to_uppercase(),
                sign => format!("{sign}{}", &written[1..]),
            };
            assert_ne!(damaged, written, "the damage must change the bytes");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replace(&written, &damaged)).unwrap();
            assert!(WarmStore::open(&path).is_empty(), "{label}");
            assert!(dir.join("store.json.corrupt").exists(), "{label}");
        }
    }
}
