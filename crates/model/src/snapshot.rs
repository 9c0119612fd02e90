//! Bit-exact JSON snapshot codecs for trained surrogates.
//!
//! A snapshot is the *full* trained state of a model — training rows,
//! weights, factorizations, arena columns, raw RNG words — rendered as
//! canonical [`JsonValue`] so it can ride the same ledger writers as every
//! other durable artifact in the workspace. The contract is stronger than
//! "round-trips approximately": a model restored by [`restore_snapshot`]
//! must produce **bit-identical** predictions, acquisition scores, and
//! (for the stochastic dynamic tree) RNG draws from the next operation
//! onward. The warm-start store (`alic_core::warmstore`) leans on this to
//! seed new tuning sessions from previously trained surrogates without
//! perturbing any determinism suite.
//!
//! # Why floats are hex strings
//!
//! The canonical JSON writer renders numbers as shortest-round-trip
//! decimals but rejects non-finite values, and a decimal round-trip through
//! a hand-rolled parser is the classic source of last-ULP drift. Snapshot
//! codecs therefore never store an `f64` as a JSON number: every float is
//! its bit pattern in fixed-width hex ([`io::hex_f64`]), bulk arrays are
//! packed columns ([`io::hex_f64s`], [`io::hex_u32s`]) and seeds are
//! [`io::hex_u64`] strings. Counts and small integers (observation counts,
//! dimensions, array lengths) stay plain JSON numbers written by
//! [`io::int`]. All of these rules live in [`alic_data::io`], the
//! workspace's one JSON codec; each family's `snapshot`/`from_snapshot`
//! pair calls it directly. Any decode failure — a missing field, a hex
//! chunk that is not exactly the fixed number of lowercase digits, an
//! inconsistent column — surfaces as [`ModelError::Snapshot`].

use alic_data::io::{self, JsonValue};
use alic_stats::features::FeatureMatrix;

use crate::baseline::ConstantMean;
use crate::cart::RegressionTree;
use crate::dynatree::DynaTree;
use crate::gp::GaussianProcess;
use crate::knn::KnnRegressor;
use crate::traits::ActiveSurrogate;
use crate::{ModelError, Result};

/// A serialized trained model (canonical JSON with hex-bit-encoded floats).
pub type Snapshot = JsonValue;

/// Schema tag every model snapshot carries.
pub const SNAPSHOT_SCHEMA: &str = "alic-model-snapshot/v1";

/// Rebuilds a boxed model from a snapshot produced by
/// [`crate::SurrogateModel::snapshot`], dispatching on the embedded family
/// tag. The restored model continues bit-identically to the one that was
/// serialized.
///
/// # Errors
///
/// Returns [`ModelError::Snapshot`] for an unknown schema or family, or for
/// structurally damaged state.
pub fn restore_snapshot(doc: &JsonValue) -> Result<Box<dyn ActiveSurrogate + Send>> {
    let schema = io::field_str(doc, "schema")?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(err(format!(
            "schema {schema:?} (expected {SNAPSHOT_SCHEMA:?})"
        )));
    }
    match io::field_str(doc, "family")? {
        "dynatree" => Ok(Box::new(DynaTree::from_snapshot(doc)?)),
        "cart" => Ok(Box::new(RegressionTree::from_snapshot(doc)?)),
        "gp" => Ok(Box::new(GaussianProcess::from_snapshot(doc)?)),
        "knn" => Ok(Box::new(KnnRegressor::from_snapshot(doc)?)),
        "mean" => Ok(Box::new(ConstantMean::from_snapshot(doc)?)),
        other => Err(err(format!("unknown model family {other:?}"))),
    }
}

pub(crate) fn err(msg: impl Into<String>) -> ModelError {
    ModelError::Snapshot(msg.into())
}

/// A row matrix stored as a `<name>_dim` count plus a packed `<name>`
/// column of row-major values.
pub(crate) fn get_rows(doc: &JsonValue, name: &str) -> Result<FeatureMatrix> {
    let dim = io::field_usize(doc, &format!("{name}_dim"))?.max(1);
    let flat = io::field_hex_f64s(doc, name)?;
    if flat.len() % dim != 0 {
        return Err(err(format!(
            "field {name}: length is not a multiple of dim"
        )));
    }
    let mut rows = FeatureMatrix::with_capacity(dim, flat.len() / dim);
    for row in flat.chunks_exact(dim) {
        rows.push_row(row);
    }
    Ok(rows)
}

/// The common leading fields of every family's snapshot object.
pub(crate) fn header(family: &str) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("schema", JsonValue::String(SNAPSHOT_SCHEMA.to_string())),
        ("family", JsonValue::String(family.to_string())),
    ]
}

/// Replaces field `name` of a snapshot object (a damaged-input builder for
/// the families' restore tests).
#[cfg(test)]
pub(crate) fn with_field(doc: &JsonValue, name: &str, value: JsonValue) -> JsonValue {
    let JsonValue::Object(fields) = doc else {
        panic!("snapshots are objects")
    };
    let mut fields = fields.clone();
    fields.iter_mut().find(|(k, _)| k == name).unwrap().1 = value;
    JsonValue::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained(name: &str) -> Box<dyn ActiveSurrogate + Send> {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0, 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let mut model = crate::SurrogateSpec::from_name(name).unwrap().build(3);
        model.fit(&crate::row_views(&xs), &ys).unwrap();
        model
    }

    #[test]
    fn hex_f64_columns_round_trip_every_bit_pattern() {
        // The knn snapshot stores its targets as a packed f64 column; any
        // bit pattern written there decodes verbatim, and every finite one
        // restores verbatim (knn refuses non-finite targets on restore).
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            std::f64::consts::PI,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.25,
        ];
        let model = trained("knn");
        let doc = with_field(&model.snapshot().unwrap(), "ys", io::hex_f64s(values));
        let text = doc.to_json_string().unwrap();
        let parsed = JsonValue::parse(&text).unwrap();
        let ys = io::field_hex_f64s(&parsed, "ys").unwrap();
        assert_eq!(ys.len(), values.len());
        for (a, b) in values.iter().zip(&ys) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(restore_snapshot(&parsed).is_err());

        let finite: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        let rows: Vec<f64> = (0..finite.len()).flat_map(|i| [i as f64, 0.5]).collect();
        let doc = with_field(&doc, "xs", io::hex_f64s(rows));
        let doc = with_field(&doc, "ys", io::hex_f64s(finite.iter().copied()));
        let text = doc.to_json_string().unwrap();
        let restored = restore_snapshot(&JsonValue::parse(&text).unwrap()).unwrap();
        let ys = io::field_hex_f64s(&restored.snapshot().unwrap(), "ys").unwrap();
        assert_eq!(ys.len(), finite.len());
        for (a, b) in finite.iter().zip(&ys) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn hex_u32_columns_round_trip() {
        // Every u32 column of a regression-tree snapshot re-encodes to its
        // own bytes after a restore.
        let text = trained("cart")
            .snapshot()
            .unwrap()
            .to_json_string()
            .unwrap();
        let restored = restore_snapshot(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(restored.snapshot().unwrap().to_json_string().unwrap(), text);
        let values = [0u32, 1, u32::MAX, u32::MAX - 1, 0xDEAD_BEEF];
        let column = io::hex_u32s(values);
        assert_eq!(
            io::decode_hex_u32s(column.as_str().unwrap()).unwrap(),
            values
        );
    }

    #[test]
    fn malformed_columns_are_structured_errors() {
        let cart = trained("cart").snapshot().unwrap();
        let kinds = io::field_str(&cart, "node_kind").unwrap().to_string();
        let thresholds = io::field_str(&cart, "node_threshold").unwrap().to_string();
        let mut damaged = vec![
            // A sign is not a hex digit, even where the chunk width fits.
            with_field(
                &cart,
                "node_kind",
                JsonValue::String(format!("+{}", &kinds[1..])),
            ),
            with_field(
                &cart,
                "node_threshold",
                JsonValue::String(format!("+{}", &thresholds[1..])),
            ),
            // Uppercase digits would not re-encode to the same bytes.
            with_field(
                &cart,
                "node_threshold",
                JsonValue::String(thresholds.to_uppercase()),
            ),
            with_field(
                &cart,
                "node_kind",
                JsonValue::String(kinds[1..].to_string()),
            ),
            with_field(&cart, "node_kind", JsonValue::Number(1.0)),
        ];
        let dynatree = trained("dynatree").snapshot().unwrap();
        damaged.push(with_field(
            &dynatree,
            "config_seed",
            JsonValue::String("+000000000000003".into()),
        ));
        damaged.push(with_field(
            &dynatree,
            "config_seed",
            JsonValue::String("3".into()),
        ));
        for doc in damaged {
            match restore_snapshot(&doc) {
                Err(ModelError::Snapshot(_)) => {}
                Err(other) => panic!("expected a snapshot error, got {other}"),
                Ok(_) => panic!("damaged snapshot restored"),
            }
        }
    }

    #[test]
    fn every_family_round_trips_bit_identically() {
        let xs: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![i as f64 / 23.0, (i % 5) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() + 0.1 * x[1]).collect();
        let views = crate::row_views(&xs);
        for name in crate::SurrogateSpec::names() {
            let mut original = crate::SurrogateSpec::from_name(name).unwrap().build(7);
            original.fit(&views, &ys).unwrap();
            let text = original.snapshot().unwrap().to_json_string().unwrap();
            let mut restored = restore_snapshot(&JsonValue::parse(&text).unwrap()).unwrap();
            // Identical predictions now, and still identical after both
            // sides take the same additional observations.
            for step in 0..6 {
                let x = [0.1 + 0.15 * step as f64, (step % 3) as f64];
                assert_eq!(
                    original.predict(&x).unwrap(),
                    restored.predict(&x).unwrap(),
                    "family {name}, step {step}"
                );
                let y = (3.0 * x[0]).sin() + 0.1 * x[1] + 0.01 * step as f64;
                original.update(&x, y).unwrap();
                restored.update(&x, y).unwrap();
            }
        }
    }

    #[test]
    fn restore_rejects_unknown_schema_and_family() {
        let bad_schema = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::String("bogus/v9".into())),
            ("family".to_string(), JsonValue::String("gp".into())),
        ]);
        assert!(restore_snapshot(&bad_schema).is_err());
        // "sgp" names a family that no longer exists: its old snapshots are
        // as undecodable as a made-up one.
        for family in ["martian", "sgp"] {
            let mut fields = header(family);
            fields.push(("count", io::int(0).unwrap()));
            match restore_snapshot(&io::object(fields)) {
                Err(ModelError::Snapshot(msg)) => assert!(msg.contains(family), "{msg}"),
                Err(other) => panic!("{family}: expected a snapshot error, got {other}"),
                Ok(_) => panic!("{family}: restored"),
            }
        }
    }
}
