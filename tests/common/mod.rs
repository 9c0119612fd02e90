//! Compare-or-update helper shared by the golden-fixture suites.
//!
//! A fixture is a committed file under `tests/golden/`. A normal run
//! compares freshly produced bytes against it; setting
//! `ALIC_UPDATE_GOLDEN=1` rewrites the file instead:
//!
//! ```text
//! ALIC_UPDATE_GOLDEN=1 cargo test --test golden_reports --test golden_formats
//! ```

use std::fs;
use std::path::{Path, PathBuf};

/// The root of the committed fixtures.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Whether `ALIC_UPDATE_GOLDEN` asks for the fixtures to be rewritten.
pub fn update_requested() -> bool {
    std::env::var_os("ALIC_UPDATE_GOLDEN").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Byte position and context of the first difference, for readable failures.
pub fn first_diff(expected: &str, actual: &str) -> String {
    let position = expected
        .bytes()
        .zip(actual.bytes())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.len().min(actual.len()));
    let window = |s: &str| {
        let start = position.saturating_sub(60);
        let end = (position + 60).min(s.len());
        s.get(start..end)
            .unwrap_or("<non-utf8 boundary>")
            .to_string()
    };
    format!(
        "first difference at byte {position} (expected {} bytes, got {}):\n  expected ...{}...\n  actual   ...{}...",
        expected.len(),
        actual.len(),
        window(expected),
        window(actual)
    )
}

/// Compares `actual` with the fixture at `path` (or rewrites the fixture
/// when an update is requested). Returns a description of the mismatch.
pub fn compare_or_update(path: &Path, actual: &str) -> Option<String> {
    if update_requested() {
        fs::create_dir_all(path.parent().expect("fixture paths have a parent")).unwrap();
        fs::write(path, actual).unwrap();
        eprintln!("updated {}", path.display());
        return None;
    }
    match fs::read_to_string(path) {
        Ok(expected) if expected == actual => None,
        Ok(expected) => Some(first_diff(&expected, actual)),
        Err(e) => Some(format!("cannot read fixture {}: {e}", path.display())),
    }
}
