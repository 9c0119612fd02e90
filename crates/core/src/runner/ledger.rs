//! The on-disk campaign ledger: checkpointed unit records plus a manifest.
//!
//! A ledger is a directory with this layout:
//!
//! ```text
//! <dir>/
//!   manifest.json           # campaign fingerprint + matrix description
//!   report.json             # written by the merge step, canonical JSON
//!   units/
//!     unit-000000.json      # one checkpointed unit record each
//!     unit-000001.json
//!     ...
//! ```
//!
//! Unit records are written to a temporary file and atomically renamed into
//! place, so a killed process can never leave a torn record — on resume, a
//! unit either exists completely or is re-run. Because unit results are
//! deterministic, even two processes racing on the same unit converge on
//! identical bytes. Stray `*.tmp` files from kills are swept on open (and
//! are never counted as completed units).
//!
//! The manifest pins the campaign's [`fingerprint`](CampaignSpec::fingerprint);
//! opening a ledger directory with a differently configured campaign is an
//! error, which prevents silently merging units from incompatible runs.
//!
//! # Self-healing
//!
//! Atomic renames protect against kills, but not against a hostile
//! filesystem (transient write errors, torn data that *looks* committed).
//! Three layers defend against that, all exercised by the chaos suite:
//!
//! * every write retries under the unified retry policy
//!   ([`write_atomic`] via `alic_stats::policy::RetryPolicy::LEDGER` —
//!   capped exponential backoff with deterministic jitter),
//! * the manifest and the merged report are verified by read-back after
//!   every write and rewritten on mismatch ([`write_verified`]); a
//!   truncated manifest or report found on open is quarantined to
//!   `*.corrupt` and regenerated,
//! * unit records are *not* read back on write (they are bulk data);
//!   instead [`CampaignLedger::recover`] scans them on resume, quarantines
//!   any corrupt, truncated, or misindexed record to `*.corrupt`, and
//!   reports the indices so the campaign re-executes exactly those units.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use alic_data::io::{self, JsonValue};
use alic_stats::policy::{PolicySite, RetryPolicy};

use crate::fault::{inject, FaultSite};
use crate::runner::{codec, CampaignReport, CampaignSpec, UnitRecord};
use crate::{CoreError, Result};

/// Schema tag of the ledger manifest.
pub const MANIFEST_SCHEMA: &str = "alic-campaign-manifest/v1";

const MANIFEST_FILE: &str = "manifest.json";
const REPORT_FILE: &str = "report.json";
const UNITS_DIR: &str = "units";

/// Handle on a campaign ledger directory.
#[derive(Debug, Clone)]
pub struct CampaignLedger {
    dir: PathBuf,
}

impl CampaignLedger {
    /// Opens (creating if necessary) the ledger at `dir` for `spec`.
    ///
    /// A fresh directory gets a manifest describing the campaign; an
    /// existing one must carry a matching manifest.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the directory cannot be created, and
    /// [`CoreError::Campaign`] when an existing manifest belongs to a
    /// differently configured campaign.
    pub fn open(dir: impl Into<PathBuf>, spec: &CampaignSpec) -> Result<Self> {
        spec.validate()?;
        let dir = dir.into();
        fs::create_dir_all(dir.join(UNITS_DIR))?;
        let ledger = CampaignLedger { dir };
        ledger.sweep_stale_tmp()?;
        let manifest = manifest_json(spec)?;
        let fresh = manifest.to_json_string()? + "\n";
        let path = ledger.manifest_path();
        match fs::read_to_string(&path) {
            Ok(text) => match JsonValue::parse(&text) {
                Ok(existing) => validate_manifest(&existing, &manifest, &path)?,
                // A truncated or torn manifest carries no trustworthy
                // fingerprint to check against; preserve the evidence as
                // `*.corrupt` and rewrite it from this campaign's spec.
                Err(_) => {
                    quarantine_file(&path)?;
                    write_verified(&path, &fresh)?;
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_verified(&path, &fresh)?;
            }
            Err(e) => return Err(e.into()),
        }
        // A torn report.json would survive until someone read it; the merge
        // step rewrites it anyway, so quarantine it eagerly.
        let report = ledger.report_path();
        if let Ok(text) = fs::read_to_string(&report) {
            if JsonValue::parse(&text).is_err() {
                quarantine_file(&report)?;
            }
        }
        Ok(ledger)
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    /// Path of the merged report file.
    pub fn report_path(&self) -> PathBuf {
        self.dir.join(REPORT_FILE)
    }

    fn unit_path(&self, index: usize) -> PathBuf {
        self.dir
            .join(UNITS_DIR)
            .join(format!("unit-{index:06}.json"))
    }

    /// The indices of all completely checkpointed units (torn `*.tmp` files
    /// and foreign names are ignored).
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the units directory cannot be read.
    pub fn completed(&self) -> Result<BTreeSet<usize>> {
        let mut completed = BTreeSet::new();
        for entry in fs::read_dir(self.dir.join(UNITS_DIR))? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(index) = name
                .strip_prefix("unit-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<usize>().ok())
            else {
                continue;
            };
            completed.insert(index);
        }
        Ok(completed)
    }

    /// Checkpoints one completed unit atomically (write to `*.tmp`, then
    /// rename into place).
    ///
    /// # Errors
    ///
    /// Returns serialization or I/O errors.
    pub fn record(&self, record: &UnitRecord) -> Result<()> {
        let json = codec::unit_record_to_json_string(record)? + "\n";
        write_atomic(&self.unit_path(record.index), &json)
    }

    /// Loads one checkpointed unit record.
    ///
    /// # Errors
    ///
    /// Returns an error when the record is missing, malformed, or indexed
    /// inconsistently with its file name.
    pub fn load_unit(&self, index: usize) -> Result<UnitRecord> {
        let path = self.unit_path(index);
        let text = fs::read_to_string(&path).map_err(|e| {
            CoreError::Campaign(format!("cannot read unit record {}: {e}", path.display()))
        })?;
        let record = codec::unit_record_from_json_str(&text)?;
        if record.index != index {
            return Err(CoreError::Campaign(format!(
                "unit record {} claims index {} (ledger corrupted?)",
                path.display(),
                record.index
            )));
        }
        Ok(record)
    }

    /// Loads the complete unit set of the campaign, erroring when any unit
    /// is missing (an incomplete campaign cannot be merged).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Campaign`] listing the first missing units, or
    /// any record parse error.
    pub fn load_all(&self, spec: &CampaignSpec) -> Result<Vec<UnitRecord>> {
        let expected = spec.unit_count();
        let completed = self.completed()?;
        let missing: Vec<usize> = (0..expected)
            .filter(|i| !completed.contains(i))
            .take(9)
            .collect();
        if !missing.is_empty() {
            let shown: Vec<String> = missing.iter().take(8).map(|i| i.to_string()).collect();
            let ellipsis = if missing.len() > 8 { ", ..." } else { "" };
            return Err(CoreError::Campaign(format!(
                "campaign is incomplete: {} of {expected} units checkpointed \
                 (missing units: {}{ellipsis}) — finish it with --resume before merging",
                completed.iter().filter(|&&i| i < expected).count(),
                shown.join(", ")
            )));
        }
        let indices: Vec<usize> = (0..expected).collect();
        // Loading is pure per-unit work; reuse the unit pool.
        crate::runner::map_units(&indices, |&i| self.load_unit(i))
            .into_iter()
            .collect()
    }

    /// Writes the merged report as canonical JSON (plus a trailing newline)
    /// to `report.json`, atomically, and returns the path.
    ///
    /// # Errors
    ///
    /// Returns serialization or I/O errors.
    pub fn write_report(&self, report: &CampaignReport) -> Result<PathBuf> {
        let path = self.report_path();
        write_verified(&path, &(report.to_json_string()? + "\n"))?;
        Ok(path)
    }

    /// Removes stale `*.tmp-*` files (left by killed processes or failed
    /// renames) from the ledger root and the units directory, returning how
    /// many were swept. Quarantined `*.corrupt` files are kept.
    pub fn sweep_stale_tmp(&self) -> Result<usize> {
        let mut swept = 0;
        for dir in [self.dir.clone(), self.dir.join(UNITS_DIR)] {
            let entries = match fs::read_dir(&dir) {
                Ok(entries) => entries,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.contains(".tmp") {
                    // A racing process may have just renamed its tmp away;
                    // a NotFound here is success, anything else is not.
                    match fs::remove_file(entry.path()) {
                        Ok(()) => swept += 1,
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        }
        Ok(swept)
    }

    /// Scans every checkpointed unit record of `spec`, quarantining corrupt,
    /// truncated, or misindexed records to `*.corrupt` so that
    /// [`completed`](CampaignLedger::completed) no longer counts them and a
    /// resume pass re-executes them. Also sweeps stale `*.tmp` files.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from scanning or renaming; a record that merely
    /// fails to *parse* is quarantined, never an error.
    pub fn recover(&self, spec: &CampaignSpec) -> Result<RecoveryReport> {
        let swept_tmp = self.sweep_stale_tmp()?;
        let mut quarantined = Vec::new();
        for index in self.completed()? {
            if index >= spec.unit_count() {
                continue;
            }
            if self.load_unit(index).is_err() {
                quarantine_file(&self.unit_path(index))?;
                quarantined.push(index);
            }
        }
        Ok(RecoveryReport {
            quarantined,
            swept_tmp,
        })
    }
}

/// What [`CampaignLedger::recover`] found and repaired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Indices of unit records quarantined to `*.corrupt` (they need
    /// re-execution).
    pub quarantined: Vec<usize>,
    /// Number of stale `*.tmp` files swept.
    pub swept_tmp: usize,
}

impl RecoveryReport {
    /// True when nothing had to be repaired.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.swept_tmp == 0
    }
}

/// Moves a damaged file aside as `<name>.corrupt`, preserving the evidence
/// while making room for a regenerated replacement.
pub fn quarantine_file(path: &Path) -> Result<()> {
    let mut target = path.as_os_str().to_owned();
    target.push(".corrupt");
    fs::rename(path, PathBuf::from(target))?;
    Ok(())
}

/// Bounded retry attempts for one atomic write (and for one read-back
/// verification loop in [`write_verified`]). Mirrors
/// [`RetryPolicy::LEDGER`]'s attempt count.
pub const WRITE_ATTEMPTS: usize = RetryPolicy::LEDGER.attempts as usize;

/// Writes `contents` to `path` atomically (write to a unique `*.tmp`, then
/// rename into place), retrying transient failures under
/// [`RetryPolicy::LEDGER`] — capped exponential backoff whose jitter is
/// deterministic under the fault plane. Also the durability primitive behind
/// serve-session checkpoints.
///
/// # Errors
///
/// Returns the last I/O error once all [`WRITE_ATTEMPTS`] attempts fail —
/// always a structured [`CoreError`], never a panic, so exhausted retries
/// cannot abort a healing pass or take down a daemon request loop.
pub fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    RetryPolicy::LEDGER
        .run(PolicySite::LedgerWrite, |_| {
            write_atomic_once(path, contents)
        })
        .map_err(CoreError::Io)
}

fn write_atomic_once(path: &Path, contents: &str) -> std::io::Result<()> {
    // The temp name is unique per process and write, so two processes
    // racing on the same file (e.g. both creating the manifest of a fresh
    // ledger, or overlapping --resume invocations re-running one unit)
    // each rename a *complete* — and, units being deterministic, identical —
    // file into place; neither can observe or clobber the other's
    // half-written temp.
    static WRITE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = WRITE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}-{serial}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    if inject(FaultSite::WriteIo) {
        return Err(std::io::Error::other(
            "chaos: injected transient write failure",
        ));
    }
    if inject(FaultSite::Enospc) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "chaos: injected out-of-space write failure (ENOSPC)",
        ));
    }
    if inject(FaultSite::FdLimit) {
        return Err(std::io::Error::other(
            "chaos: injected file-descriptor exhaustion (EMFILE)",
        ));
    }
    // A torn write is the one fault atomic rename cannot see: the data lands
    // truncated but the rename still commits it. Modelled by writing only a
    // prefix of the payload and reporting success — the caller's read-back
    // verification or the resume-time recovery scan must catch it.
    let payload: &[u8] = if inject(FaultSite::TornWrite) {
        &contents.as_bytes()[..contents.len() / 2]
    } else {
        contents.as_bytes()
    };
    // Stray tmp files are removed on *every* failure path (a write that
    // errors half-way used to leak its tmp); the open-time sweep is the
    // backstop for tmps orphaned by a kill.
    fs::write(&tmp, payload).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    if inject(FaultSite::RenameFail) {
        let _ = fs::remove_file(&tmp);
        return Err(std::io::Error::other("chaos: injected rename failure"));
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    Ok(())
}

/// [`write_atomic`] plus read-back verification: rewrites until the bytes on
/// disk equal `contents`, within [`WRITE_ATTEMPTS`]. Used for the manifest
/// and the merged report, whose correctness later steps depend on; unit
/// records rely on the cheaper resume-time recovery scan instead.
///
/// # Errors
///
/// Returns write errors from [`write_atomic`], or [`CoreError::Campaign`]
/// when the bytes on disk still disagree after [`WRITE_ATTEMPTS`] rewrites.
pub fn write_verified(path: &Path, contents: &str) -> Result<()> {
    for _ in 0..WRITE_ATTEMPTS {
        write_atomic(path, contents)?;
        if fs::read_to_string(path).is_ok_and(|on_disk| on_disk == contents) {
            return Ok(());
        }
    }
    Err(CoreError::Campaign(format!(
        "{} failed read-back verification after {WRITE_ATTEMPTS} rewrites",
        path.display()
    )))
}

fn manifest_json(spec: &CampaignSpec) -> Result<JsonValue> {
    let names =
        |items: Vec<String>| JsonValue::Array(items.into_iter().map(JsonValue::String).collect());
    Ok(io::object([
        ("schema", JsonValue::String(MANIFEST_SCHEMA.to_string())),
        ("fingerprint", io::hex_u64(spec.fingerprint())),
        ("units", io::int(spec.unit_count() as u64)?),
        (
            "kernels",
            names(spec.kernels.iter().map(|k| k.name().to_string()).collect()),
        ),
        (
            "models",
            names(spec.models.iter().map(|m| m.name().to_string()).collect()),
        ),
        (
            "plans",
            names(spec.base.plans.iter().map(|p| p.label()).collect()),
        ),
        ("repetitions", io::int(spec.base.repetitions as u64)?),
        ("seed", io::int(spec.base.seed)?),
    ]))
}

fn validate_manifest(existing: &JsonValue, wanted: &JsonValue, path: &Path) -> Result<()> {
    let schema = io::field_str(existing, "schema")?;
    if schema != MANIFEST_SCHEMA {
        return Err(CoreError::Campaign(format!(
            "{} has schema '{schema}' (expected '{MANIFEST_SCHEMA}')",
            path.display()
        )));
    }
    let existing_print = io::field_str(existing, "fingerprint")?;
    let wanted_print = io::field_str(wanted, "fingerprint")?;
    if existing_print != wanted_print {
        return Err(CoreError::Campaign(format!(
            "campaign ledger {} was written by a differently configured campaign \
             (fingerprint {existing_print}, this campaign is {wanted_print}); \
             use a fresh --dir or rerun with the original configuration",
            path.display()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::tiny_campaign;
    use crate::runner::{assemble_report, execute_units, run_campaign};
    use alic_model::traits::ActiveSurrogate;

    /// Executes `indices` into `ledger`; every unit must complete.
    fn execute_into(spec: &CampaignSpec, ledger: &CampaignLedger, indices: &[usize]) {
        let sink = |record: &UnitRecord, _: &dyn ActiveSurrogate| ledger.record(record);
        let outcome = execute_units(spec, indices, &sink).unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alic-campaign-ledger-{label}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_campaign_merges_identically_to_in_memory() {
        let spec = tiny_campaign();
        let dir = temp_dir("roundtrip");
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();

        let indices: Vec<usize> = (0..spec.unit_count()).collect();
        execute_into(&spec, &ledger, &indices);

        // A stray torn tmp file from a kill must not confuse the ledger.
        fs::write(dir.join("units").join("unit-000001.json.tmp"), "{gar").unwrap();
        fs::write(dir.join("units").join("README"), "not a unit").unwrap();

        assert_eq!(ledger.completed().unwrap().len(), spec.unit_count());
        let merged = assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();
        let baseline = run_campaign(&spec).unwrap();
        assert_eq!(merged, baseline);
        assert_eq!(
            merged.to_json_string().unwrap(),
            baseline.to_json_string().unwrap()
        );

        let report_path = ledger.write_report(&merged).unwrap();
        let on_disk = fs::read_to_string(report_path).unwrap();
        assert_eq!(on_disk, baseline.to_json_string().unwrap() + "\n");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_campaigns_cannot_be_merged() {
        let spec = tiny_campaign();
        let dir = temp_dir("incomplete");
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        execute_into(&spec, &ledger, &[0, 2, 5]);

        assert_eq!(
            ledger
                .completed()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![0, 2, 5]
        );
        let err = ledger.load_all(&spec).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("incomplete"), "{message}");
        assert!(message.contains("--resume"), "{message}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_campaigns_are_rejected_on_open() {
        let spec = tiny_campaign();
        let dir = temp_dir("mismatch");
        CampaignLedger::open(&dir, &spec).unwrap();

        let mut other = tiny_campaign();
        other.base.seed += 1;
        let err = CampaignLedger::open(&dir, &other).unwrap_err();
        assert!(err.to_string().contains("differently configured"), "{err}");
        // The original campaign still opens fine.
        CampaignLedger::open(&dir, &spec).unwrap();

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let spec = tiny_campaign();
        let dir = temp_dir("sweep");
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        let root_tmp = dir.join("manifest.json.tmp-99-0");
        let unit_tmp = dir.join("units").join("unit-000002.json.tmp-99-1");
        fs::write(&root_tmp, "half a manif").unwrap();
        fs::write(&unit_tmp, "{torn").unwrap();

        assert_eq!(ledger.sweep_stale_tmp().unwrap(), 2);
        assert!(!root_tmp.exists() && !unit_tmp.exists());
        // Re-opening sweeps too.
        fs::write(&unit_tmp, "{torn").unwrap();
        CampaignLedger::open(&dir, &spec).unwrap();
        assert!(!unit_tmp.exists());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_empty_manifest_is_quarantined_and_healed_on_resume() {
        let spec = tiny_campaign();
        let dir = temp_dir("manifest-heal");
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        execute_into(&spec, &ledger, &[0, 1]);
        let healthy = fs::read_to_string(ledger.manifest_path()).unwrap();

        for broken in [&healthy[..healthy.len() / 2], ""] {
            fs::write(ledger.manifest_path(), broken).unwrap();
            let reopened = CampaignLedger::open(&dir, &spec).unwrap();
            // The damaged manifest is preserved as evidence and a valid one
            // is regenerated; checkpointed units survive untouched.
            let quarantined = dir.join("manifest.json.corrupt");
            assert_eq!(fs::read_to_string(&quarantined).unwrap(), *broken);
            assert_eq!(
                fs::read_to_string(reopened.manifest_path()).unwrap(),
                healthy
            );
            assert_eq!(reopened.completed().unwrap().len(), 2);
            fs::remove_file(quarantined).unwrap();
        }
        // Healing is reserved for unreadable manifests: a *parseable*
        // manifest from a differently configured campaign must still be
        // rejected, not overwritten.
        let mut other = tiny_campaign();
        other.base.seed += 1;
        assert!(CampaignLedger::open(&dir, &other).is_err());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_empty_report_is_quarantined_on_resume() {
        let spec = tiny_campaign();
        let dir = temp_dir("report-heal");
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        let indices: Vec<usize> = (0..spec.unit_count()).collect();
        execute_into(&spec, &ledger, &indices);
        let report = assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();
        let path = ledger.write_report(&report).unwrap();
        let healthy = fs::read_to_string(&path).unwrap();

        for broken in [&healthy[..healthy.len() / 3], ""] {
            fs::write(&path, broken).unwrap();
            CampaignLedger::open(&dir, &spec).unwrap();
            assert!(!path.exists(), "damaged report should be moved aside");
            let quarantined = dir.join("report.json.corrupt");
            assert_eq!(fs::read_to_string(&quarantined).unwrap(), *broken);
            fs::remove_file(quarantined).unwrap();
            // The merge step regenerates it byte-identically.
            let rewritten = ledger.write_report(&report).unwrap();
            assert_eq!(fs::read_to_string(rewritten).unwrap(), healthy);
        }
        // A healthy report is left alone by open.
        CampaignLedger::open(&dir, &spec).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), healthy);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_quarantines_damaged_unit_records_for_reexecution() {
        let spec = tiny_campaign();
        let dir = temp_dir("recover");
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        let indices: Vec<usize> = (0..spec.unit_count()).collect();
        execute_into(&spec, &ledger, &indices);
        let baseline = assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();

        // Damage three records three different ways: garbage, truncation,
        // and an index/filename mismatch.
        let unit = |i: usize| dir.join("units").join(format!("unit-{i:06}.json"));
        fs::write(unit(0), "{garbage").unwrap();
        let healthy = fs::read_to_string(unit(2)).unwrap();
        fs::write(unit(2), &healthy[..healthy.len() / 2]).unwrap();
        fs::copy(unit(3), unit(5)).unwrap();

        let recovery = ledger.recover(&spec).unwrap();
        assert_eq!(recovery.quarantined, vec![0, 2, 5]);
        assert!(!recovery.is_clean());
        for i in [0, 2, 5] {
            assert!(!unit(i).exists());
            assert!(unit(i).with_extension("json.corrupt").exists());
        }
        // Recovery is idempotent once the damage is quarantined.
        assert!(ledger.recover(&spec).unwrap().is_clean());

        // Re-executing exactly the quarantined units completes the campaign
        // with a byte-identical report.
        execute_into(&spec, &ledger, &recovery.quarantined);
        let healed = assemble_report(&spec, ledger.load_all(&spec).unwrap()).unwrap();
        assert_eq!(
            healed.to_json_string().unwrap(),
            baseline.to_json_string().unwrap()
        );

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_unit_records_are_reported() {
        let spec = tiny_campaign();
        let dir = temp_dir("corrupt");
        let ledger = CampaignLedger::open(&dir, &spec).unwrap();
        fs::write(dir.join("units").join("unit-000000.json"), "{broken").unwrap();
        assert!(ledger.load_unit(0).is_err());
        // A record whose body disagrees with its file name is corruption too.
        execute_into(&spec, &ledger, &[3]);
        fs::copy(
            dir.join("units").join("unit-000003.json"),
            dir.join("units").join("unit-000004.json"),
        )
        .unwrap();
        assert!(ledger.load_unit(4).is_err());

        fs::remove_dir_all(&dir).unwrap();
    }
}
