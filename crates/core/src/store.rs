//! The one storage layer: every durable byte alic writes goes through here —
//! campaign unit records, manifest and report, the warm store, serve
//! checkpoints, journals and the health probe.
//!
//! [`replace`] writes a whole file as a unique `<path>.tmp-<pid>-<serial>`
//! renamed over `path`, so a kill leaves the old file or the new one plus at
//! most a stray tmp for [`sweep`]. [`append`] writes at a verified offset
//! and reads the bytes back, truncating back to that offset on a failure, so
//! a torn append is never reported and nothing lands after garbage. Both
//! retry under [`RetryPolicy::LEDGER`], and they are the only operations
//! the fault plane reaches, at `io`, `enospc`, `fdlimit`, `torn` (and
//! `rename` for [`replace`]), in that order. [`set_aside`] quarantines a
//! damaged file to the first free `<path>.corrupt`, `<path>.corrupt.1`, …
//! so earlier evidence is never overwritten.
//!
//! Nothing is fsynced: a completed operation survives a killed process, not
//! a power loss. While a [`Recording`] is held, every completed operation
//! is logged as an [`Op`], so a test can rebuild what a crash after any
//! prefix of them leaves; without one, the cost is one relaxed atomic load.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use alic_stats::fault::{inject, FaultSite};
use alic_stats::policy::{PolicySite, RetryPolicy};

/// Attempts per write, and rewrites per [`replace_verified`].
pub const WRITE_ATTEMPTS: usize = RetryPolicy::LEDGER.attempts as usize;

/// Writes `bytes` to `path` through a tmp file and a rename; on failure, the
/// last I/O error once [`WRITE_ATTEMPTS`] attempts are spent.
pub fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    RetryPolicy::LEDGER.run(PolicySite::LedgerWrite, |_| replace_once(path, bytes))
}

fn replace_once(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Unique per process and write: two processes racing on one file each
    // rename a complete file into place.
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    let tmp = suffixed(path, &format!(".tmp-{}-{serial}", std::process::id()));
    faults()?;
    let payload = torn(bytes);
    fs::write(&tmp, payload)
        .and_then(|()| {
            if inject(FaultSite::RenameFail) {
                return Err(io::Error::other("chaos: injected rename failure"));
            }
            fs::rename(&tmp, path)
        })
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })?;
    note(|| Op::Replace(path.to_path_buf(), tmp, payload.to_vec()));
    Ok(())
}

/// [`replace`] until `path` reads back as `bytes`, within
/// [`WRITE_ATTEMPTS`] rewrites, else [`io::ErrorKind::InvalidData`].
pub fn replace_verified(path: &Path, bytes: &[u8]) -> io::Result<()> {
    for _ in 0..WRITE_ATTEMPTS {
        replace(path, bytes)?;
        if fs::read(path).is_ok_and(|on_disk| on_disk == bytes) {
            return Ok(());
        }
    }
    let why = "failed read-back verification after";
    let msg = format!("{} {why} {WRITE_ATTEMPTS} rewrites", path.display());
    Err(io::Error::new(io::ErrorKind::InvalidData, msg))
}

/// Writes `bytes` at offset `at` of `path` (created if missing), whose
/// verified length is `at`, and returns the new length. The read-back takes
/// one byte more, so the remains of an earlier failed append fail it too.
/// On failure, the last I/O error once [`WRITE_ATTEMPTS`] attempts are
/// spent, each truncated back to `at` where the file allows it.
pub fn append(path: &Path, at: u64, bytes: &[u8]) -> io::Result<u64> {
    RetryPolicy::LEDGER.run(PolicySite::LedgerWrite, |_| append_once(path, at, bytes))?;
    Ok(at + bytes.len() as u64)
}

fn append_once(path: &Path, at: u64, bytes: &[u8]) -> io::Result<()> {
    faults()?;
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    write_at(&mut file, at, bytes).inspect_err(|_| {
        let _ = file.set_len(at);
    })?;
    note(|| Op::Append(path.to_path_buf(), at, bytes.to_vec()));
    Ok(())
}

fn write_at(file: &mut File, at: u64, bytes: &[u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(at))?;
    file.write_all(torn(bytes))?;
    file.seek(SeekFrom::Start(at))?;
    let mut on_disk = Vec::with_capacity(bytes.len() + 1);
    file.take(bytes.len() as u64 + 1)
        .read_to_end(&mut on_disk)?;
    if on_disk != bytes {
        let why = "append failed read-back verification";
        return Err(io::Error::new(io::ErrorKind::InvalidData, why));
    }
    Ok(())
}

/// The one fault preamble of [`replace`] and [`append`].
fn faults() -> io::Result<()> {
    use io::ErrorKind::{Other, StorageFull};
    for (site, kind, what) in [
        (FaultSite::WriteIo, Other, "transient write failure"),
        (FaultSite::Enospc, StorageFull, "out of space (ENOSPC)"),
        (FaultSite::FdLimit, Other, "fd exhaustion (EMFILE)"),
    ] {
        if inject(site) {
            return Err(io::Error::new(kind, format!("chaos: injected {what}")));
        }
    }
    Ok(())
}

/// A torn write lands only a prefix of the payload and reports success.
fn torn(bytes: &[u8]) -> &[u8] {
    if inject(FaultSite::TornWrite) {
        return &bytes[..bytes.len() / 2];
    }
    bytes
}

/// Cuts `path` to `len` bytes.
pub fn truncate(path: &Path, len: u64) -> io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(len)?;
    note(|| Op::Truncate(path.to_path_buf(), len));
    Ok(())
}

/// Removes `path`: `Ok(false)` when it was already gone.
pub fn remove(path: &Path) -> io::Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => note(|| Op::Remove(path.to_path_buf())),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    }
    Ok(true)
}

/// Moves a damaged file aside to the first free name among
/// `<path>.corrupt`, `<path>.corrupt.1`, … and returns that name.
pub fn set_aside(path: &Path) -> io::Result<PathBuf> {
    let mut to = suffixed(path, ".corrupt");
    for n in 1.. {
        if !to.try_exists()? {
            break;
        }
        to = suffixed(path, &format!(".corrupt.{n}"));
    }
    fs::rename(path, &to)?;
    note(|| Op::SetAside(path.to_path_buf(), to.clone()));
    Ok(to)
}

/// Removes the stray `*.tmp-*` files killed [`replace`]s left in `dir` (a
/// missing `dir` has none) and returns how many it removed.
pub fn sweep(dir: &Path) -> io::Result<usize> {
    let names = match list(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        names => names?,
    };
    let mut swept = 0;
    for name in names.iter().filter(|name| name.contains(".tmp-")) {
        // A racing process may have renamed its tmp away meanwhile.
        swept += usize::from(remove(&dir.join(name))?);
    }
    Ok(swept)
}

/// The UTF-8 file names in `dir`, sorted.
pub fn list(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir)? {
        names.extend(entry?.file_name().into_string());
    }
    names.sort_unstable();
    Ok(names)
}

/// Creates `dir` and any missing parents.
pub fn create_dir(dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    note(|| Op::CreateDir(dir.to_path_buf()));
    Ok(())
}

fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// One completed operation, as a [`Recording`] logs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// [`create_dir`] of the directory.
    CreateDir(PathBuf),
    /// A [`replace`] attempt that renamed: the file, the tmp renamed over
    /// it, and its new bytes.
    Replace(PathBuf, PathBuf, Vec<u8>),
    /// A verified [`append`] attempt: the file, the offset, the bytes.
    Append(PathBuf, u64, Vec<u8>),
    /// [`truncate`]: the file and its new length.
    Truncate(PathBuf, u64),
    /// A [`remove`] or [`sweep`] that removed the file.
    Remove(PathBuf),
    /// [`set_aside`]: the damaged file and the name it moved to.
    SetAside(PathBuf, PathBuf),
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static LOG: Mutex<Vec<Op>> = Mutex::new(Vec::new());
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn log() -> MutexGuard<'static, Vec<Op>> {
    LOG.lock().unwrap_or_else(|e| e.into_inner())
}

fn note(op: impl FnOnce() -> Op) {
    if RECORDING.load(Ordering::Relaxed) {
        log().push(op());
    }
}

/// While held, every completed store operation in the process is logged.
/// Holding it serializes recording tests (like `fault::exclusive`);
/// dropping it, even in a panic, stops and clears the log.
#[derive(Debug)]
pub struct Recording {
    _lock: MutexGuard<'static, ()>,
}

/// Starts logging store operations until the returned guard drops.
pub fn record() -> Recording {
    let lock = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    log().clear();
    RECORDING.store(true, Ordering::Release);
    Recording { _lock: lock }
}

impl Recording {
    /// The operations completed since the guard was taken, in order.
    pub fn ops(&self) -> Vec<Op> {
        log().clone()
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        RECORDING.store(false, Ordering::Release);
        log().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alic-store-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        create_dir(&dir).unwrap();
        dir
    }

    #[test]
    fn set_aside_never_overwrites_earlier_evidence() {
        let dir = temp_dir("set-aside");
        let path = dir.join("warm.json");
        for damage in ["{first", "{second", "{third"] {
            fs::write(&path, damage).unwrap();
            set_aside(&path).unwrap();
        }
        assert!(!path.exists());
        for (name, damage) in [
            ("warm.json.corrupt", "{first"),
            ("warm.json.corrupt.1", "{second"),
            ("warm.json.corrupt.2", "{third"),
        ] {
            assert_eq!(fs::read_to_string(dir.join(name)).unwrap(), damage);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp_files() {
        let dir = temp_dir("sweep");
        for name in [
            "a.json",
            "a.json.tmp-9-1",
            "a.json.corrupt",
            ".probe.tmp-9-2",
            "b.tmpl",
        ] {
            fs::write(dir.join(name), "x").unwrap();
        }
        assert_eq!(sweep(&dir).unwrap(), 2);
        assert_eq!(list(&dir).unwrap(), ["a.json", "a.json.corrupt", "b.tmpl"]);
        assert_eq!(sweep(&dir.join("missing")).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_cuts_off_a_stale_tail() {
        let _guard = alic_stats::fault::exclusive_clean();
        let dir = temp_dir("append");
        let path = dir.join("s000000.log");
        let at = append(&path, 0, b"first\n").unwrap();
        // The remains of an append that could not be truncated, longer than
        // the next write: the read-back sees them, the retry cuts them.
        fs::write(&path, format!("first\n{}", "9".repeat(64))).unwrap();
        let len = append(&path, at, b"second\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first\nsecond\n");
        assert_eq!(len, 13);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_recording_logs_completed_operations_in_order() {
        let _clean = alic_stats::fault::exclusive_clean();
        let dir = temp_dir("record");
        let path = dir.join("f");
        // Other tests in this binary write concurrently; keep this one's ops.
        let mine = |ops: Vec<Op>| -> Vec<Op> {
            let ours = |p: &Path| p.starts_with(&dir);
            ops.into_iter()
                .filter(|op| match op {
                    Op::CreateDir(p)
                    | Op::Replace(p, ..)
                    | Op::Append(p, ..)
                    | Op::Truncate(p, _)
                    | Op::Remove(p)
                    | Op::SetAside(p, _) => ours(p),
                })
                .collect()
        };
        let recording = record();
        replace(&path, b"ab").unwrap();
        append(&path, 2, b"cd").unwrap();
        truncate(&path, 3).unwrap();
        let to = set_aside(&path).unwrap();
        assert!(!remove(&path).unwrap());
        let ops = mine(recording.ops());
        drop(recording);
        assert!(
            matches!(&ops[0], Op::Replace(p, _, bytes) if *p == path && bytes == b"ab"),
            "{ops:?}"
        );
        assert_eq!(
            ops[1..],
            [
                Op::Append(path.clone(), 2, b"cd".to_vec()),
                Op::Truncate(path.clone(), 3),
                Op::SetAside(path, to),
            ]
        );
        // Nothing is logged once the guard is gone.
        replace(&dir.join("g"), b"x").unwrap();
        assert!(mine(record().ops()).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
