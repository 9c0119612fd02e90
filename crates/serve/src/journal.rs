//! The per-session observation journal: `sessions/<id>.log`.
//!
//! A session's durable state is its compacted checkpoint,
//! `sessions/<id>.json`, plus this append-only journal next to it. Every
//! acknowledged `observe` appends exactly one line and writes nothing else,
//! so an observe costs the same at observation 10 as at observation 10,000:
//!
//! ```text
//! <obs-index> <entry> <fnv64-hex>\n
//! ```
//!
//! * `<obs-index>` is the session's observation count *after* the observe
//!   (the `n` of its `ok observed n` reply);
//! * `<entry>` is the observation's checkpoint entry, `[[values],cost]`,
//!   byte for byte as it appears in the checkpoint's `observations` array;
//! * `<fnv64-hex>` is the FNV-1a hash of `<obs-index> <entry>` as 16
//!   lowercase hex digits.
//!
//! This module owns only the line format. The engine writes each line with
//! [`alic_core::store::append`], which reads back only that line and, on a
//! mismatch or an error, truncates the journal back to its length before
//! the append and retries, so a torn append is never acknowledged and no
//! later line lands after garbage.
//!
//! On restore, [`TuningSession::restore`](crate::session::TuningSession::restore)
//! replays the lines in order after the checkpoint. Lines at or below the
//! checkpoint's observation count are left over from a compaction whose
//! journal removal never ran, and are skipped. The first line with a bad
//! checksum, a bad entry, or an index out of sequence ends the journal: it
//! and everything after it are a torn tail, which the engine truncates
//! with [`alic_core::store::truncate`].
//!
//! Neither file is fsynced: a written reply means the bytes reached the
//! operating system, so they survive a daemon kill but not a power loss.

/// FNV-1a over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The journal line for observation number `index` (1-based), whose
/// checkpoint entry is `entry`.
pub fn line(index: usize, entry: &str) -> String {
    let body = format!("{index} {entry}");
    let hash = fnv64(body.as_bytes());
    format!("{body} {hash:016x}\n")
}

/// Parses one journal line, newline included, into its observation index
/// and entry text. `None` for a torn line (no newline), a bad checksum, or
/// a malformed index; the entry itself is decoded by the caller.
pub fn parse_line(raw: &[u8]) -> Option<(usize, &str)> {
    let text = std::str::from_utf8(raw.strip_suffix(b"\n")?).ok()?;
    let (body, hash) = text.rsplit_once(' ')?;
    let hash_ok = hash.len() == 16 && hash.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !hash_ok || u64::from_str_radix(hash, 16).ok()? != fnv64(body.as_bytes()) {
        return None;
    }
    let (index, entry) = body.split_once(' ')?;
    if index.is_empty() || !index.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let index: usize = index.parse().ok()?;
    (index > 0).then_some((index, entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_and_reject_damage() {
        let text = line(12, "[[3,2],4.5]");
        assert!(text.starts_with("12 [[3,2],4.5] ") && text.ends_with('\n'));
        assert_eq!(parse_line(text.as_bytes()), Some((12, "[[3,2],4.5]")));
        // Torn: no newline, or cut anywhere.
        for cut in 0..text.len() {
            assert_eq!(parse_line(&text.as_bytes()[..cut]), None, "cut {cut}");
        }
        // A changed index, entry or checksum fails the checksum.
        for damaged in [
            text.replacen("12 ", "13 ", 1),
            text.replacen("4.5", "4.6", 1),
            text.replacen(" ", "  ", 1),
        ] {
            assert_eq!(parse_line(damaged.as_bytes()), None, "{damaged:?}");
        }
        let upper = {
            let (body, hash) = text.trim_end().rsplit_once(' ').unwrap();
            format!("{body} {}\n", hash.to_uppercase())
        };
        assert_eq!(parse_line(upper.as_bytes()), None);
        // Well-checksummed lines whose index is not a positive decimal.
        for body in ["0 [[1],1]", "+1 [[1],1]", " [[1],1]"] {
            let forged = format!("{body} {:016x}\n", fnv64(body.as_bytes()));
            assert_eq!(parse_line(forged.as_bytes()), None, "{forged:?}");
        }
    }
}
