//! Connection-level fault injection for the daemon's I/O loops.
//!
//! The PR 7 chaos plane covers the storage and compute layers; these
//! wrappers extend it to the wire, so the chaos suite can exercise the
//! daemon end to end:
//!
//! * [`FaultSite::ConnDrop`] — the connection drops mid-line: the request
//!   in flight is lost and the reader reports EOF (the daemon's
//!   end-of-connection path runs).
//! * [`FaultSite::ShortRead`] — a read tears: only a prefix of the line
//!   arrives. The engine parses the fragment like any other bytes and
//!   replies with a structured `err`, never a panic.
//! * [`FaultSite::TornReply`] — a reply tears: a prefix is written and the
//!   connection then errors, so the client sees a lost/partial reply for a
//!   request that may have committed (the documented at-least-once
//!   window; clients reconcile via `attach`'s observation count).
//!
//! All three are armed through the same `ALIC_CHAOS` plan grammar
//! (`conndrop=`, `shortread=`, `tornreply=`) with per-site rates, budgets,
//! and [`injections`](alic_stats::fault::injections) counters.

use std::io::{BufRead, Write};

use alic_stats::fault::{inject, FaultSite};

/// A line reader with the connection-level chaos sites wired in.
#[derive(Debug)]
pub struct ChaosLines<R> {
    inner: R,
}

impl<R: BufRead> ChaosLines<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        ChaosLines { inner }
    }

    /// Reads the next line (without its terminator); `Ok(None)` is EOF —
    /// real, or injected by a [`FaultSite::ConnDrop`].
    ///
    /// # Errors
    ///
    /// Propagates underlying I/O errors. Invalid UTF-8 is replaced, not
    /// fatal: the engine answers garbage with a structured error.
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        let mut buf = Vec::new();
        let n = self.inner.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        if inject(FaultSite::ConnDrop) {
            // The peer vanished mid-request: the line never reaches the
            // engine and the connection is over.
            return Ok(None);
        }
        while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            buf.pop();
        }
        if inject(FaultSite::ShortRead) {
            buf.truncate(buf.len() / 2);
        }
        Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// Writes one reply line, honoring the [`FaultSite::TornReply`] site.
///
/// # Errors
///
/// Returns `BrokenPipe` after writing only a prefix when the torn-reply
/// site fires, and propagates real write errors; either way the caller
/// must treat the connection as gone.
pub fn write_reply<W: Write>(out: &mut W, reply: &str) -> std::io::Result<()> {
    if inject(FaultSite::TornReply) {
        let mut cut = reply.len() / 2;
        while !reply.is_char_boundary(cut) {
            cut -= 1;
        }
        out.write_all(&reply.as_bytes()[..cut])?;
        out.flush()?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "chaos: injected torn reply",
        ));
    }
    out.write_all(reply.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_stats::fault::{exclusive, exclusive_clean, injections, FaultPlan};

    #[test]
    fn chaos_sites_tear_reads_and_replies_deterministically() {
        let guard = exclusive(
            FaultPlan::new(11)
                .with_site(FaultSite::ShortRead, 1.0, Some(1))
                .with_site(FaultSite::TornReply, 1.0, Some(1))
                .with_site(FaultSite::ConnDrop, 1.0, Some(1)),
        );
        let mut reader = ChaosLines::new(&b"observe 3,4 1.25\nbest\nsuggest\n"[..]);
        // The first line is swallowed by the dropped connection (the drop
        // site is checked first: a vanished peer loses the whole line)...
        assert_eq!(reader.next_line().unwrap(), None);
        assert_eq!(injections(FaultSite::ConnDrop), 1);
        // ...the next read tears to a prefix...
        assert_eq!(reader.next_line().unwrap().unwrap(), "be");
        assert_eq!(injections(FaultSite::ShortRead), 1);
        // ...and a reply tears after a prefix.
        let mut out = Vec::new();
        let err = write_reply(&mut out, "ok observed 3").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(out, b"ok obs");
        assert_eq!(injections(FaultSite::TornReply), 1);
        // Budgets spent: the plane is quiet again.
        let mut reader = ChaosLines::new(&b"best\n"[..]);
        assert_eq!(reader.next_line().unwrap().unwrap(), "best");
        let mut out = Vec::new();
        write_reply(&mut out, "ok bye").unwrap();
        assert_eq!(out, b"ok bye\n");
        drop(guard);
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        // Reads consult the process-global plane; hold it clean so a
        // concurrently running chaos test cannot tear this read (or lose
        // its own budget to it).
        let _guard = exclusive_clean();
        let mut reader = ChaosLines::new(&[0x66u8, 0xff, 0x6f, b'\n'][..]);
        let line = reader.next_line().unwrap().unwrap();
        assert!(line.starts_with('f'));
    }
}
