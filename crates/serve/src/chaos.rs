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

use std::io::{BufRead, ErrorKind, Write};

use alic_stats::fault::{inject, FaultSite};

use crate::protocol::MAX_LINE_BYTES;

/// Most bytes of one line the reader keeps: one past the protocol's limit,
/// so an oversized line still reaches the engine as oversized (and gets
/// its `err parse` reply) while the rest of it is read and dropped.
const KEEP_BYTES: usize = MAX_LINE_BYTES + 1;

/// A line reader with the connection-level chaos sites wired in.
///
/// The line being read lives in the reader, so a read that stops early —
/// an error such as `WouldBlock` from a reader that waits with a timeout —
/// loses nothing: the next call carries on with the same line.
#[derive(Debug)]
pub struct ChaosLines<R> {
    inner: R,
    /// The current line's first bytes, at most [`KEEP_BYTES`] of them.
    line: Vec<u8>,
    /// Every byte of the current line read so far, kept or dropped,
    /// terminator excluded.
    len: usize,
    /// How many of those end the line as a run of `\r`.
    trailing_cr: usize,
}

impl<R: BufRead> ChaosLines<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        ChaosLines {
            inner,
            line: Vec::new(),
            len: 0,
            trailing_cr: 0,
        }
    }

    /// The wrapped reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads the next line (without its terminator); `Ok(None)` is EOF —
    /// real, or injected by a [`FaultSite::ConnDrop`]. A final line without
    /// `\n` is still a line.
    ///
    /// A line longer than [`MAX_LINE_BYTES`] comes back cut to
    /// [`MAX_LINE_BYTES`]` + 1` bytes; the rest is read and dropped, so a
    /// peer that never sends `\n` cannot grow the buffer without bound.
    ///
    /// # Errors
    ///
    /// Propagates underlying I/O errors other than `Interrupted`. The
    /// line read so far stays buffered, so a caller may call again after
    /// an error such as `WouldBlock`. Invalid UTF-8 is replaced, not
    /// fatal: the engine answers garbage with a structured error.
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        loop {
            let available = match self.inner.fill_buf() {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                if self.len == 0 {
                    return Ok(None);
                }
                break;
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let chunk = &available[..newline.unwrap_or(available.len())];
            let room = KEEP_BYTES - self.line.len();
            self.line.extend_from_slice(&chunk[..chunk.len().min(room)]);
            let crs = chunk.iter().rev().take_while(|&&b| b == b'\r').count();
            self.trailing_cr = if crs == chunk.len() {
                self.trailing_cr + crs
            } else {
                crs
            };
            self.len += chunk.len();
            let used = chunk.len() + usize::from(newline.is_some());
            self.inner.consume(used);
            if newline.is_some() {
                break;
            }
        }
        // The line without its trailing `\r`s, as if it had been kept whole.
        let len = std::mem::take(&mut self.len) - std::mem::take(&mut self.trailing_cr);
        if inject(FaultSite::ConnDrop) {
            // The peer vanished mid-request: the line never reaches the
            // engine and the connection is over.
            self.line.clear();
            return Ok(None);
        }
        let len = if inject(FaultSite::ShortRead) {
            len / 2
        } else {
            len
        };
        // Up to `MAX_LINE_BYTES` this is exactly the first `len` bytes; past
        // it, `KEEP_BYTES` of them, which the engine refuses just the same.
        self.line.truncate(len);
        let text = String::from_utf8_lossy(&self.line).into_owned();
        self.line.clear();
        Ok(Some(text))
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
    use std::io::Read;

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
    fn an_endless_line_is_cut_and_the_next_request_still_read() {
        let _guard = exclusive_clean();
        // 64 MiB that the reader must not hold, then a request it must.
        let endless = std::io::repeat(b'x').take(64 << 20);
        let input = endless.chain(&b"\r\nbest\n"[..]);
        let mut reader = ChaosLines::new(std::io::BufReader::new(input));
        let line = reader.next_line().unwrap().unwrap();
        assert_eq!(line.len(), MAX_LINE_BYTES + 1);
        assert!(reader.line.capacity() <= 2 * KEEP_BYTES);
        assert_eq!(reader.next_line().unwrap().unwrap(), "best");
        assert_eq!(reader.next_line().unwrap(), None);
    }

    #[test]
    fn lines_at_the_limit_pass_whole_and_trailing_returns_go() {
        let _guard = exclusive_clean();
        let full = "y".repeat(MAX_LINE_BYTES);
        let input = format!("{full}\r\r\n{full}z\r\n\nlast\r");
        let mut reader = ChaosLines::new(input.as_bytes());
        assert_eq!(reader.next_line().unwrap().unwrap(), full);
        assert_eq!(
            reader.next_line().unwrap().unwrap().len(),
            MAX_LINE_BYTES + 1
        );
        assert_eq!(reader.next_line().unwrap().unwrap(), "");
        // A final line without `\n` is a line; then EOF.
        assert_eq!(reader.next_line().unwrap().unwrap(), "last");
        assert_eq!(reader.next_line().unwrap(), None);
    }

    /// Hands out its chunks one per read and reports `WouldBlock` between
    /// them, like a reader that gives up after a timeout.
    struct Trickle(Vec<&'static [u8]>, bool);

    impl std::io::Read for Trickle {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("read through BufRead only")
        }
    }

    impl BufRead for Trickle {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.1 = !self.1;
            match self.0.first() {
                Some(_) if self.1 => Err(ErrorKind::WouldBlock.into()),
                Some(chunk) => Ok(chunk),
                None => Ok(&[]),
            }
        }

        fn consume(&mut self, n: usize) {
            self.0[0] = &self.0[0][n..];
            if self.0[0].is_empty() {
                self.0.remove(0);
            }
        }
    }

    #[test]
    fn a_line_survives_reads_that_stop_early() {
        let _guard = exclusive_clean();
        let mut reader =
            ChaosLines::new(Trickle(vec![b"obs", b"erve 3 1.5\r", b"\nbest\nx"], false));
        let mut lines = Vec::new();
        loop {
            match reader.next_line() {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => break,
                Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
            }
        }
        assert_eq!(lines, ["observe 3 1.5", "best", "x"]);
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
