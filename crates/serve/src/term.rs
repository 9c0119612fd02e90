//! SIGTERM-as-drain: the supervised-shutdown signal flag.
//!
//! A supervisor (systemd, Kubernetes, the CI drain-smoke job) stops a daemon
//! with SIGTERM and expects it to exit cleanly. For `alic-serve` "cleanly"
//! means *drained*: admission stopped, the warm store persisted and the
//! summary reported. Every acknowledged observation is already durable,
//! so neither a polite shutdown nor a SIGKILL can lose one.
//!
//! The handler itself does the only thing that is async-signal-safe: it
//! stores to an atomic flag. The transport loops poll the flag between
//! requests and run the engine's drain when it trips. A loop that waits on
//! stdin does so through [`stdin_ready`], which gives up after a timeout
//! (or at once, when the signal interrupts it) so the flag is seen while
//! the daemon is idle or a line is half read. Registration and the wait go
//! through direct `signal(2)` and `poll(2)` FFI declarations — the
//! workspace builds without a libc binding crate — and compile to a no-op
//! flag and a plain blocking read on non-Unix targets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

/// Installs the SIGTERM handler (once per process) and returns the flag it
/// sets. Polling the flag is the caller's job; see the transport loops in
/// [`crate::daemon`].
pub fn install() -> &'static AtomicBool {
    INSTALL.call_once(|| {
        #[cfg(unix)]
        register();
    });
    &TERM
}

#[cfg(unix)]
fn register() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_signum: i32) {
        // The only async-signal-safe action: set the flag and return.
        TERM.store(true, Ordering::Release);
    }
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

/// Waits up to `timeout` for stdin to have input, EOF or an error to
/// report. `Ok(false)` means the wait ended first — on the timeout, or
/// because a signal interrupted it — and nothing was read.
///
/// # Errors
///
/// Propagates a `poll(2)` failure other than `EINTR`.
#[cfg(unix)]
pub fn stdin_ready(timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_short};

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    const POLLIN: c_short = 0x1;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    let mut fd = PollFd {
        fd: std::io::stdin().as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one valid, exclusively borrowed `struct pollfd`.
    match unsafe { poll(&mut fd, 1, millis) } {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        // Readable, hung up, or an invalid descriptor: the read that
        // follows returns the bytes, EOF or the error without blocking.
        _ => Ok(true),
    }
}

/// Without `poll(2)` (and without a SIGTERM hook to notice) stdin is read
/// with plain blocking reads.
#[cfg(not(unix))]
pub fn stdin_ready(_timeout: Duration) -> std::io::Result<bool> {
    Ok(true)
}
