//! SIGTERM-as-drain, and the wait for input that the signal cuts short.
//!
//! A supervisor (systemd, Kubernetes, the CI drain-smoke job) stops a daemon
//! with SIGTERM and expects it to exit cleanly. For `alic-serve` "cleanly"
//! means *drained*: admission stopped, the warm store persisted and the
//! summary reported. Every acknowledged observation is already durable,
//! so neither a polite shutdown nor a SIGKILL can lose one.
//!
//! The handler itself does the only thing that is async-signal-safe: it
//! stores to an atomic flag. The transport loop in [`crate::daemon`] polls
//! the flag between requests and waits for input through [`wait`], which
//! gives up after a timeout (or at once, when the signal interrupts it),
//! so the flag is seen while the daemon is idle or a line is half read.
//! Registration and the wait go through direct `signal(2)` and `poll(2)`
//! FFI declarations — the workspace builds without a libc binding crate.

use std::sync::atomic::AtomicBool;
use std::sync::Once;
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

/// Installs the SIGTERM handler (once per process) and returns the flag it
/// sets. Polling the flag is the caller's job; see [`crate::daemon`].
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
        TERM.store(true, std::sync::atomic::Ordering::Release);
    }
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

/// One input source for [`wait`] — stdin, a listener or a connection — and
/// whether the wait found it ready: a `struct pollfd`, not ready when made.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct Watch {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

impl Watch {
    /// Watches `source` for input.
    #[cfg(unix)]
    pub fn of<T: std::os::fd::AsRawFd>(source: &T) -> Watch {
        Watch {
            fd: source.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Watches `source` for input.
    #[cfg(not(unix))]
    pub fn of<T>(_source: &T) -> Watch {
        Watch {
            fd: -1,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether [`wait`] found input, EOF or an error to report:
    /// the one read (or accept) that follows returns it without blocking.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Waits up to `timeout` for any of `watches` to be [`Watch::ready`]. A
/// wait that ends on the timeout, or because a signal interrupted it,
/// leaves every watch not ready.
///
/// Without `poll(2)` (non-Unix, where SIGTERM is never flagged either) the
/// last watch is reported ready at once, so the read that follows blocks.
///
/// # Errors
///
/// Propagates a `poll(2)` failure other than `EINTR`.
pub fn wait(watches: &mut [Watch], timeout: Duration) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        #[cfg(target_os = "linux")]
        type Nfds = std::os::raw::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type Nfds = std::os::raw::c_uint;
        extern "C" {
            fn poll(fds: *mut Watch, nfds: Nfds, timeout: i32) -> i32;
        }
        let millis = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let nfds = Nfds::try_from(watches.len()).unwrap_or(Nfds::MAX);
        // SAFETY: `watches` is a valid, exclusively borrowed array of
        // `nfds` `struct pollfd`s (`int`, `short`, `short`).
        if unsafe { poll(watches.as_mut_ptr(), nfds, millis) } == -1 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
    #[cfg(not(unix))]
    {
        let _ = timeout;
        if let Some(last) = watches.last_mut() {
            last.revents = POLLIN;
        }
    }
    Ok(())
}
