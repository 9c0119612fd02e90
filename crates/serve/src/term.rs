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
//! requests and run the engine's drain when it trips. Registration goes
//! through a direct `signal(2)` FFI declaration — the workspace builds
//! without a libc binding crate — and compiles to a no-op flag on
//! non-Unix targets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

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
