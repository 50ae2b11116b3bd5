//! Shared by the integration tests that can only fail by never finishing
//! (termination detection, gang claims) and, through `#[path]`, by every
//! multi-thread unit test of `smq-pool`: a hang becomes a named failure in
//! seconds instead of a stuck suite.  Std-only, so any crate can include it.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Far above what any guarded test takes on a loaded 2-vCPU box (seconds
/// at most), far below the ten minutes a hung suite used to cost.
const HANG_LIMIT: Duration = Duration::from_secs(60);

/// Runs `body` on its own thread and returns its result — or fails, naming
/// the calling test (libtest names each test's thread after it), if `body`
/// is still running after [`HANG_LIMIT`].  A panic in `body` is re-raised on
/// the caller, so assertions fail the test as usual.
pub fn hang_guard<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
    let test = std::thread::current().name().unwrap_or("test").to_string();
    let (done, finished) = mpsc::channel::<()>();
    let runner = std::thread::Builder::new()
        .name(test.clone())
        .spawn(move || {
            // Dropped when `body` returns or unwinds: the receiver then
            // sees the channel close.
            let _done = done;
            body()
        })
        .expect("failed to spawn the guarded test thread");
    if finished.recv_timeout(HANG_LIMIT) == Err(RecvTimeoutError::Timeout) {
        panic!("{test} is still running after {HANG_LIMIT:?}: it hung");
    }
    runner
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}
