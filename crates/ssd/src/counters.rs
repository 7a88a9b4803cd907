//! Process-wide co-simulation loop statistics.
//!
//! The perf harness attributes the event-driven scheduler's win by
//! recording, per experiment, how many co-sim rounds actually ran and how
//! many fixed-epoch rounds the deadline jumps skipped. The counters are
//! cumulative across every [`Ssd::scomp`](crate::Ssd::scomp) in the
//! process (atomics, so parallel sweeps aggregate correctly); callers
//! snapshot before/after a region and subtract.

use std::sync::atomic::{AtomicU64, Ordering};

static ROUNDS: AtomicU64 = AtomicU64::new(0);
static EPOCHS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static FORKS: AtomicU64 = AtomicU64::new(0);
static FORK_PAGES_SHARED: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(rounds_executed, epochs_skipped)` over all co-simulation
/// loops run so far in this process. An epoch is "skipped" when the
/// event-driven deadline jumped over a round the fixed-epoch loop would
/// have executed as a no-op.
pub fn cosim_counters() -> (u64, u64) {
    (
        ROUNDS.load(Ordering::Relaxed),
        EPOCHS_SKIPPED.load(Ordering::Relaxed),
    )
}

pub(crate) fn record_cosim(rounds: u64, skipped: u64) {
    ROUNDS.fetch_add(rounds, Ordering::Relaxed);
    EPOCHS_SKIPPED.fetch_add(skipped, Ordering::Relaxed);
}

/// Cumulative `(forks, pages_shared)` over all
/// [`SsdImage::fork`](crate::SsdImage::fork) calls so far in this process:
/// how many devices were cloned off a preconditioned image, and how many
/// written flash pages each fork inherited by reference instead of
/// re-loading. The perf harness records these per experiment to attribute
/// the prefix-sharing win.
pub fn fork_counters() -> (u64, u64) {
    (
        FORKS.load(Ordering::Relaxed),
        FORK_PAGES_SHARED.load(Ordering::Relaxed),
    )
}

pub(crate) fn record_fork(pages_shared: u64) {
    FORKS.fetch_add(1, Ordering::Relaxed);
    FORK_PAGES_SHARED.fetch_add(pages_shared, Ordering::Relaxed);
}
