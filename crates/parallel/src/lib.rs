//! Ordered fork-join parallelism over `std::thread` for the sweep
//! executor (`crates/bench`) and the array's device batches
//! (`crates/array`).
//!
//! The registry-less build cannot pull in `rayon`, so this crate provides
//! the one primitive the harness needs: [`par_map`], a work-stealing map
//! over a slice whose results come back **in input order**. Determinism
//! therefore does not depend on scheduling — only on each closure being a
//! pure function of its input — which is what lets serial and parallel
//! sweeps emit byte-identical reports.
//!
//! Thread count comes from `RAYON_NUM_THREADS` (the conventional knob,
//! honored even though the implementation is not rayon) and defaults to
//! `std::thread::available_parallelism()`. A global budget caps the total
//! number of extra threads across *nested* `par_map` calls: an inner sweep
//! running on a worker thread degrades toward serial instead of
//! multiplying the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Extra worker threads still available across all live `par_map` calls.
fn budget() -> &'static AtomicUsize {
    static BUDGET: OnceLock<AtomicUsize> = OnceLock::new();
    BUDGET.get_or_init(|| AtomicUsize::new(configured_threads().saturating_sub(1)))
}

thread_local! {
    static MAX_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Parses a `RAYON_NUM_THREADS`-style value: a positive integer thread
/// count. Split out (and public) so the rejection rules are unit-testable
/// without touching process environment.
///
/// # Errors
///
/// Returns a description of the problem for anything that is not a
/// positive integer — `"8 threads"`, `"0"`, `""`, `"-2"` all fail. A set
/// variable that cannot mean what the operator intended must not silently
/// fall back to `available_parallelism()`.
pub fn parse_thread_env(value: &str) -> Result<usize, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Err("empty value (unset the variable to use the default)".into());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("thread count must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("not a thread count: {e}")),
    }
}

fn configured_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS") {
        Err(std::env::VarError::NotPresent) => {}
        Err(e) => panic!("RAYON_NUM_THREADS is not valid unicode: {e}"),
        Ok(v) => match parse_thread_env(&v) {
            Ok(n) => return n,
            // A set-but-malformed knob is a hard error, like every
            // other knob: a CI job that typos
            // `RAYON_NUM_THREADS="8 threads"` must not quietly run at
            // whatever parallelism the box happens to have.
            Err(why) => panic!("invalid RAYON_NUM_THREADS {v:?}: {why}"),
        },
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread cap a `par_map` on this thread would currently use.
pub fn current_max_threads() -> usize {
    MAX_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(configured_threads)
}

/// Runs `f` with the calling thread's `par_map` capped at `n` threads.
///
/// With `n == 1` every `par_map` in `f` (nested ones included) runs
/// serially on the calling thread — the serial arm of the determinism
/// regression test. Caps above 1 apply to `par_map` calls made directly
/// on this thread; work already running on spawned workers keeps its own
/// budget accounting.
pub fn with_max_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread cap must be at least 1");
    MAX_OVERRIDE.with(|o| {
        let prev = o.replace(Some(n));
        let out = f();
        o.set(prev);
        out
    })
}

/// Claims up to `want` extra threads from the global budget.
fn take_budget(want: usize) -> usize {
    let b = budget();
    let mut cur = b.load(Ordering::Relaxed);
    loop {
        let take = want.min(cur);
        if take == 0 {
            return 0;
        }
        match b.compare_exchange_weak(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(now) => cur = now,
        }
    }
}

/// Maps `f` over `items` on up to `current_max_threads()` threads and
/// returns results in input order.
///
/// Scheduling is dynamic (an atomic cursor hands out indices) so uneven
/// point costs balance across workers, but reassembly is by index — the
/// output is identical to `items.iter().map(f).collect()` whenever `f` is
/// deterministic per item. Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cap = current_max_threads();
    if cap <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let extra = take_budget(cap.min(items.len()) - 1);
    if extra == 0 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let run_worker = || {
        let mut out: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            out.push((i, f(&items[i])));
        }
        out
    };

    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..extra).map(|_| s.spawn(run_worker)).collect();
        let mut parts = vec![run_worker()];
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => {
                    budget().fetch_add(extra, Ordering::Relaxed);
                    std::panic::resume_unwind(payload);
                }
            }
        }
        parts
    });
    budget().fetch_add(extra, Ordering::Relaxed);

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index handed out twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * x
        });
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_under_thread_cap_one() {
        let items: Vec<u32> = (0..64).collect();
        let serial = with_max_threads(1, || par_map(&items, |&x| x.wrapping_mul(2654435761)));
        let parallel = par_map(&items, |&x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_calls_do_not_deadlock_and_stay_ordered() {
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..32).collect();
            par_map(&inner, |&j| i * 100 + j)
        });
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row, &(0..32).map(|j| i * 100 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let none: Vec<u8> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[41u8], |&x| x + 1), vec![42]);
    }

    #[test]
    fn thread_env_parse_accepts_positive_integers() {
        assert_eq!(parse_thread_env("1"), Ok(1));
        assert_eq!(parse_thread_env("8"), Ok(8));
        assert_eq!(parse_thread_env("  16  "), Ok(16));
    }

    #[test]
    fn thread_env_parse_rejects_malformed_values() {
        for bad in ["", "   ", "0", "8 threads", "-2", "2.5", "eight", "1e3"] {
            assert!(
                parse_thread_env(bad).is_err(),
                "{bad:?} must be rejected, not silently defaulted"
            );
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                assert!(x != 13, "boom");
                x
            })
        }));
        assert!(caught.is_err());
    }
}
