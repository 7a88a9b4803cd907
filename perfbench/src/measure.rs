//! The fastest-repeat estimator.
//!
//! Every request the simulator runs is deterministic, so when repeats of
//! one request take different host times the machine caused the
//! difference, not the program. A run therefore repeats a fixed list of
//! requests round-robin for a time budget and keeps, per request, its
//! fastest repeat. Round-robin spreads each request's repeats over the
//! whole run, so a slow phase of the machine cannot cover all of them.

use crate::affinity;
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Exact per-layer counts, read from the simulator's public result structs.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `v` to count `k`.
pub fn add(c: &mut Counts, k: &'static str, v: f64) {
    *c.entry(k).or_default() += v;
}

/// What one execution of a request produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Simulated durations of the request's operations, picoseconds.
    pub sim_ps: Vec<u64>,
    /// Simulated tail latency the request itself reports, picoseconds.
    pub tail_ps: Option<u64>,
    /// `(requests within SLO, requests offered)` for a serving session.
    pub slo: Option<(u64, u64)>,
    /// The functional output, compared bit for bit across repeats.
    pub output: Vec<u8>,
    /// Bytes read per flash channel.
    pub channel_bytes: Vec<u64>,
    /// Per-layer counts.
    pub counts: Counts,
}

/// One request of a workload, made through the crates' public APIs.
pub trait Request {
    fn name(&self) -> &str;
    /// Executes the request once; this is the timed part.
    fn run(&mut self) -> Result<Outcome, String>;
    /// Checks a first repeat against golden models, outside the timed
    /// region. With `count` set it may add per-layer counts that need
    /// extra work to obtain.
    fn verify(&mut self, out: &mut Outcome, count: bool) -> Result<(), String>;
}

/// A workload's inputs, built by its set-up.
pub struct Setup {
    pub requests: Vec<Box<dyn Request>>,
    /// Counts of set-up work (FTL writes of preconditioning).
    pub counts: Counts,
}

/// Per-request result of a run.
#[derive(Debug, Default)]
pub struct RequestStats {
    pub name: String,
    /// Fastest untraced repeat, host seconds.
    pub best_s: Option<f64>,
    /// Fastest traced repeat, host seconds.
    pub best_traced_s: Option<f64>,
    /// Spans of the fastest traced repeat.
    pub spans: Vec<Span>,
    pub repeats: u32,
    pub failure: Option<String>,
    /// The first repeat's outcome.
    pub outcome: Option<Outcome>,
}

/// Result of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Fastest untraced set-up, host seconds.
    pub setup_s: f64,
    /// Spans of the fastest traced set-up.
    pub setup_spans: Vec<Span>,
    pub setup_counts: Counts,
    pub requests: Vec<RequestStats>,
    pub rounds: u32,
}

/// Span request id used for set-up spans.
pub const SETUP_REQUEST: u32 = u32::MAX;

/// Keeps the smaller of `best` and `sample`; returns whether `sample` won.
pub fn keep_fastest(best: &mut Option<f64>, sample: f64) -> bool {
    if best.is_none_or(|b| sample < b) {
        *best = Some(sample);
        true
    } else {
        false
    }
}

/// Sum of the requests' fastest repeats (failed requests excluded).
pub fn pass_s(requests: &[RequestStats], traced: bool) -> f64 {
    requests
        .iter()
        .filter(|r| r.failure.is_none())
        .filter_map(|r| if traced { r.best_traced_s } else { r.best_s })
        .sum()
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs `setup` and the requests it builds in rounds until `seconds` of
/// host time are spent (at least `min_rounds` rounds). Each round times
/// one set-up and one repeat of every request. With `traced`, odd rounds
/// record spans and even rounds do not, so both estimates come from the
/// same stretch of machine time. Successive rounds (pairs of rounds when
/// traced) run pinned to successive CPUs of `cpus`; the thread may use
/// all of them again afterwards.
///
/// A request that returns `Err`, panics, fails its golden check or
/// diverges from its first repeat is marked failed and not run again; the
/// run goes on. A failing set-up ends the run with `Err`.
pub fn run_rounds(
    setup: &dyn Fn() -> Result<Setup, String>,
    seconds: f64,
    traced: bool,
    min_rounds: u32,
    cpus: &[usize],
) -> Result<RunResult, String> {
    let res = rounds(setup, seconds, traced, min_rounds, cpus);
    affinity::pin(cpus);
    res
}

fn rounds(
    setup: &dyn Fn() -> Result<Setup, String>,
    seconds: f64,
    traced: bool,
    min_rounds: u32,
    cpus: &[usize],
) -> Result<RunResult, String> {
    let start = Instant::now();
    let mut res = RunResult::default();
    let mut setup_best: Option<f64> = None;
    let mut setup_best_traced: Option<f64> = None;
    let mut requests: Vec<Box<dyn Request>> = Vec::new();
    loop {
        let round_start = Instant::now();
        let tracing = traced && res.rounds % 2 == 1;
        let per_cpu = if traced { 2 } else { 1 };
        if let Some(&cpu) = cpus.get((res.rounds / per_cpu) as usize % cpus.len().max(1)) {
            affinity::pin(&[cpu]);
        }

        if tracing {
            trace::begin(start, SETUP_REQUEST);
        }
        let t0 = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(setup));
        let dt = t0.elapsed().as_secs_f64();
        let spans = trace::end();
        let built = match built {
            Ok(b) => b?,
            Err(p) => return Err(format!("set-up panicked: {}", panic_text(p))),
        };
        if tracing {
            if keep_fastest(&mut setup_best_traced, dt) {
                res.setup_spans = spans;
            }
        } else {
            keep_fastest(&mut setup_best, dt);
        }
        if res.rounds == 0 {
            res.setup_counts = built.counts;
            requests = built.requests;
            res.requests = requests
                .iter()
                .map(|r| RequestStats {
                    name: r.name().to_string(),
                    ..RequestStats::default()
                })
                .collect();
        } else {
            drop(built);
        }

        for (i, (req, st)) in requests.iter_mut().zip(&mut res.requests).enumerate() {
            if st.failure.is_some() {
                continue;
            }
            if tracing {
                trace::begin(start, i as u32);
            }
            let t0 = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| req.run()));
            let dt = t0.elapsed().as_secs_f64();
            let spans = trace::end();
            st.repeats += 1;
            let mut out = match ran {
                Ok(Ok(out)) => out,
                Ok(Err(e)) => {
                    st.failure = Some(e);
                    continue;
                }
                Err(p) => {
                    st.failure = Some(format!("panicked: {}", panic_text(p)));
                    continue;
                }
            };
            match &st.outcome {
                None => {
                    let checked = catch_unwind(AssertUnwindSafe(|| req.verify(&mut out, traced)))
                        .unwrap_or_else(|p| Err(format!("check panicked: {}", panic_text(p))));
                    if let Err(e) = checked {
                        st.failure = Some(format!("wrong output: {e}"));
                        continue;
                    }
                    st.outcome = Some(out);
                }
                Some(first) => {
                    if out.sim_ps != first.sim_ps
                        || out.output != first.output
                        || out.tail_ps != first.tail_ps
                        || out.slo != first.slo
                    {
                        st.failure = Some(format!(
                            "repeat {} diverged from the first repeat",
                            st.repeats
                        ));
                        continue;
                    }
                }
            }
            if tracing {
                if keep_fastest(&mut st.best_traced_s, dt) {
                    st.spans = spans;
                }
            } else {
                keep_fastest(&mut st.best_s, dt);
            }
        }

        res.rounds += 1;
        let round_s = round_start.elapsed().as_secs_f64();
        if res.rounds >= min_rounds && start.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }
    res.setup_s = setup_best.unwrap_or(0.0);
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A request whose host time is scripted per repeat.
    struct Scripted {
        name: &'static str,
        delays_ms: Vec<u64>,
        calls: Rc<Cell<usize>>,
        fail_at: Option<usize>,
        panic_at: Option<usize>,
        diverge_at: Option<usize>,
    }

    impl Request for Scripted {
        fn name(&self) -> &str {
            self.name
        }
        fn run(&mut self) -> Result<Outcome, String> {
            let n = self.calls.get();
            self.calls.set(n + 1);
            let ms = self.delays_ms[n % self.delays_ms.len()];
            std::thread::sleep(std::time::Duration::from_millis(ms));
            if self.fail_at == Some(n) {
                return Err("device error".into());
            }
            if self.panic_at == Some(n) {
                panic!("scripted panic");
            }
            let sim = if self.diverge_at == Some(n) { 2 } else { 1 };
            Ok(Outcome {
                sim_ps: vec![sim],
                output: vec![1, 2, 3],
                ..Outcome::default()
            })
        }
        fn verify(&mut self, out: &mut Outcome, _count: bool) -> Result<(), String> {
            if out.output == [1, 2, 3] {
                Ok(())
            } else {
                Err("mismatch".into())
            }
        }
    }

    fn scripted(name: &'static str, delays_ms: Vec<u64>) -> Scripted {
        Scripted {
            name,
            delays_ms,
            calls: Rc::new(Cell::new(0)),
            fail_at: None,
            panic_at: None,
            diverge_at: None,
        }
    }

    #[test]
    fn keep_fastest_keeps_the_minimum() {
        let mut best = None;
        for s in [0.5, 0.3, 0.9, 0.31] {
            keep_fastest(&mut best, s);
        }
        assert_eq!(best, Some(0.3));
    }

    #[test]
    fn pass_is_the_sum_of_each_requests_fastest_repeat() {
        // Slow repeats (a noisy phase of the machine) do not move the
        // estimate as long as one repeat per request ran undisturbed.
        let setup = || {
            Ok(Setup {
                requests: vec![
                    Box::new(scripted("a", vec![40, 10, 30])) as Box<dyn Request>,
                    Box::new(scripted("b", vec![5, 25, 45])),
                ],
                counts: Counts::new(),
            })
        };
        let r = run_rounds(&setup, 0.0, false, 3, &[]).unwrap();
        assert_eq!(r.rounds, 3);
        let a = r.requests[0].best_s.unwrap();
        let b = r.requests[1].best_s.unwrap();
        assert!((0.010..0.030).contains(&a), "a = {a}");
        assert!((0.005..0.025).contains(&b), "b = {b}");
        assert!((pass_s(&r.requests, false) - a - b).abs() < 1e-12);
        assert!(r.requests.iter().all(|s| s.repeats == 3));
    }

    #[test]
    fn failed_requests_are_counted_and_do_not_abort_the_run() {
        let setup = || {
            let mut err = scripted("err", vec![1]);
            err.fail_at = Some(0);
            let mut boom = scripted("boom", vec![1]);
            boom.panic_at = Some(1);
            let mut drift = scripted("drift", vec![1]);
            drift.diverge_at = Some(2);
            Ok(Setup {
                requests: vec![
                    Box::new(err) as Box<dyn Request>,
                    Box::new(boom),
                    Box::new(drift),
                    Box::new(scripted("ok", vec![1])),
                ],
                counts: Counts::new(),
            })
        };
        let r = run_rounds(&setup, 0.0, false, 4, &[]).unwrap();
        let failed: Vec<&str> = r
            .requests
            .iter()
            .filter(|s| s.failure.is_some())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(failed, ["err", "boom", "drift"]);
        assert!(r.requests[1]
            .failure
            .as_ref()
            .unwrap()
            .contains("scripted panic"));
        assert!(r.requests[2].failure.as_ref().unwrap().contains("diverged"));
        assert_eq!(r.requests[3].repeats, 4, "the healthy request kept running");
        assert_eq!(r.requests[0].repeats, 1, "a failed request is not retried");
    }

    #[test]
    fn traced_runs_alternate_rounds() {
        let setup = || {
            Ok(Setup {
                requests: vec![Box::new(scripted("a", vec![1])) as Box<dyn Request>],
                counts: Counts::new(),
            })
        };
        let r = run_rounds(&setup, 0.0, true, 4, &[]).unwrap();
        let a = &r.requests[0];
        assert!(a.best_s.is_some() && a.best_traced_s.is_some());
        assert_eq!(a.repeats, 4);
    }
}
