//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the simulator's public API;
//! nothing inside the program is instrumented. Recording is per thread
//! and off unless [`begin`] armed it, so the untraced run pays one
//! thread-local check per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: name, host start/end (ns since the run's epoch), the
/// enclosing span and the request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    request: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans for `request`, timed against `epoch`.
pub fn begin(epoch: Instant, request: u32) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            request,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns the spans recorded since [`begin`]. After
/// a panic some spans are left open; callers discard such a repeat.
pub fn end() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default()
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let i = rec.spans.len();
            rec.spans.push(Span {
                name,
                start_ns: rec.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: rec.open.last().copied(),
                request: rec.request,
            });
            rec.open.push(i);
            i
        })
    });
    let out = f();
    if let Some(i) = idx {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[i].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Host seconds per span name: `(inclusive, self)`, where self time is a
/// span's duration minus the part its direct children cover.
pub fn times_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns() as f64 * 1e-9;
        e.1 += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
    }
    out
}

/// Host seconds covered by top-level spans (those without a parent).
pub fn top_level_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

/// Chrome trace-event JSON for a set of spans (one `X` event each).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.request
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        begin(Instant::now(), 7);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = end();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let t = times_by_name(&spans);
        let (outer_incl, outer_self) = t["outer"];
        let (inner_incl, _) = t["inner"];
        assert!((outer_incl - outer_self - inner_incl).abs() < 1e-9);
        assert!((top_level_s(&spans) - outer_incl).abs() < 1e-12);
        assert!(to_chrome_json(&spans).contains("\"parent\":0"));
    }

    #[test]
    fn nothing_is_recorded_when_off() {
        assert_eq!(span("x", || 3), 3);
        assert!(end().is_empty());
    }
}
