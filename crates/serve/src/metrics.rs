//! Per-tenant latency SLO accounting, entirely in simulated time.
//!
//! Latency is `completion - arrival` on the front-end's virtual clock;
//! no wall-clock reading ever enters a report, so the same run always
//! serializes to the same bytes. Percentiles are nearest-rank
//! (`idx = (n-1)*p/100` into the sorted latencies, integer arithmetic),
//! found by selection rather than a full sort, and
//! undefined statistics are `Option`s that serialize as `null` — never a
//! NaN (which would not even be valid JSON) and never a fake zero.

use crate::config::TenantSpec;
use assasin_sim::stats::{bps_to_gbps, throughput_bps};
use assasin_sim::{SimDur, SimTime};
use serde::Serialize;

/// Running accumulator for one tenant.
#[derive(Debug, Default)]
pub struct TenantMetrics {
    latencies_ps: Vec<u64>,
    submitted: u64,
    rejected: u64,
    completed: u64,
    slo_violations: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl TenantMetrics {
    /// Notes one submission and whether admission control accepted it.
    pub fn on_submission(&mut self, admitted: bool) {
        self.submitted += 1;
        if !admitted {
            self.rejected += 1;
        }
    }

    /// Notes one completion.
    pub fn on_completion(
        &mut self,
        arrival: SimTime,
        completion: SimTime,
        bytes_in: u64,
        bytes_out: u64,
        slo: Option<SimDur>,
    ) {
        let latency = completion.since(arrival);
        self.latencies_ps.push(latency.as_ps());
        self.completed += 1;
        self.bytes_in += bytes_in;
        self.bytes_out += bytes_out;
        if slo.is_some_and(|slo| latency > slo) {
            self.slo_violations += 1;
        }
    }

    /// Freezes the accumulator into a report row. `makespan` is the
    /// run's total simulated span (for achieved throughput).
    pub fn finish(mut self, spec: &TenantSpec, makespan: SimDur) -> TenantReport {
        let (p50_us, p99_us, max_us) = match self.latencies_ps.len() {
            0 => (None, None, None),
            n => {
                // Selecting p99 leaves everything smaller before it, so
                // p50 (rank <= p99's) is selected from that prefix and
                // the max is the largest of the suffix.
                let (i50, i99) = (nearest_rank(n, 50), nearest_rank(n, 99));
                let (below, &mut p99, above) = self.latencies_ps.select_nth_unstable(i99);
                let max = above.iter().fold(p99, |m, &ps| m.max(ps));
                let p50 = if i50 == i99 {
                    p99
                } else {
                    *below.select_nth_unstable(i50).1
                };
                (
                    Some(ps_to_us(p50)),
                    Some(ps_to_us(p99)),
                    Some(ps_to_us(max)),
                )
            }
        };
        TenantReport {
            name: spec.name.clone(),
            weight: spec.weight,
            queue_depth: spec.queue_depth as u64,
            submitted: self.submitted,
            admitted: self.submitted - self.rejected,
            rejected: self.rejected,
            completed: self.completed,
            slo_violations: self.slo_violations,
            p50_us,
            p99_us,
            max_us,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            // The `Option` from `throughput_bps` flows straight into the
            // report: a zero-span run shows `null`, not a bogus rate.
            achieved_gbps: throughput_bps(self.bytes_in, makespan).map(bps_to_gbps),
        }
    }
}

/// One tenant's row in the serving report.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Weighted-fair share.
    pub weight: u32,
    /// Admission-control queue depth.
    pub queue_depth: u64,
    /// Requests the tenant's load generator offered.
    pub submitted: u64,
    /// Requests that passed admission control.
    pub admitted: u64,
    /// Requests refused with a typed rejection.
    pub rejected: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Completions whose latency exceeded the tenant's SLO.
    pub slo_violations: u64,
    /// Median completion latency in simulated microseconds (`null` when
    /// nothing completed).
    pub p50_us: Option<f64>,
    /// 99th-percentile completion latency (nearest rank).
    pub p99_us: Option<f64>,
    /// Worst completion latency.
    pub max_us: Option<f64>,
    /// Input bytes streamed on behalf of this tenant.
    pub bytes_in: u64,
    /// Output bytes produced for this tenant.
    pub bytes_out: u64,
    /// Input throughput over the whole run span (`null` when the span is
    /// zero — undefined, not zero).
    pub achieved_gbps: Option<f64>,
}

/// The full serving report: run-wide figures plus one row per tenant.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Load-generator seed.
    pub seed: u64,
    /// Total simulated span from t = 0 to the last completion, in
    /// microseconds.
    pub makespan_us: f64,
    /// Simulated time the device spent executing requests.
    pub device_busy_us: f64,
    /// `device_busy / makespan` (`null` for a zero-span run).
    pub utilization: Option<f64>,
    /// Completions across all tenants.
    pub total_completed: u64,
    /// Rejections across all tenants.
    pub total_rejected: u64,
    /// Genuine device executions (the rest were memoized).
    pub executions: u64,
    /// Per-tenant rows, in tenant-id order.
    pub tenants: Vec<TenantReport>,
}

/// Index of the nearest-rank `p`th percentile among `n >= 1` sorted
/// values.
fn nearest_rank(n: usize, p: usize) -> usize {
    (n - 1) * p / 100
}

fn ps_to_us(ps: u64) -> f64 {
    ps as f64 * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalModel;

    fn spec() -> TenantSpec {
        TenantSpec::new(
            "t",
            4,
            ArrivalModel::Open {
                mean_gap: SimDur::from_us(1),
                requests: 10,
            },
        )
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // 1..=100 us → p50 at index 49 (50 us), p99 at index 98 (99 us).
        let mut m = TenantMetrics::default();
        for us in 1..=100u64 {
            m.on_submission(true);
            m.on_completion(
                SimTime::ZERO,
                SimTime::from_us(us),
                10,
                1,
                Some(SimDur::from_us(90)),
            );
        }
        let row = m.finish(&spec(), SimDur::from_us(100));
        assert_eq!(row.p50_us, Some(50.0));
        assert_eq!(row.p99_us, Some(99.0));
        assert_eq!(row.max_us, Some(100.0));
        assert_eq!(row.slo_violations, 10, "91..=100 us exceed the 90 us SLO");
        assert_eq!(row.completed, 100);
        assert!(row.achieved_gbps.is_some());
    }

    #[test]
    fn selected_percentiles_match_a_sorted_nearest_rank() {
        let mut rng = crate::SplitMix64::new(5);
        for n in [1usize, 2, 3, 100, 101] {
            let ascending: Vec<u64> = (0..n as u64).map(|i| 1_000 * (i / 3 + 1)).collect();
            let mut shuffled = ascending.clone();
            for i in (1..n).rev() {
                shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let distinct: Vec<u64> = (1..=n as u64).map(|i| 7_000 * i).collect();
            let reversed: Vec<u64> = distinct.iter().rev().copied().collect();
            for order in [ascending, shuffled, reversed] {
                let mut sorted = order.clone();
                sorted.sort_unstable();
                let us = |idx: usize| Some(ps_to_us(sorted[idx]));
                let mut m = TenantMetrics::default();
                for &ps in &order {
                    m.on_completion(SimTime::ZERO, SimTime::from_ps(ps), 0, 0, None);
                }
                let row = m.finish(&spec(), SimDur::from_us(1));
                assert_eq!(row.p50_us, us((n - 1) * 50 / 100), "p50, n = {n}");
                assert_eq!(row.p99_us, us((n - 1) * 99 / 100), "p99, n = {n}");
                assert_eq!(row.max_us, us(n - 1), "max, n = {n}");
            }
        }
    }

    #[test]
    fn empty_tenant_reports_null_not_zero_or_nan() {
        let mut m = TenantMetrics::default();
        m.on_submission(false);
        let row = m.finish(&spec(), SimDur::ZERO);
        assert_eq!(row.submitted, 1);
        assert_eq!(row.rejected, 1);
        assert_eq!(row.p50_us, None);
        assert_eq!(row.max_us, None);
        // Zero makespan: throughput is undefined, and the report says so.
        assert_eq!(row.achieved_gbps, None);
        let json = serde_json::to_string(&row).unwrap();
        assert!(json.contains("\"p50_us\":null"));
        assert!(json.contains("\"achieved_gbps\":null"));
    }
}
