//! Serving experiment: tail latency, admission control, and fairness
//! when N tenants share one computational SSD (DESIGN.md §16).
//!
//! Everything here is *simulated* time from the serving front-end's
//! virtual clock, so the report is byte-identical across runs, thread
//! counts, and machines (pinned by a determinism test and the serve
//! crate's property suite). Three scenarios over one device loaded with
//! a `standalone_bytes` object and two registered workloads (scan and
//! stat):
//!
//! 1. **Load curve** — tenants offer 0.5x..4x of the device's measured
//!    capacity; per-tenant p50/p99 stay near the service time below
//!    saturation, then queueing dominates and admission control starts
//!    rejecting at the configured queue depth. This is the classic
//!    tail-latency-vs-offered-load curve, per tenant.
//! 2. **Fairness** — one hog tenant offers 2x capacity alone while two
//!    victims offer 0.25x each; the same mix runs unweighted and with
//!    the victims weighted 4x. Weighted-fair scheduling pulls the
//!    victims' tail back near their no-contention latency at the hog's
//!    expense.
//! 3. **Closed loop** — a fleet of clients that wait for each response
//!    before resubmitting; offered load self-throttles to capacity, so
//!    nothing is rejected and utilization approaches 1.
//!
//! The load curve runs `TENANTS` open-loop tenants with per-tenant
//! queues `QUEUE_DEPTH` deep, seeded by the scale's seed.

use crate::bundles;
use crate::report;
use crate::Scale;
use assasin_core::EngineKind;
use assasin_serve::{
    serve, ArrivalModel, Instance, ServeConfig, ServeReport, SsdInstance, TenantReport, TenantSpec,
};
use assasin_sim::SimDur;
use assasin_ssd::{ScompRequest, Ssd, SsdConfig};
use serde::Serialize;
use std::fmt;

/// Offered-load multipliers for the load curve (x the measured
/// single-request capacity).
pub const LOAD_MULTIPLIERS: [f64; 5] = [0.5, 0.8, 1.2, 2.0, 4.0];

/// Requests each load-curve tenant offers per point.
const REQUESTS_PER_TENANT: u32 = 50;

/// Tenants on the load curve.
const TENANTS: usize = 2;

/// Per-tenant admission queue depth in every scenario.
const QUEUE_DEPTH: usize = 16;

/// One offered-load point.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Aggregate offered load as a multiple of device capacity.
    pub offered_x: f64,
    /// Per-tenant mean inter-arrival gap, simulated microseconds.
    pub mean_gap_us: f64,
    /// Device busy fraction over the point's makespan.
    pub utilization: Option<f64>,
    /// Simulated span of the point, microseconds.
    pub makespan_us: f64,
    /// Per-tenant SLO rows (p50/p99/max, rejections, violations).
    pub tenants: Vec<TenantReport>,
}

/// One fairness scheme's outcome (same offered load, different weights).
#[derive(Debug, Clone, Serialize)]
pub struct FairnessRow {
    /// Scheme name.
    pub scheme: String,
    /// The hog tenant's row.
    pub hog: TenantReport,
    /// The victim tenants' rows.
    pub victims: Vec<TenantReport>,
}

/// The serving experiment report.
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    /// Load-generator seed.
    pub seed: u64,
    /// Load-curve tenants.
    pub tenants: usize,
    /// Per-tenant admission-control queue depth.
    pub queue_depth: usize,
    /// Load-curve arrival shape (`open` or `closed`).
    pub arrival: String,
    /// Measured single-request service time of the scan workload,
    /// simulated microseconds (the capacity the multipliers scale).
    pub base_service_us: f64,
    /// Tail latency and rejections vs offered load.
    pub load_curve: Vec<LoadPoint>,
    /// Unweighted vs weighted outcomes under a hog tenant.
    pub fairness: Vec<FairnessRow>,
    /// The closed-loop self-throttling run.
    pub closed_loop: ServeReport,
}

fn pattern(n: usize, seed: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) >> 8) as u8)
        .collect()
}

/// One device, loaded once, serving a scan and a stat workload.
fn build_instance(scale: &Scale) -> SsdInstance {
    let mut inst = SsdInstance::new(Ssd::new(SsdConfig::engine_config(EngineKind::AssasinSb)));
    let data = pattern(scale.standalone_bytes, scale.seed);
    let bytes = data.len() as u64;
    let lpas = inst
        .ssd_mut()
        .load_object(0, &data)
        .unwrap_or_else(|e| panic!("serving: load object: {e}"));
    let scan_lpas = lpas.clone();
    inst.register("scan", move || {
        ScompRequest::new(bundles::scan_bundle(), vec![scan_lpas.clone()])
            .with_stream_bytes(vec![bytes])
    });
    inst.register("stat", move || {
        ScompRequest::new(bundles::stat_bundle(), vec![lpas.clone()]).with_stream_bytes(vec![bytes])
    });
    inst
}

/// Load-curve arrival model at one offered multiplier: open loop, with
/// the aggregate rate fixed at `mult * capacity` across `tenants`.
fn arrival_at(mult: f64, tenants: usize, base: SimDur) -> ArrivalModel {
    ArrivalModel::Open {
        mean_gap: SimDur::from_ps((base.as_ps() as f64 * tenants as f64 / mult) as u64),
        requests: REQUESTS_PER_TENANT,
    }
}

fn run_serving(instance: &mut SsdInstance, cfg: &ServeConfig) -> ServeReport {
    serve(instance, cfg).unwrap_or_else(|e| panic!("serving run: {e}"))
}

/// Runs the serving experiment.
pub fn run(scale: &Scale) -> ServingReport {
    let (tenants, queue_depth, seed) = (TENANTS, QUEUE_DEPTH, scale.seed);

    let mut instance = build_instance(scale);
    // Capacity calibration: one genuine execution of the scan workload
    // (the device quiesces per request, so this is side-effect-free).
    let base = instance
        .execute(0)
        .unwrap_or_else(|e| panic!("serving: calibration: {e}"))
        .elapsed;
    let slo = base * 5;

    // Scenario 1: the load curve.
    let load_curve = LOAD_MULTIPLIERS
        .iter()
        .map(|&mult| {
            let specs = (0..tenants)
                .map(|i| {
                    // Alternate scan-heavy and stat-heavy mixes so the
                    // tenants are not interchangeable.
                    let mix = if i % 2 == 0 {
                        vec![(0, 3), (1, 1)]
                    } else {
                        vec![(0, 1), (1, 3)]
                    };
                    TenantSpec::new(
                        format!("tenant{i}"),
                        queue_depth,
                        arrival_at(mult, tenants, base),
                    )
                    .with_mix(mix)
                    .with_slo(slo)
                })
                .collect();
            let r = run_serving(&mut instance, &ServeConfig::new(seed, specs));
            LoadPoint {
                offered_x: mult,
                mean_gap_us: base.as_ps() as f64 * tenants as f64 / mult * 1e-6,
                utilization: r.utilization,
                makespan_us: r.makespan_us,
                tenants: r.tenants,
            }
        })
        .collect();

    // Scenario 2: fairness under a hog. Same offered load both times;
    // only the weights change. The victims offer 0.4x capacity each —
    // enough that they stay backlogged under contention, which is the
    // regime where weights bite: an unweighted 1/3 share starves them
    // (their queues grow for the whole run) while a 4x weight grants
    // 4/9 > 0.4 and their tails collapse back toward the service time.
    let fairness = [("unweighted", 1u32), ("victims-weighted-4x", 4)]
        .iter()
        .map(|&(scheme, victim_weight)| {
            let hog = TenantSpec::new(
                "hog",
                queue_depth,
                ArrivalModel::Open {
                    mean_gap: base / 2,
                    requests: 80,
                },
            )
            .with_slo(slo);
            let victim = |name: &str| {
                TenantSpec::new(
                    name,
                    queue_depth,
                    ArrivalModel::Open {
                        mean_gap: base * 5 / 2,
                        requests: 24,
                    },
                )
                .with_mix(vec![(1, 1)])
                .with_weight(victim_weight)
                .with_slo(slo)
            };
            let cfg = ServeConfig::new(seed, vec![hog, victim("victim0"), victim("victim1")]);
            let mut r = run_serving(&mut instance, &cfg);
            let victims = r.tenants.split_off(1);
            FairnessRow {
                scheme: scheme.to_string(),
                hog: r.tenants.pop().expect("hog row"),
                victims,
            }
        })
        .collect();

    // Scenario 3: the closed loop.
    let closed_cfg = ServeConfig::new(
        seed,
        vec![TenantSpec::new(
            "closed",
            queue_depth,
            ArrivalModel::Closed {
                concurrency: 8,
                think: base,
                requests_per_client: 8,
            },
        )
        .with_mix(vec![(0, 1), (1, 1)])
        .with_slo(slo)],
    );
    let closed_loop = run_serving(&mut instance, &closed_cfg);

    ServingReport {
        seed,
        tenants,
        queue_depth,
        arrival: "open".to_string(),
        base_service_us: base.as_ps() as f64 * 1e-6,
        load_curve,
        fairness,
        closed_loop,
    }
}

fn opt_us(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |us| format!("{us:.1}"))
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Serving: {} tenants, depth {}, {} arrivals, {:.1} us/request capacity (seed {:#x})",
            self.tenants, self.queue_depth, self.arrival, self.base_service_us, self.seed
        )?;
        let headers = vec![
            "offered x",
            "tenant",
            "p50 us",
            "p99 us",
            "max us",
            "rejected",
            "SLO viol",
            "util",
        ];
        let rows: Vec<Vec<String>> = self
            .load_curve
            .iter()
            .flat_map(|p| {
                p.tenants.iter().map(move |t| {
                    vec![
                        format!("{:.1}", p.offered_x),
                        t.name.clone(),
                        opt_us(t.p50_us),
                        opt_us(t.p99_us),
                        opt_us(t.max_us),
                        format!("{}/{}", t.rejected, t.submitted),
                        t.slo_violations.to_string(),
                        p.utilization.map_or("-".into(), report::ratio),
                    ]
                })
            })
            .collect();
        write!(f, "{}", report::table(&headers, &rows))?;

        writeln!(f, "\nFairness under a 2x-capacity hog")?;
        let headers = vec!["scheme", "tenant", "weight", "p50 us", "p99 us", "rejected"];
        let rows: Vec<Vec<String>> = self
            .fairness
            .iter()
            .flat_map(|row| {
                std::iter::once(&row.hog)
                    .chain(row.victims.iter())
                    .map(move |t| {
                        vec![
                            row.scheme.clone(),
                            t.name.clone(),
                            t.weight.to_string(),
                            opt_us(t.p50_us),
                            opt_us(t.p99_us),
                            format!("{}/{}", t.rejected, t.submitted),
                        ]
                    })
            })
            .collect();
        write!(f, "{}", report::table(&headers, &rows))?;

        let c = &self.closed_loop.tenants[0];
        writeln!(
            f,
            "\nClosed loop: {} clients completed {}/{} requests, p99 {} us, \
             0 rejections expected (got {}), utilization {}",
            8,
            c.completed,
            c.submitted,
            opt_us(c.p99_us),
            c.rejected,
            self.closed_loop
                .utilization
                .map_or("-".into(), report::ratio),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_curve_fairness_and_closed_loop_move_the_right_way() {
        let r = run(&Scale::test_scale());
        assert!(r.base_service_us > 0.0);
        assert_eq!(r.load_curve.len(), LOAD_MULTIPLIERS.len());

        // Below saturation: p99 near the service time, nothing rejected.
        let low = &r.load_curve[0];
        let high = r.load_curve.last().unwrap();
        for t in &low.tenants {
            assert_eq!(t.rejected, 0, "0.5x load never overflows depth 16");
            assert!(t.completed > 0);
        }
        // Past saturation: queueing inflates the tail and admission
        // control engages.
        let low_p99 = low.tenants[0].p99_us.unwrap();
        let high_p99 = high.tenants[0].p99_us.unwrap();
        assert!(
            high_p99 > 2.0 * low_p99,
            "tail grows with load: {low_p99} -> {high_p99}"
        );
        assert!(
            high.tenants.iter().any(|t| t.rejected > 0),
            "4x offered load must hit the queue bound"
        );
        assert!(high.utilization.unwrap() > low.utilization.unwrap());

        // Weights pull the victims' tail down under the same hog.
        let unweighted = &r.fairness[0];
        let weighted = &r.fairness[1];
        let worst = |row: &FairnessRow| {
            row.victims
                .iter()
                .map(|v| v.p99_us.unwrap())
                .fold(0.0, f64::max)
        };
        assert!(
            worst(weighted) < worst(unweighted),
            "weighted victims p99 {} vs unweighted {}",
            worst(weighted),
            worst(unweighted)
        );

        // Closed loop self-throttles: every attempt admitted and served.
        let c = &r.closed_loop.tenants[0];
        assert_eq!(c.submitted, 64);
        assert_eq!(c.rejected, 0);
        assert_eq!(c.completed, 64);
        assert!(r.closed_loop.utilization.unwrap() <= 1.0);
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = serde_json::to_string(&run(&Scale::test_scale())).unwrap();
        let b = serde_json::to_string(&run(&Scale::test_scale())).unwrap();
        assert_eq!(a, b);
    }
}
