//! `serve()` against a naive reference of the same event loop.
//!
//! The reference below re-peeks every tenant's arrival stream and
//! re-scans every queue head on each turn, charges weighted-fair virtual
//! work in `u128` arithmetic, and takes percentiles from a fully sorted
//! latency vector. It is the loop's definition written out as plainly
//! as possible; `serve()` may cache, select and take integer fast paths,
//! but on every configuration its whole report must serialize to the
//! same bytes.
//!
//! Configurations cover 1–6 tenants, open and closed arrivals, zero-gap
//! arrivals (many submissions at one instant), queue depths 1–32,
//! weights 1–5, random workload mixes, SLOs on and off, memoization on
//! and off, and service times from 0 ps past 2^44 ps, where
//! `elapsed_ps * 2^20` no longer fits in a `u64`.

use assasin_serve::metrics::TenantReport;
use assasin_serve::{
    serve, ArrivalModel, Instance, ServeConfig, ServeError, ServeReport, ServiceProfile,
    SplitMix64, TenantLoad, TenantQueues, TenantSpec,
};
use assasin_sim::stats::{bps_to_gbps, throughput_bps};
use assasin_sim::{SimDur, SimTime};
use proptest::prelude::*;

/// A fake device whose service time depends on the workload and on how
/// many executions came before, so dispatch order shows in the report
/// even with memoization off.
struct StubInstance {
    costs: Vec<u64>,
    calls: u64,
}

impl Instance for StubInstance {
    fn workload_count(&self) -> usize {
        self.costs.len()
    }
    fn workload_name(&self, _w: usize) -> &str {
        "stub"
    }
    fn execute(&mut self, w: usize) -> Result<ServiceProfile, ServeError> {
        self.calls += 1;
        Ok(ServiceProfile {
            elapsed: SimDur::from_ps(self.costs[w] + self.calls % 3 * 1_000),
            bytes_in: 4096 * (w as u64 + 1),
            bytes_out: 64 * (w as u64 + 1) + self.calls % 5,
        })
    }
}

/// The reference weighted-fair scheduler: `u128` charges, linear scans.
struct RefFair {
    weights: Vec<u32>,
    vwork: Vec<u128>,
    backlogged: Vec<bool>,
}

impl RefFair {
    fn on_backlog(&mut self, t: usize) {
        if self.backlogged[t] {
            return;
        }
        let floor = (0..self.vwork.len())
            .filter(|&u| self.backlogged[u])
            .map(|u| self.vwork[u])
            .min();
        if let Some(floor) = floor {
            self.vwork[t] = self.vwork[t].max(floor);
        }
        self.backlogged[t] = true;
    }

    fn charge(&mut self, t: usize, elapsed_ps: u64) {
        self.vwork[t] += elapsed_ps as u128 * (1u128 << 20) / self.weights[t] as u128;
    }
}

#[derive(Default)]
struct RefRow {
    latencies_ps: Vec<u64>,
    submitted: u64,
    rejected: u64,
    completed: u64,
    slo_violations: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// Admits every submission due exactly at `at`, tenant by tenant.
fn ref_admit(
    at: SimTime,
    loads: &mut [TenantLoad],
    queues: &mut TenantQueues,
    fair: &mut RefFair,
    rows: &mut [RefRow],
    total_rejected: &mut u64,
) {
    for t in 0..loads.len() {
        while loads[t].peek() == Some(at) {
            let sub = loads[t].pop().expect("peeked submission pops");
            rows[t].submitted += 1;
            if queues.submit(sub).is_ok() {
                fair.on_backlog(t);
            } else {
                rows[t].rejected += 1;
                *total_rejected += 1;
                loads[t].on_response(sub.client, at);
            }
        }
    }
}

fn nearest_rank_us(sorted_ps: &[u64], p: usize) -> Option<f64> {
    let last = sorted_ps.len().checked_sub(1)?;
    Some(sorted_ps[last * p / 100] as f64 * 1e-6)
}

fn reference(instance: &mut dyn Instance, cfg: &ServeConfig) -> ServeReport {
    let n = cfg.tenants.len();
    let mut loads: Vec<TenantLoad> = (0..n)
        .map(|i| TenantLoad::new(cfg.seed, i, &cfg.tenants[i]))
        .collect();
    let mut queues = TenantQueues::new(cfg.tenants.iter().map(|t| t.queue_depth).collect());
    let mut fair = RefFair {
        weights: cfg.tenants.iter().map(|t| t.weight).collect(),
        vwork: vec![0; n],
        backlogged: vec![false; n],
    };
    let mut rows: Vec<RefRow> = (0..n).map(|_| RefRow::default()).collect();
    let mut profiles: Vec<Option<ServiceProfile>> = vec![None; instance.workload_count()];
    let (mut device_free, mut device_busy, mut last) = (SimTime::ZERO, SimDur::ZERO, SimTime::ZERO);
    let (mut executions, mut total_completed, mut total_rejected) = (0u64, 0u64, 0u64);

    loop {
        let next_arrival = loads.iter().filter_map(|l| l.peek()).min();
        let earliest_head = (0..n).filter_map(|t| queues.head_arrival(t)).min();
        let Some(head) = earliest_head else {
            match next_arrival {
                Some(at) => {
                    let rej = &mut total_rejected;
                    ref_admit(at, &mut loads, &mut queues, &mut fair, &mut rows, rej);
                    continue;
                }
                None => break,
            }
        };
        let dispatch_at = device_free.max(head);
        if let Some(at) = next_arrival.filter(|&at| at <= dispatch_at) {
            let rej = &mut total_rejected;
            ref_admit(at, &mut loads, &mut queues, &mut fair, &mut rows, rej);
            continue;
        }

        let tenant = (0..n)
            .filter(|&t| queues.head_arrival(t).is_some_and(|a| a <= dispatch_at))
            .min_by_key(|&t| (fair.vwork[t], t))
            .expect("the earliest head is eligible");
        let sub = queues.pop(tenant).expect("picked tenant has work");
        if queues.head_arrival(tenant).is_none() {
            fair.backlogged[tenant] = false;
        }
        let profile = match (cfg.memoize, profiles[sub.workload]) {
            (true, Some(p)) => p,
            _ => {
                let p = instance.execute(sub.workload).expect("stub executes");
                profiles[sub.workload] = Some(p);
                executions += 1;
                p
            }
        };
        let completion = dispatch_at + profile.elapsed;
        device_free = completion;
        device_busy += profile.elapsed;
        last = last.max(completion);
        total_completed += 1;
        fair.charge(tenant, profile.elapsed.as_ps());
        let row = &mut rows[tenant];
        let latency = completion.since(sub.arrival);
        row.latencies_ps.push(latency.as_ps());
        row.completed += 1;
        row.bytes_in += profile.bytes_in;
        row.bytes_out += profile.bytes_out;
        if cfg.tenants[tenant].slo.is_some_and(|slo| latency > slo) {
            row.slo_violations += 1;
        }
        loads[tenant].on_response(sub.client, completion);
    }

    let makespan = last.since(SimTime::ZERO);
    let tenants = rows
        .into_iter()
        .zip(&cfg.tenants)
        .map(|(mut r, spec)| {
            r.latencies_ps.sort_unstable();
            TenantReport {
                name: spec.name.clone(),
                weight: spec.weight,
                queue_depth: spec.queue_depth as u64,
                submitted: r.submitted,
                admitted: r.submitted - r.rejected,
                rejected: r.rejected,
                completed: r.completed,
                slo_violations: r.slo_violations,
                p50_us: nearest_rank_us(&r.latencies_ps, 50),
                p99_us: nearest_rank_us(&r.latencies_ps, 99),
                max_us: r.latencies_ps.last().map(|&ps| ps as f64 * 1e-6),
                bytes_in: r.bytes_in,
                bytes_out: r.bytes_out,
                achieved_gbps: throughput_bps(r.bytes_in, makespan).map(bps_to_gbps),
            }
        })
        .collect();
    ServeReport {
        seed: cfg.seed,
        makespan_us: makespan.as_ps() as f64 * 1e-6,
        device_busy_us: device_busy.as_ps() as f64 * 1e-6,
        utilization: (!makespan.is_zero())
            .then(|| device_busy.as_secs_f64() / makespan.as_secs_f64()),
        total_completed,
        total_rejected,
        executions,
        tenants,
    }
}

/// A draw in `0..n` from the case's generator.
fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A time span from one of four regimes: zero, sub-nanosecond to
/// nanosecond, microseconds, or past 2^44 ps (the `u128` charge path).
fn span_ps(rng: &mut SplitMix64) -> u64 {
    match below(rng, 4) {
        0 => 0,
        1 => 1 + below(rng, 5_000),
        2 => 1_000_000 * (1 + below(rng, 50)),
        _ => (1 << 44) + below(rng, 1 << 45),
    }
}

/// A random serving setup: the stub's per-workload costs and the config.
fn random_setup(seed: u64, memoize: bool) -> (Vec<u64>, ServeConfig) {
    let mut rng = SplitMix64::new(seed);
    let workloads = 1 + below(&mut rng, 3) as usize;
    let costs: Vec<u64> = (0..workloads).map(|_| span_ps(&mut rng)).collect();
    let tenants = 1 + below(&mut rng, 6) as usize;
    let specs = (0..tenants)
        .map(|i| {
            let arrival = if below(&mut rng, 3) == 0 {
                ArrivalModel::Closed {
                    concurrency: 1 + below(&mut rng, 5) as u32,
                    think: SimDur::from_ps(span_ps(&mut rng)),
                    requests_per_client: 1 + below(&mut rng, 10) as u32,
                }
            } else {
                ArrivalModel::Open {
                    mean_gap: SimDur::from_ps(span_ps(&mut rng)),
                    requests: 1 + below(&mut rng, 60) as u32,
                }
            };
            let mix = (0..1 + below(&mut rng, 3))
                .map(|_| {
                    let w = below(&mut rng, workloads as u64) as usize;
                    (w, 1 + below(&mut rng, 4) as u32)
                })
                .collect();
            let depth = 1 + below(&mut rng, 32) as usize;
            let spec = TenantSpec::new(format!("t{i}"), depth, arrival)
                .with_weight(1 + below(&mut rng, 5) as u32)
                .with_mix(mix);
            if below(&mut rng, 2) == 0 {
                spec.with_slo(SimDur::from_ps(span_ps(&mut rng)))
            } else {
                spec
            }
        })
        .collect();
    let mut cfg = ServeConfig::new(rng.next_u64(), specs);
    cfg.memoize = memoize;
    (costs, cfg)
}

fn json(report: &ServeReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn serve_matches_the_naive_reference_loop(seed in any::<u64>(), memoize in any::<bool>()) {
        let (costs, cfg) = random_setup(seed, memoize);
        let mut stub = StubInstance { costs: costs.clone(), calls: 0 };
        let got = serve(&mut stub, &cfg).expect("valid config serves");
        let want = reference(&mut StubInstance { costs, calls: 0 }, &cfg);
        prop_assert_eq!(json(&got), json(&want), "config {:?}", cfg);
    }
}

/// The generator reaches the regimes the equivalence is meant to cover;
/// a case mix that never produced them would pass vacuously.
#[test]
fn random_setups_cover_the_edge_regimes() {
    let (mut huge, mut zero_gap, mut closed, mut six, mut slo) = (0, 0, 0, 0, 0);
    for seed in 0..512 {
        let (costs, cfg) = random_setup(seed, true);
        huge += costs.iter().any(|&c| c >= 1 << 44) as u32;
        six += (cfg.tenants.len() == 6) as u32;
        for t in &cfg.tenants {
            slo += t.slo.is_some() as u32;
            match t.arrival {
                ArrivalModel::Open { mean_gap, .. } => zero_gap += mean_gap.is_zero() as u32,
                ArrivalModel::Closed { .. } => closed += 1,
            }
        }
    }
    for (what, count) in [
        ("service past 2^44 ps", huge),
        ("zero-gap open tenants", zero_gap),
        ("closed-loop tenants", closed),
        ("six-tenant configs", six),
        ("tenants with an SLO", slo),
    ] {
        assert!(count >= 10, "{what}: only {count}");
    }
}
