//! The serving front-end: a virtual-time event loop multiplexing tenant
//! streams onto one device instance.
//!
//! # Determinism contract
//!
//! The loop advances a single virtual clock and never reads wall time;
//! every tie is broken by a fixed rule, so the same `(config, seed)`
//! produces the same report bytes at any thread count and on any
//! platform:
//!
//! - **Arrivals before dispatch.** All submissions due at or before the
//!   next dispatch moment are admitted (in tenant-id order, then client
//!   order) before a dispatch decision is made at that moment.
//! - **Dispatch moment.** The device dispatches at
//!   `max(device_free, earliest queued arrival)` — it never idles while
//!   work is queued, and never time-travels.
//! - **Eligibility.** A tenant competes for a dispatch at time `t` only
//!   if its queue head arrived at or before `t`.
//! - **Tiebreak.** Equal virtual work breaks to the lowest tenant id
//!   ([`WeightedFair::pick`]).
//!
//! # Cached event times
//!
//! The loop keeps two per-tenant arrays of picosecond times: `next[t]`,
//! tenant `t`'s next arrival, and `head[t]`, the arrival of its queue
//! head (`u64::MAX` for none). `next[t]` changes only when tenant `t`'s
//! load pops or takes a response, `head[t]` only when a submission lands
//! in its empty queue or a dispatch pops it, and each is refreshed right
//! there. A turn is then two minimums over the tenants followed by
//! either one admission instant or one dispatch; no stream is re-peeked
//! and no queue re-scanned. `tests/loop_equivalence.rs` pins the report
//! to a reference loop that does re-scan every stream and queue on every
//! turn.
//!
//! # Memoization
//!
//! `Ssd::scomp` quiesces the device to t = 0 per request, so a
//! workload's [`ServiceProfile`] is a pure function of the workload.
//! With [`ServeConfig::memoize`] on (the default), each workload runs
//! once on the real device and subsequent requests replay its profile —
//! a thousand-request serving sweep costs a handful of device
//! executions. The `memoize_is_observationally_equivalent` test and the
//! serving determinism suite pin that this is invisible in the report.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::instance::{Instance, ServiceProfile};
use crate::loadgen::TenantLoad;
use crate::metrics::{ServeReport, TenantMetrics};
use crate::sched::WeightedFair;
use crate::transport::TenantQueues;
use assasin_sim::{SimDur, SimTime};

/// Runs one serving session to completion and reports per-tenant SLO
/// statistics.
///
/// # Errors
///
/// [`ServeError::BadConfig`] / [`ServeError::UnknownWorkload`] for an
/// inconsistent setup, or the backing device's typed failure. Admission
/// rejections are *not* errors: they are counted per tenant and (for
/// closed-loop tenants) fed back as responses.
pub fn serve(instance: &mut dyn Instance, cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    cfg.validate()?;
    let registered = instance.workload_count();
    for tenant in &cfg.tenants {
        if let Some(&(workload, _)) = tenant.mix.iter().find(|(w, _)| *w >= registered) {
            return Err(ServeError::UnknownWorkload {
                workload,
                registered,
            });
        }
    }

    let n = cfg.tenants.len();
    let mut loads: Vec<TenantLoad> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| TenantLoad::new(cfg.seed, i, spec))
        .collect();
    let mut queues = TenantQueues::new(cfg.tenants.iter().map(|t| t.queue_depth).collect());
    let mut sched = WeightedFair::new(cfg.tenants.iter().map(|t| t.weight).collect());
    let mut metrics: Vec<TenantMetrics> = (0..n).map(|_| TenantMetrics::default()).collect();
    let mut profiles: Vec<Option<ServiceProfile>> = vec![None; registered];
    // Cached event times in picoseconds, `NONE` when there is none.
    let mut next: Vec<u64> = loads.iter().map(|l| ps_or_none(l.peek())).collect();
    let mut head = vec![NONE; n];

    let mut device_free = SimTime::ZERO;
    let mut device_busy = SimDur::ZERO;
    let mut last_completion = SimTime::ZERO;
    let mut executions = 0u64;
    let mut total_completed = 0u64;
    let mut total_rejected = 0u64;

    loop {
        // One scalar pass for both minimums: two separate `fold`s over
        // the arrays measured slower than the rescanning loop they
        // replace, at four tenants.
        let (mut next_arrival, mut earliest_head) = (NONE, NONE);
        for (&arrival, &queued) in next.iter().zip(&head) {
            next_arrival = next_arrival.min(arrival);
            earliest_head = earliest_head.min(queued);
        }
        if next_arrival == NONE && earliest_head == NONE {
            break;
        }
        // With nothing queued this is `NONE`, so the next arrival is
        // admitted; otherwise arrivals due by the dispatch moment are
        // admitted first, since they change backlog and eligibility.
        let dispatch_ps = device_free.as_ps().max(earliest_head);

        if next_arrival <= dispatch_ps {
            // Admit every submission due at `at`, in tenant-id order
            // (ties within a tenant pop in client order, which is
            // `TenantLoad::pop`'s rule). Rejections are typed outcomes:
            // counted, and fed back to closed-loop clients so a rejected
            // attempt still consumes its slot.
            let at = SimTime::from_ps(next_arrival);
            for tenant in 0..n {
                if next[tenant] != next_arrival {
                    continue;
                }
                let load = &mut loads[tenant];
                while load.peek() == Some(at) {
                    let sub = load.pop().expect("peeked submission pops");
                    let admitted = queues.submit(sub).is_ok();
                    metrics[tenant].on_submission(admitted);
                    if admitted {
                        head[tenant] = head[tenant].min(next_arrival);
                        sched.on_backlog(tenant);
                    } else {
                        total_rejected += 1;
                        load.on_response(sub.client, at);
                    }
                }
                next[tenant] = ps_or_none(load.peek());
            }
            continue;
        }

        let dispatch_at = SimTime::from_ps(dispatch_ps);
        let eligible = (0..n).filter(|&t| head[t] <= dispatch_ps);
        let tenant = sched
            .pick(eligible)
            .expect("the earliest queue head is always eligible at the dispatch moment");
        let sub = queues.pop(tenant).expect("picked tenant has queued work");
        head[tenant] = ps_or_none(queues.head_arrival(tenant));
        if head[tenant] == NONE {
            sched.on_drain(tenant);
        }

        let profile = match (cfg.memoize, profiles[sub.workload]) {
            (true, Some(p)) => p,
            _ => {
                let p = instance.execute(sub.workload)?;
                profiles[sub.workload] = Some(p);
                executions += 1;
                p
            }
        };

        let completion = dispatch_at + profile.elapsed;
        device_free = completion;
        device_busy += profile.elapsed;
        last_completion = last_completion.max(completion);
        total_completed += 1;
        sched.charge(tenant, profile.elapsed.as_ps());
        metrics[tenant].on_completion(
            sub.arrival,
            completion,
            profile.bytes_in,
            profile.bytes_out,
            cfg.tenants[tenant].slo,
        );
        loads[tenant].on_response(sub.client, completion);
        next[tenant] = ps_or_none(loads[tenant].peek());
    }

    let makespan = last_completion.since(SimTime::ZERO);
    let tenants = metrics
        .into_iter()
        .zip(&cfg.tenants)
        .map(|(m, spec)| m.finish(spec, makespan))
        .collect();
    Ok(ServeReport {
        seed: cfg.seed,
        makespan_us: makespan.as_ps() as f64 * 1e-6,
        device_busy_us: device_busy.as_ps() as f64 * 1e-6,
        utilization: if makespan.is_zero() {
            None
        } else {
            Some(device_busy.as_secs_f64() / makespan.as_secs_f64())
        },
        total_completed,
        total_rejected,
        executions,
        tenants,
    })
}

/// The cached-time sentinel for "no such event".
const NONE: u64 = u64::MAX;

fn ps_or_none(t: Option<SimTime>) -> u64 {
    t.map_or(NONE, SimTime::as_ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrivalModel, TenantSpec};

    /// A fixed-cost fake device: workload `w` always takes `costs[w]`
    /// and moves `1000 * (w + 1)` bytes in, half that out.
    struct StubInstance {
        costs: Vec<SimDur>,
        executions: u64,
    }

    impl StubInstance {
        fn new(costs: Vec<SimDur>) -> Self {
            StubInstance {
                costs,
                executions: 0,
            }
        }
    }

    impl Instance for StubInstance {
        fn workload_count(&self) -> usize {
            self.costs.len()
        }
        fn workload_name(&self, _w: usize) -> &str {
            "stub"
        }
        fn execute(&mut self, w: usize) -> Result<ServiceProfile, ServeError> {
            self.executions += 1;
            Ok(ServiceProfile {
                elapsed: self.costs[w],
                bytes_in: 1000 * (w as u64 + 1),
                bytes_out: 500 * (w as u64 + 1),
            })
        }
    }

    fn open(mean_us: u64, requests: u32) -> ArrivalModel {
        ArrivalModel::Open {
            mean_gap: SimDur::from_us(mean_us),
            requests,
        }
    }

    #[test]
    fn saturating_tenants_share_by_weight() {
        // Service takes 10 us; both tenants offer a request every ~1 us,
        // so the device is saturated and WFQ decides who waits.
        let mut inst = StubInstance::new(vec![SimDur::from_us(10)]);
        let cfg = ServeConfig::new(
            11,
            vec![
                TenantSpec::new("light", 64, open(1, 60)),
                TenantSpec::new("heavy", 64, open(1, 60)).with_weight(3),
            ],
        );
        let report = serve(&mut inst, &cfg).unwrap();
        assert_eq!(report.total_completed, 120);
        let light = &report.tenants[0];
        let heavy = &report.tenants[1];
        // 3x the share => the heavy tenant drains its backlog first, so
        // its whole latency distribution sits well below the light one
        // (the median, mid-backlog, shows the 3:1 service ratio hardest).
        assert!(
            heavy.p99_us.unwrap() < light.p99_us.unwrap() * 0.75,
            "heavy p99 {:?} vs light p99 {:?}",
            heavy.p99_us,
            light.p99_us
        );
        assert!(
            heavy.p50_us.unwrap() < light.p50_us.unwrap() / 2.0,
            "heavy p50 {:?} vs light p50 {:?}",
            heavy.p50_us,
            light.p50_us
        );
    }

    #[test]
    fn overload_rejects_at_the_queue_bound_and_accounts_every_request() {
        // 10 us service vs ~1 us arrivals with depth 2: most of the
        // offered load must bounce off admission control, typed.
        let mut inst = StubInstance::new(vec![SimDur::from_us(10)]);
        let cfg = ServeConfig::new(5, vec![TenantSpec::new("hot", 2, open(1, 100))]);
        let report = serve(&mut inst, &cfg).unwrap();
        let t = &report.tenants[0];
        assert_eq!(t.submitted, 100);
        assert_eq!(t.admitted + t.rejected, t.submitted);
        assert_eq!(t.completed, t.admitted);
        assert!(t.rejected > 50, "rejected {}", t.rejected);
        assert_eq!(report.total_rejected, t.rejected);
    }

    #[test]
    fn closed_loop_serves_every_client_attempt() {
        let mut inst = StubInstance::new(vec![SimDur::from_us(3)]);
        let cfg = ServeConfig::new(
            9,
            vec![TenantSpec::new(
                "cl",
                8,
                ArrivalModel::Closed {
                    concurrency: 4,
                    think: SimDur::from_us(2),
                    requests_per_client: 5,
                },
            )],
        );
        let report = serve(&mut inst, &cfg).unwrap();
        let t = &report.tenants[0];
        assert_eq!(t.submitted, 20);
        // Depth 8 >= concurrency 4: a closed loop can never overflow.
        assert_eq!(t.rejected, 0);
        assert_eq!(t.completed, 20);
        assert!(report.utilization.unwrap() <= 1.0);
    }

    #[test]
    fn slo_violations_count_late_completions() {
        let mut inst = StubInstance::new(vec![SimDur::from_us(10)]);
        let mut cfg = ServeConfig::new(
            3,
            vec![TenantSpec::new("s", 64, open(1, 20)).with_slo(SimDur::from_us(15))],
        );
        let report = serve(&mut inst, &cfg).unwrap();
        // Saturated open loop: queueing delay grows, so late requests
        // blow the 15 us SLO while the earliest ones meet it.
        let t = &report.tenants[0];
        assert!(t.slo_violations > 0 && t.slo_violations < t.completed);
        // Without an SLO nothing is a violation.
        cfg.tenants[0].slo = None;
        let mut inst = StubInstance::new(vec![SimDur::from_us(10)]);
        assert_eq!(serve(&mut inst, &cfg).unwrap().tenants[0].slo_violations, 0);
    }

    #[test]
    fn memoize_is_observationally_equivalent_but_cheaper() {
        let tenants = || {
            vec![
                TenantSpec::new("a", 16, open(5, 30)).with_mix(vec![(0, 2), (1, 1)]),
                TenantSpec::new("b", 16, open(7, 30)),
            ]
        };
        let mut on_cfg = ServeConfig::new(21, tenants());
        on_cfg.memoize = true;
        let mut off_cfg = ServeConfig::new(21, tenants());
        off_cfg.memoize = false;

        let mut on_inst = StubInstance::new(vec![SimDur::from_us(4), SimDur::from_us(9)]);
        let mut off_inst = StubInstance::new(vec![SimDur::from_us(4), SimDur::from_us(9)]);
        let on = serve(&mut on_inst, &on_cfg).unwrap();
        let off = serve(&mut off_inst, &off_cfg).unwrap();

        // Identical serving behaviour...
        assert_eq!(
            serde_json::to_string(&on.tenants).unwrap(),
            serde_json::to_string(&off.tenants).unwrap()
        );
        assert_eq!(on.makespan_us, off.makespan_us);
        assert_eq!(on.total_completed, off.total_completed);
        // ...at a fraction of the device executions.
        assert_eq!(on.executions, 2, "one per distinct workload");
        assert_eq!(off.executions, off.total_completed);
        assert_eq!(on_inst.executions, 2);
        assert_eq!(off_inst.executions, off.total_completed);
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different() {
        let cfg = |seed| {
            ServeConfig::new(
                seed,
                vec![
                    TenantSpec::new("a", 8, open(2, 40)),
                    TenantSpec::new("b", 8, open(3, 40)).with_weight(2),
                ],
            )
        };
        let run = |seed| {
            let mut inst = StubInstance::new(vec![SimDur::from_us(6)]);
            serde_json::to_string(&serve(&mut inst, &cfg(seed)).unwrap()).unwrap()
        };
        assert_eq!(run(17), run(17));
        assert_ne!(run(17), run(18));
    }

    #[test]
    fn unknown_workload_in_a_mix_is_rejected_up_front() {
        let mut inst = StubInstance::new(vec![SimDur::from_us(1)]);
        let cfg = ServeConfig::new(
            1,
            vec![TenantSpec::new("a", 8, open(1, 5)).with_mix(vec![(3, 1)])],
        );
        match serve(&mut inst, &cfg) {
            Err(ServeError::UnknownWorkload {
                workload: 3,
                registered: 1,
            }) => {}
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
        assert_eq!(inst.executions, 0);
    }
}
