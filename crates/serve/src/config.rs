//! Serving configuration: tenant specs and arrival models.

use crate::error::ServeError;
use assasin_sim::SimDur;

/// How one tenant's clients submit requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Open loop: `requests` submissions arrive on their own schedule —
    /// seeded-uniform gaps in `[mean_gap/2, 3*mean_gap/2)` — whether or
    /// not earlier ones finished. Offered load is `1/mean_gap`
    /// regardless of service times, so queues grow without bound past
    /// device capacity (the tail-latency regime).
    Open {
        /// Mean inter-arrival gap (integer picoseconds; no float drift).
        mean_gap: SimDur,
        /// Total submissions this tenant offers.
        requests: u32,
    },
    /// Closed loop: `concurrency` clients that each wait for their
    /// previous response (completion *or* rejection), think for `think`,
    /// then submit again, `requests_per_client` times each. Offered
    /// load self-throttles to device capacity.
    Closed {
        /// Concurrent clients.
        concurrency: u32,
        /// Pause between a response and the next submission.
        think: SimDur,
        /// Submissions per client.
        requests_per_client: u32,
    },
}

impl ArrivalModel {
    /// Total submissions this model offers.
    pub fn offered(&self) -> u64 {
        match *self {
            ArrivalModel::Open { requests, .. } => requests as u64,
            ArrivalModel::Closed {
                concurrency,
                requests_per_client,
                ..
            } => concurrency as u64 * requests_per_client as u64,
        }
    }
}

/// One tenant stream multiplexed onto the device.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (reports).
    pub name: String,
    /// Weighted-fair share (service time is charged at `1/weight`).
    pub weight: u32,
    /// Admission control: queued-but-undispatched requests beyond this
    /// are rejected with a typed response.
    pub queue_depth: usize,
    /// Arrival process.
    pub arrival: ArrivalModel,
    /// Workload mix: `(workload id, pick weight)` over the instance's
    /// registered workloads; each submission draws one.
    pub mix: Vec<(usize, u32)>,
    /// Optional completion-latency SLO; completions above it count as
    /// violations in the report.
    pub slo: Option<SimDur>,
}

impl TenantSpec {
    /// A single-workload tenant with weight 1 and no SLO.
    pub fn new(name: impl Into<String>, queue_depth: usize, arrival: ArrivalModel) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            queue_depth,
            arrival,
            mix: vec![(0, 1)],
            slo: None,
        }
    }

    /// Sets the weighted-fair share.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the workload mix.
    pub fn with_mix(mut self, mix: Vec<(usize, u32)>) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the completion-latency SLO.
    pub fn with_slo(mut self, slo: SimDur) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// A full serving run: tenants plus run-wide settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seeds every tenant's arrival/mix draws (tenant `i` derives its
    /// own stream from `(seed, i)`).
    pub seed: u64,
    /// Memoize per-workload service profiles after the first genuine
    /// device execution. Sound because `Ssd::scomp` quiesces the device
    /// per request — identical requests have identical results (pinned
    /// by equivalence tests) — and it makes thousand-request serving
    /// sweeps affordable.
    pub memoize: bool,
    /// The tenant streams.
    pub tenants: Vec<TenantSpec>,
}

impl ServeConfig {
    /// A memoizing config with the given seed and tenants.
    pub fn new(seed: u64, tenants: Vec<TenantSpec>) -> Self {
        ServeConfig {
            seed,
            memoize: true,
            tenants,
        }
    }

    /// Checks internal consistency (workload ids are checked against the
    /// instance at run time).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.tenants.is_empty() {
            return Err(ServeError::BadConfig("no tenants".into()));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            let fail = |why: String| Err(ServeError::BadConfig(format!("tenant {i}: {why}")));
            if t.weight == 0 {
                return fail("weight must be at least 1".into());
            }
            if t.queue_depth == 0 {
                return fail("queue depth must be at least 1".into());
            }
            if t.mix.is_empty() {
                return fail("empty workload mix".into());
            }
            if t.mix.iter().any(|(_, w)| *w == 0) {
                return fail("mix pick weights must be at least 1".into());
            }
            if t.arrival.offered() == 0 {
                return fail("offers no requests".into());
            }
            if let ArrivalModel::Closed { concurrency, .. } = t.arrival {
                if concurrency == 0 {
                    return fail("closed loop needs at least one client".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_names_the_offending_tenant() {
        let open = ArrivalModel::Open {
            mean_gap: SimDur::from_us(10),
            requests: 5,
        };
        let good = ServeConfig::new(1, vec![TenantSpec::new("a", 4, open)]);
        assert!(good.validate().is_ok());

        assert!(matches!(
            ServeConfig::new(1, vec![]).validate(),
            Err(ServeError::BadConfig(m)) if m.contains("no tenants")
        ));
        let zero_weight = ServeConfig::new(1, vec![TenantSpec::new("a", 4, open).with_weight(0)]);
        assert!(matches!(
            zero_weight.validate(),
            Err(ServeError::BadConfig(m)) if m.contains("tenant 0") && m.contains("weight")
        ));
        let zero_depth = ServeConfig::new(1, vec![TenantSpec::new("a", 0, open)]);
        assert!(matches!(
            zero_depth.validate(),
            Err(ServeError::BadConfig(m)) if m.contains("queue depth")
        ));
        let empty_mix = ServeConfig::new(1, vec![TenantSpec::new("a", 4, open).with_mix(vec![])]);
        assert!(matches!(
            empty_mix.validate(),
            Err(ServeError::BadConfig(m)) if m.contains("mix")
        ));
    }
}
