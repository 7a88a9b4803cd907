//! Weighted-fair scheduling at request-dispatch granularity.
//!
//! Each tenant accumulates *virtual work*: device time charged at
//! `1/weight`, so a weight-2 tenant pays half price and therefore wins
//! dispatch twice as often under contention. All arithmetic is integer
//! (`u128` accumulators, a fixed-point `SCALE`), which keeps the pick
//! order bit-identical across platforms and thread counts — the
//! determinism contract the serving report's byte-identity tests pin.

/// Fixed-point scale for virtual-work charges: one picosecond of service
/// at weight 1 costs `SCALE` units, so integer division by any weight in
/// `1..=u32::MAX` keeps 20 bits of fraction.
const SCALE: u64 = 1 << 20;

/// Weighted-fair dispatch order over a fixed tenant set.
#[derive(Debug)]
pub struct WeightedFair {
    weights: Vec<u32>,
    vwork: Vec<u128>,
    /// Whether the tenant was backlogged at its last `on_backlog` call —
    /// used to detect idle→backlogged transitions for catch-up.
    backlogged: Vec<bool>,
}

impl WeightedFair {
    /// A scheduler over `weights.len()` tenants (weights must be ≥ 1;
    /// `ServeConfig::validate` enforces this upstream).
    pub fn new(weights: Vec<u32>) -> Self {
        let n = weights.len();
        WeightedFair {
            weights,
            vwork: vec![0; n],
            backlogged: vec![false; n],
        }
    }

    /// Notes that `tenant` now has queued work. On an idle→backlogged
    /// transition its virtual work is caught up to the minimum among
    /// already-backlogged tenants, so a long-idle tenant cannot bank
    /// credit and then starve everyone else.
    pub fn on_backlog(&mut self, tenant: usize) {
        if self.backlogged[tenant] {
            return;
        }
        let floor = self
            .vwork
            .iter()
            .zip(&self.backlogged)
            .filter(|(_, b)| **b)
            .map(|(v, _)| *v)
            .min();
        if let Some(floor) = floor {
            self.vwork[tenant] = self.vwork[tenant].max(floor);
        }
        self.backlogged[tenant] = true;
    }

    /// Notes that `tenant`'s queue drained.
    pub fn on_drain(&mut self, tenant: usize) {
        self.backlogged[tenant] = false;
    }

    /// Picks the eligible tenant with the least virtual work, breaking
    /// ties by lowest tenant id (the deterministic tiebreak).
    pub fn pick(&self, eligible: impl Iterator<Item = usize>) -> Option<usize> {
        eligible.min_by_key(|&t| (self.vwork[t], t))
    }

    /// Charges `tenant` for `elapsed_ps` picoseconds of device time.
    ///
    /// The scaled charge is computed in `u64` whenever it fits (service
    /// times below 2^44 ps, about 17.6 simulated seconds) and in `u128`
    /// otherwise; both give the same exact quotient.
    pub fn charge(&mut self, tenant: usize, elapsed_ps: u64) {
        let weight = self.weights[tenant];
        self.vwork[tenant] += match elapsed_ps.checked_mul(SCALE) {
            Some(scaled) => (scaled / weight as u64) as u128,
            None => elapsed_ps as u128 * SCALE as u128 / weight as u128,
        };
    }

    /// Current virtual work (tests and debugging).
    pub fn vwork(&self, tenant: usize) -> u128 {
        self.vwork[tenant]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `rounds` dispatches where every tenant is always eligible and
    /// every request takes `cost_ps`; returns per-tenant dispatch counts.
    fn contend(weights: Vec<u32>, rounds: usize, cost_ps: u64) -> Vec<usize> {
        let n = weights.len();
        let mut sched = WeightedFair::new(weights);
        for t in 0..n {
            sched.on_backlog(t);
        }
        let mut counts = vec![0usize; n];
        for _ in 0..rounds {
            let t = sched.pick(0..n).unwrap();
            counts[t] += 1;
            sched.charge(t, cost_ps);
        }
        counts
    }

    #[test]
    fn dispatches_are_proportional_to_weights() {
        let counts = contend(vec![1, 2, 4], 700, 1_000_000);
        // 700 rounds split 1:2:4 → 100:200:400.
        assert_eq!(counts, vec![100, 200, 400]);
    }

    #[test]
    fn equal_vwork_ties_break_by_lowest_tenant_id() {
        let sched = WeightedFair::new(vec![1, 1, 1]);
        // All start at vwork 0.
        assert_eq!(sched.pick(0..3), Some(0));
        assert_eq!(sched.pick([2, 1].into_iter()), Some(1));
        assert_eq!(sched.pick(std::iter::empty()), None);
    }

    #[test]
    fn idle_tenant_catches_up_instead_of_banking_credit() {
        let mut sched = WeightedFair::new(vec![1, 1]);
        sched.on_backlog(0);
        // Tenant 0 runs alone for a while.
        for _ in 0..50 {
            sched.charge(0, 1_000_000);
        }
        // Tenant 1 wakes up: it is caught up to tenant 0's vwork, not
        // credited 50 requests of head start.
        sched.on_backlog(1);
        assert_eq!(sched.vwork(1), sched.vwork(0));
        // From here contention is 1:1 (tenant 1 wins the first tie? no —
        // equal vwork ties break to tenant 0).
        assert_eq!(sched.pick(0..2), Some(0));
    }

    #[test]
    fn charge_is_exact_on_both_sides_of_the_u64_boundary() {
        for elapsed in [0, 1, 999_983, (1 << 44) - 1, 1 << 44, u64::MAX] {
            for weight in [1, 3, 5, u32::MAX] {
                let mut sched = WeightedFair::new(vec![weight]);
                sched.charge(0, elapsed);
                let want = elapsed as u128 * (1u128 << 20) / weight as u128;
                assert_eq!(sched.vwork(0), want, "{elapsed} ps at weight {weight}");
            }
        }
    }

    #[test]
    fn drain_and_rebacklog_does_not_reset_progress() {
        let mut sched = WeightedFair::new(vec![1, 1]);
        sched.on_backlog(0);
        sched.on_backlog(1);
        sched.charge(0, 10);
        sched.on_drain(0);
        sched.on_backlog(0);
        // Tenant 0 keeps its higher vwork (max with the floor), so tenant
        // 1 is next.
        assert_eq!(sched.pick(0..2), Some(1));
    }
}
