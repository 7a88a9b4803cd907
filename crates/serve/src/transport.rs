//! The transport layer: typed submissions/responses and the bounded
//! per-tenant queues between the load generators and the device
//! instance.
//!
//! This is the queue half of the transport/instance split: admission
//! control happens here, at arrival time, with a typed
//! [`Response::Rejected`] — never a panic, never silent drop — while the
//! instance half (`crate::instance`) only ever sees work that was
//! admitted.

use assasin_sim::SimTime;
use std::collections::VecDeque;

/// One tenant request submitted to the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Submitting tenant.
    pub tenant: usize,
    /// Client index within the tenant (closed-loop bookkeeping).
    pub client: u32,
    /// Which registered workload to run.
    pub workload: usize,
    /// Arrival time on the front-end (simulated).
    pub arrival: SimTime,
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's queue was at its configured depth.
    QueueFull {
        /// The depth that was hit.
        depth: usize,
    },
    /// The submission named a tenant the front-end does not serve.
    UnknownTenant,
}

/// The front-end's answer to one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// The request ran to completion on the device.
    Completed {
        /// The original submission.
        sub: Submission,
        /// When the device started it (queue wait is `start - arrival`).
        start: SimTime,
        /// When the device finished it (latency is `completion - arrival`).
        completion: SimTime,
        /// Input bytes the device streamed.
        bytes_in: u64,
        /// Output bytes the device produced.
        bytes_out: u64,
    },
    /// The request was refused admission at arrival time.
    Rejected {
        /// The original submission.
        sub: Submission,
        /// Why.
        reason: RejectReason,
    },
}

/// Bounded FIFO queues, one per tenant.
#[derive(Debug)]
pub struct TenantQueues {
    depths: Vec<usize>,
    queues: Vec<VecDeque<Submission>>,
}

impl TenantQueues {
    /// Queues with the given per-tenant depths.
    pub fn new(depths: Vec<usize>) -> Self {
        let queues = depths.iter().map(|_| VecDeque::new()).collect();
        TenantQueues { depths, queues }
    }

    /// Admits or rejects one submission; rejection is a typed outcome,
    /// not an error.
    pub fn submit(&mut self, sub: Submission) -> Result<(), RejectReason> {
        let Some(q) = self.queues.get_mut(sub.tenant) else {
            return Err(RejectReason::UnknownTenant);
        };
        let depth = self.depths[sub.tenant];
        if q.len() >= depth {
            return Err(RejectReason::QueueFull { depth });
        }
        q.push_back(sub);
        Ok(())
    }

    /// Pops the oldest queued submission for `tenant`.
    pub fn pop(&mut self, tenant: usize) -> Option<Submission> {
        self.queues.get_mut(tenant).and_then(|q| q.pop_front())
    }

    /// Arrival time of `tenant`'s oldest queued submission.
    pub fn head_arrival(&self, tenant: usize) -> Option<SimTime> {
        self.queues
            .get(tenant)
            .and_then(|q| q.front())
            .map(|s| s.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(tenant: usize, arrival_ps: u64) -> Submission {
        Submission {
            tenant,
            client: 0,
            workload: 0,
            arrival: SimTime::from_ps(arrival_ps),
        }
    }

    #[test]
    fn admission_is_bounded_with_typed_rejections() {
        let mut q = TenantQueues::new(vec![2, 1]);
        assert_eq!(q.submit(sub(0, 1)), Ok(()));
        assert_eq!(q.submit(sub(0, 2)), Ok(()));
        assert_eq!(
            q.submit(sub(0, 3)),
            Err(RejectReason::QueueFull { depth: 2 })
        );
        assert_eq!(q.submit(sub(2, 1)), Err(RejectReason::UnknownTenant));
        // Popping frees a slot.
        assert_eq!(q.pop(0).map(|s| s.arrival.as_ps()), Some(1));
        assert_eq!(q.submit(sub(0, 4)), Ok(()));
        assert_eq!(q.head_arrival(0), Some(SimTime::from_ps(2)));
        assert_eq!(
            q.submit(sub(0, 5)),
            Err(RejectReason::QueueFull { depth: 2 })
        );
        assert_eq!(q.head_arrival(1), None);
    }
}
