//! Simulation-as-a-service: a long-lived multi-tenant front-end over
//! the simulated computational SSD.
//!
//! The crates below this one answer "how fast is one request?"; this
//! crate answers the operator's question — "what happens when N tenants
//! share the device?". It multiplexes tenant streams of `scomp`
//! submissions onto one [`Ssd`](assasin_ssd::Ssd) (or
//! [`SsdArray`](assasin_array::SsdArray)) in deterministic virtual time,
//! with:
//!
//! - **Admission control** — bounded per-tenant queues; overflow is a
//!   typed [`Response::Rejected`], never a panic or a silent drop
//!   ([`transport`]).
//! - **Weighted-fair scheduling** at request-dispatch granularity, in
//!   pure integer arithmetic ([`sched`]).
//! - **Latency SLO accounting** — per-tenant p50/p99/max and violation
//!   counts from simulated timestamps only ([`metrics`]).
//! - **Seeded load generation** — open- and closed-loop arrival models
//!   over workload mixes, bit-stable across platforms ([`loadgen`]).
//!
//! The whole stack shares one determinism contract (spelled out in
//! [`server`]): the same `(config, seed)` serializes to byte-identical
//! report JSON at any thread count, which the serving determinism suite
//! property-tests.

pub mod config;
pub mod error;
pub mod instance;
pub mod loadgen;
pub mod metrics;
pub mod sched;
pub mod server;
pub mod transport;

pub use config::{ArrivalModel, ServeConfig, TenantSpec};
pub use error::ServeError;
pub use instance::{ArrayInstance, Instance, ServiceProfile, SsdInstance};
pub use loadgen::{SplitMix64, TenantLoad};
pub use metrics::{ServeReport, TenantReport};
pub use sched::WeightedFair;
pub use server::serve;
pub use transport::{RejectReason, Response, Submission, TenantQueues};
