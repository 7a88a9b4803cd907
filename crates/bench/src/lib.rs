//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section VI).
//!
//! Each experiment lives in [`experiments`] as a `run(&Scale) -> Report`
//! function whose report type implements `Display` (the paper's rows) and
//! `serde::Serialize` (for `EXPERIMENTS.md` regeneration). The
//! `all_experiments` binary is the one way to run them: it runs the full
//! evaluation and writes text + JSON reports under `reports/`, and
//! `all_experiments --filter <task>` runs one part of it.
//!
//! | `--filter` task | reproduces |
//! |---|---|
//! | `table02` | Table II in execution (every kernel through the SSD) |
//! | `table04` | Table IV (engine configurations) |
//! | `fig05` | Section III example + Figure 5 decomposition |
//! | `fig13` | Figure 13 (Stat/RAID4/RAID6/AES throughput) |
//! | `fig14` | Figure 14 (Parse-Select-Filter pipeline) |
//! | `fig15` | Figure 15 (22-query end-to-end latency) |
//! | `fig16` | Figures 16, 17 and 18 (scaling, utilization, per-channel throughput) |
//! | `fig19` | Section VI-E (crossbar vs channel-local under skew) |
//! | `fig20` | Figure 20 (memory-structure access times) |
//! | `fig21` | Figures 21 and 22 (timing-adjusted throughput, power/area efficiency) |
//! | `table05` | Table V (component power and area) |
//! | `ablations` | Design-choice ablations |
//! | `reliability` | Reliability sweep (NAND fault injection, DESIGN.md §12) |
//! | `fig_array` | Multi-device array scaling, degraded reads, rebuild storms (DESIGN.md §15) |
//! | `fig_serving` | Multi-tenant serving (DESIGN.md §16) |

pub mod bundles;
pub mod experiments;
pub mod gate;
pub mod provider;
pub mod report;
pub mod runner;
pub mod scale;
pub mod sweep;

pub use scale::Scale;
