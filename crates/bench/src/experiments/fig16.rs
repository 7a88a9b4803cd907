//! Figures 16–18: performance scalability (Section VI-D).
//!
//! The dummy byte-scan over the TPC-H dataset: compute throughput vs core
//! count (Figure 16), normalized core utilization (Figure 17), and
//! per-channel throughput balance at 8 cores (Figure 18). Paper shape:
//! linear scaling until the 8 GB/s flash bound, >98% normalized
//! utilization, balanced channels.

use crate::bundles::scan_bundle;
use crate::report;
use crate::runner::LoadedImage;
use crate::sweep;
use crate::Scale;
use assasin_core::EngineKind;
use assasin_workloads::{TableId, TpchGen};
use serde::Serialize;
use std::fmt;

/// One core-count point.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Number of ASSASIN cores.
    pub cores: usize,
    /// Achieved compute throughput, GB/s (Figure 16).
    pub gbps: f64,
    /// Mean raw core utilization over the run.
    pub utilization: f64,
    /// Utilization normalized by the ideal derived from nominal
    /// bandwidths (Figure 17's normalization).
    pub normalized_utilization: f64,
}

/// The scalability report.
#[derive(Debug, Clone, Serialize)]
pub struct Fig16Report {
    /// Bytes scanned at each point.
    pub input_bytes: u64,
    /// Single-core scan rate when data is always available, GB/s
    /// (the paper's "a 1 GHz core achieves 1 GB/s").
    pub core_rate_gbps: f64,
    /// The flash array bound, GB/s.
    pub flash_bound_gbps: f64,
    /// Sweep points.
    pub points: Vec<ScalePoint>,
    /// Per-channel GB/s at the 8-core point (Figure 18).
    pub channel_gbps: Vec<f64>,
}

/// Core counts swept (the paper scales through the flash bound).
pub const CORE_COUNTS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// Runs the sweep.
pub fn run(scale: &Scale) -> Fig16Report {
    // TPC-H data, padded to the scan granularity.
    let gen = TpchGen::new(scale.sf, scale.seed);
    let mut data = gen.table(TableId::Lineitem).to_binary();
    let want = scale.scalability_bytes.next_multiple_of(8);
    while data.len() < want {
        let take = (want - data.len()).min(data.len());
        data.extend_from_within(..take);
    }
    data.truncate(want);

    // Single-core compute rate with instant data (calibration point).
    let core_rate_gbps = {
        use assasin_core::{Core, CoreConfig, SyntheticEnv};
        use assasin_kernels::{scan, AccessStyle};
        let sample = &data[..(1 << 20).min(data.len())];
        let mut env = SyntheticEnv::new(8, 4096);
        env.set_input(0, sample);
        let mut core = Core::new(
            0,
            CoreConfig::assasin_sb(),
            scan::program(AccessStyle::Stream),
            None,
        );
        core.run_to_halt(&mut env);
        sample.len() as f64 / core.cycles() as f64 // bytes/cycle == GB/s at 1 GHz
    };

    // Each core count is an independent sweep point over its own SSD. The
    // dataset is identical across points, so it is loaded onto flash once
    // and every point forks a copy-on-write device off the shared image.
    // Normalization happens after reassembly (it only needs the
    // calibration constant above).
    let image = LoadedImage::precondition(std::slice::from_ref(&data))
        .unwrap_or_else(|e| panic!("scan dataset load: {e}"));
    let measured = sweep::run_points(&CORE_COUNTS, |&cores| {
        let mut ssd = image.fork(EngineKind::AssasinSb, cores, false, false);
        let flash_bound_gbps = ssd.config().flash_bw() / 1e9;
        (ssd.scomp(&image.request(scan_bundle())), flash_bound_gbps)
    });
    let mut points = Vec::new();
    let mut channel_gbps = Vec::new();
    let mut flash_bound_gbps = 8.0;
    for (&cores, (r, bound)) in CORE_COUNTS.iter().zip(measured) {
        let r = r.expect("scan completes");
        let utilization =
            r.per_core.iter().map(|c| c.utilization).sum::<f64>() / r.per_core.len().max(1) as f64;
        let secs = r.elapsed.as_secs_f64();
        let channels: Vec<f64> = r
            .channel_bytes
            .iter()
            .map(|&b| b as f64 / secs / 1e9)
            .collect();
        let gbps = r.throughput_gbps();
        flash_bound_gbps = bound;
        // Ideal utilization: what the nominal bandwidth relationship
        // between cores and channels allows (Figure 17's normalization).
        let ideal = (flash_bound_gbps / (cores as f64 * core_rate_gbps)).min(1.0);
        points.push(ScalePoint {
            cores,
            gbps,
            utilization,
            normalized_utilization: (utilization / ideal).min(1.0),
        });
        if cores == 8 {
            channel_gbps = channels;
        }
    }
    Fig16Report {
        input_bytes: data.len() as u64,
        core_rate_gbps,
        flash_bound_gbps,
        points,
        channel_gbps,
    }
}

impl Fig16Report {
    /// Skew of the per-channel throughput distribution (Figure 18 should
    /// be near zero).
    pub fn channel_skew(&self) -> f64 {
        let counts: Vec<u64> = self
            .channel_gbps
            .iter()
            .map(|&g| (g * 1e6) as u64)
            .collect();
        if counts.len() < 2 {
            return 0.0;
        }
        assasin_ftl::skew::measure_skew(&counts)
    }
}

impl fmt::Display for Fig16Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figures 16+17: scan scalability ({} MiB; core rate {} GB/s; flash bound {} GB/s)",
            self.input_bytes >> 20,
            report::gbps(self.core_rate_gbps),
            report::gbps(self.flash_bound_gbps)
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.cores.to_string(),
                    report::gbps(p.gbps),
                    format!("{:.1}%", p.utilization * 100.0),
                    format!("{:.1}%", p.normalized_utilization * 100.0),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            report::table(&["cores", "GB/s", "util", "normalized util"], &rows)
        )?;
        writeln!(f, "Figure 18: per-channel GB/s at 8 cores")?;
        let rows: Vec<Vec<String>> = self
            .channel_gbps
            .iter()
            .enumerate()
            .map(|(i, g)| vec![format!("ch{i}"), report::gbps(*g)])
            .collect();
        write!(f, "{}", report::table(&["channel", "GB/s"], &rows))?;
        writeln!(
            f,
            "channel skew = {:.4} (0 = perfectly balanced)",
            self.channel_skew()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_linear_then_flash_bound() {
        let mut s = Scale::test_scale();
        s.scalability_bytes = 4 << 20;
        let r = run(&s);
        let by_cores = |n: usize| r.points.iter().find(|p| p.cores == n).expect("swept").gbps;
        // Near-linear from 1 to 4 cores.
        let one = by_cores(1);
        assert!((0.8..=1.3).contains(&one), "1-core scan {one} GB/s");
        assert!(by_cores(4) > 3.0 * one, "4-core scaling");
        // Saturation: 16 cores do not help beyond the flash bound.
        assert!(by_cores(16) <= r.flash_bound_gbps * 1.02);
        assert!(by_cores(16) > r.flash_bound_gbps * 0.80);
        // Unsaturated points keep cores busy (Figure 17).
        let p1 = &r.points[0];
        assert!(
            p1.normalized_utilization > 0.9,
            "1-core normalized utilization {}",
            p1.normalized_utilization
        );
    }

    #[test]
    fn channels_stay_balanced() {
        let mut s = Scale::test_scale();
        s.scalability_bytes = 2 << 20;
        let r = run(&s);
        assert_eq!(r.channel_gbps.len(), 8);
        assert!(r.channel_skew() < 0.05, "skew {}", r.channel_skew());
    }
}
