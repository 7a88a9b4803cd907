//! Section VI-E: sensitivity to flash-layout skew.
//!
//! A compute-bound scan (~0.5 GB/s/core) over datasets laid out with
//! controlled skew, comparing
//! ASSASIN's SSD-level crossbar (any core consumes any channel) against
//! the channel-local architecture of Figure 7 (core i consumes channel i).
//! Paper shape: the crossbar holds throughput nearly flat as skew grows;
//! channel-local compute degrades toward single-channel speed at
//! `Skew = 1`.

use crate::bundles::heavy_scan_bundle;
use crate::report;
use crate::runner::ssd_with;
use crate::sweep;
use crate::Scale;
use assasin_core::EngineKind;
use assasin_ftl::placement::Placement;
use assasin_ftl::skew::measure_skew;
use assasin_ssd::{ScompRequest, ScompResult, Ssd, SsdError};
use serde::Serialize;
use std::fmt;

/// The skew levels evaluated (the paper's "no skew" through "extreme").
pub const SKEWS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One (skew, architecture) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct SkewPoint {
    /// Requested layout skew.
    pub skew: f64,
    /// Skew actually measured on the placed pages.
    pub measured_skew: f64,
    /// Crossbar (ASSASIN) throughput, GB/s.
    pub crossbar_gbps: f64,
    /// Channel-local (Figure 7) throughput, GB/s.
    pub channel_local_gbps: f64,
}

/// The skew-sensitivity report.
#[derive(Debug, Clone, Serialize)]
pub struct Fig19Report {
    /// Bytes scanned per point.
    pub input_bytes: u64,
    /// Sweep points.
    pub points: Vec<SkewPoint>,
}

fn run_one(skew: f64, data: &[u8], channel_local: bool) -> (Result<ScompResult, SsdError>, f64) {
    let mut ssd: Ssd = ssd_with(EngineKind::AssasinSb, 8, false, channel_local);
    let channels = ssd.config().geometry.channels;
    let pages = data
        .len()
        .div_ceil(ssd.config().geometry.page_bytes as usize) as u64;
    if skew > 0.0 {
        ssd.set_placement(Placement::skewed(channels, skew), pages);
    }
    let lpas = ssd.load_object(0, data).expect("dataset fits");
    let measured = measure_skew(&ssd.channel_distribution(&lpas));
    let req = ScompRequest::new(heavy_scan_bundle(), vec![lpas])
        .with_stream_bytes(vec![data.len() as u64]);
    (ssd.scomp(&req), measured)
}

/// Runs the sweep: every (skew, architecture) pair is an independent
/// point; rows pair crossbar and channel-local after reassembly.
pub fn run(scale: &Scale) -> Fig19Report {
    let n = scale.scalability_bytes.next_multiple_of(8);
    let data: Vec<u8> = (0..n).map(|i| (i % 253) as u8).collect();
    let configs = sweep::grid(&SKEWS, &[false, true]);
    let measured = sweep::run_points(&configs, |&(skew, channel_local)| {
        run_one(skew, &data, channel_local)
    });
    let points = sweep::rows_of(measured, 2)
        .into_iter()
        .zip(&SKEWS)
        .map(|(mut row, &skew)| {
            let (local, _) = row.pop().expect("two architectures per row");
            let (crossbar, measured_skew) = row.pop().expect("two architectures per row");
            SkewPoint {
                skew,
                measured_skew,
                crossbar_gbps: crossbar.expect("scan completes").throughput_gbps(),
                channel_local_gbps: local.expect("scan completes").throughput_gbps(),
            }
        })
        .collect();
    Fig19Report {
        input_bytes: data.len() as u64,
        points,
    }
}

impl fmt::Display for Fig19Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section VI-E: layout-skew sensitivity ({} MiB scan)",
            self.input_bytes >> 20
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.skew),
                    format!("{:.2}", p.measured_skew),
                    report::gbps(p.crossbar_gbps),
                    report::gbps(p.channel_local_gbps),
                    report::ratio(p.crossbar_gbps / p.channel_local_gbps),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            report::table(
                &[
                    "skew",
                    "measured",
                    "crossbar GB/s",
                    "channel-local GB/s",
                    "advantage"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_robust_channel_local_is_not() {
        let mut s = Scale::test_scale();
        s.scalability_bytes = 2 << 20;
        let r = run(&s);
        let at = |skew: f64| {
            r.points
                .iter()
                .find(|p| (p.skew - skew).abs() < 1e-9)
                .expect("swept")
        };
        // The FTL realizes the requested skew.
        for p in &r.points {
            assert!((p.measured_skew - p.skew).abs() < 0.05, "{p:?}");
        }
        // At no skew both architectures are comparable.
        let p0 = at(0.0);
        assert!(p0.crossbar_gbps / p0.channel_local_gbps < 1.3);
        // At extreme skew the crossbar degrades only to the hot channel's
        // physical rate (compute pooled over every core) ...
        let p1 = at(1.0);
        assert!(
            p1.crossbar_gbps > 2.0 * p1.channel_local_gbps,
            "crossbar {} vs channel-local {}",
            p1.crossbar_gbps,
            p1.channel_local_gbps
        );
        // ... while channel-local collapses to a single trapped core.
        assert!(
            p1.channel_local_gbps < 0.3 * p0.channel_local_gbps,
            "channel-local {} vs {}",
            p1.channel_local_gbps,
            p0.channel_local_gbps
        );
        // Mid-skew: the crossbar holds a clear advantage too.
        let p5 = at(0.5);
        assert!(p5.crossbar_gbps > 1.5 * p5.channel_local_gbps);
    }
}
