//! Section III motivating example + Figure 5 cycle decomposition.
//!
//! One Baseline core running the Filter function over TPC-H lineitem
//! tuples staged in SSD DRAM. The paper reports 0.63 GB/s — far below a
//! flash channel — with the cycle decomposition dominated by memory
//! stalls, and derives a >= 25.6 GB/s DRAM requirement at 12.8 GB/s flash.

use crate::bundles::filter_bundle;
use crate::report;
use crate::runner::{offload, ssd_with};
use crate::Scale;
use assasin_core::EngineKind;
use assasin_kernels::query::FilterParams;
use assasin_workloads::{lineitem_cols, TableId, TpchGen};
use serde::Serialize;
use std::fmt;

/// The filter the motivating example runs: one-year shipdate window.
pub fn motivating_filter() -> FilterParams {
    FilterParams {
        tuple_words: TableId::Lineitem.width() as u32,
        pred_word: lineitem_cols::SHIPDATE,
        lo: 365,
        hi: 730,
    }
}

/// The report for the Section III example.
#[derive(Debug, Clone, Serialize)]
pub struct Fig05Report {
    /// Single-core Baseline filter throughput, GB/s (paper: 0.63).
    pub throughput_gbps: f64,
    /// Fraction of cycles retiring instructions.
    pub busy_frac: f64,
    /// Fraction stalled on L1 latency.
    pub l1_frac: f64,
    /// Fraction stalled on L2 hits.
    pub l2_frac: f64,
    /// Fraction stalled on DRAM (compulsory misses of streaming data).
    pub dram_frac: f64,
    /// DRAM traffic per input byte on the Baseline data path (paper: 2x ->
    /// the 25.6 GB/s requirement at 12.8 GB/s flash).
    pub dram_traffic_per_byte: f64,
    /// The implied DRAM bandwidth requirement at 12.8 GB/s flash, GB/s.
    pub dram_requirement_gbps: f64,
}

/// Runs the experiment: one Baseline core filters lineitem.
pub fn run(scale: &Scale) -> Fig05Report {
    let gen = TpchGen::new(scale.sf.max(0.002), scale.seed);
    let data = gen.table(TableId::Lineitem).to_binary();
    let mut ssd = ssd_with(EngineKind::Baseline, 1, false, false);
    let result = offload(
        &mut ssd,
        filter_bundle(motivating_filter()),
        std::slice::from_ref(&data),
    )
    .expect("filter offload completes");
    let b = result.total_breakdown();
    let total = b.total().max(1) as f64;
    let per_byte = result.dram_per_input_byte();
    Fig05Report {
        throughput_gbps: result.throughput_gbps(),
        busy_frac: b.busy as f64 / total,
        l1_frac: b.stall_l1 as f64 / total,
        l2_frac: b.stall_l2 as f64 / total,
        dram_frac: (b.stall_dram + b.stall_stream) as f64 / total,
        dram_traffic_per_byte: per_byte,
        dram_requirement_gbps: per_byte * 12.8,
    }
}

impl fmt::Display for Fig05Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section III example: Filter on 1 Baseline core = {} GB/s (paper: 0.63 GB/s)",
            report::gbps(self.throughput_gbps)
        )?;
        writeln!(f, "Figure 5 cycle decomposition:")?;
        let rows = vec![
            vec![
                "busy".to_string(),
                format!("{:.1}%", self.busy_frac * 100.0),
            ],
            vec![
                "L1 stall".to_string(),
                format!("{:.1}%", self.l1_frac * 100.0),
            ],
            vec![
                "L2 stall".to_string(),
                format!("{:.1}%", self.l2_frac * 100.0),
            ],
            vec![
                "DRAM stall".to_string(),
                format!("{:.1}%", self.dram_frac * 100.0),
            ],
        ];
        write!(f, "{}", report::table(&["component", "cycles"], &rows))?;
        writeln!(
            f,
            "DRAM traffic: {:.2} bytes/byte -> {} GB/s DRAM needed at 12.8 GB/s flash (paper: >= 25.6)",
            self.dram_traffic_per_byte,
            report::gbps(self.dram_requirement_gbps)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_wall_shows_up() {
        let r = run(&Scale::test_scale());
        // Well below a flash channel (1.6-3.2 GB/s)...
        assert!(r.throughput_gbps < 1.6, "throughput {}", r.throughput_gbps);
        // ... dominated by memory stalls ...
        assert!(
            r.dram_frac + r.l2_frac > r.busy_frac,
            "memory stalls must dominate: busy {} l2 {} dram {}",
            r.busy_frac,
            r.l2_frac,
            r.dram_frac
        );
        // ... with ~2x DRAM traffic (staging + compute reads).
        assert!(
            (1.5..=3.0).contains(&r.dram_traffic_per_byte),
            "traffic {}",
            r.dram_traffic_per_byte
        );
        assert!(r.dram_requirement_gbps > 16.0);
    }
}
