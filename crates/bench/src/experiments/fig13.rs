//! Figure 13: standalone-function throughput across the six engines.
//!
//! Stat, RAID4, RAID6 and AES over a flat binary array, in increasing
//! compute intensity. Paper shape: AssasinSp/Sb deliver 1.3–2.0x over
//! Baseline on the first three (memory-bound) functions, Sb beats Sp by
//! ~10% via the stream ISA, Sb == Sb$ (state fits the scratchpad), and the
//! advantage shrinks as compute intensity grows (AES).

use crate::bundles;
use crate::report;
use crate::runner::LoadedImage;
use crate::sweep;
use crate::Scale;
use assasin_core::EngineKind;
use serde::Serialize;
use std::fmt;

/// One engine's measurement for one function.
#[derive(Debug, Clone, Serialize)]
pub struct Entry {
    /// Engine label (Table IV).
    pub engine: String,
    /// Input throughput, GB/s.
    pub gbps: f64,
    /// Speedup over Baseline.
    pub speedup: f64,
    /// DRAM bytes moved per input byte.
    pub dram_per_byte: f64,
}

/// One function's row of entries.
#[derive(Debug, Clone, Serialize)]
pub struct FunctionRow {
    /// Function name.
    pub name: String,
    /// Entries in Table IV engine order.
    pub entries: Vec<Entry>,
}

/// The Figure 13 (or 21, when adjusted) report.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Report {
    /// Whether Section VI-F timing adjustment was applied.
    pub adjusted: bool,
    /// Per-function results.
    pub functions: Vec<FunctionRow>,
}

fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt) >> 8) as u8)
        .collect()
}

/// The standalone workloads: `(name, input streams)`.
pub fn workloads(scale: &Scale) -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let n = scale.standalone_bytes;
    vec![
        ("stat", vec![pattern(n, 1)]),
        ("raid4", (0..4).map(|s| pattern(n / 4, 10 + s)).collect()),
        ("raid6", (0..4).map(|s| pattern(n / 8, 20 + s)).collect()),
        ("aes", vec![pattern(scale.aes_bytes, 30)]),
    ]
}

fn bundle_for(name: &str) -> assasin_ssd::KernelBundle {
    match name {
        "stat" => bundles::stat_bundle(),
        "raid4" => bundles::raid4_bundle(),
        "raid6" => bundles::raid6_bundle(),
        "aes" => bundles::aes_bundle(),
        other => panic!("unknown standalone function {other}"),
    }
}

/// Runs the standalone sweep (shared by Figures 13 and 21).
///
/// Every (function, engine) pair is an independent sweep point; speedups
/// over Baseline are derived after reassembly (`EngineKind::ALL` puts
/// Baseline first in each row). Points sharing a workload share a flash
/// load: each function's streams are preconditioned onto one device image
/// and every engine point forks a copy-on-write device off it, instead of
/// re-loading the same bytes six times.
pub fn run_with(scale: &Scale, adjusted: bool) -> Fig13Report {
    let wl = workloads(scale);
    let indices: Vec<usize> = (0..wl.len()).collect();
    let points = sweep::grid(&indices, &EngineKind::ALL);
    let measured = sweep::run_forked(
        &points,
        |&(wi, _)| wi,
        |&(wi, _)| {
            let (name, streams) = &wl[wi];
            LoadedImage::precondition(streams).unwrap_or_else(|e| panic!("{name} load: {e}"))
        },
        |&(wi, engine), image| {
            let name = wl[wi].0;
            let r = image
                .offload(engine, adjusted, bundle_for(name))
                .unwrap_or_else(|e| panic!("{name} on {engine:?}: {e}"));
            (r.throughput_gbps(), r.dram_per_input_byte())
        },
    );
    let functions = sweep::rows_of(measured, EngineKind::ALL.len())
        .into_iter()
        .zip(&wl)
        .map(|(row, (name, _))| {
            let baseline_gbps = row[0].0;
            let entries = EngineKind::ALL
                .iter()
                .zip(row)
                .map(|(engine, (gbps, dram_per_byte))| Entry {
                    engine: engine.label().to_string(),
                    gbps,
                    speedup: if baseline_gbps > 0.0 {
                        gbps / baseline_gbps
                    } else {
                        0.0
                    },
                    dram_per_byte,
                })
                .collect();
            FunctionRow {
                name: name.to_string(),
                entries,
            }
        })
        .collect();
    Fig13Report {
        adjusted,
        functions,
    }
}

/// Runs Figure 13 (nominal timing).
pub fn run(scale: &Scale) -> Fig13Report {
    run_with(scale, false)
}

impl Fig13Report {
    /// The speedup of `engine` over Baseline for `function`.
    pub fn speedup(&self, function: &str, engine: &str) -> Option<f64> {
        self.functions
            .iter()
            .find(|f| f.name == function)?
            .entries
            .iter()
            .find(|e| e.engine == engine)
            .map(|e| e.speedup)
    }
}

impl fmt::Display for Fig13Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let title = if self.adjusted {
            "Figure 21 (standalone, timing-adjusted)"
        } else {
            "Figure 13: standalone function throughput (GB/s)"
        };
        writeln!(f, "{title}")?;
        let mut headers = vec!["function"];
        if let Some(first) = self.functions.first() {
            headers.extend(first.entries.iter().map(|e| e.engine.as_str()));
        }
        let rows: Vec<Vec<String>> =
            self.functions
                .iter()
                .map(|row| {
                    let mut cells = vec![row.name.clone()];
                    cells.extend(row.entries.iter().map(|e| {
                        format!("{} ({})", report::gbps(e.gbps), report::ratio(e.speedup))
                    }));
                    cells
                })
                .collect();
        write!(f, "{}", report::table(&headers, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure13_shape_holds() {
        let r = run(&Scale::test_scale());
        // Memory-bound functions: ASSASIN wins clearly.
        for func in ["stat", "raid4"] {
            let sb = r.speedup(func, "AssasinSb").unwrap();
            assert!(sb > 1.25, "{func}: Sb speedup {sb}");
            let sp = r.speedup(func, "AssasinSp").unwrap();
            assert!(sb >= sp * 0.99, "{func}: Sb ({sb}) >= Sp ({sp})");
        }
        // Sb == Sb$ when state fits the scratchpad.
        for func in ["stat", "raid4", "raid6", "aes"] {
            let sb = r.speedup(func, "AssasinSb").unwrap();
            let sbc = r.speedup(func, "AssasinSb$").unwrap();
            assert!((sb - sbc).abs() / sb < 0.05, "{func}: Sb {sb} vs Sb$ {sbc}");
        }
        // Compute intensity shrinks the benefit: AES speedup below stat's.
        let aes = r.speedup("aes", "AssasinSb").unwrap();
        let stat = r.speedup("stat", "AssasinSb").unwrap();
        assert!(aes < stat, "aes {aes} < stat {stat}");
        assert!(aes >= 0.95, "aes at least matches baseline, got {aes}");
    }
}
