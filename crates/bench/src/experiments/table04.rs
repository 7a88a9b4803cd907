//! Table IV: the evaluated engine configurations.

use crate::report;
use assasin_core::{CoreConfig, EngineKind};
use assasin_mem::CacheGeometry;
use serde::Serialize;
use std::fmt;

/// One configuration row.
#[derive(Debug, Clone, Serialize)]
pub struct ConfigRow {
    /// Engine label.
    pub engine: String,
    /// Where storage data comes from.
    pub data_source: String,
    /// Number of engines.
    pub cores: usize,
    /// Clock frequency, GHz.
    pub freq_ghz: f64,
    /// Memory architecture summary.
    pub mem_arch: String,
}

/// The Table IV report.
#[derive(Debug, Clone, Serialize)]
pub struct Table04Report {
    /// All six configurations.
    pub rows: Vec<ConfigRow>,
}

/// One cache of Table IV, e.g. `L1D 32KB/8W`.
fn cache(name: &str, g: CacheGeometry) -> String {
    format!("{name} {}KB/{}W", g.size_bytes >> 10, g.ways)
}

fn mem_arch(cfg: &CoreConfig) -> String {
    let mut parts = Vec::new();
    match cfg.kind {
        EngineKind::Baseline | EngineKind::Prefetch => {
            parts.push(cache("L1D", CacheGeometry::L1D));
            parts.push(cache("L2", CacheGeometry::L2));
            if cfg.kind == EngineKind::Prefetch {
                parts.push("DCPT prefetcher".into());
            }
        }
        EngineKind::AssasinSp => {
            parts.push(format!("{}KB scratchpad", cfg.scratchpad_bytes >> 10));
            parts.push(format!(
                "{}KB I + {}KB O ping-pong staging",
                cfg.staging_bytes >> 10,
                cfg.staging_bytes >> 10
            ));
        }
        EngineKind::AssasinSb | EngineKind::AssasinSbCache => {
            if cfg.kind == EngineKind::AssasinSbCache {
                parts.push(cache("L1D", CacheGeometry::L1D));
            }
            parts.push(format!("{}KB scratchpad", cfg.scratchpad_bytes >> 10));
            let sb = cfg.streambuffer;
            parts.push(format!(
                "{}KB I + {}KB O streambuffer (S={} P={})",
                sb.capacity_bytes() >> 10,
                sb.capacity_bytes() >> 10,
                sb.streams,
                sb.pages_per_stream
            ));
        }
        EngineKind::Udp => {
            parts.push(format!("{}KB lane scratchpad", cfg.scratchpad_bytes >> 10));
        }
    }
    parts.join(", ")
}

/// Builds the table.
pub fn run() -> Table04Report {
    let rows = EngineKind::ALL
        .into_iter()
        .map(|kind| {
            let cfg = CoreConfig::for_kind(kind);
            ConfigRow {
                engine: kind.label().to_string(),
                data_source: if kind.bypasses_dram() {
                    "Flash (streambuffer/staging)".into()
                } else {
                    "DRAM (8GB/s)".into()
                },
                cores: 8,
                freq_ghz: cfg.clock.freq_hz() / 1e9,
                mem_arch: mem_arch(&cfg),
            }
        })
        .collect();
    Table04Report { rows }
}

impl fmt::Display for Table04Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table IV: configurations of in-SSD compute engines")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.engine.clone(),
                    r.data_source.clone(),
                    r.cores.to_string(),
                    format!("{:.1} GHz", r.freq_ghz),
                    r.mem_arch.clone(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            report::table(
                &["engine", "data source", "#", "freq", "memory architecture"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_shapes() {
        let t = run();
        assert_eq!(t.rows.len(), 6);
        let sb = t.rows.iter().find(|r| r.engine == "AssasinSb").unwrap();
        assert!(sb.mem_arch.contains("S=8 P=2"));
        assert!(sb.data_source.contains("Flash"));
        let base = t.rows.iter().find(|r| r.engine == "Baseline").unwrap();
        assert!(base.mem_arch.contains("L2 256KB/16W"));
        let sbc = t.rows.iter().find(|r| r.engine == "AssasinSb$").unwrap();
        assert!(sbc.mem_arch.starts_with("L1D 32KB/8W, 64KB scratchpad"));
    }
}
