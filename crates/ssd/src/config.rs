//! SSD-level configuration (Section VI-A).

use assasin_core::{CoreConfig, EngineKind};
use assasin_flash::{FaultConfig, FlashGeometry, FlashTiming};
use assasin_sim::SimDur;

/// Host link bandwidth in bytes/second (PCIe Gen4 x4, 8 GB/s).
pub const PCIE_BW: f64 = 8.0e9;
/// Host link base latency.
pub const PCIE_LATENCY: SimDur = SimDur::from_us(1);
/// Bounded-slack co-simulation epoch (DESIGN.md §11).
pub const EPOCH: SimDur = SimDur::from_us(10);
/// Issue delay added per SSD-level media re-read (controller backoff
/// before shifting thresholds and trying the page again; DESIGN.md §12).
pub const MEDIA_BACKOFF: SimDur = SimDur::from_us(100);

/// Configuration of one computational SSD.
#[derive(Debug, Clone, Copy)]
pub struct SsdConfig {
    /// Flash array shape (8 channels x 1 GB/s by default).
    pub geometry: FlashGeometry,
    /// Flash timing parameters.
    pub timing: FlashTiming,
    /// SSD DRAM effective bandwidth in bytes/second (LPDDR5, 8 GB/s).
    pub dram_bw: f64,
    /// Crossbar per-port bandwidth in bytes/second (each ASSASIN core's
    /// ingress port; provisioned at the aggregate flash rate so a port can
    /// absorb a whole-array burst).
    pub crossbar_port_bw: f64,
    /// Number of compute engines (8 in Table IV).
    pub n_cores: usize,
    /// Which Table IV engine architecture to model.
    pub engine: EngineKind,
    /// Apply the Section VI-F timing adjustment (Figure 21).
    pub adjusted_timing: bool,
    /// Channel-local compute (the Figure 7 application-specific
    /// comparator): core `i` only consumes pages that live on channel
    /// `i % channels`, with no crossbar redistribution. Used by the
    /// Section VI-E skew experiment.
    pub channel_local: bool,
    /// Firmware polling granularity (added to every streambuffer refill).
    pub firmware_poll: SimDur,
    /// Hang guard: abort with [`SsdError::Stuck`](crate::SsdError::Stuck)
    /// after this many co-simulation rounds.
    pub max_rounds: u64,
    /// Overrides the streambuffer ring depth P (pages per stream) for
    /// ablation studies; `None` keeps Table IV's P=2.
    pub sb_pages: Option<u32>,
    /// NAND fault injection (disabled by default; DESIGN.md §12).
    pub fault: FaultConfig,
    /// SSD-level re-read attempts after an uncorrectable media error
    /// (transient-failure retry; each re-read runs the full flash-level
    /// read-retry ladder again, [`MEDIA_BACKOFF`] later).
    pub media_retries: u32,
}

impl SsdConfig {
    /// The paper's evaluated SSD with the given engine architecture.
    pub fn engine_config(engine: EngineKind) -> SsdConfig {
        SsdConfig {
            geometry: FlashGeometry::default(),
            timing: FlashTiming::default(),
            dram_bw: 8.0e9,
            crossbar_port_bw: 8.0e9,
            n_cores: 8,
            engine,
            adjusted_timing: false,
            channel_local: false,
            firmware_poll: SimDur::from_us(1),
            max_rounds: 50_000_000,
            sb_pages: None,
            fault: FaultConfig::disabled(),
            media_retries: 2,
        }
    }

    /// A small geometry for fast unit tests.
    pub fn small_for_tests(engine: EngineKind) -> SsdConfig {
        SsdConfig {
            geometry: FlashGeometry {
                channels: 4,
                chips_per_channel: 8,
                planes_per_chip: 1,
                blocks_per_plane: 64,
                pages_per_block: 64,
                page_bytes: 4096,
            },
            n_cores: 4,
            ..SsdConfig::engine_config(engine)
        }
    }

    /// The per-core configuration implied by this SSD config.
    pub fn core_config(&self) -> CoreConfig {
        let mut cfg = CoreConfig::for_kind(self.engine);
        if let Some(p) = self.sb_pages {
            cfg.streambuffer.pages_per_stream = p;
        }
        if self.adjusted_timing {
            cfg.timing_adjusted()
        } else {
            cfg
        }
    }

    /// Aggregate flash read bandwidth in bytes/second.
    pub fn flash_bw(&self) -> f64 {
        self.geometry.channels as f64 * self.timing.channel_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_defaults() {
        let c = SsdConfig::engine_config(EngineKind::AssasinSb);
        assert_eq!(c.n_cores, 8);
        assert_eq!(c.geometry.channels, 8);
        assert!((c.flash_bw() - 8.0e9).abs() < 1.0);
        assert!((c.dram_bw - 8.0e9).abs() < 1.0);
    }

    #[test]
    fn adjusted_timing_propagates() {
        let mut c = SsdConfig::engine_config(EngineKind::AssasinSb);
        c.adjusted_timing = true;
        assert_eq!(c.core_config().clock.period_ps(), 890);
    }
}
