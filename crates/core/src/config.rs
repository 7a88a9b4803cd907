//! Table IV configurations.

use assasin_isa::AccessStyle;
use assasin_mem::StreamBufferConfig;
use assasin_sim::Clock;

/// Which in-SSD compute-engine architecture a core models (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// State-of-the-art general-purpose computational SSD (Figure 4):
    /// data staged in SSD DRAM, accessed through an L1+L2 cache hierarchy.
    Baseline,
    /// Baseline plus the DCPT prefetcher.
    Prefetch,
    /// ASSASIN with conventional ping-pong scratchpads staging flash data
    /// (bypassing DRAM) and a function-state scratchpad.
    AssasinSp,
    /// ASSASIN with the streambuffer and the stream ISA extension.
    AssasinSb,
    /// AssasinSb plus an L1 data cache backed by DRAM for oversized
    /// function state. No evaluated kernel spills state past the
    /// scratchpad, so the model runs it on the streambuffer alone; its L1
    /// appears only in Tables IV and V.
    AssasinSbCache,
    /// The UDP accelerator lane (application-specific comparator),
    /// modeled analytically by [`UdpLane`](crate::UdpLane).
    Udp,
}

impl EngineKind {
    /// All six evaluated configurations, in the paper's order.
    pub const ALL: [EngineKind; 6] = [
        EngineKind::Baseline,
        EngineKind::Udp,
        EngineKind::Prefetch,
        EngineKind::AssasinSp,
        EngineKind::AssasinSb,
        EngineKind::AssasinSbCache,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Baseline => "Baseline",
            EngineKind::Prefetch => "Prefetch",
            EngineKind::AssasinSp => "AssasinSp",
            EngineKind::AssasinSb => "AssasinSb",
            EngineKind::AssasinSbCache => "AssasinSb$",
            EngineKind::Udp => "UDP",
        }
    }

    /// True for the variants that source flash data directly (bypassing
    /// SSD DRAM): the three ASSASIN variants.
    pub fn bypasses_dram(self) -> bool {
        matches!(
            self,
            EngineKind::AssasinSp | EngineKind::AssasinSb | EngineKind::AssasinSbCache
        )
    }

    /// How this engine's kernels reach storage data, which also picks the
    /// core's data path. UDP lanes walk firmware-filled scratchpads with
    /// explicit pointers, as AssasinSp cores walk their staging banks.
    pub fn style(self) -> AccessStyle {
        match self {
            EngineKind::Baseline | EngineKind::Prefetch => AccessStyle::Mem,
            EngineKind::AssasinSp | EngineKind::Udp => AccessStyle::PingPong,
            EngineKind::AssasinSb | EngineKind::AssasinSbCache => AccessStyle::Stream,
        }
    }
}

/// Full per-core configuration.
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Which Table IV engine this core models.
    pub kind: EngineKind,
    /// Core clock (1 GHz nominal; Section VI-F adjusts it).
    pub clock: Clock,
    /// Function-state scratchpad size in bytes (64 KiB for ASSASIN
    /// variants, 256 KiB for UDP).
    pub scratchpad_bytes: u32,
    /// Scratchpad access time in cycles (1 nominal; 2 after the
    /// Section VI-F timing adjustment for AssasinSp).
    pub scratchpad_cycles: u32,
    /// Streambuffer shape (Sb variants).
    pub streambuffer: StreamBufferConfig,
    /// Ping-pong staging bank size in bytes (Sp variant): 64 KiB input +
    /// 64 KiB output.
    pub staging_bytes: u32,
    /// Taken-branch penalty cycles (ibex-class front end).
    pub branch_penalty: u32,
    /// Multiply latency in cycles.
    pub mul_cycles: u32,
    /// Divide latency in cycles.
    pub div_cycles: u32,
}

impl CoreConfig {
    fn common(kind: EngineKind) -> CoreConfig {
        CoreConfig {
            kind,
            clock: Clock::default(),
            scratchpad_bytes: 64 * 1024,
            scratchpad_cycles: 1,
            streambuffer: StreamBufferConfig::default(),
            staging_bytes: 64 * 1024,
            branch_penalty: 2,
            mul_cycles: 3,
            div_cycles: 35,
        }
    }

    /// Table IV `Baseline`: L1D 32K/8way + L2 256K/16way over DRAM
    /// ([`MemHierarchy`](assasin_mem::MemHierarchy), built by
    /// [`Core::new`](crate::Core::new) from the kind).
    pub fn baseline() -> CoreConfig {
        CoreConfig::common(EngineKind::Baseline)
    }

    /// Table IV `Prefetch`: Baseline plus DCPT.
    pub fn prefetch() -> CoreConfig {
        CoreConfig::common(EngineKind::Prefetch)
    }

    /// Table IV `AssasinSp`: 64 KiB function-state scratchpad plus
    /// 64 KiB + 64 KiB input/output ping-pong staging scratchpads.
    pub fn assasin_sp() -> CoreConfig {
        CoreConfig::common(EngineKind::AssasinSp)
    }

    /// Table IV `AssasinSb`: 64 KiB scratchpad plus 64 KiB input and
    /// 64 KiB output streambuffers (S=8, P=2) with the stream ISA.
    pub fn assasin_sb() -> CoreConfig {
        CoreConfig::common(EngineKind::AssasinSb)
    }

    /// Table IV `AssasinSb$`: AssasinSb plus a 32 KiB 8-way L1D backed by
    /// DRAM, which its cores never reach (see [`EngineKind::AssasinSbCache`]).
    pub fn assasin_sb_cache() -> CoreConfig {
        CoreConfig::common(EngineKind::AssasinSbCache)
    }

    /// Table IV `UDP`: 256 KiB private scratchpad, data copied in from
    /// DRAM by the firmware. (Executed analytically — see
    /// [`UdpLane`](crate::UdpLane).)
    pub fn udp() -> CoreConfig {
        CoreConfig {
            scratchpad_bytes: 256 * 1024,
            ..CoreConfig::common(EngineKind::Udp)
        }
    }

    /// Configuration for `kind`, with nominal (pre-Section-VI-F) timing.
    pub fn for_kind(kind: EngineKind) -> CoreConfig {
        match kind {
            EngineKind::Baseline => CoreConfig::baseline(),
            EngineKind::Prefetch => CoreConfig::prefetch(),
            EngineKind::AssasinSp => CoreConfig::assasin_sp(),
            EngineKind::AssasinSb => CoreConfig::assasin_sb(),
            EngineKind::AssasinSbCache => CoreConfig::assasin_sb_cache(),
            EngineKind::Udp => CoreConfig::udp(),
        }
    }

    /// Applies the Section VI-F timing adjustment: AssasinSb variants run
    /// with an 11% shorter clock period (the streambuffer removes the
    /// dcache from the critical path); AssasinSp scratchpad accesses take
    /// 2 cycles.
    pub fn timing_adjusted(mut self) -> CoreConfig {
        match self.kind {
            EngineKind::AssasinSb | EngineKind::AssasinSbCache => {
                self.clock = Clock::from_period_ps(890);
            }
            EngineKind::AssasinSp => {
                self.scratchpad_cycles = 2;
            }
            _ => {}
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_shapes() {
        for kind in EngineKind::ALL {
            assert_eq!(CoreConfig::for_kind(kind).kind, kind);
        }
        assert_eq!(CoreConfig::udp().scratchpad_bytes, 256 * 1024);
    }

    #[test]
    fn adjusted_timing_matches_section_vi_f() {
        let sb = CoreConfig::assasin_sb().timing_adjusted();
        assert_eq!(sb.clock.period_ps(), 890);
        let sp = CoreConfig::assasin_sp().timing_adjusted();
        assert_eq!(sp.scratchpad_cycles, 2);
        assert_eq!(sp.clock.period_ps(), 1000);
        let base = CoreConfig::baseline().timing_adjusted();
        assert_eq!(base.clock.period_ps(), 1000);
    }

    #[test]
    fn kind_predicates() {
        assert!(EngineKind::AssasinSb.bypasses_dram());
        assert!(!EngineKind::Baseline.bypasses_dram());
        assert_eq!(EngineKind::AssasinSbCache.style(), AccessStyle::Stream);
        assert_eq!(EngineKind::AssasinSp.style(), AccessStyle::PingPong);
        assert_eq!(EngineKind::Prefetch.style(), AccessStyle::Mem);
        assert_eq!(EngineKind::ALL.len(), 6);
        assert_eq!(EngineKind::AssasinSbCache.label(), "AssasinSb$");
    }
}
