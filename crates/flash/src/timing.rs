//! NAND and channel-interface timing parameters.

use assasin_sim::SimDur;
use serde::{Deserialize, Serialize};

/// Timing parameters of the flash chips and the channel interface.
///
/// Defaults give each channel the 1 GB/s read/write service rate of the
/// paper's evaluated SSD (Section VI-A): a 4 KiB page occupies the channel
/// bus for ~4 µs, and with tR = 20 µs, five or more interleaved chips keep
/// the bus saturated (the default geometry provides eight).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashTiming {
    /// Array-to-page-register sense time (tR).
    pub t_read: SimDur,
    /// Page-register-to-array program time (tPROG).
    pub t_prog: SimDur,
    /// Block erase time (tBERS).
    pub t_erase: SimDur,
    /// Channel bus transfer rate in bytes/second (ONFI interface).
    pub channel_bytes_per_sec: f64,
}

impl FlashTiming {
    /// Bus occupancy for transferring `bytes` over the channel.
    pub fn transfer_time(&self, bytes: u32) -> SimDur {
        SimDur::from_secs_f64(bytes as f64 / self.channel_bytes_per_sec)
    }

    /// Minimum number of chips that must interleave on one channel to
    /// saturate the bus for reads of `page_bytes` pages.
    pub fn chips_to_saturate(&self, page_bytes: u32) -> u32 {
        let xfer = self.transfer_time(page_bytes).as_ps() as f64;
        if xfer == 0.0 {
            return 1;
        }
        ((self.t_read.as_ps() as f64 + xfer) / xfer).ceil() as u32
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming {
            t_read: SimDur::from_us(20),
            t_prog: SimDur::from_us(200),
            t_erase: SimDur::from_ms(2),
            channel_bytes_per_sec: 1.0e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_transfer_rate_is_1gbps() {
        let t = FlashTiming::default();
        // 4096 bytes at 1 GB/s = 4.096 us
        assert_eq!(t.transfer_time(4096), SimDur::from_ns(4096));
    }

    #[test]
    fn default_geometry_saturates_channel() {
        let t = FlashTiming::default();
        // tR=20us, xfer=4.096us -> ceil(24.096/4.096) = 6 chips needed.
        let need = t.chips_to_saturate(4096);
        assert_eq!(need, 6);
        // Default geometry provides 8 chips/channel — headroom over 6.
        assert!(need <= 8);
    }
}
