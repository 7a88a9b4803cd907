//! Scratchpad memory for function state (Figure 8).

use crate::{word, MemError};

/// A software-managed scratchpad tightly coupled to the core pipeline.
///
/// ASSASIN keeps bounded function state — accumulators, GF tables, AES key
/// schedules, parser state machines (Table II) — in the scratchpad, giving
/// low-latency random access without DRAM traffic. Access latency in cycles
/// is configured by the core (Section VI-F: a 64 KiB scratchpad with an
/// 8 B port times at 2 cycles in 14 nm).
#[derive(Debug, Clone)]
pub struct Scratchpad {
    data: Vec<u8>,
}

impl Scratchpad {
    /// Creates a zeroed scratchpad of `size` bytes.
    pub fn new(size: usize) -> Self {
        Scratchpad {
            data: vec![0; size],
        }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn check(&self, addr: u64, width: u32) -> Result<usize, MemError> {
        let end = addr
            .checked_add(width as u64)
            .ok_or(MemError::OutOfBounds {
                addr,
                size: self.data.len() as u64,
            })?;
        if end > self.data.len() as u64 {
            return Err(MemError::OutOfBounds {
                addr,
                size: self.data.len() as u64,
            });
        }
        Ok(addr as usize)
    }

    /// Loads `width` bytes (1, 2, 4 or 8) little-endian.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and unsupported widths fail.
    #[inline]
    pub fn load(&self, addr: u64, width: u32) -> Result<u64, MemError> {
        usize::try_from(addr)
            .ok()
            .and_then(|at| word::load_le(&self.data, at, width))
            .ok_or_else(|| self.word_error(addr, width))
    }

    /// Stores the low `width` bytes (1, 2, 4 or 8) of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and unsupported widths fail.
    #[inline]
    pub fn store(&mut self, addr: u64, width: u32, value: u64) -> Result<(), MemError> {
        usize::try_from(addr)
            .ok()
            .and_then(|at| word::store_le(&mut self.data, at, width, value))
            .ok_or_else(|| self.word_error(addr, width))
    }

    /// Why a word access failed: a bad width before a bad address.
    #[cold]
    fn word_error(&self, addr: u64, width: u32) -> MemError {
        if matches!(width, 1 | 2 | 4 | 8) {
            MemError::OutOfBounds {
                addr,
                size: self.data.len() as u64,
            }
        } else {
            MemError::BadWidth(width)
        }
    }

    /// Bulk-copies `src` into the scratchpad at `addr` (firmware preloading
    /// function state, or ping-pong staging).
    ///
    /// # Errors
    ///
    /// Fails if the copy would run off the end.
    pub fn write_bytes(&mut self, addr: u64, src: &[u8]) -> Result<(), MemError> {
        let base = self.check(addr, src.len().min(u32::MAX as usize) as u32)?;
        self.data[base..base + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the range runs off the end.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        let base = self.check(addr, len.min(u32::MAX as usize) as u32)?;
        Ok(&self.data[base..base + len])
    }

    /// Zeroes the scratchpad (firmware reset between compute requests).
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_all_widths() {
        let mut sp = Scratchpad::new(64);
        for &w in &[1u32, 2, 4, 8] {
            sp.store(8, w, 0x1122_3344_5566_7788).unwrap();
            let v = sp.load(8, w).unwrap();
            let mask = if w == 8 {
                u64::MAX
            } else {
                (1u64 << (w * 8)) - 1
            };
            assert_eq!(v, 0x1122_3344_5566_7788 & mask);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut sp = Scratchpad::new(16);
        sp.store(0, 4, 0x0403_0201).unwrap();
        assert_eq!(sp.read_bytes(0, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn bounds_are_enforced() {
        let sp = Scratchpad::new(16);
        assert!(matches!(sp.load(13, 4), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(
            sp.load(u64::MAX, 8),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn bad_width_rejected() {
        let sp = Scratchpad::new(16);
        assert_eq!(sp.load(0, 3), Err(MemError::BadWidth(3)));
    }

    #[test]
    fn bulk_roundtrip_and_clear() {
        let mut sp = Scratchpad::new(8);
        sp.write_bytes(2, &[9, 8, 7]).unwrap();
        assert_eq!(sp.read_bytes(2, 3).unwrap(), &[9, 8, 7]);
        sp.clear();
        assert_eq!(sp.read_bytes(2, 3).unwrap(), &[0, 0, 0]);
    }
}
