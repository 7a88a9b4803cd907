//! Fixed-width little-endian words: the one way every core-visible
//! store (scratchpad, streambuffer pages, DRAM window, ping-pong banks)
//! reads, writes and appends a 1-, 2-, 4- or 8-byte word.
//!
//! Each width is its own arm, so after inlining a word access is one
//! bounds (or capacity) check and one load or store — no variable-length
//! copy.

/// Reads the `width`-byte (1, 2, 4 or 8) little-endian word at byte
/// `at` of `bytes`. `None` for any other width or a word that does not
/// fit.
#[inline(always)]
pub fn load_le(bytes: &[u8], at: usize, width: u32) -> Option<u64> {
    let tail = bytes.get(at..)?;
    Some(match width {
        1 => *tail.first()? as u64,
        2 => u16::from_le_bytes(*tail.first_chunk()?) as u64,
        4 => u32::from_le_bytes(*tail.first_chunk()?) as u64,
        8 => u64::from_le_bytes(*tail.first_chunk()?),
        _ => return None,
    })
}

/// Writes the low `width` bytes (1, 2, 4 or 8) of `value` little-endian
/// at byte `at` of `bytes`. `None`, with nothing written, for any other
/// width or a word that does not fit.
#[inline(always)]
pub fn store_le(bytes: &mut [u8], at: usize, width: u32, value: u64) -> Option<()> {
    let tail = bytes.get_mut(at..)?;
    match width {
        1 => *tail.first_mut()? = value as u8,
        2 => *tail.first_chunk_mut()? = (value as u16).to_le_bytes(),
        4 => *tail.first_chunk_mut()? = (value as u32).to_le_bytes(),
        8 => *tail.first_chunk_mut()? = value.to_le_bytes(),
        _ => return None,
    }
    Some(())
}

/// Appends the low `width` bytes (1, 2, 4 or 8) of `value` little-endian
/// to `bytes`. `None`, with nothing appended, for any other width.
#[inline]
pub fn push_le(bytes: &mut Vec<u8>, width: u32, value: u64) -> Option<()> {
    match width {
        1 => bytes.push(value as u8),
        2 => bytes.extend_from_slice(&(value as u16).to_le_bytes()),
        4 => bytes.extend_from_slice(&(value as u32).to_le_bytes()),
        8 => bytes.extend_from_slice(&value.to_le_bytes()),
        _ => return None,
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_width_little_endian() {
        let mut bytes = [0u8; 10];
        for (w, mask) in [(1, 0xFF), (2, 0xFFFF), (4, 0xFFFF_FFFF), (8, u64::MAX)] {
            store_le(&mut bytes, 2, w, 0x1122_3344_5566_7788).unwrap();
            assert_eq!(load_le(&bytes, 2, w), Some(0x1122_3344_5566_7788 & mask));
        }
        assert_eq!(bytes[2..10], 0x1122_3344_5566_7788u64.to_le_bytes());
    }

    #[test]
    fn rejects_bad_widths_and_words_that_do_not_fit() {
        let mut bytes = [7u8; 8];
        assert_eq!(load_le(&bytes, 0, 3), None);
        assert_eq!(load_le(&bytes, 5, 4), None);
        assert_eq!(load_le(&bytes, 9, 1), None);
        assert_eq!(load_le(&bytes, usize::MAX, 1), None);
        assert_eq!(load_le(&bytes, 4, 4), Some(0x0707_0707));
        assert_eq!(store_le(&mut bytes, 0, 16, 0), None);
        assert_eq!(store_le(&mut bytes, 7, 2, 0), None);
        assert_eq!(bytes, [7; 8], "a failed store writes nothing");
    }

    #[test]
    fn pushes_every_width_little_endian() {
        let mut bytes = vec![9];
        for w in [1, 2, 4, 8] {
            push_le(&mut bytes, w, 0x1122_3344_5566_7788).unwrap();
        }
        assert_eq!(push_le(&mut bytes, 3, 0), None);
        let words: [&[u8]; 5] = [
            &[9],
            &[0x88],
            &[0x88, 0x77],
            &[0x88, 0x77, 0x66, 0x55],
            &0x1122_3344_5566_7788u64.to_le_bytes(),
        ];
        assert_eq!(bytes, words.concat());
    }
}
