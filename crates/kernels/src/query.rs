//! Database kernels: Filter, Select, Parse, and the fused PSF pipeline
//! (Sections III, VI-C).
//!
//! Table II classifies these as tuple-parallel streaming with tiny state
//! (flags, a parser state machine). Filter/Select work on fixed-width
//! binary tuples of little-endian u32 fields; Parse consumes `|`-delimited
//! ASCII decimal text (the TPC-H `dbgen` flat-file format) and emits binary
//! u32 fields; PSF fuses Parse → Select → Filter, the offloaded pipeline of
//! Figure 12.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Register pool for tuple words (12 = the largest tuple supported).
const POOL: [Reg; 12] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
];

/// Filter parameters: keep tuples whose `pred_word` field satisfies
/// `lo <= field < hi` (unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterParams {
    /// Words (u32 fields) per tuple, at most 12.
    pub tuple_words: u32,
    /// Index of the predicate field.
    pub pred_word: u32,
    /// Inclusive lower bound.
    pub lo: u32,
    /// Exclusive upper bound.
    pub hi: u32,
}

/// Builds the Filter kernel: copies passing tuples to the output.
///
/// # Panics
///
/// Panics if `tuple_words` exceeds the register pool or `pred_word` is out
/// of range.
pub fn filter_program(style: AccessStyle, p: FilterParams) -> Program {
    assert!((1..=12).contains(&p.tuple_words), "1..=12 words per tuple");
    assert!(p.pred_word < p.tuple_words, "predicate field in range");
    let io = KernelIo::new(style, 1, p.tuple_words * 4);
    let mut asm = Assembler::with_name(format!("filter-{style:?}"));
    asm.li(Reg::S10, p.lo as i64);
    asm.li(Reg::S11, p.hi as i64);
    let ctx = io.begin(&mut asm);
    for w in 0..p.tuple_words {
        io.load(&mut asm, POOL[w as usize], 0, (w * 4) as i64, 4, false);
    }
    let skip = asm.label();
    let pred = POOL[p.pred_word as usize];
    asm.bltu(pred, Reg::S10, skip);
    asm.bgeu(pred, Reg::S11, skip);
    for w in 0..p.tuple_words {
        io.emit(&mut asm, POOL[w as usize], 4);
    }
    asm.bind(skip);
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("filter kernel assembles")
}

/// Golden Filter.
pub fn filter_golden(data: &[u8], p: FilterParams) -> Vec<u8> {
    let tb = (p.tuple_words * 4) as usize;
    assert_eq!(data.len() % tb, 0, "input must be tuple-padded");
    let mut out = Vec::new();
    for tuple in data.chunks_exact(tb) {
        let off = (p.pred_word * 4) as usize;
        let field = u32::from_le_bytes(tuple[off..off + 4].try_into().expect("field"));
        if field >= p.lo && field < p.hi {
            out.extend_from_slice(tuple);
        }
    }
    out
}

/// Select parameters: project `keep` fields of each tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectParams {
    /// Words per tuple, at most 12.
    pub tuple_words: u32,
    /// Field indices to keep, in output order.
    pub keep: Vec<u32>,
}

/// Builds the Select (projection) kernel.
///
/// # Panics
///
/// Panics on out-of-range sizes or field indices.
pub fn select_program(style: AccessStyle, p: &SelectParams) -> Program {
    assert!((1..=12).contains(&p.tuple_words));
    assert!(p.keep.iter().all(|&k| k < p.tuple_words));
    let io = KernelIo::new(style, 1, p.tuple_words * 4);
    let mut asm = Assembler::with_name(format!("select-{style:?}"));
    let ctx = io.begin(&mut asm);
    for w in 0..p.tuple_words {
        io.load(&mut asm, POOL[w as usize], 0, (w * 4) as i64, 4, false);
    }
    for &k in &p.keep {
        io.emit(&mut asm, POOL[k as usize], 4);
    }
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("select kernel assembles")
}

/// Golden Select.
pub fn select_golden(data: &[u8], p: &SelectParams) -> Vec<u8> {
    let tb = (p.tuple_words * 4) as usize;
    assert_eq!(data.len() % tb, 0);
    let mut out = Vec::new();
    for tuple in data.chunks_exact(tb) {
        for &k in &p.keep {
            let off = (k * 4) as usize;
            out.extend_from_slice(&tuple[off..off + 4]);
        }
    }
    out
}

/// Builds the Parse kernel: ASCII decimal fields separated by `|` or
/// newline become little-endian u32 words.
pub fn parse_program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, 1);
    let mut asm = Assembler::with_name(format!("parse-{style:?}"));
    asm.li(Reg::S10, b'|' as i64);
    asm.li(Reg::S11, b'\n' as i64);
    let ctx = io.begin(&mut asm);
    let delim = asm.label();
    io.load(&mut asm, Reg::T1, 0, 0, 1, false);
    asm.beq(Reg::T1, Reg::S10, delim);
    asm.beq(Reg::T1, Reg::S11, delim);
    // val = val*10 + (c - '0'); the digit path falls straight into the
    // loop epilogue (delimiters are the rare case).
    asm.slli(Reg::T2, Reg::T0, 3);
    asm.slli(Reg::T3, Reg::T0, 1);
    asm.add(Reg::T0, Reg::T2, Reg::T3);
    asm.addi(Reg::T1, Reg::T1, -(b'0' as i64));
    asm.add(Reg::T0, Reg::T0, Reg::T1);
    io.end_iter(&mut asm, &ctx);
    asm.bind(delim);
    io.emit(&mut asm, Reg::T0, 4);
    asm.li(Reg::T0, 0);
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("parse kernel assembles")
}

/// Golden Parse.
pub fn parse_golden(text: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut val: u32 = 0;
    for &c in text {
        match c {
            b'|' | b'\n' => {
                out.extend_from_slice(&val.to_le_bytes());
                val = 0;
            }
            _ => val = val.wrapping_mul(10).wrapping_add((c - b'0') as u32),
        }
    }
    out
}

/// PSF pipeline parameters: parse `fields` per line, filter on
/// `lo <= field[pred_field] < hi`, project `keep` fields of passing lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsfParams {
    /// Fields per input line.
    pub fields: u32,
    /// Predicate field index.
    pub pred_field: u32,
    /// Inclusive lower bound.
    pub lo: u32,
    /// Exclusive upper bound.
    pub hi: u32,
    /// Fields projected for passing lines, in output order.
    pub keep: Vec<u32>,
}

/// Scratchpad offset of the PSF field buffer.
const PSF_FIELDS_BASE: i64 = 0x40;

/// Builds the fused Parse→Select→Filter kernel (the Figure 12 offload).
///
/// # Panics
///
/// Panics on out-of-range field indices.
pub fn psf_program(style: AccessStyle, p: &PsfParams) -> Program {
    assert!(p.pred_field < p.fields);
    assert!(p.keep.iter().all(|&k| k < p.fields));
    assert!(
        PSF_FIELDS_BASE + 4 * p.fields as i64 <= 2048,
        "field buffer imm-addressable"
    );
    let io = KernelIo::new(style, 1, 1);
    let mut asm = Assembler::with_name(format!("psf-{style:?}"));
    asm.li(Reg::S10, b'|' as i64);
    asm.li(Reg::S11, b'\n' as i64);
    asm.li(Reg::A6, p.lo as i64);
    asm.li(Reg::A7, p.hi as i64);
    asm.li(Reg::T3, PSF_FIELDS_BASE); // field cursor
    let ctx = io.begin(&mut asm);
    let field_end = asm.label();
    let line_end = asm.label();
    let cont = asm.label();
    io.load(&mut asm, Reg::T1, 0, 0, 1, false);
    asm.beq(Reg::T1, Reg::S10, field_end);
    asm.beq(Reg::T1, Reg::S11, line_end);
    // Digit path falls straight into the loop epilogue.
    asm.slli(Reg::T2, Reg::T0, 3);
    asm.slli(Reg::T4, Reg::T0, 1);
    asm.add(Reg::T0, Reg::T2, Reg::T4);
    asm.addi(Reg::T1, Reg::T1, -(b'0' as i64));
    asm.add(Reg::T0, Reg::T0, Reg::T1);
    io.end_iter(&mut asm, &ctx);

    asm.bind(field_end);
    asm.sw(Reg::T0, Reg::T3, 0);
    asm.addi(Reg::T3, Reg::T3, 4);
    asm.li(Reg::T0, 0);
    io.end_iter(&mut asm, &ctx);

    asm.bind(line_end);
    asm.sw(Reg::T0, Reg::T3, 0);
    asm.li(Reg::T3, PSF_FIELDS_BASE);
    asm.li(Reg::T0, 0);
    // Filter on the predicate field.
    asm.lw(
        Reg::T4,
        Reg::ZERO,
        PSF_FIELDS_BASE + 4 * p.pred_field as i64,
    );
    asm.bltu(Reg::T4, Reg::A6, cont);
    asm.bgeu(Reg::T4, Reg::A7, cont);
    // Select: emit kept fields.
    for &k in &p.keep {
        asm.lw(Reg::T5, Reg::ZERO, PSF_FIELDS_BASE + 4 * k as i64);
        io.emit(&mut asm, Reg::T5, 4);
    }
    asm.bind(cont);
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("psf kernel assembles")
}

/// Golden PSF.
pub fn psf_golden(text: &[u8], p: &PsfParams) -> Vec<u8> {
    let mut out = Vec::new();
    for line in text.split(|&c| c == b'\n') {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<u32> = line
            .split(|&c| c == b'|')
            .map(|f| {
                f.iter().fold(0u32, |a, &c| {
                    a.wrapping_mul(10).wrapping_add((c - b'0') as u32)
                })
            })
            .collect();
        if fields.len() != p.fields as usize {
            continue;
        }
        let v = fields[p.pred_field as usize];
        if v >= p.lo && v < p.hi {
            for &k in &p.keep {
                out.extend_from_slice(&fields[k as usize].to_le_bytes());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;

    fn tuples(n: usize, words: u32) -> Vec<u8> {
        (0..n)
            .flat_map(|i| {
                (0..words).flat_map(move |w| ((i as u32).wrapping_mul(w + 3) % 1000).to_le_bytes())
            })
            .collect()
    }

    fn csv(lines: usize, fields: u32) -> Vec<u8> {
        let mut text = Vec::new();
        for i in 0..lines {
            let vals: Vec<String> = (0..fields)
                .map(|f| (((i as u32) * 131 + f * 17) % 10_000).to_string())
                .collect();
            text.extend_from_slice(vals.join("|").as_bytes());
            text.push(b'\n');
        }
        text
    }

    #[test]
    fn filter_all_styles_match_golden() {
        let p = FilterParams {
            tuple_words: 12,
            pred_word: 7,
            lo: 100,
            hi: 600,
        };
        let data = tuples(512, p.tuple_words);
        let expect = filter_golden(&data, p);
        assert!(!expect.is_empty(), "test must select something");
        assert!(expect.len() < data.len(), "test must reject something");
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(
                style,
                filter_program(style, p),
                &[&data],
                (p.tuple_words * 4) as usize,
                &[],
            );
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn filter_rejects_everything_and_keeps_everything() {
        let data = tuples(64, 4);
        let none = FilterParams {
            tuple_words: 4,
            pred_word: 0,
            lo: u32::MAX,
            hi: u32::MAX,
        };
        let all = FilterParams {
            tuple_words: 4,
            pred_word: 0,
            lo: 0,
            hi: u32::MAX,
        };
        let (_, out) = run_kernel(
            AccessStyle::Stream,
            filter_program(AccessStyle::Stream, none),
            &[&data],
            16,
            &[],
        );
        assert!(out.is_empty());
        let (_, out) = run_kernel(
            AccessStyle::Stream,
            filter_program(AccessStyle::Stream, all),
            &[&data],
            16,
            &[],
        );
        assert_eq!(out, data);
    }

    #[test]
    fn select_all_styles_match_golden() {
        let p = SelectParams {
            tuple_words: 8,
            keep: vec![0, 3, 5],
        };
        let data = tuples(256, p.tuple_words);
        let expect = select_golden(&data, &p);
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(
                style,
                select_program(style, &p),
                &[&data],
                (p.tuple_words * 4) as usize,
                &[],
            );
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn parse_all_styles_match_golden() {
        let text = csv(128, 6);
        let expect = parse_golden(&text);
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(style, parse_program(style), &[&text], 1, &[]);
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn parse_handles_multi_digit_values() {
        let text = b"0|12|345|6789\n98765|1|0|42\n";
        let expect: Vec<u8> = [0u32, 12, 345, 6789, 98765, 1, 0, 42]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let (_, out) = run_kernel(
            AccessStyle::Stream,
            parse_program(AccessStyle::Stream),
            &[text],
            1,
            &[],
        );
        assert_eq!(out, expect);
    }

    #[test]
    fn psf_all_styles_match_golden() {
        let p = PsfParams {
            fields: 6,
            pred_field: 2,
            lo: 1000,
            hi: 7000,
            keep: vec![0, 2, 4],
        };
        let text = csv(256, p.fields);
        let expect = psf_golden(&text, &p);
        assert!(!expect.is_empty());
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(style, psf_program(style, &p), &[&text], 1, &[]);
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn psf_is_branchy() {
        // The property UDP exploits (Section VI-C): PSF retires a large
        // branch fraction.
        let p = PsfParams {
            fields: 6,
            pred_field: 0,
            lo: 0,
            hi: u32::MAX,
            keep: vec![0],
        };
        let text = csv(64, p.fields);
        let (core, _) = run_kernel(
            AccessStyle::Stream,
            psf_program(AccessStyle::Stream, &p),
            &[&text],
            1,
            &[],
        );
        let mix = core.mix();
        let branchy = (mix.branches + mix.jumps) as f64 / mix.total as f64;
        assert!(branchy > 0.25, "PSF branch fraction {branchy:.2}");
    }
}
