//! Property-based tests over the reproduction's core invariants.

use assasin::core::{Core, CoreConfig, CoreState, SyntheticEnv};
use assasin::ftl::{Ftl, Lpa};
use assasin::isa::{decode, encode, AluOp, BranchCond, Instr, Reg};
use assasin::kernels::query::{
    filter_golden, filter_program, parse_golden, parse_program, FilterParams,
};
use assasin::kernels::{scan, AccessStyle};
use assasin::mem::{ReadOutcome, StreamBuffer, StreamBufferConfig};
use assasin::sim::{SimDur, SimTime, Timeline};
use bytes::Bytes;
use proptest::prelude::*;

// ------------------------------------------------------------------ ISA

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn alu_op_strategy() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Mul),
        Just(AluOp::Mulh),
        Just(AluOp::Mulhu),
        Just(AluOp::Div),
        Just(AluOp::Divu),
        Just(AluOp::Rem),
        Just(AluOp::Remu),
    ]
}

fn cond_strategy() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    let width = prop_oneof![Just(1u8), Just(2u8), Just(4u8)];
    prop_oneof![
        (
            alu_op_strategy(),
            reg_strategy(),
            reg_strategy(),
            reg_strategy()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
        (
            alu_op_strategy(),
            reg_strategy(),
            reg_strategy(),
            -2048i32..=2047
        )
            .prop_map(|(op, rd, rs1, imm)| Instr::AluImm { op, rd, rs1, imm }),
        (reg_strategy(), 0u32..=0xF_FFFF).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
        (
            width.clone(),
            any::<bool>(),
            reg_strategy(),
            reg_strategy(),
            -2048i32..=2047
        )
            .prop_map(|(width, signed, rd, base, offset)| Instr::Load {
                width,
                signed,
                rd,
                base,
                offset
            }),
        (
            width.clone(),
            reg_strategy(),
            reg_strategy(),
            -2048i32..=2047
        )
            .prop_map(|(width, rs, base, offset)| Instr::Store {
                width,
                rs,
                base,
                offset
            }),
        (
            cond_strategy(),
            reg_strategy(),
            reg_strategy(),
            0u32..=0x3FFF
        )
            .prop_map(|(cond, rs1, rs2, target)| Instr::Branch {
                cond,
                rs1,
                rs2,
                target
            }),
        (reg_strategy(), 0u32..=0x3F_FFFF).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        (reg_strategy(), reg_strategy(), -2048i32..=2047)
            .prop_map(|(rd, base, offset)| Instr::Jalr { rd, base, offset }),
        Just(Instr::Halt),
        (reg_strategy(), 0u8..8, width.clone()).prop_map(|(rd, sid, width)| Instr::StreamLoad {
            rd,
            sid,
            width
        }),
        (0u8..8, width, reg_strategy()).prop_map(|(sid, width, rs)| Instr::StreamStore {
            sid,
            width,
            rs
        }),
        (reg_strategy(), 0u8..8).prop_map(|(rd, sid)| Instr::StreamAvail { rd, sid }),
        (reg_strategy(), 0u8..8).prop_map(|(rd, sid)| Instr::StreamEos { rd, sid }),
        (0u8..2).prop_map(|bank| Instr::BufSwap { bank }),
        (reg_strategy(), 0u16..0x1000).prop_map(|(rd, csr)| Instr::CsrR { rd, csr }),
    ]
}

proptest! {
    #[test]
    fn isa_encode_decode_roundtrips(instr in instr_strategy()) {
        let word = encode(instr).expect("strategy stays in range");
        let back = decode(word).expect("decodes");
        prop_assert_eq!(back, instr);
    }

    #[test]
    fn disassembly_is_never_empty(instr in instr_strategy()) {
        prop_assert!(!instr.to_string().is_empty());
    }
}

// --------------------------------------------------------- streambuffer

proptest! {
    /// Bytes come out of a stream in exactly the order pages went in,
    /// regardless of how pushes and read widths interleave.
    #[test]
    fn streambuffer_preserves_byte_order(
        pages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..=64), 1..12),
        widths in proptest::collection::vec(prop_oneof![Just(1u32), Just(2), Just(4)], 1..400),
    ) {
        let cfg = StreamBufferConfig { streams: 1, pages_per_stream: 2, page_bytes: 64 };
        let mut sb = StreamBuffer::new(cfg);
        let mut expected: Vec<u8> = Vec::new();
        for p in &pages {
            expected.extend_from_slice(p);
        }
        let mut pending = pages.clone();
        pending.reverse(); // pop from the back
        // initial fill
        while sb.free_slots(0).unwrap() > 0 {
            match pending.pop() {
                Some(p) => sb.push_page(0, Bytes::from(p), SimTime::ZERO).unwrap(),
                None => break,
            }
        }
        if pending.is_empty() { sb.close(0).unwrap(); }
        let mut got: Vec<u8> = Vec::new();
        for w in widths {
            match sb.read(0, w, SimTime::ZERO).unwrap() {
                ReadOutcome::Data { value, freed_pages, .. } => {
                    got.extend_from_slice(&value.to_le_bytes()[..w as usize]);
                    for _ in 0..freed_pages {
                        if let Some(p) = pending.pop() {
                            sb.push_page(0, Bytes::from(p), SimTime::ZERO).unwrap();
                        }
                    }
                    if pending.is_empty() { sb.close(0).unwrap(); }
                }
                ReadOutcome::Exhausted | ReadOutcome::Blocked => break,
            }
        }
        prop_assert!(got.len() <= expected.len());
        prop_assert_eq!(&got[..], &expected[..got.len()]);
    }
}

// -------------------------------------------------------------- timeline

proptest! {
    /// Earliest-fit grants never overlap and never start before ready.
    #[test]
    fn timeline_grants_are_disjoint(
        reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..64)
    ) {
        let mut t = Timeline::new("prop");
        let mut granted: Vec<(u64, u64)> = Vec::new();
        for (ready, service) in reqs {
            let g = t.acquire(SimTime::from_ns(ready), SimDur::from_ns(service));
            prop_assert!(g.start >= SimTime::from_ns(ready));
            prop_assert_eq!(g.end.since(g.start), SimDur::from_ns(service));
            let (s, e) = (g.start.as_ps(), g.end.as_ps());
            for &(os, oe) in &granted {
                prop_assert!(e <= os || s >= oe, "overlap: [{s},{e}) vs [{os},{oe})");
            }
            granted.push((s, e));
        }
    }
}

// ------------------------------------------------------------------ FTL

proptest! {
    /// The FTL behaves like a flat key-value store under random writes and
    /// overwrites (with GC churning underneath).
    #[test]
    fn ftl_matches_reference_map(
        ops in proptest::collection::vec((0u64..6, any::<u8>()), 1..80)
    ) {
        use assasin::flash::{FlashArray, FlashGeometry, FlashTiming};
        use std::collections::HashMap;
        let geom = FlashGeometry::small_for_tests();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        let mut ftl = Ftl::new(geom);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (lpa, fill) in ops {
            let page = Bytes::from(vec![fill; geom.page_bytes as usize]);
            ftl.write(&mut arr, Lpa(lpa), page, SimTime::ZERO).unwrap();
            model.insert(lpa, fill);
            // Spot-check every model entry.
            for (&l, &f) in &model {
                let (data, _) = ftl.read(&mut arr, Lpa(l), SimTime::ZERO).unwrap();
                prop_assert!(data.iter().all(|&b| b == f), "lpa {l}");
            }
        }
    }
}

// --------------------------------------------------------------- kernels

fn run_stream_kernel(program: assasin::isa::Program, input: &[u8]) -> (Core, Vec<u8>) {
    let mut env = SyntheticEnv::new(8, 256);
    env.set_input(0, input);
    let mut core = Core::new(0, CoreConfig::assasin_sb(), program);
    core.run_to_halt(&mut env);
    assert_eq!(core.state(), &CoreState::Halted);
    core.flush_output(&mut env).unwrap();
    let out = env.output(0).to_vec();
    (core, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The generated Filter program agrees with the golden model for
    /// arbitrary tuples and predicate ranges.
    #[test]
    fn filter_kernel_matches_golden(
        words in proptest::collection::vec(any::<u32>(), 12..=360),
        lo in 0u32..2000,
        span in 1u32..3000,
    ) {
        let tuple_words = 4u32;
        let n = (words.len() as u32 / tuple_words) * tuple_words;
        let data: Vec<u8> = words[..n as usize].iter().flat_map(|w| (w % 4096).to_le_bytes()).collect();
        let p = FilterParams { tuple_words, pred_word: 1, lo, hi: lo.saturating_add(span) };
        let expect = filter_golden(&data, p);
        let (_, out) = run_stream_kernel(filter_program(AccessStyle::Stream, p), &data);
        prop_assert_eq!(out, expect);
    }

    /// The Parse program agrees with the golden model for arbitrary
    /// well-formed CSV.
    #[test]
    fn parse_kernel_matches_golden(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u32..1_000_000, 1..6), 1..20)
    ) {
        let mut text = Vec::new();
        for row in &rows {
            let line: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            text.extend_from_slice(line.join("|").as_bytes());
            text.push(b'\n');
        }
        let expect = parse_golden(&text);
        let (_, out) = run_stream_kernel(parse_program(AccessStyle::Stream), &text);
        prop_assert_eq!(out, expect);
    }

    /// The scan kernel's checksum matches the golden model on arbitrary
    /// input.
    #[test]
    fn scan_kernel_matches_golden(data in proptest::collection::vec(any::<u8>(), 8..2048)) {
        let n = (data.len() / 8) * 8;
        let input = &data[..n];
        let (core, _) = run_stream_kernel(scan::program(AccessStyle::Stream), input);
        prop_assert_eq!(core.reg(Reg::T2), scan::golden(input));
    }
}

// ----------------------------------------------------- extension kernels

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// compress -> in-SSD-style decompress round-trips arbitrary data.
    #[test]
    fn compression_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        use assasin::kernels::compress;
        let packed = compress::compress(&data);
        prop_assert_eq!(compress::decompress_golden(&packed), data.clone());
        if !packed.is_empty() {
            let (_, out) = run_stream_kernel(
                compress::decompress_program(AccessStyle::Stream),
                &packed,
            );
            prop_assert_eq!(out, data);
        }
    }

    /// Dedup output reconstructs to the exact input given the block
    /// dictionary, and the kernel agrees with the golden model.
    #[test]
    fn dedup_is_lossless_with_dictionary(
        block_ids in proptest::collection::vec(0u8..6, 1..24)
    ) {
        use assasin::kernels::dedup;
        let bs = dedup::BLOCK_BYTES as usize;
        let data: Vec<u8> = block_ids
            .iter()
            .flat_map(|&id| vec![id.wrapping_mul(37).wrapping_add(1); bs])
            .collect();
        let expect = dedup::golden(&data);
        let (_, out) = run_stream_kernel(dedup::program(AccessStyle::Stream), &data);
        prop_assert_eq!(&out, &expect);
        // Reconstruct: unique blocks build a dictionary keyed by order of
        // first appearance; flags replay it.
        let mut dict: Vec<Vec<u8>> = Vec::new();
        let mut seen_order: Vec<u8> = Vec::new();
        let mut rebuilt = Vec::new();
        let mut i = 0usize;
        let mut dup_cursor = 0usize;
        let mut dup_sequence: Vec<usize> = Vec::new();
        // First pass over the original to know which dictionary entry each
        // duplicate refers to.
        for &id in &block_ids {
            match seen_order.iter().position(|&s| s == id) {
                Some(pos) => dup_sequence.push(pos),
                None => {
                    seen_order.push(id);
                    dup_sequence.push(seen_order.len() - 1);
                }
            }
        }
        let mut block_no = 0usize;
        while i < out.len() {
            match out[i] {
                0 => {
                    dict.push(out[i + 1..i + 1 + bs].to_vec());
                    rebuilt.extend_from_slice(&out[i + 1..i + 1 + bs]);
                    i += 1 + bs;
                }
                _ => {
                    let entry = dup_sequence[block_no];
                    rebuilt.extend_from_slice(&dict[entry]);
                    i += 1;
                }
            }
            block_no += 1;
            dup_cursor += 1;
        }
        let _ = dup_cursor;
        prop_assert_eq!(rebuilt, data);
    }

    /// Replication always doubles, byte-exactly, in kernel and golden.
    #[test]
    fn replicate_doubles(data in proptest::collection::vec(any::<u8>(), 16..512)) {
        use assasin::kernels::replicate;
        let n = (data.len() / 16) * 16;
        let input = &data[..n];
        let expect = replicate::golden(input);
        prop_assert_eq!(expect.len(), 2 * n);
        let (_, out) = run_stream_kernel(replicate::program(AccessStyle::Stream), input);
        prop_assert_eq!(out, expect);
    }

    /// The NN kernel agrees with the golden model for arbitrary models and
    /// inputs (wrapping fixed-point arithmetic end to end).
    #[test]
    fn nn_kernel_matches_golden(seed in any::<u32>(), raw in proptest::collection::vec(any::<i32>(), 16..64)) {
        use assasin::kernels::nn;
        let model = nn::Model::demo(seed);
        let n = (raw.len() / nn::IN_DIM) * nn::IN_DIM;
        let data: Vec<u8> = raw[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
        let expect = model.golden(&data);
        let mut env = SyntheticEnv::new(8, 256);
        env.set_input(0, &data);
        let mut core = Core::new(
            0,
            CoreConfig::assasin_sb(),
            nn::program(AccessStyle::Stream),
        );
        core.preload(&model.scratchpad_image()).unwrap();
        core.run_to_halt(&mut env);
        prop_assert_eq!(core.state(), &CoreState::Halted);
        core.flush_output(&mut env).unwrap();
        prop_assert_eq!(env.output(0), &expect[..]);
    }

    /// Textual assembly written from any generated program re-parses to an
    /// identical program (Display/parse are inverses).
    #[test]
    fn textual_assembly_roundtrips(instrs in proptest::collection::vec(
        // Only in-range targets so the listing stays self-consistent.
        (0u32..8).prop_flat_map(|_| proptest::prelude::any::<u8>()), 1..20)
    ) {
        use assasin::isa::{parse_program, Program};
        // Build a simple straight-line program from byte seeds.
        let instrs: Vec<Instr> = instrs
            .iter()
            .enumerate()
            .map(|(i, &b)| match b % 5 {
                0 => Instr::AluImm {
                    op: AluOp::Add,
                    rd: Reg::new(b % 32),
                    rs1: Reg::ZERO,
                    imm: (b as i32) - 128,
                },
                1 => Instr::Alu {
                    op: AluOp::Xor,
                    rd: Reg::new(b % 32),
                    rs1: Reg::new((b / 2) % 32),
                    rs2: Reg::new((b / 4) % 32),
                },
                2 => Instr::StreamLoad {
                    rd: Reg::new(b % 32),
                    sid: b % 8,
                    width: [1u8, 2, 4][b as usize % 3],
                },
                3 => Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: Reg::new(b % 32),
                    rs2: Reg::ZERO,
                    target: (i as u32) / 2, // backward, in range
                },
                _ => Instr::Halt,
            })
            .collect();
        let program = Program::from_instrs("prop", instrs);
        let text = program.to_string();
        let reparsed = parse_program("prop", &text).unwrap();
        prop_assert_eq!(reparsed.len(), program.len());
        for (a, b) in program.iter().zip(reparsed.iter()) {
            prop_assert_eq!(a, b);
        }
    }
}
