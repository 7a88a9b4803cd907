//! Deadline slicing is invisible to the kernels.
//!
//! The SSD runs each core through [`Core::run`] with a deadline per
//! co-simulation round. That must not change what the core computes or
//! when: a core run with a deadline every `k` cycles ends in the same
//! registers, cycles, instruction mix, cycle breakdown and output bytes as
//! the same core run to halt in one call. And at every deadline the sliced
//! core has retired exactly the instructions issued before it, no more and
//! no fewer, which a reference run that retires one instruction per call
//! pins instruction by instruction.

use crate::testutil::{pingpong_env, preloaded, stream_env, stream_output};
use crate::{aes, query, raid, scan, stat, AccessStyle};
use assasin_core::{Core, CoreConfig, CoreState, InstrMix, RunOutcome, SyntheticEnv};
use assasin_isa::{Program, Reg};
use assasin_sim::stats::CycleBreakdown;
use assasin_sim::SimTime;
use proptest::prelude::*;

/// The kernels under test, each with its own loop shape: byte scan,
/// column sum, four-stream parity, a data-dependent filter with an output
/// stream, and table-driven AES.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Scan,
    Stat,
    Raid4,
    Filter(query::FilterParams),
    Aes,
}

const AES_KEY: [u8; 16] = *b"slicing-test-key";

impl Kernel {
    fn program(self, style: AccessStyle) -> Program {
        match self {
            Kernel::Scan => scan::program(style),
            Kernel::Stat => stat::program(style),
            Kernel::Raid4 => raid::raid4_program(style),
            Kernel::Filter(p) => query::filter_program(style, p),
            Kernel::Aes => aes::program(style),
        }
    }

    /// Input streams the kernel reads.
    fn streams(self) -> usize {
        match self {
            Kernel::Raid4 => raid::DATA_STREAMS as usize,
            _ => 1,
        }
    }

    /// Bytes per loop iteration; inputs are whole tuples.
    fn tuple_bytes(self) -> usize {
        match self {
            Kernel::Scan => scan::TUPLE_BYTES as usize,
            Kernel::Stat => stat::TUPLE_BYTES as usize,
            Kernel::Raid4 => 4,
            Kernel::Filter(p) => p.tuple_words as usize * 4,
            Kernel::Aes => 16,
        }
    }
}

/// A small deterministic byte source for the inputs (splitmix64).
fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// One launch: a fresh core and environment, identical on every call.
struct Launch {
    kernel: Kernel,
    style: AccessStyle,
    inputs: Vec<Vec<u8>>,
    rate: Option<f64>,
}

impl Launch {
    fn start(&self) -> (Core, SyntheticEnv) {
        let refs: Vec<&[u8]> = self.inputs.iter().map(Vec::as_slice).collect();
        let (cfg, mut env) = match self.style {
            AccessStyle::Stream => (CoreConfig::assasin_sb(), stream_env(&refs)),
            AccessStyle::PingPong => (
                CoreConfig::assasin_sp(),
                pingpong_env(&refs, self.kernel.tuple_bytes()),
            ),
            AccessStyle::Mem => unreachable!("slicing covers the two storage-side styles"),
        };
        env.set_rate(self.rate);
        let image = match self.kernel {
            Kernel::Aes => aes::scratchpad_image(&AES_KEY),
            _ => Vec::new(),
        };
        let core = preloaded(cfg, self.kernel.program(self.style), None, &image);
        (core, env)
    }

    fn output(&self, core: &mut Core, env: &mut SyntheticEnv) -> Vec<u8> {
        match self.style {
            AccessStyle::Stream => stream_output(core, env),
            _ => env.bank_output().to_vec(),
        }
    }
}

/// The state compared at every deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Point {
    cycles: u64,
    retired: u64,
    pc: u32,
    regs: [u32; 32],
}

fn point(core: &Core) -> Point {
    Point {
        cycles: core.cycles(),
        retired: core.mix().total,
        pc: core.pc(),
        regs: std::array::from_fn(|i| core.reg(Reg::new(i as u8))),
    }
}

/// Everything compared once the core halted.
#[derive(Debug, PartialEq, Eq)]
struct Finish {
    point: Point,
    mix: InstrMix,
    breakdown: CycleBreakdown,
    output: Vec<u8>,
}

fn finish(launch: &Launch, mut core: Core, mut env: SyntheticEnv) -> Result<Finish, String> {
    if core.state() != &CoreState::Halted {
        return Err(format!("core did not halt: {:?}", core.state()));
    }
    let output = launch.output(&mut core, &mut env);
    Ok(Finish {
        point: point(&core),
        mix: *core.mix(),
        breakdown: core.breakdown().clone(),
        output,
    })
}

/// Runs `core` with deadlines at `k`, `2k`, `3k`, … cycles until it
/// stops, calling `at_deadline` with each deadline (in cycles) the core
/// ran up to and was still running at.
fn run_sliced(
    core: &mut Core,
    env: &mut SyntheticEnv,
    k: u64,
    mut at_deadline: impl FnMut(&Core, u64) -> Result<(), String>,
) -> Result<(), String> {
    let period = core.config().clock.period_ps();
    let mut limit = 0;
    loop {
        limit += k;
        match core.run(env, SimTime::from_ps(limit * period)) {
            RunOutcome::BlockedUntil(_) => at_deadline(core, limit)?,
            RunOutcome::Halted => return Ok(()),
            RunOutcome::Wedged => return Err(format!("wedged: {:?}", core.state())),
        }
    }
}

/// Checks one launch; returns why it failed.
fn check(launch: &Launch, k: u64) -> Result<(), String> {
    // Reference: one instruction per call. `after[i]` is the state once
    // instruction `i` retired; instruction `i` issued at cycle
    // `after[i - 1].cycles` (0 for the first).
    let (mut core, mut env) = launch.start();
    let period = core.config().clock.period_ps();
    let mut after: Vec<Point> = Vec::new();
    loop {
        let before = point(&core);
        let outcome = core.run(&mut env, SimTime::from_ps((before.cycles + 1) * period));
        let now = point(&core);
        if now.retired != before.retired + 1 {
            return Err(format!(
                "a deadline one cycle after cycle {} retired {} instructions, not 1 (pc {} -> {})",
                before.cycles,
                now.retired - before.retired,
                before.pc,
                now.pc
            ));
        }
        after.push(now);
        if !matches!(outcome, RunOutcome::BlockedUntil(_)) {
            break;
        }
    }
    let stepped = finish(launch, core, env)?;

    // One call, no deadline.
    let (mut core, mut env) = launch.start();
    core.run_to_halt(&mut env);
    let whole = finish(launch, core, env)?;
    if stepped != whole {
        return Err(format!(
            "one-instruction steps end in {stepped:?}, run_to_halt in {whole:?}"
        ));
    }

    // A deadline every `k` cycles: at each one the core has retired
    // exactly the instructions issued before it.
    let (mut core, mut env) = launch.start();
    run_sliced(&mut core, &mut env, k, |core, limit| {
        // Instruction 0 issues at cycle 0 < limit; instruction i > 0
        // issues when instruction i - 1 retired.
        let issued = 1 + after[..after.len() - 1].partition_point(|p| p.cycles < limit);
        let expect = &after[issued - 1];
        let got = point(core);
        if &got != expect {
            return Err(format!(
                "deadline at cycle {limit}: sliced core at {got:?}, expected {expect:?}"
            ));
        }
        Ok(())
    })?;
    let sliced = finish(launch, core, env)?;
    if sliced != whole {
        return Err(format!(
            "sliced every {k} cycles ends in {sliced:?}, run_to_halt in {whole:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn deadline_slicing_matches_run_to_halt(
        seed in any::<u64>(),
        tuples in 1usize..=48,
        k in 1u64..=64,
        slow in any::<bool>(),
        filter in (1u32..=12, any::<u32>(), any::<u32>()),
    ) {
        let (tuple_words, lo, span) = filter;
        let filter = query::FilterParams {
            tuple_words,
            pred_word: lo % tuple_words,
            lo,
            hi: lo.saturating_add(span / 2),
        };
        let kernels = [
            Kernel::Scan,
            Kernel::Stat,
            Kernel::Raid4,
            Kernel::Filter(filter),
            Kernel::Aes,
        ];
        for (i, kernel) in kernels.into_iter().enumerate() {
            for style in [AccessStyle::Stream, AccessStyle::PingPong] {
                // AES retires ~70 instructions per byte: fewer blocks.
                let n = if let Kernel::Aes = kernel { tuples.div_ceil(4) } else { tuples };
                let len = n * kernel.tuple_bytes();
                let launch = Launch {
                    kernel,
                    style,
                    inputs: (0..kernel.streams())
                        .map(|s| bytes(seed ^ (((i * 8 + s) as u64) << 56), len))
                        .collect(),
                    // A slow input makes the core stall on data, so
                    // deadlines also fall inside multi-cycle stalls.
                    rate: slow.then_some(0.5e9),
                };
                if let Err(why) = check(&launch, k) {
                    return Err(format!("{kernel:?} {style:?}, {len} B, k = {k}: {why}"));
                }
            }
        }
    }
}
