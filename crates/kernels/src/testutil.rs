//! Shared test harness: runs generated kernels on the cycle-level core in
//! all three access styles and extracts their output.

use crate::{AccessStyle, LaunchInfo};
use assasin_core::StreamEnv as _;
use assasin_core::{Core, CoreConfig, CoreState, DramWindow, SyntheticEnv};
use assasin_isa::{Program, Reg};
use assasin_mem::Dram;
use assasin_sim::SimTime;

/// Default staging page size for tests.
pub const PAGE: usize = 512;
/// Default ping-pong bank size for tests.
pub const BANK: usize = 1024;

/// Runs `program` in the given style over `inputs` (one slice per input
/// stream; all the same length) and returns `(core, output_bytes)`.
///
/// # Panics
///
/// Panics if the core wedges — kernels must never produce model errors.
pub fn run_kernel(
    style: AccessStyle,
    program: Program,
    inputs: &[&[u8]],
    granularity: usize,
) -> (Core, Vec<u8>) {
    match style {
        AccessStyle::Stream => run_stream(program, inputs),
        AccessStyle::PingPong => run_pingpong(program, inputs, granularity),
        AccessStyle::Mem => run_mem(program, inputs),
    }
}

/// Stream-style run (AssasinSb configuration).
pub fn run_stream(program: Program, inputs: &[&[u8]]) -> (Core, Vec<u8>) {
    let mut env = stream_env(inputs);
    let mut core = Core::new(0, CoreConfig::assasin_sb(), program, None);
    core.run_to_halt(&mut env);
    assert_halted(&core);
    let out = stream_output(&mut core, &mut env);
    (core, out)
}

/// The environment of a stream-style run: input stream `i` holds
/// `inputs[i]`.
pub fn stream_env(inputs: &[&[u8]]) -> SyntheticEnv {
    let mut env = SyntheticEnv::new(8, PAGE);
    for (sid, data) in inputs.iter().enumerate() {
        env.set_input(sid as u32, data);
    }
    env
}

/// Flushes a halted stream-style core's partial last page, as the
/// firmware would, and returns everything written to output stream 0.
pub fn stream_output(core: &mut Core, env: &mut SyntheticEnv) -> Vec<u8> {
    if let Some(tail) = core.sbuf_mut().flush(0).expect("stream 0 exists") {
        env.drain_page(0, 0, tail, SimTime::ZERO);
    }
    env.output(0).to_vec()
}

/// Ping-pong run (AssasinSp configuration). Multi-stream inputs are
/// interleaved into banks as `n` equal chunks, the firmware convention the
/// kernels expect.
pub fn run_pingpong(program: Program, inputs: &[&[u8]], granularity: usize) -> (Core, Vec<u8>) {
    let mut env = pingpong_env(inputs, granularity);
    let mut core = Core::new(0, CoreConfig::assasin_sp(), program, None);
    core.run_to_halt(&mut env);
    assert_halted(&core);
    let out = env.bank_output().to_vec();
    (core, out)
}

/// The environment of a ping-pong run (see [`run_pingpong`]).
pub fn pingpong_env(inputs: &[&[u8]], granularity: usize) -> SyntheticEnv {
    let n = inputs.len();
    let len = inputs[0].len();
    assert!(
        inputs.iter().all(|i| i.len() == len),
        "equal-length streams"
    );
    // The firmware splits object streams on object boundaries
    // (Section V-D: "consistent splitting of each object/LPA stream").
    let chunk = (BANK / n / granularity).max(1) * granularity;
    let mut banks = Vec::new();
    let mut pos = 0;
    while pos < len {
        let take = chunk.min(len - pos);
        for input in inputs {
            banks.extend_from_slice(&input[pos..pos + take]);
        }
        pos += take;
    }
    let mut env = SyntheticEnv::new(8, PAGE);
    let bank_size = (chunk * n).min(banks.len().max(1));
    env.set_banks(&banks, bank_size);
    env
}

/// DRAM-staged run (Baseline configuration).
pub fn run_mem(program: Program, inputs: &[&[u8]]) -> (Core, Vec<u8>) {
    let n = inputs.len();
    let len = inputs[0].len();
    assert!(
        inputs.iter().all(|i| i.len() == len),
        "equal-length streams"
    );
    let stride = len.next_multiple_of(64);
    let out_offset = (n * stride).next_multiple_of(64);
    // Generous output space: decompression can expand many-fold.
    let out_space = (8 * n * len + 64).max(256 * 1024).next_multiple_of(64);
    let mut window = DramWindow::new(out_offset + out_space, 4096);
    for (i, input) in inputs.iter().enumerate() {
        window.stage((i * stride) as u64, input, SimTime::ZERO);
    }
    let launch = LaunchInfo {
        in_len: len as u32,
        in_stride: stride as u32,
        out_offset: out_offset as u32,
    };
    let dram = Dram::lpddr5_8gbps().into_shared();
    let mut core = Core::new(0, CoreConfig::baseline(), program, Some(dram));
    core.set_window(window);
    let (r_len, r_stride, r_out) = LaunchInfo::regs();
    core.set_reg(r_len, launch.in_len);
    core.set_reg(r_stride, launch.in_stride);
    core.set_reg(r_out, launch.out_offset);
    core.run_to_halt(&mut assasin_core::NullEnv);
    assert_halted(&core);
    // Output length = final out cursor - out base.
    let cursor = core.reg(Reg::S5) as u64;
    let base = 0x1000_0000u64 + out_offset as u64;
    assert!(cursor >= base, "output cursor before base");
    let out_len = (cursor - base) as usize;
    let out = core
        .window()
        .expect("window attached")
        .bytes(out_offset as u64, out_len)
        .to_vec();
    (core, out)
}

fn assert_halted(core: &Core) {
    match core.state() {
        CoreState::Halted => {}
        other => panic!("kernel did not halt cleanly: {other:?}"),
    }
}
