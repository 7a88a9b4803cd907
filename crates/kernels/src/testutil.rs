//! Shared test harness: runs generated kernels on the cycle-level core in
//! all three access styles and extracts their output.

use crate::AccessStyle;
use assasin_core::{Core, CoreConfig, CoreState, DramWindow, NullEnv, SyntheticEnv};
use assasin_isa::Program;
use assasin_sim::SimTime;

/// Default staging page size for tests.
pub const PAGE: usize = 512;
/// Default ping-pong bank size for tests.
pub const BANK: usize = 1024;

/// Runs `program` in the given style over `inputs` (one slice per input
/// stream; all the same length) with `image` preloaded into the
/// scratchpad (`(offset, bytes)` pairs, as the kernels' `scratchpad_image`
/// functions return them), and returns `(core, output_bytes)`.
///
/// # Panics
///
/// Panics if the core wedges — kernels must never produce model errors.
pub fn run_kernel(
    style: AccessStyle,
    program: Program,
    inputs: &[&[u8]],
    granularity: usize,
    image: &[(u32, Vec<u8>)],
) -> (Core, Vec<u8>) {
    match style {
        AccessStyle::Stream => run_stream(program, inputs, image),
        AccessStyle::PingPong => run_pingpong(program, inputs, granularity, image),
        AccessStyle::Mem => run_mem(program, inputs, image),
    }
}

/// Stream-style run (AssasinSb configuration).
pub fn run_stream(program: Program, inputs: &[&[u8]], image: &[(u32, Vec<u8>)]) -> (Core, Vec<u8>) {
    let mut env = stream_env(inputs);
    let mut core = preloaded(CoreConfig::assasin_sb(), program, image);
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
    core.flush_output(env).expect("stream 0 exists");
    env.output(0).to_vec()
}

/// Ping-pong run (AssasinSp configuration). Multi-stream inputs are
/// interleaved into banks as `n` equal chunks, the firmware convention the
/// kernels expect.
pub fn run_pingpong(
    program: Program,
    inputs: &[&[u8]],
    granularity: usize,
    image: &[(u32, Vec<u8>)],
) -> (Core, Vec<u8>) {
    let mut env = pingpong_env(inputs, granularity);
    let mut core = preloaded(CoreConfig::assasin_sp(), program, image);
    core.run_to_halt(&mut env);
    assert_halted(&core);
    let out = env.bank_output().to_vec();
    (core, out)
}

/// The environment of a ping-pong run (see [`run_pingpong`]).
pub fn pingpong_env(inputs: &[&[u8]], granularity: usize) -> SyntheticEnv {
    let len = inputs[0].len();
    assert!(
        inputs.iter().all(|i| i.len() == len),
        "equal-length streams"
    );
    let mut env = SyntheticEnv::new(8, PAGE);
    env.set_interleaved_banks(inputs, BANK, granularity);
    env
}

/// DRAM-staged run (Baseline configuration).
pub fn run_mem(program: Program, inputs: &[&[u8]], image: &[(u32, Vec<u8>)]) -> (Core, Vec<u8>) {
    let len = inputs[0].len();
    assert!(
        inputs.iter().all(|i| i.len() == len),
        "equal-length streams"
    );
    // Generous output space: decompression can expand many-fold.
    let out_bytes = (8 * inputs.len() * len).max(256 * 1024);
    let mut window = DramWindow::new(inputs.len(), len as u64, out_bytes as u64, 4096);
    for (sid, input) in inputs.iter().enumerate() {
        window.stage(sid, 0, input, SimTime::ZERO);
    }
    let mut core = preloaded(CoreConfig::baseline(), program, image);
    core.launch_mem(window)
        .expect("Baseline runs on the Mem data path");
    core.run_to_halt(&mut NullEnv::default());
    assert_halted(&core);
    let out = core.mem_output().expect("output fits the window").to_vec();
    (core, out)
}

/// A core with `image` written into its scratchpad.
pub fn preloaded(cfg: CoreConfig, program: Program, image: &[(u32, Vec<u8>)]) -> Core {
    let mut core = Core::new(0, cfg, program);
    core.preload(image).expect("scratchpad image fits");
    core
}

fn assert_halted(core: &Core) {
    match core.state() {
        CoreState::Halted => {}
        other => panic!("kernel did not halt cleanly: {other:?}"),
    }
}
