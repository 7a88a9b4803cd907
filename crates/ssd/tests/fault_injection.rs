//! End-to-end reliability behavior: flash faults crossing the FTL and the
//! firmware data planes must surface as typed [`SsdError`]s with physical
//! address context — never a panic, never a wedged co-simulation.

use assasin_core::EngineKind;
use assasin_flash::FaultConfig;
use assasin_kernels::scan;
use assasin_ssd::{KernelBundle, ScompRequest, Ssd, SsdConfig, SsdError};

fn scan_bundle() -> KernelBundle {
    KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program)
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 239) as u8).collect()
}

fn loaded_ssd(cfg: SsdConfig, bytes: usize) -> (Ssd, Vec<assasin_ftl::Lpa>, Vec<u8>) {
    let mut ssd = Ssd::new(cfg);
    let data = pattern(bytes);
    let lpas = ssd.load_object(0, &data).expect("load");
    (ssd, lpas, data)
}

/// With the retry ladder disabled and a BER far beyond the ECC budget,
/// every read is uncorrectable: the host read must degrade to a typed
/// [`SsdError::Media`] carrying both the logical and physical address.
#[test]
fn uncorrectable_read_degrades_to_media_error_with_context() {
    let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    cfg.fault = FaultConfig::with_ber(7, 5e-2);
    cfg.fault.read_retry_limit = 0;
    cfg.fault.retry_shrink = 1.0;
    cfg.media_retries = 1;
    let (mut ssd, lpas, data) = loaded_ssd(cfg, 16 * 1024);
    match ssd.read_lpas(&lpas, data.len() as u64) {
        Err(SsdError::Media { lpa, addr, errors }) => {
            assert!(lpa.is_some(), "FTL-mediated read knows the logical page");
            assert!(errors > 0);
            let msg = SsdError::Media { lpa, addr, errors }.to_string();
            assert!(
                msg.contains("uncorrectable") && msg.contains("ch"),
                "display names the physical page: {msg}"
            );
        }
        other => panic!("expected SsdError::Media, got {other:?}"),
    }
    assert!(ssd.reliability().uncorrectable > 0);
}

/// SSD-level re-reads recover marginal pages: with λ straddling the ECC
/// budget some senses fail, but a fresh re-read (new op sequence ⇒ new
/// draw) eventually corrects, so the host read succeeds and returns the
/// written bytes while the flash-level uncorrectable counter records the
/// failed attempts.
#[test]
fn media_retries_recover_marginal_pages() {
    let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    // λ = 32768 * 1.22e-3 ≈ 40 = ecc_bits: each sense corrects or fails on
    // the draw; the ladder plus 8 re-reads makes recovery certain in
    // practice for this fixed seed.
    cfg.fault = FaultConfig::with_ber(11, 1.22e-3);
    cfg.fault.read_retry_limit = 1;
    cfg.fault.retry_shrink = 1.0;
    cfg.media_retries = 8;
    let (mut ssd, lpas, data) = loaded_ssd(cfg, 32 * 1024);
    let r = ssd
        .read_lpas(&lpas, data.len() as u64)
        .expect("re-reads recover every marginal page");
    assert_eq!(r.data, data, "recovered data is bit-exact");
    let rel = ssd.reliability();
    assert!(
        rel.read_retries > 0 || rel.uncorrectable > 0,
        "the marginal regime actually exercised the retry machinery: {rel:?}"
    );
}

/// Program failures during scomp's write path grow blocks bad and retire
/// them, but the computation still completes and the stored results stay
/// bit-exact.
#[test]
fn grown_bad_blocks_keep_write_path_results_intact() {
    use assasin_kernels::replicate;
    let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    cfg.fault = FaultConfig::with_ber(5, 0.0);
    cfg.fault.program_fail_prob = 0.05;
    let (mut ssd, lpas, data) = loaded_ssd(cfg, 64 * 1024);
    let expect = replicate::golden(&data);
    let bundle = KernelBundle::new(
        "replicate",
        replicate::TUPLE_BYTES,
        replicate::COPIES as f64,
        replicate::program,
    );
    let req = ScompRequest::new(bundle, vec![lpas])
        .with_stream_bytes(vec![data.len() as u64])
        .with_flash_output(50_000);
    let r = ssd.scomp(&req).expect("write-path scomp survives faults");
    let mut stored = Vec::new();
    for (core_lpas, out) in r.output_lpas.iter().zip(&r.outputs) {
        let io = ssd
            .read_lpas(core_lpas, out.len() as u64)
            .expect("read back");
        stored.extend_from_slice(&io.data);
    }
    assert_eq!(stored, expect, "no data lost across block retirement");
    assert!(
        ssd.reliability().grown_bad_blocks > 0,
        "the fault rate actually retired blocks: {:?}",
        ssd.reliability()
    );
}

/// The whole fault pipeline is deterministic: same seed, same operation
/// sequence ⇒ byte-identical results and counters.
#[test]
fn fault_injection_is_deterministic_end_to_end() {
    let run = || {
        let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
        cfg.fault = FaultConfig::with_ber(0xA55A, 1e-3);
        cfg.fault.retention = 4.0;
        cfg.fault.program_fail_prob = 1e-2;
        let (mut ssd, lpas, data) = loaded_ssd(cfg, 128 * 1024);
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        let r = ssd.scomp(&req).expect("scomp completes under faults");
        (r.elapsed, r.bytes_in, ssd.reliability())
    };
    assert_eq!(run(), run());
}
