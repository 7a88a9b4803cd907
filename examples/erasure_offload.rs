//! Erasure-coding offload: compute RAID6 P+Q parity inside the SSD over
//! four data streams, then demonstrate recovery of a lost stream — the
//! storage-infrastructure scenario of Table II ("Erasure coding").
//!
//! Run with: `cargo run --release --example erasure_offload`

use assasin::core::EngineKind;
use assasin::kernels::{gf256, raid};
use assasin::ssd::{KernelBundle, ScompRequest, Ssd, SsdConfig};

const STREAM_BYTES: usize = 1 << 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ssd = Ssd::new(SsdConfig::engine_config(EngineKind::AssasinSb));

    // Four 1 MiB data blocks, stored as separate objects.
    let blocks: Vec<Vec<u8>> = (0..4)
        .map(|s| {
            (0..STREAM_BYTES)
                .map(|i| ((i * 31 + s * 1009 + 17) % 256) as u8)
                .collect()
        })
        .collect();
    let mut lpa_lists = Vec::new();
    for (s, block) in blocks.iter().enumerate() {
        lpa_lists.push(ssd.load_object((s as u64) * (1 << 20), block)?);
    }

    // Offload RAID6: the kernel streams all four blocks out of flash and
    // emits interleaved (P, Q) byte pairs; the GF(256) multiply tables
    // live in each core's scratchpad (Table II's function state).
    let bundle = KernelBundle::new("raid6", 1, 0.5, raid::raid6_program)
        .with_scratchpad_image(raid::raid6_tables());
    let request =
        ScompRequest::new(bundle, lpa_lists).with_stream_bytes(vec![STREAM_BYTES as u64; 4]);
    let result = ssd.scomp(&request)?;
    println!(
        "coded 4 x {} KiB at {:.2} GB/s (input side), DRAM traffic {:.2} B/B",
        STREAM_BYTES >> 10,
        result.throughput_gbps(),
        result.dram_per_input_byte()
    );

    // Split the interleaved output into P and Q syndromes.
    let coded = result.concat_output();
    let p_syndrome: Vec<u8> = coded.iter().copied().step_by(2).collect();
    let q_syndrome: Vec<u8> = coded.iter().copied().skip(1).step_by(2).collect();
    assert_eq!(p_syndrome.len(), STREAM_BYTES);

    // Verify against the golden model.
    let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
    assert_eq!(
        coded,
        raid::raid6_golden(&refs),
        "in-SSD parity must be exact"
    );

    // Demonstrate single-failure recovery via P: lose block 2, rebuild it.
    let rebuilt: Vec<u8> = (0..STREAM_BYTES)
        .map(|i| p_syndrome[i] ^ blocks[0][i] ^ blocks[1][i] ^ blocks[3][i])
        .collect();
    assert_eq!(rebuilt, blocks[2]);
    println!("single-failure recovery via P: block 2 rebuilt byte-exact");

    // And a Q-based sanity check on one byte position.
    let i = 12345;
    let q_check = (0..4).fold(0u8, |acc, s| {
        acc ^ gf256::mul(gf256::gen_pow(s as u32), blocks[s][i])
    });
    assert_eq!(q_check, q_syndrome[i]);
    println!("Q syndrome spot-check at byte {i}: ok");
    Ok(())
}
