//! Ready-to-offload kernel bundles (program generators + function state).

use assasin_kernels::{
    aes, compress, dedup, graph, nn, nn_train, query, raid, replicate, scan, stat,
};
use assasin_ssd::KernelBundle;

/// The benchmark AES key (the FIPS-197 example key).
pub const AES_KEY: [u8; 16] = [
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
];

/// The byte-scan kernel (Figures 16–19).
pub fn scan_bundle() -> KernelBundle {
    KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program)
}

/// The compute-heavier scan used by the Section VI-E skew experiment.
pub fn heavy_scan_bundle() -> KernelBundle {
    KernelBundle::new("scan-heavy", scan::TUPLE_BYTES, 0.0, scan::heavy_program)
}

/// The column-sum kernel (Figure 13 `Stat`).
pub fn stat_bundle() -> KernelBundle {
    KernelBundle::new("stat", stat::TUPLE_BYTES, 0.0, stat::program)
}

/// RAID4 parity (Figure 13).
pub fn raid4_bundle() -> KernelBundle {
    KernelBundle::new("raid4", 4, 0.25, raid::raid4_program)
}

/// RAID6 P+Q (Figure 13); GF tables preloaded as function state.
pub fn raid6_bundle() -> KernelBundle {
    KernelBundle::new("raid6", 1, 0.5, raid::raid6_program)
        .with_scratchpad_image(raid::raid6_tables())
}

/// AES-128 encryption (Figure 13); T-tables + key schedule preloaded.
pub fn aes_bundle() -> KernelBundle {
    KernelBundle::new("aes128", 16, 1.0, aes::program)
        .with_scratchpad_image(aes::scratchpad_image(&AES_KEY))
}

/// Block deduplication (Table II "Deduplicate").
pub fn dedup_bundle() -> KernelBundle {
    KernelBundle::new("dedup", dedup::BLOCK_BYTES, 1.01, dedup::program)
}

/// LZ decompression (Table II "Decompress"). Stream/Mem styles only — see
/// `assasin_kernels::compress`.
pub fn decompress_bundle(max_expansion: f64) -> KernelBundle {
    KernelBundle::new("decompress", 1, max_expansion, compress::decompress_program)
}

/// Replica creation (Table II "Replicate"), typically used write-path.
pub fn replicate_bundle() -> KernelBundle {
    KernelBundle::new(
        "replicate",
        replicate::TUPLE_BYTES,
        replicate::COPIES as f64,
        replicate::program,
    )
}

/// MLP inference with scratchpad-stationary weights (Table II
/// "NN Inference").
pub fn nn_bundle(model: &nn::Model) -> KernelBundle {
    KernelBundle::new(
        "nn-infer",
        nn::TUPLE_BYTES,
        (nn::OUT_DIM * 4) as f64 / nn::TUPLE_BYTES as f64,
        nn::program,
    )
    .with_scratchpad_image(model.scratchpad_image())
}

/// Edge-list degree counting (Table II "Graph Analysis").
pub fn graph_bundle() -> KernelBundle {
    KernelBundle::new("graph-degree", graph::EDGE_BYTES, 0.0, graph::program)
}

/// Streaming SGD (Table II "NN Training"); zero-initialized model.
pub fn nn_train_bundle() -> KernelBundle {
    KernelBundle::new(
        "nn-train",
        nn_train::TUPLE_BYTES,
        4.0 / nn_train::TUPLE_BYTES as f64,
        nn_train::program,
    )
    .with_scratchpad_image(nn_train::LinearModel::zeroed().scratchpad_image())
}

/// Binary tuple filter (the Section III / Figure 5 motivating function).
pub fn filter_bundle(p: query::FilterParams) -> KernelBundle {
    KernelBundle::new("filter", p.tuple_words * 4, 1.0, move |s| {
        query::filter_program(s, p)
    })
}

/// The fused Parse-Select-Filter pipeline (Figures 12, 14, 15).
pub fn psf_bundle(p: query::PsfParams) -> KernelBundle {
    let out_ratio = (p.keep.len() as f64 * 4.0 / 6.0).min(1.0); // bytes out per CSV byte bound
    KernelBundle::new("psf", 1, out_ratio.max(0.8), move |s| {
        query::psf_program(s, &p)
    })
    .with_record_delim(b'\n')
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_kernels::AccessStyle;

    #[test]
    fn bundles_build_programs_for_all_styles() {
        let p = query::PsfParams {
            fields: 12,
            pred_field: 10,
            lo: 0,
            hi: 100,
            keep: vec![0, 5],
        };
        let bundles = [
            scan_bundle(),
            stat_bundle(),
            raid4_bundle(),
            raid6_bundle(),
            aes_bundle(),
            filter_bundle(query::FilterParams {
                tuple_words: 12,
                pred_word: 10,
                lo: 0,
                hi: 100,
            }),
            psf_bundle(p),
        ];
        for b in &bundles {
            for style in AccessStyle::ALL {
                assert!(b.program(style).len() > 3, "{} {style:?}", b.name());
            }
        }
    }

    #[test]
    fn state_heavy_bundles_carry_images() {
        assert!(!raid6_bundle().scratchpad_image().is_empty());
        assert!(!aes_bundle().scratchpad_image().is_empty());
        assert!(scan_bundle().scratchpad_image().is_empty());
    }
}
