//! SSD construction and single-function offload helpers.

use assasin_core::EngineKind;
use assasin_ftl::Lpa;
use assasin_ssd::{KernelBundle, ScompRequest, ScompResult, Ssd, SsdConfig, SsdError, SsdImage};

/// Builds the paper's evaluated SSD with one engine architecture.
pub fn ssd_with(engine: EngineKind, n_cores: usize, adjusted: bool, channel_local: bool) -> Ssd {
    let mut cfg = SsdConfig::engine_config(engine);
    cfg.n_cores = n_cores;
    cfg.adjusted_timing = adjusted;
    cfg.channel_local = channel_local;
    Ssd::new(cfg)
}

/// Loads `streams` as flash objects and runs `bundle` over them, returning
/// the scomp result.
///
/// # Errors
///
/// Propagates SSD errors (the harness treats them as fatal).
pub fn offload(
    ssd: &mut Ssd,
    bundle: KernelBundle,
    streams: &[Vec<u8>],
) -> Result<ScompResult, SsdError> {
    let mut lpa_lists = Vec::with_capacity(streams.len());
    let mut lengths = Vec::with_capacity(streams.len());
    for (i, data) in streams.iter().enumerate() {
        // Spread stream base LPAs far apart.
        let base = (i as u64) * (1 << 20);
        lpa_lists.push(ssd.load_object(base, data)?);
        lengths.push(data.len() as u64);
    }
    let req = ScompRequest::new(bundle, lpa_lists).with_stream_bytes(lengths);
    ssd.scomp(&req)
}

/// A device image preconditioned with a set of input streams, plus the
/// LPA lists and byte lengths needed to rebuild a `scomp` request against
/// any fork. Sweeps that run the same dataset under many engine/core
/// configurations build one of these and fork per point instead of
/// re-generating and re-loading the data every time.
///
/// Loading is engine-independent (the FTL and flash contents depend only
/// on geometry, NAND timing and the fault model, which
/// [`SsdConfig::engine_config`] holds constant), so a fork under any
/// engine is byte-identical to a fresh device loaded under that engine.
#[derive(Debug, Clone)]
pub struct LoadedImage {
    image: SsdImage,
    lpa_lists: Vec<Vec<Lpa>>,
    lengths: Vec<u64>,
}

impl LoadedImage {
    /// Loads `streams` once (under the Baseline engine config — the media
    /// contents are engine-independent) and detaches the device image.
    ///
    /// # Errors
    ///
    /// Propagates SSD load errors.
    pub fn precondition(streams: &[Vec<u8>]) -> Result<Self, SsdError> {
        let mut ssd = ssd_with(EngineKind::Baseline, 8, false, false);
        let mut lpa_lists = Vec::with_capacity(streams.len());
        let mut lengths = Vec::with_capacity(streams.len());
        for (i, data) in streams.iter().enumerate() {
            // Spread stream base LPAs far apart (matches `offload`).
            let base = (i as u64) * (1 << 20);
            lpa_lists.push(ssd.load_object(base, data)?);
            lengths.push(data.len() as u64);
        }
        Ok(LoadedImage {
            image: ssd.into_image(),
            lpa_lists,
            lengths,
        })
    }

    /// Forks a runnable device with the harness config for `engine`
    /// (copy-on-write: flash pages are shared until a write diverges).
    pub fn fork(
        &self,
        engine: EngineKind,
        n_cores: usize,
        adjusted: bool,
        channel_local: bool,
    ) -> Ssd {
        let mut cfg = SsdConfig::engine_config(engine);
        cfg.n_cores = n_cores;
        cfg.adjusted_timing = adjusted;
        cfg.channel_local = channel_local;
        self.image.fork(cfg)
    }

    /// Rebuilds the `scomp` request for the preconditioned streams
    /// ([`KernelBundle`] is not `Clone`, so each point supplies its own).
    pub fn request(&self, bundle: KernelBundle) -> ScompRequest {
        ScompRequest::new(bundle, self.lpa_lists.clone()).with_stream_bytes(self.lengths.clone())
    }

    /// Fork + request + run in one step: the fork-based equivalent of
    /// [`offload_fresh`].
    ///
    /// # Errors
    ///
    /// Propagates SSD errors (the harness treats them as fatal).
    pub fn offload(
        &self,
        engine: EngineKind,
        adjusted: bool,
        bundle: KernelBundle,
    ) -> Result<ScompResult, SsdError> {
        let mut ssd = self.fork(engine, 8, adjusted, false);
        let req = self.request(bundle);
        ssd.scomp(&req)
    }
}

/// Convenience: build an SSD for `engine`, load, offload, return the result.
///
/// # Errors
///
/// Propagates SSD errors.
pub fn offload_fresh(
    engine: EngineKind,
    adjusted: bool,
    bundle: KernelBundle,
    streams: &[Vec<u8>],
) -> Result<ScompResult, SsdError> {
    let mut ssd = ssd_with(engine, 8, adjusted, false);
    offload(&mut ssd, bundle, streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundles;

    #[test]
    fn offload_round_trips() {
        let data = vec![vec![3u8; 128 * 1024]];
        let r = offload_fresh(EngineKind::AssasinSb, false, bundles::scan_bundle(), &data)
            .expect("scan offload");
        assert_eq!(r.bytes_in, 128 * 1024);
    }
}
