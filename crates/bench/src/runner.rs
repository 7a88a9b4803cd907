//! The harness's one device set-up path: how an experiment's SSD is
//! configured ([`harness_config`]) and where its input streams land on
//! flash ([`Streams::load`]).

use assasin_core::EngineKind;
use assasin_ftl::Lpa;
use assasin_ssd::{KernelBundle, ScompRequest, ScompResult, Ssd, SsdConfig, SsdError, SsdImage};

/// The paper's evaluated SSD with one engine architecture.
pub fn harness_config(
    engine: EngineKind,
    n_cores: usize,
    adjusted: bool,
    channel_local: bool,
) -> SsdConfig {
    let mut cfg = SsdConfig::engine_config(engine);
    cfg.n_cores = n_cores;
    cfg.adjusted_timing = adjusted;
    cfg.channel_local = channel_local;
    cfg
}

/// Builds a device with [`harness_config`].
pub fn ssd_with(engine: EngineKind, n_cores: usize, adjusted: bool, channel_local: bool) -> Ssd {
    Ssd::new(harness_config(engine, n_cores, adjusted, channel_local))
}

/// Input streams loaded as flash objects, plus what a `scomp` request
/// over them needs.
#[derive(Debug, Clone)]
pub struct Streams {
    /// Each stream's LPA list, in stream order.
    pub lpa_lists: Vec<Vec<Lpa>>,
    /// Each stream's length in bytes.
    pub lengths: Vec<u64>,
}

impl Streams {
    /// Loads stream `i` at base LPA `i << 20`, far enough apart that no
    /// two streams overlap.
    ///
    /// # Errors
    ///
    /// Propagates SSD load errors (capacity, device full, media).
    pub fn load<B: AsRef<[u8]>>(
        ssd: &mut Ssd,
        streams: impl IntoIterator<Item = B>,
    ) -> Result<Self, SsdError> {
        let mut loaded = Streams {
            lpa_lists: Vec::new(),
            lengths: Vec::new(),
        };
        for (i, data) in streams.into_iter().enumerate() {
            let data = data.as_ref();
            loaded
                .lpa_lists
                .push(ssd.load_object((i as u64) << 20, data)?);
            loaded.lengths.push(data.len() as u64);
        }
        Ok(loaded)
    }

    /// The `scomp` request running `bundle` over the streams.
    pub fn request(&self, bundle: KernelBundle) -> ScompRequest {
        ScompRequest::new(bundle, self.lpa_lists.clone()).with_stream_bytes(self.lengths.clone())
    }
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
    let loaded = Streams::load(ssd, streams)?;
    ssd.scomp(&loaded.request(bundle))
}

/// A device image preconditioned with a set of input streams. Sweeps that
/// run the same dataset under many engine/core configurations build one
/// of these and fork per point instead of re-generating and re-loading
/// the data every time.
///
/// Loading is engine-independent (the FTL and flash contents depend only
/// on geometry, NAND timing and the fault model, which
/// [`SsdConfig::engine_config`] holds constant), so a fork under any
/// engine is byte-identical to a fresh device loaded under that engine.
#[derive(Debug, Clone)]
pub struct LoadedImage {
    image: SsdImage,
    streams: Streams,
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
        let streams = Streams::load(&mut ssd, streams)?;
        Ok(LoadedImage {
            image: ssd.into_image(),
            streams,
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
        self.image
            .fork(harness_config(engine, n_cores, adjusted, channel_local))
    }

    /// Rebuilds the `scomp` request for the preconditioned streams
    /// ([`KernelBundle`] is not `Clone`, so each point supplies its own).
    pub fn request(&self, bundle: KernelBundle) -> ScompRequest {
        self.streams.request(bundle)
    }

    /// Fork + request + run in one step, on 8 cores over the crossbar.
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
        ssd.scomp(&self.request(bundle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundles;

    #[test]
    fn offload_round_trips() {
        let data = vec![vec![3u8; 128 * 1024]];
        let mut ssd = ssd_with(EngineKind::AssasinSb, 8, false, false);
        let fresh = offload(&mut ssd, bundles::scan_bundle(), &data).expect("scan offload");
        assert_eq!(fresh.bytes_in, 128 * 1024);
        let image = LoadedImage::precondition(&data).expect("scan load");
        let forked = image
            .offload(EngineKind::AssasinSb, false, bundles::scan_bundle())
            .expect("forked scan offload");
        assert_eq!(forked.bytes_in, fresh.bytes_in);
        assert_eq!(
            forked.elapsed, fresh.elapsed,
            "a fork must not change timing"
        );
    }
}
