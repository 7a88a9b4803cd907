//! `scomp` requests and results (Section V-D).

use assasin_core::InstrMix;
use assasin_ftl::Lpa;
use assasin_isa::Program;
use assasin_kernels::AccessStyle;
use assasin_sim::stats::CycleBreakdown;
use assasin_sim::SimDur;

/// A compute function packaged for offload: program generators for every
/// access style plus the scratchpad state image (Table II's "function
/// states") the firmware preloads.
pub struct KernelBundle {
    name: String,
    build: Box<dyn Fn(AccessStyle) -> Program + Send + Sync>,
    scratchpad_image: Vec<(u32, Vec<u8>)>,
    granularity: u32,
    max_out_per_in: f64,
    record_delim: Option<u8>,
}

impl KernelBundle {
    /// Creates a bundle. `granularity` is the object size in bytes — task
    /// decomposition splits streams only on object boundaries (Section
    /// V-D). `max_out_per_in` bounds output size relative to input (for
    /// staging-buffer sizing); use 0.0 for kernels with no data output.
    pub fn new(
        name: impl Into<String>,
        granularity: u32,
        max_out_per_in: f64,
        build: impl Fn(AccessStyle) -> Program + Send + Sync + 'static,
    ) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        KernelBundle {
            name: name.into(),
            build: Box::new(build),
            scratchpad_image: Vec::new(),
            granularity,
            max_out_per_in,
            record_delim: None,
        }
    }

    /// Marks the input as variable-length records terminated by `delim`
    /// (e.g. `b'\n'` for CSV). Task decomposition then snaps shard
    /// boundaries to the next delimiter so no record straddles two
    /// engines — splitting mid-record would silently drop or corrupt the
    /// straddled record on both sides.
    pub fn with_record_delim(mut self, delim: u8) -> Self {
        self.record_delim = Some(delim);
        self
    }

    /// Adds scratchpad state to preload (GF tables, key schedules, ...).
    pub fn with_scratchpad_image(mut self, image: Vec<(u32, Vec<u8>)>) -> Self {
        self.scratchpad_image = image;
        self
    }

    /// Kernel name (diagnostics and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the program for an access style.
    pub fn program(&self, style: AccessStyle) -> Program {
        (self.build)(style)
    }

    /// The preload image.
    pub fn scratchpad_image(&self) -> &[(u32, Vec<u8>)] {
        &self.scratchpad_image
    }

    /// Object granularity in bytes.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// Output bound per input byte.
    pub fn max_out_per_in(&self) -> f64 {
        self.max_out_per_in
    }

    /// Record delimiter for variable-length-record inputs, if any.
    pub fn record_delim(&self) -> Option<u8> {
        self.record_delim
    }
}

impl std::fmt::Debug for KernelBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelBundle")
            .field("name", &self.name)
            .field("granularity", &self.granularity)
            .field("max_out_per_in", &self.max_out_per_in)
            .finish_non_exhaustive()
    }
}

/// Where an offloaded function's output stream goes (Section V-D: the
/// LPA list addresses either the read-path input or the write-path
/// output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputTarget {
    /// Read-path: results cross SSD DRAM and PCIe to the host.
    Host,
    /// Write-path: results are written back to flash as logical pages
    /// starting at `first_lpa` (each engine gets a disjoint LPA region).
    /// Neither the host link nor (for ASSASIN variants) the SSD DRAM sees
    /// the data.
    Flash {
        /// First logical page of the output region.
        first_lpa: u64,
    },
}

/// A computational-storage request: `(compute, List[List[LPA]])` wrapped in
/// the NVMe `scomp` command (Figure 9).
#[derive(Debug)]
pub struct ScompRequest {
    /// The offloaded function.
    pub kernel: KernelBundle,
    /// One LPA list per input stream (the outer dimension is the stream
    /// count).
    pub input_streams: Vec<Vec<Lpa>>,
    /// Valid bytes in each stream (the final page may be partially used);
    /// `None` means every page is fully used.
    pub stream_bytes: Option<Vec<u64>>,
    /// Where the output stream goes.
    pub output: OutputTarget,
}

impl ScompRequest {
    /// Creates a read-path request over fully-used pages.
    pub fn new(kernel: KernelBundle, input_streams: Vec<Vec<Lpa>>) -> Self {
        ScompRequest {
            kernel,
            input_streams,
            stream_bytes: None,
            output: OutputTarget::Host,
        }
    }

    /// Limits each stream to a byte length (for non-page-aligned objects).
    pub fn with_stream_bytes(mut self, bytes: Vec<u64>) -> Self {
        self.stream_bytes = Some(bytes);
        self
    }

    /// Turns this into a write-path request (results to flash).
    pub fn with_flash_output(mut self, first_lpa: u64) -> Self {
        self.output = OutputTarget::Flash { first_lpa };
        self
    }
}

/// Per-engine execution report.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Cycles the engine ran.
    pub cycles: u64,
    /// Stall decomposition (Figure 5).
    pub breakdown: CycleBreakdown,
    /// Retired instruction mix.
    pub mix: InstrMix,
    /// Input bytes this engine consumed.
    pub bytes_in: u64,
    /// Output bytes this engine produced.
    pub bytes_out: u64,
    /// Busy fraction of the request's elapsed time (Figure 17).
    pub utilization: f64,
}

/// The result of an `scomp` execution.
#[derive(Debug, Clone)]
pub struct ScompResult {
    /// Wall-clock (simulated) duration of the request.
    pub elapsed: SimDur,
    /// Total input bytes streamed out of flash.
    pub bytes_in: u64,
    /// Total result bytes delivered to the host.
    pub bytes_out: u64,
    /// Result bytes, per engine, in task-decomposition order.
    pub outputs: Vec<Vec<u8>>,
    /// Per-engine reports (empty for the analytical UDP path).
    pub per_core: Vec<CoreReport>,
    /// Bytes moved over the SSD DRAM bus during the request.
    pub dram_traffic: u64,
    /// Write-path: the logical pages holding each engine's output, in
    /// engine order (empty for read-path requests).
    pub output_lpas: Vec<Vec<Lpa>>,
    /// Bytes read per flash channel (Figure 18).
    pub channel_bytes: Vec<u64>,
    /// Per-channel bus busy time over the request.
    pub channel_busy: Vec<SimDur>,
    /// Co-simulation rounds after which an engine was still running (the
    /// completing round is not counted); 0 on the analytical UDP path.
    pub cosim_rounds: u64,
    /// Fixed-epoch rounds the event-driven deadline jumped over. The last
    /// round's deadline is `1 + cosim_rounds + epochs_skipped` epochs.
    pub epochs_skipped: u64,
}

impl ScompResult {
    /// Input throughput in bytes/second, `NaN` when no time elapsed
    /// (an instantaneous measurement has no defined rate; report code
    /// that needs to distinguish uses `assasin_sim::stats::throughput_bps`
    /// directly, which returns `Option`).
    pub fn throughput_bps(&self) -> f64 {
        assasin_sim::stats::throughput_bps(self.bytes_in, self.elapsed).unwrap_or(f64::NAN)
    }

    /// Input throughput in GB/s (the paper's unit).
    pub fn throughput_gbps(&self) -> f64 {
        self.throughput_bps() / 1e9
    }

    /// All engine outputs concatenated in order.
    pub fn concat_output(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes_out as usize);
        for o in &self.outputs {
            out.extend_from_slice(o);
        }
        out
    }

    /// Aggregate cycle breakdown across engines.
    pub fn total_breakdown(&self) -> CycleBreakdown {
        let mut total = CycleBreakdown::default();
        for r in &self.per_core {
            total.merge(&r.breakdown);
        }
        total
    }

    /// DRAM traffic per input byte — the memory-wall witness: ~2.0 for
    /// Baseline, ~0 for ASSASIN variants on reduction kernels.
    pub fn dram_per_input_byte(&self) -> f64 {
        if self.bytes_in == 0 {
            0.0
        } else {
            self.dram_traffic as f64 / self.bytes_in as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_builds_programs() {
        let b = KernelBundle::new("scan", 8, 0.0, assasin_kernels::scan::program);
        assert_eq!(b.name(), "scan");
        let p = b.program(AccessStyle::Stream);
        assert!(!p.is_empty());
        let dbg = format!("{b:?}");
        assert!(dbg.contains("scan"));
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_rejected() {
        let _ = KernelBundle::new("x", 0, 0.0, assasin_kernels::scan::program);
    }
}
