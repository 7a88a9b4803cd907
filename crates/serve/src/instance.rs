//! The instance layer: the device half of the transport/instance split.
//!
//! An [`Instance`] is whatever actually executes admitted work — a
//! single [`Ssd`] or a whole [`SsdArray`] — exposed to the server as a
//! numbered catalog of workloads. The server never touches device types
//! directly, so serving policy (queues, fairness, SLOs) is identical
//! over both backends.
//!
//! Every execution quiesces the device to t = 0 (that is `Ssd::scomp`'s
//! own contract), so a workload's [`ServiceProfile`] is a pure function
//! of the workload — which is what makes the server's memoization sound.

use crate::error::ServeError;
use assasin_array::SsdArray;
use assasin_sim::SimDur;
use assasin_ssd::{KernelBundle, ScompRequest, Ssd};

/// What one execution of a workload cost, in simulated terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Device-resident service time.
    pub elapsed: SimDur,
    /// Input bytes streamed out of flash.
    pub bytes_in: u64,
    /// Result bytes produced.
    pub bytes_out: u64,
}

/// A device (or device array) offering a numbered workload catalog.
pub trait Instance {
    /// Number of registered workloads (ids are `0..count`).
    fn workload_count(&self) -> usize;

    /// Display name of workload `workload`.
    ///
    /// # Panics
    ///
    /// May panic if `workload` is out of range; the server validates ids
    /// before calling.
    fn workload_name(&self, workload: usize) -> &str;

    /// Executes workload `workload` once on the backing device.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownWorkload`] for an out-of-range id, or the
    /// backing device's typed failure.
    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError>;
}

type RequestBuilder = Box<dyn Fn() -> ScompRequest>;

/// A single simulated SSD serving a catalog of scomp workloads.
pub struct SsdInstance {
    ssd: Ssd,
    workloads: Vec<(String, RequestBuilder)>,
}

impl SsdInstance {
    /// Wraps an already-loaded device (callers `load_object` their data
    /// first, then register workloads over it).
    pub fn new(ssd: Ssd) -> Self {
        SsdInstance {
            ssd,
            workloads: Vec::new(),
        }
    }

    /// Registers a workload and returns its id (registration order).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        build: impl Fn() -> ScompRequest + 'static,
    ) -> usize {
        self.workloads.push((name.into(), Box::new(build)));
        self.workloads.len() - 1
    }

    /// The wrapped device (for loading data).
    pub fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }
}

impl Instance for SsdInstance {
    fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    fn workload_name(&self, workload: usize) -> &str {
        &self.workloads[workload].0
    }

    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError> {
        let (_, build) = self
            .workloads
            .get(workload)
            .ok_or(ServeError::UnknownWorkload {
                workload,
                registered: self.workloads.len(),
            })?;
        let req = build();
        let r = self.ssd.scomp(&req)?;
        Ok(ServiceProfile {
            elapsed: r.elapsed,
            bytes_in: r.bytes_in,
            bytes_out: r.bytes_out,
        })
    }
}

type KernelBuilder = Box<dyn Fn() -> KernelBundle>;

/// An SSD array serving object-scoped kernel workloads.
pub struct ArrayInstance {
    array: SsdArray,
    workloads: Vec<(String, u64, KernelBuilder)>,
}

impl ArrayInstance {
    /// Wraps an already-populated array.
    pub fn new(array: SsdArray) -> Self {
        ArrayInstance {
            array,
            workloads: Vec::new(),
        }
    }

    /// Registers a kernel-over-object workload and returns its id.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        object: u64,
        make_kernel: impl Fn() -> KernelBundle + 'static,
    ) -> usize {
        self.workloads
            .push((name.into(), object, Box::new(make_kernel)));
        self.workloads.len() - 1
    }
}

impl Instance for ArrayInstance {
    fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    fn workload_name(&self, workload: usize) -> &str {
        &self.workloads[workload].0
    }

    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError> {
        let (_, object, make_kernel) =
            self.workloads
                .get(workload)
                .ok_or(ServeError::UnknownWorkload {
                    workload,
                    registered: self.workloads.len(),
                })?;
        let r = self.array.scomp_object(*object, &**make_kernel)?;
        Ok(ServiceProfile {
            elapsed: r.elapsed,
            bytes_in: r.bytes_in,
            bytes_out: r.bytes_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_core::EngineKind;
    use assasin_kernels::scan;
    use assasin_ssd::SsdConfig;

    #[test]
    fn ssd_instance_executes_registered_workloads_and_rejects_unknown_ids() {
        let mut inst =
            SsdInstance::new(Ssd::new(SsdConfig::small_for_tests(EngineKind::AssasinSb)));
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 241) as u8).collect();
        let lpas = inst.ssd_mut().load_object(0, &data).unwrap();
        let bytes = data.len() as u64;
        let id = inst.register("scan", move || {
            let bundle = KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program);
            ScompRequest::new(bundle, vec![lpas.clone()]).with_stream_bytes(vec![bytes])
        });
        assert_eq!(inst.workload_count(), 1);
        assert_eq!(inst.workload_name(id), "scan");

        let p = inst.execute(id).unwrap();
        assert_eq!(p.bytes_in, bytes);
        assert!(!p.elapsed.is_zero());
        // Quiesced device: a second execution costs exactly the same.
        assert_eq!(inst.execute(id).unwrap(), p);

        match inst.execute(7) {
            Err(ServeError::UnknownWorkload {
                workload: 7,
                registered: 1,
            }) => {}
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
    }
}
