//! Per-device execution: one batch of commands fanned out over the
//! array's devices on `assasin_parallel::par_map`, with a deterministic
//! completion merge.
//!
//! The array owns its devices (`Ssd` is `Send`). A batch groups its
//! commands per device, keeping issue (`seq`) order inside each group,
//! and maps the groups on `par_map`: under a cap of one thread for
//! `ArrayExec::Serial`, of `workers` threads for `ArrayExec::Threaded`.
//! The calling thread takes part, and the threads live only for the
//! batch.
//!
//! Determinism does not depend on scheduling: every command runs
//! against a quiesced device and reports a standalone elapsed time, and
//! commands for one device always execute in issue order on one thread.
//! The host rebuilds global time afterwards — per-device clocks, then
//! the `(completion, device, seq)` merge that fixes the order in which
//! the shared root link is charged.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use assasin_ftl::Lpa;
use assasin_parallel::{current_max_threads, par_map, with_max_threads};
use assasin_sim::{SimDur, SimTime};
use assasin_ssd::{ScompRequest, ScompResult, Ssd, SsdError};

use crate::config::{ArrayConfig, ArrayExec};

/// One command against one device.
pub(crate) enum DeviceCmd {
    /// Untimed dataset load (`Ssd::load_object` semantics).
    Store { first_lpa: u64, data: Arc<[u8]> },
    /// Timed conventional read of `bytes` spanning `lpas`.
    Read { lpas: Vec<Lpa>, bytes: u64 },
    /// Timed on-device computation.
    Scomp { req: Box<ScompRequest> },
    /// Swap in a factory-blank replacement device (rebuild target).
    Replace,
    /// Test hook: panic while executing.
    #[cfg(test)]
    Panic,
}

pub(crate) enum DeviceReply {
    Store { lpas: Vec<Lpa> },
    Read { data: Vec<u8>, elapsed: SimDur },
    Scomp { result: Box<ScompResult> },
    Replaced,
}

/// Runs one command against device `dev`'s slot. `Replace` installs a
/// factory-blank drive built from `cfg` (the rebuild repopulates it from
/// its peers) and is the one command an empty (down) slot accepts.
fn exec(
    slot: &mut Option<Ssd>,
    cfg: &ArrayConfig,
    dev: usize,
    cmd: DeviceCmd,
) -> Result<DeviceReply, ExecError> {
    let device = ExecError::Device;
    match (cmd, slot) {
        (DeviceCmd::Replace, slot) => {
            *slot = Some(Ssd::new(cfg.device_cfg(dev)));
            Ok(DeviceReply::Replaced)
        }
        (_, None) => Err(ExecError::Worker(format!(
            "device {dev} is offline after an earlier panic (Replace brings it back)"
        ))),
        (DeviceCmd::Store { first_lpa, data }, Some(ssd)) => {
            let lpas = ssd.load_object(first_lpa, &data).map_err(device)?;
            Ok(DeviceReply::Store { lpas })
        }
        (DeviceCmd::Read { lpas, bytes }, Some(ssd)) => {
            let r = ssd.read_lpas(&lpas, bytes).map_err(device)?;
            Ok(DeviceReply::Read {
                data: r.data,
                elapsed: r.elapsed,
            })
        }
        (DeviceCmd::Scomp { req }, Some(ssd)) => Ok(DeviceReply::Scomp {
            result: Box::new(ssd.scomp(&req).map_err(device)?),
        }),
        #[cfg(test)]
        (DeviceCmd::Panic, Some(_)) => panic!("injected device panic"),
    }
}

/// Why one command failed: a typed device error, or an executor failure
/// (a panic captured from the command, or a device taken offline by an
/// earlier one). The array layer maps these onto `ArrayError::Device`
/// and `ArrayError::WorkerFailed` respectively.
pub(crate) enum ExecError {
    Device(SsdError),
    Worker(String),
}

/// Renders a captured panic payload for the typed error surface.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// [`exec`] with its panics caught. A panicking command poisons its
/// device (the `Ssd`'s internal invariants may no longer hold), so the
/// slot is emptied; later commands against it fail with a typed error
/// until `Replace` — the same degrade-then-rebuild path as a media
/// failure.
fn run_cmd(
    slot: &mut Option<Ssd>,
    cfg: &ArrayConfig,
    dev: usize,
    cmd: DeviceCmd,
) -> Result<DeviceReply, ExecError> {
    catch_unwind(AssertUnwindSafe(|| exec(slot, cfg, dev, cmd))).unwrap_or_else(|payload| {
        *slot = None;
        Err(ExecError::Worker(panic_message(payload)))
    })
}

/// One device's share of a batch: its slot and its commands, in issue
/// order, each tagged with its position in the batch.
struct Group<'a> {
    dev: usize,
    slot: &'a mut Option<Ssd>,
    cmds: Vec<(usize, DeviceCmd)>,
}

/// Runs one batch of `(device, command)` pairs against `devices` and
/// returns the replies in input order.
///
/// Commands addressed to the same device execute in input order on one
/// thread; the device groups run on `par_map` under the thread cap of
/// `cfg.exec`, never above the cap the caller already runs under (so a
/// `Threaded` array inside `with_max_threads(1, ..)` runs serially). The
/// batch is a host-visible sync point: it returns only
/// when every command has finished. A panicking command never aborts
/// the caller: it is caught and surfaces as `ExecError::Worker` for
/// that command.
pub(crate) fn run_batch(
    devices: &mut [Option<Ssd>],
    cfg: &ArrayConfig,
    cmds: Vec<(usize, DeviceCmd)>,
) -> Vec<Result<DeviceReply, ExecError>> {
    let mut per_dev: Vec<Vec<(usize, DeviceCmd)>> = devices.iter().map(|_| Vec::new()).collect();
    for (seq, (dev, cmd)) in cmds.into_iter().enumerate() {
        per_dev[dev].push((seq, cmd));
    }
    // `par_map` lends each item to exactly one thread by shared
    // reference; the uncontended lock hands that thread the group.
    let groups: Vec<Mutex<Group<'_>>> = devices
        .iter_mut()
        .zip(per_dev)
        .enumerate()
        .filter(|(_, (_, cmds))| !cmds.is_empty())
        .map(|(dev, (slot, cmds))| Mutex::new(Group { dev, slot, cmds }))
        .collect();
    let threads = match cfg.exec {
        ArrayExec::Serial => 1,
        ArrayExec::Threaded { workers } => workers.min(current_max_threads()).max(1),
    };
    let replies = with_max_threads(threads, || {
        par_map(&groups, |group| {
            let mut group = group.lock().expect("run_cmd catches every panic");
            let Group { dev, slot, cmds } = &mut *group;
            std::mem::take(cmds)
                .into_iter()
                .map(|(seq, cmd)| (seq, run_cmd(slot, cfg, *dev, cmd)))
                .collect::<Vec<_>>()
        })
    });
    let mut replies: Vec<_> = replies.into_iter().flatten().collect();
    replies.sort_unstable_by_key(|&(seq, _)| seq);
    replies.into_iter().map(|(_, reply)| reply).collect()
}

/// One host-bound completion awaiting its root-link crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Completion {
    /// When the transfer cleared its device (per-device clock time).
    pub ready: SimTime,
    /// Originating device.
    pub device: usize,
    /// Issue order within the batch (ties on `ready` and `device`).
    pub seq: u64,
    /// Bytes crossing the root.
    pub host_bytes: u64,
}

/// The deterministic event merge: total order on
/// `(completion_time, device_id, seq)`. This is the order the shared
/// root link is charged in, and it is a pure function of simulated
/// time — never of wall-clock scheduling.
pub(crate) fn merge_completions(mut events: Vec<Completion>) -> Vec<Completion> {
    events.sort_by_key(|e| (e.ready, e.device, e.seq));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayPlacement;
    use assasin_core::EngineKind;
    use assasin_ssd::SsdConfig;

    fn array_cfg(devices: usize, exec: ArrayExec) -> ArrayConfig {
        let device = SsdConfig::small_for_tests(EngineKind::AssasinSb);
        ArrayConfig::new(devices, ArrayPlacement::Striped, device).with_exec(exec)
    }

    fn store_cmd() -> DeviceCmd {
        DeviceCmd::Store {
            first_lpa: 0,
            data: vec![42u8; 4096].into(),
        }
    }

    fn expect_worker_err(reply: &Result<DeviceReply, ExecError>, needle: &str) {
        match reply {
            Err(ExecError::Worker(cause)) => {
                assert!(cause.contains(needle), "cause {cause:?} lacks {needle:?}")
            }
            Err(ExecError::Device(e)) => panic!("expected worker failure, got device error {e}"),
            Ok(_) => panic!("expected worker failure, got success"),
        }
    }

    // Regression: a panicking command used to kill the coordinator via
    // `.expect("array worker alive")` / the recv `.expect(...)`. Both
    // executor shapes must survive with a typed error carrying the
    // payload, keep sibling devices usable, and allow `Replace` to bring
    // the poisoned slot back.
    #[test]
    fn caught_panic_poisons_device_but_engine_survives() {
        for exec in [ArrayExec::Serial, ArrayExec::Threaded { workers: 2 }] {
            let cfg = array_cfg(2, exec);
            let mut devices: Vec<Option<Ssd>> =
                (0..2).map(|d| Some(Ssd::new(cfg.device_cfg(d)))).collect();
            let replies = run_batch(
                &mut devices,
                &cfg,
                vec![(0, DeviceCmd::Panic), (1, store_cmd())],
            );
            expect_worker_err(&replies[0], "injected device panic");
            assert!(matches!(replies[1], Ok(DeviceReply::Store { .. })));
            // The poisoned device stays offline with a typed error...
            let replies = run_batch(&mut devices, &cfg, vec![(0, store_cmd())]);
            expect_worker_err(&replies[0], "offline after an earlier panic");
            // ...until a replacement drive brings the slot back.
            let replies = run_batch(
                &mut devices,
                &cfg,
                vec![(0, DeviceCmd::Replace), (0, store_cmd())],
            );
            assert!(matches!(replies[0], Ok(DeviceReply::Replaced)));
            assert!(matches!(replies[1], Ok(DeviceReply::Store { .. })));
        }
    }

    #[test]
    fn merge_orders_by_time_then_device_then_seq() {
        let ev = |ps: u64, device: usize, seq: u64| Completion {
            ready: SimTime::from_ps(ps),
            device,
            seq,
            host_bytes: 0,
        };
        let merged = merge_completions(vec![
            ev(50, 2, 9),
            ev(10, 1, 4),
            ev(50, 0, 7),
            ev(50, 0, 3),
            ev(10, 1, 2),
        ]);
        let key: Vec<(u64, usize, u64)> = merged
            .iter()
            .map(|e| (e.ready.as_ps(), e.device, e.seq))
            .collect();
        assert_eq!(
            key,
            vec![(10, 1, 2), (10, 1, 4), (50, 0, 3), (50, 0, 7), (50, 2, 9)]
        );
    }
}
