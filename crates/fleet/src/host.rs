//! The coarse per-host model: one [`HostCell`] per fleet host.
//!
//! A cell does not run the full [`HostSim`](rh_vmm::harness::HostSim)
//! pipeline — at 5,000 hosts that would be five thousand nested
//! simulations. Instead each cell carries only its campaign-visible
//! lifecycle ([`CellStage`]) and takes its reboot and recovery *durations*
//! from the calibrated closed forms of [`rh_rejuv::model`], evaluated at
//! the cell's current VM count and the fleet's host shape. The closed
//! forms were validated against the full simulation within 5 % (see
//! `crates/rejuv/src/model.rs` tests), which is what makes the coarse
//! model honest: a 5,000-host × 1M-event run finishes in seconds and
//! still reproduces per-host downtimes the paper would recognize.

use rh_faults::recovery::RecoveryPolicy;
use rh_rejuv::model::{DiskedReboot, DowntimeModel};
use rh_sim::time::SimDuration;
use rh_vmm::config::{RebootStrategy, STREAM_WORKING_SET};
use rh_vmm::timing::TimingParams;

/// The fraction of the OS-rejuvenation interval already elapsed when a
/// cold reboot lands (the `α` of `d_c(n, α)`); mid-interval on average.
const COLD_ALPHA: f64 = 0.5;
/// Dirty fraction an incremental reboot writes at save time.
const INCREMENTAL_DIRTY: f64 = 0.3;

/// A fleet host's fine-grained lifecycle. The campaign driver sees the
/// coarser [`HostPhase`](rh_cluster::driver::HostPhase) projection
/// (evacuating hosts count as down so the wave driver stays conservative),
/// while capacity accounting uses this truth: an evacuating host still
/// serves its remaining VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStage {
    /// Serving traffic; accepts placements.
    Serving,
    /// Draining VMs via live migration ahead of its reboot; still serving
    /// what remains.
    Evacuating,
    /// VMM reboot in flight; resident VMs are suspended.
    Rebooting,
    /// Aging crash recovery in flight; resident VMs are down.
    Recovering,
}

/// Per-host mutable state beyond the phase vectors the campaign driver
/// borrows.
#[derive(Debug, Clone, Copy)]
pub struct HostCell {
    /// Fine-grained lifecycle stage.
    pub stage: CellStage,
    /// Bumped on every stage change; in-flight timer events carry the
    /// epoch they were scheduled under and ignore themselves when stale
    /// (they are never cancelled, so every one still fires).
    pub epoch: u32,
    /// Outstanding evacuation migrations off this host.
    pub evac_pending: u32,
}

impl HostCell {
    /// A serving cell at epoch zero.
    pub fn new() -> Self {
        HostCell {
            stage: CellStage::Serving,
            epoch: 0,
            evac_pending: 0,
        }
    }
}

impl Default for HostCell {
    fn default() -> Self {
        HostCell::new()
    }
}

/// Precomputed per-VM-count downtimes for one reboot strategy at the
/// fleet's host shape (`n` in `0..=slots_per_host`).
#[derive(Debug, Clone, PartialEq)]
pub struct DowntimeTable {
    per_n: Vec<SimDuration>,
}

/// The disk-image closed form at the fleet's host shape: the paper-testbed
/// disk, but the fixed outage re-derived for `host_ram_gib` of RAM instead
/// of the 12 GiB testbed (hardware reset scales with installed memory).
fn disked(vm_mem_bytes: u64, host_ram_gib: f64) -> DiskedReboot {
    let t = TimingParams::paper_testbed();
    DiskedReboot {
        image_bytes: vm_mem_bytes as f64,
        disk_bandwidth_bps: t.disk.bandwidth_bps,
        contention_penalty: t.disk.contention_penalty,
        overhead_secs: (t.dom0_shutdown + t.hw_reset(host_ram_gib) + t.vmm_boot_hw + t.dom0_boot)
            .as_secs_f64(),
        per_vm_setup_secs: t.domain_create.as_secs_f64() + 0.06,
    }
}

/// The §3.2 model with the hardware-reset term re-derived for a
/// `host_ram_gib` cell.
fn analytic(host_ram_gib: f64) -> DowntimeModel {
    let t = TimingParams::paper_testbed();
    DowntimeModel {
        reset_hw: t.hw_reset(host_ram_gib).as_secs_f64(),
        ..DowntimeModel::paper()
    }
}

impl DowntimeTable {
    /// Builds the table for `strategy` on hosts with `slots` VM slots of
    /// `vm_mem_bytes` each and `host_ram_gib` of RAM.
    pub fn for_strategy(
        strategy: RebootStrategy,
        slots: u32,
        vm_mem_bytes: u64,
        host_ram_gib: f64,
    ) -> Self {
        let m = analytic(host_ram_gib);
        let d = disked(vm_mem_bytes, host_ram_gib);
        let per_n = (0..=slots)
            .map(|n| {
                let secs = match strategy {
                    RebootStrategy::Warm => m.d_warm(f64::from(n)),
                    RebootStrategy::Cold => m.d_cold(f64::from(n), COLD_ALPHA),
                    RebootStrategy::Saved => d.saved_downtime(n),
                    RebootStrategy::Streamed => d.streamed_downtime(n, STREAM_WORKING_SET),
                    RebootStrategy::Incremental => d.incremental_downtime(n, INCREMENTAL_DIRTY),
                };
                SimDuration::from_secs_f64(secs.max(0.0))
            })
            .collect();
        DowntimeTable { per_n }
    }

    /// Builds the recovery-duration table for an aging crash handled by
    /// `policy`: a microreboot salvages the suspended domains (warm-shaped
    /// repair), a cold reboot rebuilds them from disk (cold-shaped).
    pub fn for_recovery(
        policy: RecoveryPolicy,
        slots: u32,
        vm_mem_bytes: u64,
        host_ram_gib: f64,
    ) -> Self {
        let strategy = match policy {
            RecoveryPolicy::Microreboot => RebootStrategy::Warm,
            RecoveryPolicy::ColdReboot => RebootStrategy::Cold,
        };
        DowntimeTable::for_strategy(strategy, slots, vm_mem_bytes, host_ram_gib)
    }

    /// Downtime for a host carrying `n` VMs; clamps past the table end
    /// (callers never exceed the slot count).
    pub fn get(&self, n: u32) -> SimDuration {
        let i = (n as usize).min(self.per_n.len() - 1);
        self.per_n[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM: u64 = 256 << 20;

    #[test]
    fn warm_is_flat_and_fast() {
        let t = DowntimeTable::for_strategy(RebootStrategy::Warm, 8, MEM, 4.0);
        let d0 = t.get(0).as_secs_f64();
        let d8 = t.get(8).as_secs_f64();
        assert!((40.0..50.0).contains(&d0), "warm(0) = {d0:.1}");
        assert!((d8 - d0).abs() < 2.0, "warm is ~flat: {d0:.1} → {d8:.1}");
    }

    #[test]
    fn cold_grows_with_vm_count_and_beats_warm_never() {
        let warm = DowntimeTable::for_strategy(RebootStrategy::Warm, 8, MEM, 4.0);
        let cold = DowntimeTable::for_strategy(RebootStrategy::Cold, 8, MEM, 4.0);
        for n in 0..=8 {
            assert!(
                cold.get(n) > warm.get(n),
                "cold({n}) {} !> warm({n}) {}",
                cold.get(n),
                warm.get(n)
            );
        }
        assert!(cold.get(8) > cold.get(0));
    }

    #[test]
    fn smaller_hosts_reset_faster_than_the_testbed() {
        // The 4 GiB fleet cell's cold reboot undercuts the 12 GiB paper
        // testbed's, because the hardware reset scales with RAM.
        let cell = DowntimeTable::for_strategy(RebootStrategy::Cold, 8, MEM, 4.0);
        let testbed = DowntimeTable::for_strategy(RebootStrategy::Cold, 8, MEM, 12.0);
        assert!(cell.get(4) < testbed.get(4));
    }

    #[test]
    fn streamed_undercuts_saved_at_every_count() {
        let saved = DowntimeTable::for_strategy(RebootStrategy::Saved, 8, MEM, 4.0);
        let streamed = DowntimeTable::for_strategy(RebootStrategy::Streamed, 8, MEM, 4.0);
        for n in 1..=8 {
            assert!(streamed.get(n) < saved.get(n), "n={n}");
        }
    }

    #[test]
    fn recovery_tables_map_policies_to_shapes() {
        let micro = DowntimeTable::for_recovery(RecoveryPolicy::Microreboot, 8, MEM, 4.0);
        let coldr = DowntimeTable::for_recovery(RecoveryPolicy::ColdReboot, 8, MEM, 4.0);
        for n in 0..=8 {
            assert!(micro.get(n) < coldr.get(n), "microreboot repairs faster");
        }
    }

    #[test]
    fn get_clamps_past_the_slot_count() {
        let t = DowntimeTable::for_strategy(RebootStrategy::Warm, 4, MEM, 4.0);
        assert_eq!(t.get(4), t.get(99));
    }
}
