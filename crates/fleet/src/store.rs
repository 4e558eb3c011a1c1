//! The central placement store: which VM lives on which host, and which
//! hosts can take one.
//!
//! One [`PlacementStore`] is the fleet's single source of truth for VM
//! residency and for each host's campaign phase and completion. It is
//! deliberately plain `Vec` state — no hash maps, no interior mutability
//! — so iteration order (and therefore every consumer of it) is
//! deterministic. The hot-path operations cost O(log hosts) for the
//! [`FreeSlotIndex`] refresh plus O(VMs-on-host) for the per-host VM list
//! edits.
//!
//! The store owns the index and refreshes a host's leaf inside every
//! operation that changes the host's used slots, phase or completion
//! ([`insert`](PlacementStore::insert), [`remove`](PlacementStore::remove),
//! [`begin_migration`](PlacementStore::begin_migration),
//! [`finish_migration`](PlacementStore::finish_migration) and
//! [`set_host`](PlacementStore::set_host)), so no caller can leave it
//! stale. [`choose`](PlacementStore::choose) answers a placement from it.
//!
//! Capacity is reservation-based: a migrating VM holds a slot on **both**
//! its source (where it still resides) and its target (where it will
//! land), so concurrent evacuations can never oversubscribe a host — the
//! invariant the placement property tests pin down.

use rh_cluster::driver::HostPhase;

use crate::index::FreeSlotIndex;
use crate::placement::{Constraints, Decision, PlacementKind, PlacementQuery};

/// Where a VM is, from the store's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Resident and accounted on `host`.
    Placed {
        /// The VM's host.
        host: u32,
    },
    /// Live migration in flight: resident on `from`, slot reserved on `to`.
    Migrating {
        /// Source host (still runs the VM).
        from: u32,
        /// Target host (slot reserved).
        to: u32,
    },
    /// Departed; the id is never reused.
    Gone,
}

#[derive(Debug, Clone, Copy)]
struct VmEntry {
    state: VmState,
    peer: Option<u32>,
}

/// The fleet-wide VM → host map plus per-host occupancy.
#[derive(Debug, Clone)]
pub struct PlacementStore {
    capacity: u32,
    /// Slots consumed per host, including migration reservations.
    used: Vec<u32>,
    /// VMs physically resident per host (what a reboot suspends).
    resident: Vec<u32>,
    /// Resident VM ids per host (evacuation lists, pair audits).
    on_host: Vec<Vec<u32>>,
    /// Campaign-visible host phases; only `Serving` hosts accept VMs.
    phases: Vec<HostPhase>,
    /// Per-host campaign completion.
    completed: Vec<bool>,
    /// Serving hosts with a free slot, by `used` and completion.
    index: FreeSlotIndex,
    vms: Vec<VmEntry>,
    live: u32,
    peak_live: u32,
    max_used: u32,
}

impl PlacementStore {
    /// An empty store for `hosts` serving, not yet rejuvenated hosts of
    /// `capacity` slots each.
    pub fn new(hosts: u32, capacity: u32) -> Self {
        PlacementStore {
            capacity,
            used: vec![0; hosts as usize],
            resident: vec![0; hosts as usize],
            on_host: vec![Vec::new(); hosts as usize],
            phases: vec![HostPhase::Serving; hosts as usize],
            completed: vec![false; hosts as usize],
            index: FreeSlotIndex::new(hosts, |_| (capacity > 0).then_some((0, false))),
            vms: Vec::new(),
            live: 0,
            peak_live: 0,
            max_used: 0,
        }
    }

    /// Per-host slot capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots consumed per host (including migration reservations).
    pub fn used(&self) -> &[u32] {
        &self.used
    }

    /// Campaign-visible host phases.
    pub fn phases(&self) -> &[HostPhase] {
        &self.phases
    }

    /// Per-host campaign completion.
    pub fn completed(&self) -> &[bool] {
        &self.completed
    }

    /// Sets `host`'s campaign phase and completion: the one place either
    /// changes.
    pub fn set_host(&mut self, host: u32, phase: HostPhase, completed: bool) {
        self.phases[host as usize] = phase;
        self.completed[host as usize] = completed;
        self.refresh(host);
    }

    /// The host `kind` picks under `c`, answered by the free-slot index
    /// in O(log hosts).
    pub fn choose(&self, kind: PlacementKind, c: &Constraints) -> Decision {
        self.index.choose(kind, c)
    }

    /// The same placement question as [`choose`](Self::choose), as the
    /// query the linear reference scans read.
    pub fn query(&self, c: &Constraints) -> PlacementQuery<'_> {
        PlacementQuery {
            used: &self.used,
            capacity: self.capacity,
            phases: &self.phases,
            completed: &self.completed,
            cursor: c.cursor,
            window: c.window,
            peer_host: c.peer_host,
            pair_spacing: c.pair_spacing,
        }
    }

    /// Recomputes `host`'s index leaf from its slots, phase and completion.
    fn refresh(&mut self, host: u32) {
        let h = host as usize;
        let fits = self.phases[h] == HostPhase::Serving && self.used[h] < self.capacity;
        self.index
            .set(host, fits.then_some((self.used[h], self.completed[h])));
    }

    /// Frees one slot on `host`.
    fn release(&mut self, host: u32) {
        self.used[host as usize] -= 1;
        self.refresh(host);
    }

    /// VMs physically resident on `host`.
    pub fn resident(&self, host: u32) -> u32 {
        self.resident[host as usize]
    }

    /// Resident VM ids on `host`, in placement order.
    pub fn vms_on(&self, host: u32) -> &[u32] {
        &self.on_host[host as usize]
    }

    /// Currently live (placed or migrating) VMs.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// High-water mark of live VMs.
    pub fn peak_live(&self) -> u32 {
        self.peak_live
    }

    /// High-water mark of any host's used slots — the capacity-invariant
    /// audit the property tests read back (must never exceed
    /// [`capacity`](Self::capacity)).
    pub fn max_used(&self) -> u32 {
        self.max_used
    }

    /// The VM's current state.
    pub fn state(&self, vm: u32) -> VmState {
        self.vms[vm as usize].state
    }

    /// The VM's replica peer, if it arrived as half of a pair.
    pub fn peer(&self, vm: u32) -> Option<u32> {
        self.vms[vm as usize].peer
    }

    /// The host a VM currently resides on (source host while migrating).
    pub fn resident_host(&self, vm: u32) -> Option<u32> {
        match self.vms[vm as usize].state {
            VmState::Placed { host } => Some(host),
            VmState::Migrating { from, .. } => Some(from),
            VmState::Gone => None,
        }
    }

    fn occupy(&mut self, host: u32) {
        let u = &mut self.used[host as usize];
        *u += 1;
        assert!(
            *u <= self.capacity,
            "host {host} oversubscribed: {u} > {} slots",
            self.capacity
        );
        self.max_used = self.max_used.max(*u);
        self.refresh(host);
    }

    /// Places a new VM on `host`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the placement would exceed the host's capacity — the
    /// placement algorithms guarantee they never pick a full host.
    pub fn insert(&mut self, host: u32) -> u32 {
        let vm = self.vms.len() as u32;
        self.occupy(host);
        self.resident[host as usize] += 1;
        self.on_host[host as usize].push(vm);
        self.vms.push(VmEntry {
            state: VmState::Placed { host },
            peer: None,
        });
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        vm
    }

    /// Links two VMs as replica peers.
    pub fn link_pair(&mut self, a: u32, b: u32) {
        self.vms[a as usize].peer = Some(b);
        self.vms[b as usize].peer = Some(a);
    }

    fn drop_resident(&mut self, host: u32, vm: u32) {
        self.resident[host as usize] -= 1;
        let list = &mut self.on_host[host as usize];
        let i = list
            .iter()
            .position(|v| *v == vm)
            // lint:allow(unwrap-panic): resident/on_host are updated together; a miss is store corruption
            .expect("resident VM must be on its host's list");
        list.swap_remove(i);
    }

    /// Removes a departing VM, releasing every slot it holds.
    ///
    /// # Panics
    ///
    /// Panics if the VM is already gone.
    pub fn remove(&mut self, vm: u32) {
        let entry = self.vms[vm as usize];
        match entry.state {
            VmState::Placed { host } => {
                self.release(host);
                self.drop_resident(host, vm);
            }
            VmState::Migrating { from, to } => {
                self.release(from);
                self.release(to);
                self.drop_resident(from, vm);
            }
            // lint:allow(unwrap-panic): documented contract (`# Panics`); double-remove is a caller bug
            VmState::Gone => panic!("VM {vm} removed twice"),
        }
        if let Some(p) = entry.peer {
            self.vms[p as usize].peer = None;
        }
        self.vms[vm as usize].state = VmState::Gone;
        self.vms[vm as usize].peer = None;
        self.live -= 1;
    }

    /// Starts migrating `vm` to `to`: reserves the target slot while the
    /// VM keeps running (and keeps its source slot) on `from`.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not currently placed, the target is the source,
    /// or the reservation would oversubscribe the target.
    pub fn begin_migration(&mut self, vm: u32, to: u32) {
        let VmState::Placed { host: from } = self.vms[vm as usize].state else {
            // lint:allow(unwrap-panic): documented contract (`# Panics`); the caller checks placement first
            panic!("VM {vm} is not in a migratable state");
        };
        assert_ne!(from, to, "migration target must differ from the source");
        self.occupy(to);
        self.vms[vm as usize].state = VmState::Migrating { from, to };
    }

    /// Completes a migration: the VM becomes resident on its target and
    /// the source slot is released.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not migrating.
    pub fn finish_migration(&mut self, vm: u32) {
        let VmState::Migrating { from, to } = self.vms[vm as usize].state else {
            // lint:allow(unwrap-panic): documented contract (`# Panics`); only migration completions land here
            panic!("VM {vm} is not migrating");
        };
        self.release(from);
        self.drop_resident(from, vm);
        self.resident[to as usize] += 1;
        self.on_host[to as usize].push(vm);
        self.vms[vm as usize].state = VmState::Placed { host: to };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_depart_roundtrip_frees_slots() {
        let mut s = PlacementStore::new(2, 2);
        let a = s.insert(0);
        let b = s.insert(0);
        assert_eq!(s.used(), &[2, 0]);
        assert_eq!(s.resident(0), 2);
        assert_eq!(s.live(), 2);
        s.remove(a);
        assert_eq!(s.used(), &[1, 0]);
        assert_eq!(s.vms_on(0), &[b]);
        s.remove(b);
        assert_eq!(s.live(), 0);
        assert_eq!(s.peak_live(), 2);
        assert_eq!(s.max_used(), 2);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn overcommit_panics() {
        let mut s = PlacementStore::new(1, 1);
        s.insert(0);
        s.insert(0);
    }

    #[test]
    fn migration_reserves_both_ends() {
        let mut s = PlacementStore::new(2, 2);
        let vm = s.insert(0);
        s.begin_migration(vm, 1);
        assert_eq!(s.used(), &[1, 1], "double-booked while in flight");
        assert_eq!(s.resident(0), 1, "still resident at the source");
        assert_eq!(s.state(vm), VmState::Migrating { from: 0, to: 1 });
        assert_eq!(s.resident_host(vm), Some(0));
        s.finish_migration(vm);
        assert_eq!(s.used(), &[0, 1]);
        assert_eq!(s.resident(1), 1);
        assert_eq!(s.vms_on(1), &[vm]);
        assert_eq!(s.state(vm), VmState::Placed { host: 1 });
    }

    #[test]
    fn departing_mid_migration_releases_both_slots() {
        let mut s = PlacementStore::new(2, 1);
        let vm = s.insert(0);
        s.begin_migration(vm, 1);
        s.remove(vm);
        assert_eq!(s.used(), &[0, 0]);
        assert_eq!(s.state(vm), VmState::Gone);
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn pairs_link_and_unlink() {
        let mut s = PlacementStore::new(2, 1);
        let a = s.insert(0);
        let b = s.insert(1);
        s.link_pair(a, b);
        assert_eq!(s.peer(a), Some(b));
        assert_eq!(s.peer(b), Some(a));
        s.remove(a);
        assert_eq!(s.peer(b), None, "survivor is unlinked");
    }

    #[test]
    fn ids_are_never_reused() {
        let mut s = PlacementStore::new(1, 4);
        let a = s.insert(0);
        s.remove(a);
        let b = s.insert(0);
        assert_ne!(a, b);
    }
}
