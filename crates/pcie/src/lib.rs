#![warn(missing_docs)]
//! PCIe interconnect model: descriptor DMA engine, doorbells and MSI
//! interrupts.
//!
//! Flick transfers each migration descriptor as **one PCIe burst** using
//! a DMA controller on the FPGA (§IV-B): "To minimize the overhead of
//! transferring the descriptor using multiple memory operations across
//! PCIe, Flick uses a DMA controller to copy the entire descriptor using
//! one PCIe burst transfer." The NxP scheduler discovers host→NxP
//! descriptors by polling a DMA status register; NxP→host descriptors
//! are DMA'd into host memory followed by an MSI interrupt that wakes the
//! suspended thread.
//!
//! This crate models exactly that machinery with explicit timestamps:
//!
//! * [`DmaEngine`] — two descriptor channels (host→NxP, NxP→host) with
//!   burst timing from [`flick_mem::LatencyModel`].
//! * Doorbell semantics are folded into the kick methods (a posted
//!   write across the link precedes the DMA fetch).
//! * [`Msi`] — an interrupt delivery record consumed by the host kernel.
//!
//! # Examples
//!
//! ```
//! use flick_pcie::DmaEngine;
//! use flick_sim::Picos;
//!
//! let mut dma = DmaEngine::paper_default();
//! let arrival = dma.kick_to_nxp(Picos::ZERO, vec![0u8; 128]);
//! assert!(arrival > Picos::from_nanos(1000)); // doorbell + fetch burst
//! assert!(dma.poll_nxp(arrival).is_some());
//! ```

use flick_mem::LatencyModel;
use flick_sim::{BurstPerturbation, FaultPlan, MsiFate, Picos};
use std::collections::VecDeque;

/// An MSI interrupt raised toward the host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msi {
    /// Interrupt vector (one per device function; Flick uses a single
    /// vector for descriptor arrival).
    pub vector: u32,
    /// Time the interrupt reaches the host's interrupt controller.
    pub at: Picos,
}

/// A descriptor in flight or delivered, with its arrival timestamp.
#[derive(Clone, Debug)]
struct InFlight {
    arrival: Picos,
    bytes: Vec<u8>,
}

/// The descriptor DMA engine on the NxP platform.
///
/// Two unidirectional channels:
///
/// * **host→NxP**: the kernel rings a doorbell (posted write over PCIe);
///   the engine fetches the descriptor from host DRAM with a read burst
///   and lands it in the NxP-local descriptor buffer, setting the status
///   register the NxP scheduler polls.
/// * **NxP→host**: the NxP runtime writes the engine's local registers;
///   the engine pushes the descriptor into host DRAM with a write burst
///   and follows it with an MSI.
///
/// Timing is fully deterministic; `kick_*` returns the arrival timestamp
/// so callers (which own the simulated clocks) can sequence events.
#[derive(Debug)]
pub struct DmaEngine {
    latency: LatencyModel,
    to_nxp: VecDeque<InFlight>,
    /// NxP→host ring. Entries are kept in push (= arrival) order; a
    /// selective claim ([`DmaEngine::take_host_desc_where`]) tombstones
    /// its match to `None` instead of shifting the tail, and leading
    /// tombstones are dropped whenever the ring is touched. The single
    /// mover per direction makes arrivals monotone non-decreasing, so
    /// scans can stop at the first live entry that has not arrived yet —
    /// O(1) amortized however deep the undelivered tail grows.
    to_host: VecDeque<Option<InFlight>>,
    /// Live (non-tombstone) entries in `to_host` — the queue-depth
    /// gauge, maintained so it never counts tombstones.
    to_host_live: usize,
    msi_vector: u32,
    bursts_to_nxp: u64,
    bursts_to_host: u64,
    /// The engine has one mover per direction: a burst cannot start
    /// before the previous one in the same direction has landed.
    nxp_busy_until: Picos,
    host_busy_until: Picos,
}

impl DmaEngine {
    /// Engine with the paper-calibrated latency model.
    pub fn paper_default() -> Self {
        DmaEngine::new(LatencyModel::paper_default(), 0)
    }

    /// Engine with an explicit latency model and MSI vector.
    pub fn new(latency: LatencyModel, msi_vector: u32) -> Self {
        DmaEngine {
            latency,
            to_nxp: VecDeque::new(),
            to_host: VecDeque::new(),
            to_host_live: 0,
            msi_vector,
            bursts_to_nxp: 0,
            bursts_to_host: 0,
            nxp_busy_until: Picos::ZERO,
            host_busy_until: Picos::ZERO,
        }
    }

    /// The latency model in use.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Host kernel sends a descriptor to the NxP: doorbell write, then a
    /// read burst from host DRAM into the NxP descriptor buffer.
    ///
    /// Returns the time at which the NxP-side status register shows the
    /// descriptor (the earliest instant a poll can see it).
    pub fn kick_to_nxp(&mut self, now: Picos, bytes: Vec<u8>) -> Picos {
        self.kick_to_nxp_faulty(now, bytes, &mut FaultPlan::none()).0
    }

    /// [`DmaEngine::kick_to_nxp`] with a fault-injection point: the plan
    /// may corrupt the payload in flight, stall the link, or drop the
    /// burst entirely (nothing lands; the status register never shows
    /// it).
    ///
    /// Returns the arrival time the burst lands (or would have landed,
    /// when dropped — the mover is busy either way) and what was
    /// injected.
    pub fn kick_to_nxp_faulty(
        &mut self,
        now: Picos,
        mut bytes: Vec<u8>,
        plan: &mut FaultPlan,
    ) -> (Picos, BurstPerturbation) {
        let perturbation = plan.perturb_burst(&mut bytes);
        // Doorbell: posted write host→NxP MMIO.
        let doorbell = self.latency.host_to_nxp_write;
        // Engine fetches the descriptor from host DRAM: one read round
        // trip plus per-beat payload, then lands it locally (BRAM write,
        // negligible — folded into dma_setup). One mover: bursts in the
        // same direction serialise.
        let start = (now + doorbell).max(self.nxp_busy_until);
        let fetch = self.latency.nxp_to_host_read + self.latency.dma_transfer(bytes.len());
        let arrival = start + fetch + perturbation.stall;
        self.nxp_busy_until = arrival;
        self.bursts_to_nxp += 1;
        if !perturbation.dropped {
            self.to_nxp.push_back(InFlight { arrival, bytes });
        }
        (arrival, perturbation)
    }

    /// NxP runtime sends a descriptor to the host: local register write,
    /// write burst into host DRAM, then an MSI.
    ///
    /// Returns `(descriptor_arrival, msi)`; the MSI trails the payload so
    /// the kernel never observes the interrupt before the data. The MSI
    /// is `None` when the burst is lost on the wire — impossible with a
    /// fault-free plan, but the signature is honest about the link
    /// rather than panicking if that invariant ever shifts (callers
    /// that inject faults use [`DmaEngine::kick_to_host_faulty`]).
    pub fn kick_to_host(&mut self, now: Picos, bytes: Vec<u8>) -> (Picos, Option<Msi>) {
        let (arrival, msi, _) = self.kick_to_host_faulty(now, bytes, &mut FaultPlan::none());
        (arrival, msi)
    }

    /// [`DmaEngine::kick_to_host`] with a fault-injection point.
    ///
    /// A dropped burst loses payload *and* interrupt (the engine raises
    /// the MSI only after the write burst completes), so `msi` is `None`
    /// and nothing enters the host ring; corruption and stalls land the
    /// damaged/late payload with its MSI as usual. MSI-specific faults
    /// (drop/duplicate) are injected later, at the interrupt controller
    /// — see [`InterruptController::raise_with`].
    pub fn kick_to_host_faulty(
        &mut self,
        now: Picos,
        mut bytes: Vec<u8>,
        plan: &mut FaultPlan,
    ) -> (Picos, Option<Msi>, BurstPerturbation) {
        let perturbation = plan.perturb_burst(&mut bytes);
        let start = (now + self.latency.nxp_to_local_mmio).max(self.host_busy_until);
        let push = self.latency.dma_transfer(bytes.len()) + self.latency.nxp_to_host_write;
        let arrival = start + push + perturbation.stall;
        self.host_busy_until = arrival;
        self.bursts_to_host += 1;
        if perturbation.dropped {
            return (arrival, None, perturbation);
        }
        // The MSI is one more posted write behind the payload.
        let msi_at = arrival + self.latency.nxp_to_host_write;
        debug_assert!(
            self.to_host
                .back()
                .and_then(|d| d.as_ref())
                .is_none_or(|d| d.arrival <= arrival),
            "single mover: host-ring arrivals are monotone"
        );
        self.to_host.push_back(Some(InFlight { arrival, bytes }));
        self.to_host_live += 1;
        (
            arrival,
            Some(Msi {
                vector: self.msi_vector,
                at: msi_at,
            }),
            perturbation,
        )
    }

    /// True when the NxP-side status register shows at least one
    /// descriptor at time `now` (what the scheduler's poll loop reads).
    pub fn status_nxp(&self, now: Picos) -> bool {
        self.to_nxp.front().is_some_and(|d| d.arrival <= now)
    }

    /// Pops the next host→NxP descriptor if it has arrived by `now`.
    pub fn poll_nxp(&mut self, now: Picos) -> Option<Vec<u8>> {
        if self.status_nxp(now) {
            self.to_nxp.pop_front().map(|d| d.bytes)
        } else {
            None
        }
    }

    /// Drops tombstones at the front of the host ring so the head is
    /// either a live descriptor or the ring is empty. Each entry is
    /// pushed once and removed once, so all compaction work is charged
    /// to the kick that created the entry — O(1) amortized.
    fn compact_host_front(&mut self) {
        while matches!(self.to_host.front(), Some(None)) {
            self.to_host.pop_front();
        }
    }

    /// Pops the next NxP→host descriptor if it has arrived by `now`
    /// (the kernel reads it from the host-DRAM ring after the MSI).
    pub fn take_host_desc(&mut self, now: Picos) -> Option<Vec<u8>> {
        self.compact_host_front();
        match self.to_host.front() {
            Some(Some(d)) if d.arrival <= now => {
                self.to_host_live = self.to_host_live.saturating_sub(1);
                self.to_host.pop_front().flatten().map(|d| d.bytes)
            }
            _ => None,
        }
    }

    /// Pops the earliest-arrived NxP→host descriptor at or before `now`
    /// for which `pred` holds, leaving the rest of the ring in order.
    /// The kernel's IRQ handler uses this to claim the descriptor that
    /// belongs to the thread it is waking while unrelated traffic sits
    /// in the same ring (bursts in one direction serialise, so ring
    /// order is arrival order).
    ///
    /// Arrival order lets the scan stop at the first live descriptor
    /// that has not arrived yet: everything behind it arrived even
    /// later. Combined with front compaction, the walk only ever
    /// re-visits descriptors that are *deliverable now but claimed by
    /// someone else*, not the undelivered tail, keeping the host
    /// descriptor path O(1) amortized as rings deepen.
    pub fn take_host_desc_where(
        &mut self,
        now: Picos,
        mut pred: impl FnMut(&[u8]) -> bool,
    ) -> Option<Vec<u8>> {
        self.compact_host_front();
        let mut hit = None;
        for (idx, slot) in self.to_host.iter().enumerate() {
            match slot {
                None => continue,
                Some(d) if d.arrival > now => break,
                Some(d) => {
                    if pred(&d.bytes) {
                        hit = Some(idx);
                        break;
                    }
                }
            }
        }
        let taken = self.to_host[hit?].take().map(|d| d.bytes);
        self.to_host_live = self.to_host_live.saturating_sub(1);
        self.compact_host_front();
        taken
    }

    /// Number of host→NxP bursts performed.
    pub fn bursts_to_nxp(&self) -> u64 {
        self.bursts_to_nxp
    }

    /// Number of NxP→host bursts performed.
    pub fn bursts_to_host(&self) -> u64 {
        self.bursts_to_host
    }

    /// Descriptors currently queued in the host→NxP channel (in flight
    /// or landed but not yet polled) — the observability layer samples
    /// this as a queue-depth gauge.
    pub fn depth_to_nxp(&self) -> usize {
        self.to_nxp.len()
    }

    /// Descriptors currently queued in the NxP→host channel.
    pub fn depth_to_host(&self) -> usize {
        self.to_host_live
    }

    /// Quiesces the engine after its device was declared dead: every
    /// in-flight descriptor in both directions is reaped (the device's
    /// buffer is gone; host-ring leftovers must not be claimed by a
    /// later incarnation) and the movers go idle. Returns how many
    /// descriptors were cancelled. The caller re-executes victims from
    /// its retained copies, so reaping loses no work.
    pub fn reap(&mut self) -> usize {
        let reaped = self.to_nxp.len() + self.to_host_live;
        self.to_nxp.clear();
        self.to_host.clear();
        self.to_host_live = 0;
        self.nxp_busy_until = Picos::ZERO;
        self.host_busy_until = Picos::ZERO;
        reaped
    }
}

/// The PCIe switch fabric of a topology-configured machine: one
/// descriptor channel ([`DmaEngine`]) per NxP, each with its own MSI
/// vector, behind a shared host root port.
///
/// Doorbell arbitration: host→NxP doorbells are posted writes issued
/// through the one root port, so doorbells rung closely together
/// serialise across channels (each occupies the port for the doorbell
/// write time). DMA bursts themselves ride independent point-to-point
/// links and only serialise within a channel/direction (the per-engine
/// single-mover rule). This is what lets N descriptors be in flight to
/// N different NxPs simultaneously.
#[derive(Debug)]
pub struct PcieFabric {
    channels: Vec<DmaEngine>,
    /// Host root port busy with a doorbell write until this instant.
    doorbell_busy_until: Picos,
}

impl PcieFabric {
    /// A fabric with `channels` descriptor channels, one per NxP, all
    /// sharing one latency model. Channel `k` raises MSI vector `k`.
    pub fn new(latency: LatencyModel, channels: usize) -> Self {
        assert!(channels >= 1, "a fabric needs at least one channel");
        PcieFabric {
            channels: (0..channels)
                .map(|k| DmaEngine::new(latency.clone(), k as u32))
                .collect(),
            doorbell_busy_until: Picos::ZERO,
        }
    }

    /// Number of channels (NxPs).
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Immutable view of channel `k`'s DMA engine.
    pub fn channel(&self, k: usize) -> &DmaEngine {
        &self.channels[k]
    }

    /// Rings channel `k`'s doorbell and kicks a host→NxP burst,
    /// arbitrating the doorbell write against other channels' doorbells
    /// at the root port. See [`DmaEngine::kick_to_nxp_faulty`].
    pub fn kick_to_nxp_faulty(
        &mut self,
        k: usize,
        now: Picos,
        bytes: Vec<u8>,
        plan: &mut FaultPlan,
    ) -> (Picos, BurstPerturbation) {
        let issue = now.max(self.doorbell_busy_until);
        self.doorbell_busy_until = issue + self.channels[k].latency.host_to_nxp_write;
        self.channels[k].kick_to_nxp_faulty(issue, bytes, plan)
    }

    /// Kicks an NxP→host burst on channel `k`. NxP-side doorbells are
    /// device-local MMIO writes, so they need no cross-channel
    /// arbitration. See [`DmaEngine::kick_to_host_faulty`].
    pub fn kick_to_host_faulty(
        &mut self,
        k: usize,
        now: Picos,
        bytes: Vec<u8>,
        plan: &mut FaultPlan,
    ) -> (Picos, Option<Msi>, BurstPerturbation) {
        self.channels[k].kick_to_host_faulty(now, bytes, plan)
    }

    /// Polls channel `k`'s NxP-side status register. See
    /// [`DmaEngine::poll_nxp`].
    pub fn poll_nxp(&mut self, k: usize, now: Picos) -> Option<Vec<u8>> {
        self.channels[k].poll_nxp(now)
    }

    /// Takes a matching descriptor out of channel `k`'s host ring. See
    /// [`DmaEngine::take_host_desc_where`].
    pub fn take_host_desc_where(
        &mut self,
        k: usize,
        now: Picos,
        pred: impl FnMut(&[u8]) -> bool,
    ) -> Option<Vec<u8>> {
        self.channels[k].take_host_desc_where(now, pred)
    }

    /// Quiesces channel `k` after its NxP was declared dead or came
    /// back from hot-unplug: reaps every in-flight descriptor in both
    /// directions. Returns the number cancelled. See
    /// [`DmaEngine::reap`].
    pub fn reap_channel(&mut self, k: usize) -> usize {
        self.channels[k].reap()
    }

    /// Total bursts performed in either direction, summed over
    /// channels.
    pub fn total_bursts(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.bursts_to_nxp() + c.bursts_to_host())
            .sum()
    }
}

/// A pending-interrupt queue standing in for the host's LAPIC + IRQ
/// subsystem. The kernel model drains it in timestamp order.
#[derive(Debug, Default)]
pub struct InterruptController {
    pending: VecDeque<Msi>,
}

impl InterruptController {
    /// Creates an empty controller.
    pub fn new() -> Self {
        InterruptController::default()
    }

    /// Queues an interrupt (keeps the queue sorted by delivery time).
    pub fn raise(&mut self, msi: Msi) {
        let pos = self
            .pending
            .iter()
            .position(|m| m.at > msi.at)
            .unwrap_or(self.pending.len());
        self.pending.insert(pos, msi);
    }

    /// [`InterruptController::raise`] with a fault-injection point: the
    /// plan may lose the interrupt on its way to the LAPIC (the host
    /// must then notice the descriptor by watchdog-driven ring polling)
    /// or deliver it twice (the extra edge causes a spurious wakeup).
    pub fn raise_with(&mut self, msi: Msi, plan: &mut FaultPlan) -> MsiFate {
        let fate = plan.msi_fate();
        match fate {
            MsiFate::Dropped => {}
            MsiFate::Duplicated => {
                self.raise(msi.clone());
                self.raise(msi);
            }
            MsiFate::Delivered => self.raise(msi),
        }
        fate
    }

    /// Removes the interrupt on `vector` raised for delivery at exactly
    /// `at`, leaving every other entry queued. A waiter that recorded
    /// its own MSI's arrival instant at raise time claims precisely
    /// that edge — with several threads suspended on one channel, a
    /// due-time scan would let an out-of-order waiter consume a
    /// neighbour's earlier interrupt and strand the neighbour.
    pub fn take_vector_at(&mut self, at: Picos, vector: u32) -> Option<Msi> {
        let idx = self
            .pending
            .iter()
            .position(|m| m.at == at && m.vector == vector)?;
        self.pending.remove(idx)
    }

    /// Removes every pending interrupt on `vector` — part of channel
    /// quiesce, so a dead NxP's stale MSIs cannot wake threads placed
    /// on its later incarnation. Returns how many were purged.
    pub fn purge_vector(&mut self, vector: u32) -> usize {
        let before = self.pending.len();
        self.pending.retain(|m| m.vector != vector);
        before - self.pending.len()
    }

    /// Number of undelivered interrupts.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_nxp_descriptor_arrives_after_doorbell_and_burst() {
        let mut dma = DmaEngine::paper_default();
        let lat = dma.latency().clone();
        let arrival = dma.kick_to_nxp(Picos::ZERO, vec![0u8; 128]);
        let expected = lat.host_to_nxp_write + lat.nxp_to_host_read + lat.dma_transfer(128);
        assert_eq!(arrival, expected);
        assert!(!dma.status_nxp(arrival - Picos(1)));
        assert!(dma.status_nxp(arrival));
    }

    #[test]
    fn poll_respects_arrival_time() {
        let mut dma = DmaEngine::paper_default();
        let arrival = dma.kick_to_nxp(Picos::ZERO, vec![1, 2, 3]);
        assert_eq!(dma.poll_nxp(Picos::ZERO), None);
        assert_eq!(dma.poll_nxp(arrival), Some(vec![1, 2, 3]));
        assert_eq!(dma.poll_nxp(arrival), None); // consumed
    }

    #[test]
    fn msi_trails_payload() {
        let mut dma = DmaEngine::paper_default();
        let (arrival, msi) = dma.kick_to_host(Picos::from_micros(1), vec![0u8; 64]);
        let msi = msi.expect("fault-free kick delivers");
        assert!(msi.at > arrival, "interrupt must not beat the data");
        assert_eq!(dma.take_host_desc(arrival), Some(vec![0u8; 64]));
    }

    #[test]
    fn same_direction_bursts_serialise() {
        // Two kicks at the same instant: the second burst starts after
        // the first lands (one mover per direction).
        let mut dma = DmaEngine::paper_default();
        let a1 = dma.kick_to_nxp(Picos::ZERO, vec![0u8; 128]);
        let a2 = dma.kick_to_nxp(Picos::ZERO, vec![0u8; 128]);
        let single = a1;
        assert!(a2 >= single * 2 - dma.latency().host_to_nxp_write, "{a2} vs {single}");
        // Opposite directions do not serialise with each other.
        let (b1, _) = dma.kick_to_host(Picos::ZERO, vec![0u8; 128]);
        assert!(b1 < a2);
    }

    #[test]
    fn reap_cancels_both_directions_and_idles_movers() {
        let mut dma = DmaEngine::paper_default();
        dma.kick_to_nxp(Picos::ZERO, vec![1]);
        dma.kick_to_nxp(Picos::ZERO, vec![2]);
        let (_, msi) = dma.kick_to_host(Picos::ZERO, vec![3]);
        assert!(msi.is_some());
        assert_eq!(dma.depth_to_nxp(), 2);
        assert_eq!(dma.depth_to_host(), 1);
        assert_eq!(dma.reap(), 3);
        assert_eq!(dma.depth_to_nxp(), 0);
        assert_eq!(dma.depth_to_host(), 0);
        assert_eq!(dma.poll_nxp(Picos::from_secs(1)), None);
        assert_eq!(dma.take_host_desc(Picos::from_secs(1)), None);
        // A reap does not forget history: burst counters survive.
        assert_eq!(dma.bursts_to_nxp(), 2);
        assert_eq!(dma.bursts_to_host(), 1);
        // Second reap is a no-op.
        assert_eq!(dma.reap(), 0);
    }

    #[test]
    fn purge_vector_removes_only_that_vector() {
        let mut irq = InterruptController::new();
        irq.raise(Msi { vector: 0, at: Picos::from_nanos(1) });
        irq.raise(Msi { vector: 1, at: Picos::from_nanos(2) });
        irq.raise(Msi { vector: 1, at: Picos::from_nanos(3) });
        assert_eq!(irq.purge_vector(1), 2);
        assert_eq!(irq.pending(), 1);
        assert!(irq.take_vector_at(Picos::from_nanos(1), 0).is_some());
        assert_eq!(irq.purge_vector(7), 0);
    }

    #[test]
    fn descriptors_fifo_per_direction() {
        let mut dma = DmaEngine::paper_default();
        let a1 = dma.kick_to_nxp(Picos::ZERO, vec![1]);
        let a2 = dma.kick_to_nxp(a1, vec![2]);
        assert!(a2 > a1);
        assert_eq!(dma.poll_nxp(a2), Some(vec![1]));
        assert_eq!(dma.poll_nxp(a2), Some(vec![2]));
    }

    #[test]
    fn burst_counters() {
        let mut dma = DmaEngine::paper_default();
        dma.kick_to_nxp(Picos::ZERO, vec![0; 8]);
        dma.kick_to_host(Picos::ZERO, vec![0; 8]);
        dma.kick_to_host(Picos::ZERO, vec![0; 8]);
        assert_eq!(dma.bursts_to_nxp(), 1);
        assert_eq!(dma.bursts_to_host(), 2);
    }

    #[test]
    fn bigger_descriptor_takes_longer() {
        let mut a = DmaEngine::paper_default();
        let mut b = DmaEngine::paper_default();
        let small = a.kick_to_nxp(Picos::ZERO, vec![0u8; 64]);
        let large = b.kick_to_nxp(Picos::ZERO, vec![0u8; 4096]);
        assert!(large > small);
    }

    #[test]
    fn dropped_burst_never_becomes_visible() {
        let mut dma = DmaEngine::paper_default();
        let mut plan = FaultPlan::seeded(1).with_drop_burst(1.0);
        let (arrival, p) = dma.kick_to_nxp_faulty(Picos::ZERO, vec![9u8; 128], &mut plan);
        assert!(p.dropped);
        assert!(!dma.status_nxp(arrival + Picos::from_micros(100)));
        assert_eq!(dma.poll_nxp(arrival + Picos::from_micros(100)), None);
        // The burst still counts (the wire carried it) and the mover was
        // occupied.
        assert_eq!(dma.bursts_to_nxp(), 1);
    }

    #[test]
    fn stalled_burst_arrives_late_but_intact() {
        let mut clean = DmaEngine::paper_default();
        let baseline = clean.kick_to_nxp(Picos::ZERO, vec![7u8; 128]);
        let mut dma = DmaEngine::paper_default();
        let mut plan = FaultPlan::seeded(2).with_stall(1.0, Picos::from_micros(25));
        let (arrival, p) = dma.kick_to_nxp_faulty(Picos::ZERO, vec![7u8; 128], &mut plan);
        assert!(p.stall > Picos::ZERO);
        assert_eq!(arrival, baseline + p.stall);
        assert_eq!(dma.poll_nxp(arrival), Some(vec![7u8; 128]));
    }

    #[test]
    fn corrupted_burst_lands_damaged() {
        let mut dma = DmaEngine::paper_default();
        let mut plan = FaultPlan::seeded(3).with_corrupt(1.0);
        let (arrival, msi, p) =
            dma.kick_to_host_faulty(Picos::ZERO, vec![0u8; 128], &mut plan);
        let idx = p.corrupted.unwrap();
        let landed = dma.take_host_desc(arrival).unwrap();
        assert_ne!(landed[idx], 0, "payload must land corrupted");
        assert!(msi.is_some(), "corruption does not lose the interrupt");
    }

    #[test]
    fn dropped_host_burst_loses_its_msi_too() {
        let mut dma = DmaEngine::paper_default();
        let mut plan = FaultPlan::seeded(4).with_drop_burst(1.0);
        let (arrival, msi, p) =
            dma.kick_to_host_faulty(Picos::ZERO, vec![1u8; 128], &mut plan);
        assert!(p.dropped);
        assert!(msi.is_none());
        assert_eq!(dma.take_host_desc(arrival + Picos::from_micros(50)), None);
    }

    #[test]
    fn host_leg_msi_is_optional_never_a_panic() {
        // Regression for the old `msi.expect("no-fault plan always
        // delivers")`: a plan that drops the NxP→host burst loses the
        // interrupt, and the API reports that as `None` instead of
        // asserting on an invariant the fault injector can break.
        let mut dma = DmaEngine::paper_default();
        let mut plan = FaultPlan::seeded(11).with_drop_burst(1.0);
        let (_, msi, p) = dma.kick_to_host_faulty(Picos::ZERO, vec![3u8; 128], &mut plan);
        assert!(p.dropped);
        assert_eq!(msi, None);
        // The convenience wrapper shares the Option-typed contract and
        // always delivers on its internal fault-free plan.
        let (_, msi) = dma.kick_to_host(Picos::ZERO, vec![3u8; 128]);
        assert!(msi.is_some());
    }

    #[test]
    fn queue_depth_gauges_track_rings() {
        let mut dma = DmaEngine::paper_default();
        assert_eq!((dma.depth_to_nxp(), dma.depth_to_host()), (0, 0));
        let a = dma.kick_to_nxp(Picos::ZERO, vec![1]);
        dma.kick_to_nxp(a, vec![2]);
        let (b, _) = dma.kick_to_host(Picos::ZERO, vec![3]);
        assert_eq!((dma.depth_to_nxp(), dma.depth_to_host()), (2, 1));
        dma.poll_nxp(a);
        dma.take_host_desc(b);
        assert_eq!((dma.depth_to_nxp(), dma.depth_to_host()), (1, 0));
        // A dropped burst occupies the wire but never the ring.
        let mut plan = FaultPlan::seeded(12).with_drop_burst(1.0);
        dma.kick_to_host_faulty(b, vec![4], &mut plan);
        assert_eq!(dma.depth_to_host(), 0);
    }

    #[test]
    fn faultless_plan_matches_plain_kicks_exactly() {
        let mut a = DmaEngine::paper_default();
        let mut b = DmaEngine::paper_default();
        let mut plan = FaultPlan::none();
        for i in 0..4u8 {
            let t = Picos::from_micros(i as u64);
            let plain = a.kick_to_nxp(t, vec![i; 128]);
            let (faulty, p) = b.kick_to_nxp_faulty(t, vec![i; 128], &mut plan);
            assert!(p.is_clean());
            assert_eq!(plain, faulty);
        }
        assert_eq!(a.poll_nxp(Picos::from_millis(1)), b.poll_nxp(Picos::from_millis(1)));
    }

    #[test]
    fn msi_drop_and_duplicate_at_controller() {
        let msi = Msi {
            vector: 0,
            at: Picos::from_nanos(100),
        };
        let mut ic = InterruptController::new();
        let mut drop_plan = FaultPlan::seeded(5).with_drop_msi(1.0);
        assert_eq!(ic.raise_with(msi.clone(), &mut drop_plan), MsiFate::Dropped);
        assert_eq!(ic.pending(), 0);
        let mut dup_plan = FaultPlan::seeded(6).with_dup_msi(1.0);
        assert_eq!(ic.raise_with(msi, &mut dup_plan), MsiFate::Duplicated);
        assert_eq!(ic.pending(), 2);
    }

    #[test]
    fn take_where_skips_unrelated_descriptors() {
        let mut dma = DmaEngine::paper_default();
        let a1 = dma.kick_to_nxp(Picos::ZERO, vec![0]); // park the mover
        let _ = a1;
        let (b1, _) = dma.kick_to_host(Picos::ZERO, vec![1, 1]);
        let (b2, _) = dma.kick_to_host(b1, vec![2, 2]);
        // Claim the second descriptor without disturbing the first.
        let got = dma.take_host_desc_where(b2, |b| b[0] == 2);
        assert_eq!(got, Some(vec![2, 2]));
        assert_eq!(dma.take_host_desc(b2), Some(vec![1, 1]));
        // Not-yet-arrived descriptors never match.
        let (c, _) = dma.kick_to_host(b2, vec![3, 3]);
        assert_eq!(dma.take_host_desc_where(c - Picos(1), |_| true), None);
    }

    #[test]
    fn tombstoned_claims_keep_depth_and_order() {
        let mut dma = DmaEngine::paper_default();
        let (b1, _) = dma.kick_to_host(Picos::ZERO, vec![1]);
        let (b2, _) = dma.kick_to_host(b1, vec![2]);
        let (b3, _) = dma.kick_to_host(b2, vec![3]);
        assert_eq!(dma.depth_to_host(), 3);
        // Claim the middle descriptor: the gauge must not count the
        // tombstone left behind, and FIFO order must survive around it.
        assert_eq!(dma.take_host_desc_where(b3, |b| b[0] == 2), Some(vec![2]));
        assert_eq!(dma.depth_to_host(), 2);
        assert_eq!(dma.take_host_desc(b3), Some(vec![1]));
        assert_eq!(dma.take_host_desc(b3), Some(vec![3]));
        assert_eq!(dma.depth_to_host(), 0);
        assert_eq!(dma.take_host_desc(b3), None);
        // A predicate that matches nothing arrived leaves the ring whole.
        let (c, _) = dma.kick_to_host(b3, vec![4]);
        assert_eq!(dma.take_host_desc_where(c, |b| b[0] == 9), None);
        assert_eq!(dma.depth_to_host(), 1);
        assert_eq!(dma.take_host_desc(c), Some(vec![4]));
    }

    #[test]
    fn fabric_channels_are_independent_but_doorbells_arbitrate() {
        let mut plan = FaultPlan::none();
        let lat = LatencyModel::paper_default();
        let mut fab = PcieFabric::new(lat.clone(), 2);
        // Two doorbells rung at the same instant: the root port
        // serialises the posted writes, so channel 1's burst starts one
        // doorbell-write later than channel 0's.
        let (a0, _) = fab.kick_to_nxp_faulty(0, Picos::ZERO, vec![0u8; 128], &mut plan);
        let (a1, _) = fab.kick_to_nxp_faulty(1, Picos::ZERO, vec![0u8; 128], &mut plan);
        assert_eq!(a1, a0 + lat.host_to_nxp_write);
        // But the bursts do NOT serialise against each other the way two
        // bursts on one channel would (independent links).
        let mut one = PcieFabric::new(lat.clone(), 1);
        let (b0, _) = one.kick_to_nxp_faulty(0, Picos::ZERO, vec![0u8; 128], &mut plan);
        let (b1, _) = one.kick_to_nxp_faulty(0, Picos::ZERO, vec![0u8; 128], &mut plan);
        assert!(b1 > b0 + lat.host_to_nxp_write, "{b1} vs {b0}");
        // Each channel raises its own MSI vector.
        let (_, msi0, _) = fab.kick_to_host_faulty(0, Picos::ZERO, vec![0u8; 64], &mut plan);
        let (_, msi1, _) = fab.kick_to_host_faulty(1, Picos::ZERO, vec![0u8; 64], &mut plan);
        assert_eq!(msi0.unwrap().vector, 0);
        assert_eq!(msi1.unwrap().vector, 1);
        assert_eq!(fab.total_bursts(), 4);
    }

    #[test]
    fn single_channel_fabric_matches_bare_engine() {
        // The 1×1 differential guarantee starts here: one channel, no
        // contending doorbells → timing identical to a bare DmaEngine.
        let mut plan = FaultPlan::none();
        let mut fab = PcieFabric::new(LatencyModel::paper_default(), 1);
        let mut dma = DmaEngine::paper_default();
        let t = Picos::from_micros(3);
        let (fa, _) = fab.kick_to_nxp_faulty(0, t, vec![5u8; 128], &mut plan);
        let da = dma.kick_to_nxp(t, vec![5u8; 128]);
        assert_eq!(fa, da);
        let (fb, fm, _) = fab.kick_to_host_faulty(0, fa, vec![6u8; 64], &mut plan);
        let (db, dm) = dma.kick_to_host(fa, vec![6u8; 64]);
        assert_eq!(fb, db);
        assert_eq!(fm.unwrap().at, dm.unwrap().at);
    }

    #[test]
    fn take_vector_at_claims_only_the_exact_instant() {
        let mut ic = InterruptController::new();
        // Two waiters on one channel: an earlier and a later MSI.
        ic.raise(Msi { vector: 2, at: Picos::from_nanos(10) });
        ic.raise(Msi { vector: 2, at: Picos::from_nanos(25) });
        // The later waiter claims its own edge, not the earlier one.
        assert_eq!(
            ic.take_vector_at(Picos::from_nanos(25), 2).unwrap().at,
            Picos::from_nanos(25)
        );
        // The earlier waiter's MSI is untouched; a wrong vector or a
        // wrong instant claims nothing.
        assert_eq!(ic.take_vector_at(Picos::from_nanos(25), 2), None);
        assert_eq!(ic.take_vector_at(Picos::from_nanos(10), 3), None);
        assert_eq!(
            ic.take_vector_at(Picos::from_nanos(10), 2).unwrap().at,
            Picos::from_nanos(10)
        );
        assert_eq!(ic.pending(), 0);
    }
}
