//! The descriptor channel of §IV-B/D: per-NxP sequence spaces and one
//! send path per direction. Host→NxP, the driver kicks the DMA and
//! the NxP scheduler polls the burst up, retried under a bounded
//! budget that also detects device death and moves the leg to a
//! survivor; NxP→host, the reply burst raises the wake-up MSI that the
//! host's interrupt path (or its watchdog) turns back into a runnable
//! thread.

use super::{Machine, PendingWake, RunError};
use crate::descriptor::{DescError, DescKind, MigrationDescriptor};
use flick_mem::VirtAddr;
use flick_os::OsTiming;
use flick_sim::fault::BurstPerturbation;
use flick_sim::trace::Side;
use flick_sim::{CoreId, DeviceFaultKind, Event, MsiFate, Picos, SpanStage};
use flick_toolchain::layout;
use std::collections::BTreeSet;

/// Per-channel descriptor protocol state: independent sequence spaces
/// per NxP, exactly as each device pair would keep on real hardware.
#[derive(Clone, Debug)]
pub(super) struct ChannelSeqs {
    /// Next host→NxP descriptor sequence number.
    h2n: u64,
    /// Next NxP→host descriptor sequence number.
    n2h: u64,
    /// Highest host→NxP sequence the NxP has accepted. A high-water
    /// mark suffices on this direction: allocation and pickup happen
    /// atomically within one delivery loop, so accepts are in order.
    nxp_last: u64,
    /// Every NxP→host sequence `<= host_floor` has been accepted this
    /// channel incarnation.
    host_floor: u64,
    /// Accepted NxP→host sequences beyond `host_floor`. An exact set,
    /// not a high-water mark: failover stalls can reorder wake
    /// delivery across threads sharing the channel, and a lower-seq
    /// reply accepted late must not be mistaken for a retransmit
    /// duplicate. Contiguous prefixes fold back into the floor, so the
    /// set stays at the size of the reorder window, not the run.
    host_accepted: BTreeSet<u64>,
    /// Bumped every time a failover rejoin resets this channel: both
    /// sequence spaces restart, so protocol state stamped with an
    /// older incarnation is meaningless against the new device.
    pub(super) incarnation: u64,
}

impl Default for ChannelSeqs {
    fn default() -> Self {
        ChannelSeqs {
            h2n: 1,
            n2h: 1,
            nxp_last: 0,
            host_floor: 0,
            host_accepted: BTreeSet::new(),
            incarnation: 0,
        }
    }
}

impl ChannelSeqs {
    /// Allocates the next host→NxP sequence number.
    pub(super) fn next_h2n(&mut self) -> u64 {
        self.h2n += 1;
        self.h2n - 1
    }

    /// Allocates the next NxP→host sequence number.
    pub(super) fn next_n2h(&mut self) -> u64 {
        self.n2h += 1;
        self.n2h - 1
    }

    /// The NxP accepts host→NxP sequence `seq`; false when `seq` was
    /// already accepted (a stale retransmit to discard).
    fn nxp_accept(&mut self, seq: u64) -> bool {
        if seq <= self.nxp_last {
            return false;
        }
        self.nxp_last = seq;
        true
    }

    /// A failover rejoin resets the channel for the new device: both
    /// sequence spaces restart under the next incarnation.
    pub(super) fn rejoin(&mut self) {
        *self = ChannelSeqs {
            incarnation: self.incarnation + 1,
            ..ChannelSeqs::default()
        };
    }

    /// Has the host already accepted NxP→host sequence `seq` this
    /// incarnation?
    fn host_has_accepted(&self, seq: u64) -> bool {
        seq <= self.host_floor || self.host_accepted.contains(&seq)
    }

    /// Records an accepted NxP→host sequence, folding any
    /// now-contiguous prefix into the floor.
    fn host_mark_accepted(&mut self, seq: u64) {
        if seq <= self.host_floor {
            return;
        }
        self.host_accepted.insert(seq);
        while self.host_accepted.remove(&(self.host_floor + 1)) {
            self.host_floor += 1;
        }
    }
}

/// Outcome of one NxP pickup attempt of a host→NxP burst.
enum Pickup {
    /// Clean, in-order descriptor: run the NxP leg.
    Accept(Vec<u8>, MigrationDescriptor),
    /// Checksum rejected — the NxP NAKs and the host must retransmit.
    Corrupt,
    /// Sequence number already accepted (stale retransmit): discarded.
    Duplicate,
    /// The device is crashed, hung or unplugged: its scheduler never
    /// polls the status register, so the burst sits unclaimed and the
    /// device clock does not move. Unlike [`Pickup::Corrupt`] no NAK
    /// crosses the link — the host only notices by timeout.
    Dead,
}

impl Machine {
    /// The host→NxP send loop: kicks `desc` at NxP `nc` until its
    /// scheduler accepts it, retransmitting — bounded, with exponential
    /// backoff — on a doorbell admission reject, a lost burst, a
    /// checksum NAK or a dead device's unclaimed burst. A device-level
    /// fault (crash, hang, unplug) exhausts the same budget — detection
    /// latency *is* the retry cost; an unplugged card is noticed at the
    /// doorbell write — and then the leg moves to the next same-ISA
    /// survivor other than `avoid` ([`Machine::move_leg`]). `reexec`
    /// marks a failover re-execution: its span keeps the first send's
    /// DMA-submit mark and no queue-depth gauge is sampled.
    ///
    /// Returns the accepting NxP with the accepted wire bytes and
    /// descriptor, or `None` when the budget is exhausted with no
    /// survivor left to move to.
    pub(super) fn send_h2n(
        &mut self,
        hc: usize,
        pid: u64,
        mut nc: usize,
        avoid: usize,
        desc: &mut MigrationDescriptor,
        reexec: bool,
    ) -> Option<(usize, Vec<u8>, MigrationDescriptor)> {
        let retry = self.kernel.timing().retry;
        let nak_path = self.kernel.timing().nak_path;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let now = self.hosts[hc].clock().now();
            let fault = self.plan.device_state(nc, now);
            if attempt > retry.max_link_attempts || fault == Some(DeviceFaultKind::Unplug) {
                // Pure link death exhausts the send; a dead device
                // fails the leg over.
                self.declare_nxp_dead(hc, nc, fault?);
                let next = self.pick_failover_target(avoid)?;
                self.move_leg(hc, pid, nc, next, desc, reexec);
                nc = next;
                attempt = 0;
                continue;
            }
            if attempt > 1 {
                self.stats.bump("retransmits");
                self.trace.record_on(
                    CoreId::host(hc),
                    now,
                    Event::Retransmit {
                        to: Side::Nxp,
                        seq: desc.seq,
                        attempt,
                    },
                );
            } else if !reexec {
                self.obs
                    .mark(desc.span, SpanStage::DmaSubmit, now, CoreId::host(hc));
            }
            // Bounded admission: a ring at capacity — by wall depth (a
            // hung device stops draining it) or because every slot
            // awaits a pickup in this doorbell write's simulated future
            // — rejects the kick at the doorbell: typed backpressure,
            // charged as one attempt of the same bounded budget (the
            // driver's EAGAIN path).
            let cap = retry.ring_capacity;
            if self.ring_sim_occupied(nc, now, cap)
                || self.fabric.channel(nc).depth_to_nxp() >= cap
            {
                self.stats.bump("admission_rejects");
                self.trace
                    .record_on(CoreId::host(hc), now, Event::AdmissionRejected { chan: nc });
            } else {
                let (arrival, pert) =
                    self.fabric
                        .kick_to_nxp_faulty(nc, now, desc.to_bytes(), &mut self.plan);
                if !reexec && self.obs.enabled() {
                    let depth = self.fabric.channel(nc).depth_to_nxp() as u64;
                    self.obs_stats
                        .record_hist(&format!("qdepth:h2n:nxp{nc}"), depth);
                }
                self.note_burst_faults(CoreId::host(hc), Side::Nxp, now, &pert);
                // A lost posted write, a stale duplicate and a dead
                // scheduler that never polls all end alike below: the
                // driver's completion timer expires and it re-kicks.
                if !pert.dropped {
                    match self.nxp_pickup(nc, arrival, desc.seq) {
                        Pickup::Accept(b, d) => return Some((nc, b, d)),
                        Pickup::Corrupt => {
                            // The NxP NAKed: the NAK crosses the link
                            // and the host driver re-kicks.
                            let t = self.nxps[nc].core.clock().now();
                            self.hosts[hc].clock_mut().sync_to(t);
                            self.hosts[hc].clock_mut().advance(nak_path);
                            continue;
                        }
                        Pickup::Duplicate | Pickup::Dead => {}
                    }
                }
            }
            self.hosts[hc]
                .clock_mut()
                .advance(retry.backoff_for(attempt));
        }
    }

    /// The NxP→host send: kicks the reply `bytes` up channel `chan` at
    /// `now` and raises its wake-up MSI, attributed to core `on` (the
    /// NxP for a reply, the host for a retransmit it demanded). Returns
    /// the MSI's arrival, or `None` when the burst or its interrupt was
    /// lost in flight.
    pub(super) fn send_n2h(&mut self, on: CoreId, chan: usize, now: Picos, bytes: Vec<u8>) -> Option<Picos> {
        let (_arrival, maybe_msi, pert) =
            self.fabric
                .kick_to_host_faulty(chan, now, bytes, &mut self.plan);
        if self.obs.enabled() {
            let depth = self.fabric.channel(chan).depth_to_host() as u64;
            self.obs_stats
                .record_hist(&format!("qdepth:n2h:nxp{chan}"), depth);
        }
        self.note_burst_faults(on, Side::Host, now, &pert);
        let msi = maybe_msi?;
        let due = msi.at;
        match self.irq.raise_with(msi, &mut self.plan) {
            MsiFate::Delivered => Some(due),
            MsiFate::Duplicated => {
                self.note_fault(on, now, "dup-msi", Side::Host);
                Some(due)
            }
            MsiFate::Dropped => {
                self.note_fault(on, now, "drop-msi", Side::Host);
                None
            }
        }
    }

    /// Arms `pid`'s watchdog from the *expected* wake time of a freshly
    /// dispatched leg — its MSI instant or, when the interrupt was
    /// lost, the later of the NxP's and host core's clocks — so a lost
    /// wake-up is always noticed.
    pub(super) fn arm_watchdog(&mut self, hc: usize, pid: u64, wake: &PendingWake) -> Result<(), RunError> {
        let base = wake.msi_at.unwrap_or_else(|| {
            self.nxps[wake.chan]
                .core
                .clock()
                .now()
                .max(self.hosts[hc].clock().now())
        });
        let deadline = base + self.kernel.timing().retry.migration_watchdog;
        self.kernel.task_mut(pid)?.deadline = Some(deadline);
        Ok(())
    }

    /// The simulated-time half of the admission check: true when `cap`
    /// kicked bursts on channel `nc` have pickup instants still in the
    /// doorbell write's future — the slots a real ring would still
    /// hold. Entries are pushed in NxP-clock order, so draining the due
    /// prefix keeps the queue exactly the not-yet-picked-up set.
    fn ring_sim_occupied(&mut self, nc: usize, now: Picos, cap: usize) -> bool {
        let q = &mut self.nxps[nc].pickups;
        while q.front().is_some_and(|&t| t <= now) {
            q.pop_front();
        }
        q.len() >= cap
    }

    /// Counts and traces each fault the plan injected into a burst.
    fn note_burst_faults(&mut self, on: CoreId, to: Side, at: Picos, p: &BurstPerturbation) {
        for (hit, kind) in [
            (p.dropped, "drop-burst"),
            (p.corrupted.is_some(), "corrupt-burst"),
            (p.stall > Picos::ZERO, "link-stall"),
        ] {
            if hit {
                self.note_fault(on, at, kind, to);
            }
        }
    }

    /// Counts and traces one injected fault.
    fn note_fault(&mut self, on: CoreId, at: Picos, kind: &'static str, to: Side) {
        self.stats.bump("faults_injected");
        self.trace.record_on(on, at, Event::FaultInjected { kind, to });
    }

    /// The interrupt-driven wakeup with recovery: wait for the MSI (or
    /// the watchdog deadline), validate the descriptor out of the host
    /// ring, NAK corruption, discard duplicates, demand retransmission
    /// after watchdog expiry, and finally copy the descriptor into the
    /// process page and mark the thread runnable.
    pub(super) fn deliver_wakeup(&mut self, hc: usize, pid: u64, wake: PendingWake) -> Result<(), RunError> {
        let timing = self.kernel.timing().clone();
        let mut wake = wake;
        let mut expect_msi = wake.msi_at;
        let mut attempt = 1u32; // kicks of the current descriptor so far
        loop {
            let Some(deadline) = self.kernel.task(pid)?.deadline else {
                return Err(RunError::Protocol {
                    side: Side::Host,
                    context: "suspended thread without an armed watchdog",
                });
            };
            let accepted = match expect_msi.filter(|at| *at <= deadline) {
                Some(at) => {
                    self.hosts[hc].clock_mut().sync_to(at);
                    let now = self.hosts[hc].clock().now();
                    // Claim exactly the interrupt this wake raised (by
                    // its recorded arrival instant): several tenants
                    // can be suspended on one channel, and a due-time
                    // scan here would steal a neighbour's MSI.
                    let Some(msi) = self.irq.take_vector_at(at, wake.chan as u32) else {
                        if self.plan.has_device_events() {
                            // The vector was purged by a failover
                            // quiesce on this channel: fall back to the
                            // watchdog poll, which will notice the dead
                            // device and re-execute on a survivor.
                            expect_msi = None;
                            continue;
                        }
                        return Err(RunError::Protocol {
                            side: Side::Host,
                            context: "expected wake-up MSI was not queued",
                        });
                    };
                    if let Some(span) = self.threads.get(&pid).and_then(|t| t.span) {
                        self.obs
                            .mark(span, SpanStage::MsiDelivery, now, CoreId::host(hc));
                    }
                    self.hosts[hc].clock_mut().advance(timing.irq_entry);
                    let r = self.try_accept_host_desc(hc, wake.chan, pid, &timing)?;
                    // A duplicated MSI sits at the same instant; the
                    // kernel takes the extra interrupt, finds nothing
                    // to deliver, and returns.
                    while self.irq.take_vector_at(msi.at, wake.chan as u32).is_some() {
                        self.stats.bump("spurious_wakeups");
                        self.trace.record_on(
                            CoreId::host(hc),
                            self.hosts[hc].clock().now(),
                            Event::SpuriousWakeup { pid },
                        );
                        self.hosts[hc].clock_mut().advance(timing.irq_entry);
                    }
                    r
                }
                None => {
                    // No interrupt by the deadline: the watchdog fires
                    // and polls the descriptor ring directly.
                    self.hosts[hc].clock_mut().sync_to(deadline);
                    self.stats.bump("watchdog_fires");
                    self.trace.record_on(
                        CoreId::host(hc),
                        self.hosts[hc].clock().now(),
                        Event::WatchdogFired { pid },
                    );
                    self.hosts[hc].clock_mut().advance(timing.irq_entry);
                    let r = self.try_accept_host_desc(hc, wake.chan, pid, &timing)?;
                    if let Some(seq) = r {
                        // The payload made it but its MSI did not.
                        self.stats.bump("msi_losses_recovered");
                        self.trace.record_on(
                            CoreId::host(hc),
                            self.hosts[hc].clock().now(),
                            Event::MsiLossRecovered { pid, seq },
                        );
                    }
                    r
                }
            };
            if accepted.is_some() {
                return Ok(());
            }
            // Lost or damaged burst: demand retransmission of the
            // retained reply and re-arm the watchdog.
            attempt += 1;
            // A crashed or unplugged device cannot answer the demand —
            // its retained reply died with it. A hung one still
            // can (link up), so it only fails over once the retry
            // budget exhausts.
            let fault = self.plan.device_state(wake.chan, self.hosts[hc].clock().now());
            let dead_now = matches!(fault, Some(DeviceFaultKind::Crash | DeviceFaultKind::Unplug));
            // A wake stamped with an older channel incarnation outlived
            // its device: the reply (and its retained retransmit copy)
            // died with the old incarnation, so re-execute — the
            // rejoined device reading healthy does not make the stale
            // reply deliverable.
            let stale = self.nxps[wake.chan].seqs.incarnation != wake.incarnation;
            if dead_now
                || stale
                || (attempt > timing.retry.max_link_attempts && fault.is_some())
            {
                if let Some(f) = fault {
                    self.declare_nxp_dead(hc, wake.chan, f);
                }
                let Some(new_wake) = self.failover_reexecute(hc, pid)? else {
                    return Err(RunError::LinkDead {
                        pid,
                        stage: "nxp-to-host",
                    });
                };
                wake = new_wake;
                expect_msi = wake.msi_at;
                attempt = 1;
                continue;
            }
            if attempt > timing.retry.max_link_attempts {
                return Err(RunError::LinkDead {
                    pid,
                    stage: "nxp-to-host",
                });
            }
            let Some((chan, desc)) = self.threads.get(&pid).and_then(|t| t.n2h) else {
                return Err(RunError::Protocol {
                    side: Side::Host,
                    context: "no retained descriptor to retransmit",
                });
            };
            self.stats.bump("retransmits");
            let now = self.hosts[hc].clock().now();
            self.trace.record_on(
                CoreId::host(hc),
                now,
                Event::Retransmit {
                    to: Side::Host,
                    seq: desc.seq,
                    attempt,
                },
            );
            expect_msi = self.send_n2h(CoreId::host(hc), chan, now, desc.to_bytes());
            self.kernel.task_mut(pid)?.deadline =
                Some(self.hosts[hc].clock().now() + timing.retry.migration_watchdog);
        }
    }

    /// Drains the host descriptor ring: discards stale duplicates,
    /// NAKs corruption, and on a clean in-order descriptor copies it
    /// into the process page and wakes the thread. Returns the accepted
    /// sequence number, or `None` when nothing new was delivered (an
    /// empty ring, or a corrupt burst drained and NAKed).
    fn try_accept_host_desc(
        &mut self,
        hc: usize,
        chan: usize,
        pid: u64,
        timing: &OsTiming,
    ) -> Result<Option<u64>, RunError> {
        loop {
            let now = self.hosts[hc].clock().now();
            // Several threads share the channel ring: take the first
            // due descriptor that concerns *this* wakeup — ours by
            // pid, a stale duplicate to drain, or a corrupt burst
            // (unattributable, so whoever looks first NAKs it).
            // The predicate's verdict on the burst it claims is the
            // last one it returns, so that parse is reused below.
            let seqs = &self.nxps[chan].seqs;
            let mut claimed = Err(DescError::TooShort);
            let Some(bytes) = self.fabric.take_host_desc_where(chan, now, |b| {
                claimed = MigrationDescriptor::from_bytes_checked(b);
                match claimed {
                    Err(_) => true,
                    Ok(d) => seqs.host_has_accepted(d.seq) || d.pid == pid,
                }
            }) else {
                return Ok(None);
            };
            match claimed {
                Err(_) => {
                    self.stats.bump("crc_rejects");
                    let seq = self
                        .threads
                        .get(&pid)
                        .and_then(|t| t.n2h)
                        .map_or(0, |(_, d)| d.seq);
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::CorruptDescriptor { to: Side::Host, seq },
                    );
                    self.trace
                        .record_on(CoreId::host(hc), now, Event::NakSent { from: Side::Host, seq });
                    self.hosts[hc].clock_mut().advance(timing.nak_path);
                    return Ok(None);
                }
                Ok(d) if self.nxps[chan].seqs.host_has_accepted(d.seq) => {
                    self.stats.bump("duplicate_descs_dropped");
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::DuplicateDescriptor {
                            to: Side::Host,
                            seq: d.seq,
                        },
                    );
                    // The ring may also hold the real descriptor.
                    continue;
                }
                Ok(d) => {
                    self.nxps[chan].seqs.host_mark_accepted(d.seq);
                    self.trace.record_on(
                        CoreId::host(hc),
                        now,
                        Event::DescriptorReceived {
                            to: Side::Host,
                            kind: d.kind.label(),
                        },
                    );
                    // Kernel copies the descriptor into the process
                    // page, wakes the thread by PID, and schedules it.
                    self.hosts[hc].clock_mut().advance(timing.desc_copy);
                    self.kernel
                        .write_user(&mut self.mem, pid, VirtAddr(layout::DESC_PAGE_VA), &bytes)
                        .map_err(RunError::Load)?;
                    self.hosts[hc].clock_mut().advance(timing.wakeup_and_schedule);
                    if !self.kernel.try_wake_from_migration(pid)? {
                        return Err(RunError::Protocol {
                            side: Side::Host,
                            context: "woken thread was not in migration wait",
                        });
                    }
                    self.trace.record_on(
                        CoreId::host(hc),
                        self.hosts[hc].clock().now(),
                        Event::ThreadWoken { pid },
                    );
                    // The round trip is closed: the retained copies go
                    // with it. A final return means the thread has left
                    // its NxP: pop the innermost continuation here, not
                    // at the reply's send, so a failover re-execution of
                    // the leg still moves this frame's entry. (An
                    // escalated call keeps its frame parked — the entry
                    // stays until that frame returns.)
                    let thread = self.thread_mut(pid)?;
                    thread.h2n = None;
                    thread.n2h = None;
                    if d.kind == DescKind::NxpToHostReturn {
                        thread.on_nxps.pop();
                    }
                    if let Some(span) = thread.span.take() {
                        self.obs.mark(
                            span,
                            SpanStage::Woken,
                            self.hosts[hc].clock().now(),
                            CoreId::host(hc),
                        );
                        if let Some(s) = self.obs.finish(span) {
                            for (from, to) in s.segments() {
                                let key = format!(
                                    "seg:{}->{}",
                                    from.stage.label(),
                                    to.stage.label()
                                );
                                self.obs_stats
                                    .record_hist(&key, to.at.saturating_sub(from.at).as_picos());
                            }
                            self.obs_stats
                                .record_hist("span:total", s.total().as_picos());
                        }
                    }
                    self.nxps[chan].health.note_activity();
                    return Ok(Some(d.seq));
                }
            }
        }
    }

    /// One NxP scheduler pickup of a host→NxP burst: poll the DMA
    /// status register, fetch the burst and validate its checksum and
    /// sequence number.
    fn nxp_pickup(&mut self, nc: usize, arrival: Picos, expect_seq: u64) -> Pickup {
        let nt = self.nxp_timing.clone();
        let on = CoreId::nxp(nc);
        // The scheduler's poll loop observes the status register.
        let now = self.nxps[nc].core.clock().now().max(arrival);
        // A dead device never reaches its poll: the burst stays in the
        // ring and the device clock stays frozen. Checked before any
        // clock moves so failover replays bit-identically.
        if self.plan.device_state(nc, now).is_some() {
            return Pickup::Dead;
        }
        let clock = self.nxps[nc].core.clock_mut();
        clock.sync_to(now + nt.poll_period);
        let polled = clock.now();
        let Some(in_bytes) = self.fabric.poll_nxp(nc, polled) else {
            // Burst never queued — indistinguishable from a lost one.
            return Pickup::Corrupt;
        };
        match MigrationDescriptor::from_bytes_checked(&in_bytes) {
            Ok(d) if !self.nxps[nc].seqs.nxp_accept(d.seq) => {
                self.stats.bump("duplicate_descs_dropped");
                let e = Event::DuplicateDescriptor {
                    to: Side::Nxp,
                    seq: d.seq,
                };
                self.trace.record_on(on, polled, e);
                Pickup::Duplicate
            }
            Ok(d) => {
                let e = Event::DescriptorReceived {
                    to: Side::Nxp,
                    kind: d.kind.label(),
                };
                self.trace.record_on(on, polled, e);
                let slot = &mut self.nxps[nc];
                slot.core.clock_mut().advance(nt.dispatch);
                let picked = slot.core.clock().now();
                // Occupancy admission bookkeeping: this burst's ring
                // slot frees at the instant the scheduler picked it up.
                slot.pickups.push_back(picked);
                // Sign of life: a pickup on a half-open breaker is the
                // probe succeeding.
                let probe = slot.health.note_activity();
                // The wire bytes carry the span id, so the NxP side
                // attributes its mark without any host-side channel.
                self.obs.mark(d.span, SpanStage::NxpDispatch, picked, on);
                if probe {
                    self.stats.bump("nxp_probes_ok");
                    self.trace
                        .record_on(on, picked, Event::ProbeSucceeded { nxp: nc });
                }
                Pickup::Accept(in_bytes, d)
            }
            Err(_) => {
                // The link CRC caught in-flight corruption: NAK it.
                self.stats.bump("crc_rejects");
                let (to, from, seq) = (Side::Nxp, Side::Nxp, expect_seq);
                let corrupt = Event::CorruptDescriptor { to, seq };
                self.trace.record_on(on, polled, corrupt);
                let nak = Event::NakSent { from, seq };
                self.trace.record_on(on, polled, nak);
                Pickup::Corrupt
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ChannelSeqs;

    #[test]
    fn out_of_order_n2h_accepts_fold_into_the_floor() {
        let mut c = ChannelSeqs::default();
        c.host_mark_accepted(2);
        c.host_mark_accepted(3);
        assert_eq!(c.host_floor, 0);
        assert!(c.host_has_accepted(2) && c.host_has_accepted(3));
        assert!(!c.host_has_accepted(1));
        c.host_mark_accepted(1);
        assert_eq!(c.host_floor, 3);
        assert!(c.host_accepted.is_empty());
        assert!(!c.host_has_accepted(4));
    }

    #[test]
    fn duplicates_are_detected_in_both_directions() {
        let mut c = ChannelSeqs::default();
        let (a, b) = (c.next_h2n(), c.next_h2n());
        assert_eq!((a, b), (1, 2));
        assert!(c.nxp_accept(a));
        assert!(!c.nxp_accept(a));
        assert!(c.nxp_accept(b));
        assert!(!c.nxp_accept(a));
        let r = c.next_n2h();
        assert!(!c.host_has_accepted(r));
        c.host_mark_accepted(r);
        assert!(c.host_has_accepted(r));
        // Re-marking an accepted sequence changes nothing.
        c.host_mark_accepted(r);
        assert_eq!((c.host_floor, c.host_accepted.len()), (1, 0));
    }

    #[test]
    fn rejoin_restarts_both_sequence_spaces() {
        let mut c = ChannelSeqs::default();
        let s = c.next_h2n();
        assert!(c.nxp_accept(s));
        let r = c.next_n2h();
        c.host_mark_accepted(r);
        c.host_mark_accepted(r + 2);
        c.rejoin();
        assert_eq!(c.incarnation, 1);
        assert_eq!((c.next_h2n(), c.next_n2h()), (1, 1));
        assert!(c.nxp_accept(1), "h2n accepts restart");
        assert!(!c.host_has_accepted(1), "n2h accepts restart");
        assert!(!c.host_has_accepted(r + 2));
        c.rejoin();
        assert_eq!(c.incarnation, 2);
    }
}
