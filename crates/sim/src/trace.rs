//! Event tracing for simulated runs.
//!
//! Every interesting hardware/OS event (page fault, descriptor DMA,
//! context switch, migration leg) can be recorded with its timestamp.
//! Tests assert on the trace to verify mechanism-level behaviour (e.g.
//! "a host→NxP call migration emits exactly one NX fault and one DMA
//! burst"), and the bench harnesses use it to decompose round-trip
//! overhead the way Table III of the paper does.

use crate::time::Picos;
use std::fmt;

/// Which side of the system an event happened on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The x86-64-like host CPU / kernel.
    Host,
    /// The RV64-like NxP core / runtime.
    Nxp,
    /// A host core running the degraded-mode interpreter over NxP text
    /// (§IV ablation). Used for core *labeling* only — emulator cores
    /// are host cores architecturally.
    Emu,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Host => write!(f, "host"),
            Side::Nxp => write!(f, "nxp"),
            Side::Emu => write!(f, "emu"),
        }
    }
}

/// Identity of one core in a topology-configured machine: which fleet
/// it belongs to and its index within that fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CoreId {
    /// Host or NxP fleet.
    pub side: Side,
    /// Index within the fleet (0-based).
    pub index: usize,
}

impl CoreId {
    /// The `index`-th host core.
    pub fn host(index: usize) -> Self {
        CoreId {
            side: Side::Host,
            index,
        }
    }

    /// The `index`-th NxP core.
    pub fn nxp(index: usize) -> Self {
        CoreId {
            side: Side::Nxp,
            index,
        }
    }

    /// The degraded-mode emulator attached to the `index`-th host core.
    pub fn emu(index: usize) -> Self {
        CoreId {
            side: Side::Emu,
            index,
        }
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.side, self.index)
    }
}

/// A traced simulation event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Instruction page fault caused by the NX-bit convention.
    NxFault {
        /// Side that faulted.
        side: Side,
        /// Virtual address of the function whose fetch faulted.
        fault_va: u64,
    },
    /// RISC-V misaligned-instruction-address exception (fetching x86 bytes).
    MisalignedFetch {
        /// Faulting virtual PC.
        fault_va: u64,
    },
    /// A migration descriptor left one side via the DMA engine.
    DescriptorSent {
        /// Sending side.
        from: Side,
        /// Descriptor kind tag (call/return).
        kind: &'static str,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A migration descriptor was picked up by the other side.
    DescriptorReceived {
        /// Receiving side.
        to: Side,
        /// Descriptor kind tag.
        kind: &'static str,
    },
    /// The kernel suspended a thread pending migration.
    ThreadSuspended {
        /// Process id.
        pid: u64,
    },
    /// An interrupt woke a suspended thread.
    ThreadWoken {
        /// Process id.
        pid: u64,
    },
    /// NxP scheduler context-switched a thread in or out.
    NxpContextSwitch {
        /// True when switching a thread in, false when switching out.
        switch_in: bool,
    },
    /// A TLB miss was serviced by the programmable MMU.
    TlbMiss {
        /// Side whose TLB missed.
        side: Side,
        /// Virtual address.
        va: u64,
        /// Number of page-table levels walked.
        levels: u8,
    },
    /// The fault injector perturbed the interconnect (chaos testing).
    FaultInjected {
        /// What was injected: `"corrupt-burst"`, `"drop-burst"`,
        /// `"link-stall"`, `"drop-msi"` or `"dup-msi"`.
        kind: &'static str,
        /// Receiving side of the affected transfer.
        to: Side,
    },
    /// A receiver rejected a descriptor whose checksum failed.
    CorruptDescriptor {
        /// Side that detected the corruption.
        to: Side,
        /// Sequence number carried by the damaged descriptor.
        seq: u64,
    },
    /// A receiver discarded a descriptor whose sequence number was
    /// already accepted (late original after a retransmit, or a
    /// duplicate delivery).
    DuplicateDescriptor {
        /// Side that discarded it.
        to: Side,
        /// The stale sequence number.
        seq: u64,
    },
    /// A NAK asked the sender to retransmit a damaged/lost descriptor.
    NakSent {
        /// Side sending the NAK (the receiver of the bad transfer).
        from: Side,
        /// Sequence number being NAKed.
        seq: u64,
    },
    /// A descriptor was retransmitted after a NAK or timeout.
    Retransmit {
        /// Receiving side of the retried transfer.
        to: Side,
        /// Sequence number (unchanged across retries).
        seq: u64,
        /// Retry attempt, 1-based; backoff doubles with each.
        attempt: u32,
    },
    /// An interrupt fired with no fresh descriptor behind it (duplicate
    /// or stale MSI); the wakeup was ignored.
    SpuriousWakeup {
        /// Process whose wait loop observed it.
        pid: u64,
    },
    /// The host migration watchdog expired for a suspended thread.
    WatchdogFired {
        /// The timed-out process.
        pid: u64,
    },
    /// A watchdog poll found the descriptor ring non-empty: the MSI was
    /// lost but the payload had landed, and delivery proceeds.
    MsiLossRecovered {
        /// The recovering process.
        pid: u64,
        /// Sequence number of the recovered descriptor.
        seq: u64,
    },
    /// Migration was abandoned after bounded retries; the task is now
    /// sticky-degraded and runs NxP functions via the host interpreter.
    Degraded {
        /// The degraded process.
        pid: u64,
    },
    /// A degraded task entered host-interpreter execution of NxP text.
    EmulatedSegment {
        /// The process.
        pid: u64,
        /// Virtual address where emulation started.
        from_va: u64,
    },
    /// A scheduled device-level failure took effect (first observed by
    /// the host at this time).
    DeviceFault {
        /// The afflicted NxP.
        nxp: usize,
        /// `"crash"`, `"hang"` or `"unplug"`.
        kind: &'static str,
    },
    /// The health monitor declared an NxP dead: its circuit breaker
    /// opened and failover begins.
    NxpDeclaredDead {
        /// The dead NxP.
        nxp: usize,
    },
    /// A previously-dead NxP rejoined the fleet: rings cleared, sequence
    /// spaces reset, breaker half-open pending a probe.
    NxpRejoined {
        /// The rejoining NxP.
        nxp: usize,
    },
    /// A half-open breaker's probe migration completed and the breaker
    /// closed: the NxP is back in normal rotation.
    ProbeSucceeded {
        /// The probed NxP.
        nxp: usize,
    },
    /// In-flight descriptors for a dead NxP were reaped from its channel
    /// rings during quiesce.
    DescriptorsReaped {
        /// The quiesced NxP/channel.
        nxp: usize,
        /// How many in-flight descriptors were cancelled.
        count: u64,
    },
    /// A victim thread was re-placed from a dead NxP onto a survivor.
    FailoverReplaced {
        /// The re-placed thread.
        pid: u64,
        /// The NxP it was running toward.
        from_nxp: usize,
        /// The surviving NxP now hosting it.
        to_nxp: usize,
    },
    /// A retained descriptor was re-executed on a survivor after its
    /// original NxP died holding the in-flight leg.
    FailoverReexecuted {
        /// The thread whose leg was re-executed.
        pid: u64,
        /// The surviving NxP that re-ran it.
        on_nxp: usize,
    },
    /// Bounded admission rejected a kick: the channel's descriptor ring
    /// was full, so the sender backed off instead of queueing unboundedly.
    AdmissionRejected {
        /// The saturated channel.
        chan: usize,
    },
    /// Free-form annotation (used by workloads to mark phases).
    Marker(&'static str),
}

/// Trace recording configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Master switch; when false nothing is recorded.
    pub enabled: bool,
    /// Drop events once this many are stored (guards long benches).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            capacity: 1 << 20,
        }
    }
}

/// A timestamped event log.
///
/// # Examples
///
/// ```
/// use flick_sim::{Event, Picos, Trace};
///
/// let mut trace = Trace::default();
/// trace.record(Picos::from_nanos(10), Event::Marker("start"));
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.count(|e| matches!(e, Event::Marker(_))), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    config: TraceConfig,
    events: Vec<(Picos, Event)>,
    /// Which core recorded each event, parallel to `events`. `None` for
    /// untagged records (markers, legacy callers); kept out of the
    /// event tuples so trace-equality assertions over [`Trace::events`]
    /// are independent of the machine topology that produced them.
    cores: Vec<Option<CoreId>>,
    dropped: u64,
}

impl Trace {
    /// Creates a trace with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        Trace {
            config,
            events: Vec::new(),
            cores: Vec::new(),
            dropped: 0,
        }
    }

    /// Creates a disabled trace that records nothing.
    pub fn disabled() -> Self {
        Trace::new(TraceConfig {
            enabled: false,
            capacity: 0,
        })
    }

    /// Records `event` at time `at` (no-op when disabled or full).
    pub fn record(&mut self, at: Picos, event: Event) {
        self.push(None, at, event);
    }

    /// Records `event` at time `at`, attributed to `core` — the
    /// topology-aware variant of [`Trace::record`].
    pub fn record_on(&mut self, core: CoreId, at: Picos, event: Event) {
        self.push(Some(core), at, event);
    }

    fn push(&mut self, core: Option<CoreId>, at: Picos, event: Event) {
        if !self.config.enabled {
            return;
        }
        if self.events.len() >= self.config.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push((at, event));
        self.cores.push(core);
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[(Picos, Event)] {
        &self.events
    }

    /// Which core recorded each event, parallel to [`Trace::events`]
    /// (`None` for untagged records).
    pub fn core_tags(&self) -> &[Option<CoreId>] {
        &self.cores
    }

    /// The events a particular core recorded, with timestamps.
    pub fn events_on(&self, core: CoreId) -> impl Iterator<Item = &(Picos, Event)> {
        self.events
            .iter()
            .zip(self.cores.iter())
            .filter(move |(_, c)| **c == Some(core))
            .map(|(e, _)| e)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events dropped because the trace filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Counts events matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&Event) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }

    /// First event matching a predicate, with its timestamp.
    pub fn find(&self, mut pred: impl FnMut(&Event) -> bool) -> Option<(Picos, &Event)> {
        self.events
            .iter()
            .find(|(_, e)| pred(e))
            .map(|(t, e)| (*t, e))
    }

    /// Clears all recorded events (configuration is kept).
    pub fn clear(&mut self) {
        self.events.clear();
        self.cores.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::default();
        t.record(Picos::from_nanos(1), Event::Marker("a"));
        t.record(Picos::from_nanos(2), Event::Marker("b"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].1, Event::Marker("a"));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(Picos::ZERO, Event::Marker("x"));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_drops_and_counts() {
        let mut t = Trace::new(TraceConfig {
            enabled: true,
            capacity: 2,
        });
        for _ in 0..5 {
            t.record(Picos::ZERO, Event::Marker("m"));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn find_returns_first_match() {
        let mut t = Trace::default();
        t.record(Picos::from_nanos(5), Event::ThreadSuspended { pid: 1 });
        t.record(Picos::from_nanos(9), Event::ThreadWoken { pid: 1 });
        let (at, e) = t.find(|e| matches!(e, Event::ThreadWoken { .. })).unwrap();
        assert_eq!(at, Picos::from_nanos(9));
        assert_eq!(*e, Event::ThreadWoken { pid: 1 });
    }

    #[test]
    fn clear_resets() {
        let mut t = Trace::default();
        t.record(Picos::ZERO, Event::Marker("m"));
        t.clear();
        assert!(t.is_empty());
        assert!(t.core_tags().is_empty());
    }

    #[test]
    fn overflow_dropped_accounting_is_exact() {
        let cap = 8;
        let mut t = Trace::new(TraceConfig {
            enabled: true,
            capacity: cap,
        });
        let total = 1000;
        for i in 0..total {
            t.record_on(
                CoreId::host(i % 3),
                Picos::from_nanos(i as u64),
                Event::Marker("m"),
            );
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.dropped(), (total - cap) as u64);
        // Dropping is stable: the survivors are exactly the first `cap`
        // records, still in order.
        for (i, (at, _)) in t.events().iter().enumerate() {
            assert_eq!(*at, Picos::from_nanos(i as u64));
        }
        // Draining more after overflow keeps counting.
        t.record(Picos::ZERO, Event::Marker("late"));
        assert_eq!(t.dropped(), (total - cap) as u64 + 1);
    }

    #[test]
    fn overflow_never_misattributes_cores() {
        // Interleave three cores, overflow the ring, then check that
        // per-core views only ever return that core's events and that
        // the tag column stays exactly parallel to the event column.
        let mut t = Trace::new(TraceConfig {
            enabled: true,
            capacity: 10,
        });
        for i in 0..50u64 {
            let core = match i % 3 {
                0 => CoreId::host(0),
                1 => CoreId::host(1),
                _ => CoreId::nxp(0),
            };
            // Timestamp encodes the owning core so any cross-talk is
            // detectable from the surviving records alone.
            t.record_on(core, Picos(i % 3), Event::Marker("m"));
        }
        assert_eq!(t.core_tags().len(), t.events().len());
        for (want, core) in [
            (0u64, CoreId::host(0)),
            (1, CoreId::host(1)),
            (2, CoreId::nxp(0)),
        ] {
            for (at, _) in t.events_on(core) {
                assert_eq!(at.0, want, "event leaked across core tracks");
            }
        }
        // An overflow-dropped record must not leave a dangling tag.
        let tagged: usize = t
            .core_tags()
            .iter()
            .filter(|c| c.is_some())
            .count();
        assert_eq!(tagged, t.len());
    }

    #[test]
    fn overflow_drops_tag_and_event_together() {
        let mut t = Trace::new(TraceConfig {
            enabled: true,
            capacity: 1,
        });
        t.record_on(CoreId::host(0), Picos::ZERO, Event::Marker("kept"));
        t.record_on(CoreId::nxp(5), Picos::ZERO, Event::Marker("dropped"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.core_tags(), &[Some(CoreId::host(0))]);
        assert_eq!(t.events_on(CoreId::nxp(5)).count(), 0);
    }

    #[test]
    fn core_tags_parallel_events() {
        let mut t = Trace::default();
        t.record_on(CoreId::host(0), Picos::from_nanos(1), Event::Marker("a"));
        t.record(Picos::from_nanos(2), Event::Marker("b"));
        t.record_on(CoreId::nxp(1), Picos::from_nanos(3), Event::Marker("c"));
        assert_eq!(t.core_tags(), &[
            Some(CoreId::host(0)),
            None,
            Some(CoreId::nxp(1)),
        ]);
        let on_nxp1: Vec<_> = t.events_on(CoreId::nxp(1)).collect();
        assert_eq!(on_nxp1, vec![&(Picos::from_nanos(3), Event::Marker("c"))]);
        assert_eq!(CoreId::nxp(1).to_string(), "nxp1");
    }
}
