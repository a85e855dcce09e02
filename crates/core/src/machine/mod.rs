//! The machine: N host cores × M NxP cores + PCIe fabric + interrupt
//! controller + kernel + NxP runtime, and the complete bidirectional
//! migration event loop of Fig. 2.
//!
//! The fleet is driven by a deterministic discrete-event interleave:
//! each scheduling turn goes to the eligible host core whose clock is
//! globally earliest (ties toward the lowest core index), so any
//! topology — including the paper's 1×1 pair — replays bit-identically
//! run after run.

mod channel;
mod failover;
mod leg;
mod serving;

use crate::descriptor::{DescKind, MigrationDescriptor};
use crate::handlers;
use crate::health::NxpHealth;
use crate::nxp::{NxpThread, NxpTiming};
use crate::serving::ServingCtx;
use crate::services::{self as svc, desc_layout as L};
use crate::topology::{NxpPlacement, Topology};
use channel::ChannelSeqs;
use flick_cpu::{ChainCounters, Core, CoreConfig, Exception, InstFaultKind, MemEnv, StopReason};
use flick_isa::{abi, IsaId, Reg};
use flick_mem::{PhysMem, U64BuildHasher, VirtAddr};
use flick_os::{Kernel, KernelError, LoadError, OsTiming, RunQueues};
use flick_pcie::{InterruptController, PcieFabric};
use flick_sim::trace::Side;
use flick_sim::{
    CoreId, Event, FaultCounts, FaultPlan, Picos, Span, SpanRecorder, SpanStage, Stats, Trace,
    TraceConfig,
};
use flick_toolchain::{layout, MultiIsaImage, ProgramBuilder};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;

/// Instructions per scheduling quantum (~20 µs at host speed).
const QUANTUM: u64 = 50_000;

/// Why a run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Loading the program failed.
    Load(LoadError),
    /// A kernel API was asked about a task that does not exist (or an
    /// equally impossible task-state transition). Reachable by driving
    /// the machine with a PID that was never loaded; previously this
    /// was a library panic.
    Kernel(KernelError),
    /// Building the program failed.
    Build(String),
    /// A core took an unrecoverable exception.
    Crash {
        /// Which side crashed.
        side: Side,
        /// The exception.
        exception: Exception,
    },
    /// An `ecall` used an unknown service number.
    UnknownService {
        /// Which side issued it.
        side: Side,
        /// The service number.
        service: u16,
    },
    /// The instruction budget ran out.
    FuelExhausted,
    /// The migration protocol reached a state its invariants forbid
    /// (e.g. the migrate `ioctl` issued without a saved fault target).
    /// Reachable by hand-written guest code that calls the Flick
    /// services outside the handler protocol.
    Protocol {
        /// Which side broke the protocol.
        side: Side,
        /// What was violated.
        context: &'static str,
    },
    /// Descriptor delivery kept failing past the bounded retransmission
    /// budget and the failure was not recoverable by degradation (a
    /// lost *return* leg cannot be re-run without doubling the remote
    /// call's side effects).
    LinkDead {
        /// The thread whose migration was lost.
        pid: u64,
        /// Which leg of the protocol gave up.
        stage: &'static str,
    },
    /// Every host core went idle with no queued task and no pending
    /// wake-up, yet some processes never finished — they can never run
    /// again (e.g. they were abandoned mid-migration by an earlier
    /// aborted run).
    Deadlock {
        /// The pids that never completed.
        stuck: Vec<u64>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Load(e) => write!(f, "load error: {e}"),
            RunError::Kernel(e) => write!(f, "kernel error: {e}"),
            RunError::Build(e) => write!(f, "build error: {e}"),
            RunError::Crash { side, exception } => write!(f, "{side} crashed: {exception}"),
            RunError::UnknownService { side, service } => {
                write!(f, "{side} used unknown service {service:#x}")
            }
            RunError::FuelExhausted => write!(f, "instruction budget exhausted"),
            RunError::Protocol { side, context } => {
                write!(f, "{side} migration protocol violation: {context}")
            }
            RunError::LinkDead { pid, stage } => {
                write!(f, "PCIe link dead for pid {pid} during {stage}")
            }
            RunError::Deadlock { stuck } => {
                write!(
                    f,
                    "scheduler deadlock: no runnable task or pending wake-up; \
                     stuck pids {stuck:?}"
                )
            }
        }
    }
}

impl Error for RunError {}

impl From<LoadError> for RunError {
    fn from(e: LoadError) -> Self {
        RunError::Load(e)
    }
}

impl From<KernelError> for RunError {
    fn from(e: KernelError) -> Self {
        RunError::Kernel(e)
    }
}

/// The result of running a process to completion.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Value passed to `flick_exit`.
    pub exit_code: u64,
    /// Host wall-clock simulated time at exit.
    pub sim_time: Picos,
    /// Console lines printed by the program.
    pub console: Vec<String>,
    /// Counters (migrations, faults, instructions, …). These are
    /// **machine-lifetime cumulative** values snapshotted at exit, not
    /// per-process deltas: running several processes on one machine
    /// accumulates into the same counters.
    pub stats: Stats,
}

/// Handler addresses for one loaded process.
///
/// The accelerator handlers are kept per ISA: `accel[isa.tag()]` holds
/// the `(entry, loop)` pair of that ISA's migration handler, or `None`
/// when the image was linked without functions of that ISA. The host
/// ISA's slot is always `None` — host-side migration goes through
/// `host_handler`.
#[derive(Clone, Copy, Debug)]
struct ProcessVas {
    host_handler: VirtAddr,
    accel: [Option<(VirtAddr, VirtAddr)>; flick_isa::IsaId::COUNT],
}

impl ProcessVas {
    /// `(entry, loop)` of the migration handler for accelerator `isa`.
    fn accel_handlers(&self, isa: IsaId) -> Option<(VirtAddr, VirtAddr)> {
        self.accel[isa.tag() as usize]
    }
}

/// Maps a PTE ISA tag (stored as `tag + 1`; `0` = untagged) to the
/// accelerator ISA it names. Untagged and non-accelerator tags resolve
/// to `best_fit`, the machine's **best fit** over its accelerator fleet
/// (see [`best_fit_accel_isa`]) instead of hard-defaulting to rv64 — on a
/// fleet with no rv64 slot the old default would bounce every untagged
/// call through the wrong-ISA fallback path.
fn isa_from_tag(tag: u8, best_fit: IsaId) -> IsaId {
    match tag {
        0 => best_fit,
        t => IsaId::from_tag(t - 1)
            .filter(|g| g.descriptor().nx_text)
            .unwrap_or(best_fit),
    }
}

/// The accelerator ISA an *untagged* call target should land on: the
/// fleet's best single-thread performance point, scored from the ISA
/// descriptors as nominal clock over ALU CPI (compared exactly by
/// cross-multiplication, no float rounding). Ties break toward the
/// lower ISA tag and the result ignores slot order, so placement is
/// deterministic for any fleet spec permutation. Non-accelerator
/// (host-encoding) entries are skipped; an empty or all-host fleet
/// keeps the classic two-ISA machine's rv64 default.
pub fn best_fit_accel_isa(fleet: &[IsaId]) -> IsaId {
    let mut best: Option<IsaId> = None;
    for &isa in fleet {
        if !isa.descriptor().nx_text {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) if b == isa => false,
            Some(b) => {
                let (d, e) = (isa.descriptor(), b.descriptor());
                let (s, t) = (d.clock_khz * e.cpi.alu, e.clock_khz * d.cpi.alu);
                s > t || (s == t && isa.tag() < b.tag())
            }
        };
        if better {
            best = Some(isa);
        }
    }
    best.unwrap_or(IsaId::Rv64)
}

/// The core stops every side handles alike — host `ecall`s, NxP legs
/// and a degraded thread's host-side interpreter: the `ALLOC_NXP` and
/// `CLOCK_NS` runtime services, and every other stop as the error it is
/// (an unknown service, a fault, a stray `halt`, fuel exhaustion),
/// charged to `side`.
fn runtime_stop(
    kernel: &mut Kernel,
    core: &mut Core,
    pid: u64,
    side: Side,
    stop: StopReason,
) -> Result<(), RunError> {
    match stop {
        StopReason::Ecall(svc::ALLOC_NXP) => {
            let va = kernel
                .alloc_nxp_heap(pid, core.reg(abi::A0))
                .map_err(RunError::Load)?;
            core.set_reg(abi::A0, va.as_u64());
            Ok(())
        }
        StopReason::Ecall(svc::CLOCK_NS) => {
            let ns = core.clock().now().as_nanos();
            core.set_reg(abi::A0, ns);
            Ok(())
        }
        StopReason::Ecall(service) => Err(RunError::UnknownService { side, service }),
        StopReason::Fault(exception) => Err(RunError::Crash { side, exception }),
        StopReason::Halt => Err(RunError::Crash {
            side,
            exception: Exception::InstFault {
                va: core.pc(),
                kind: InstFaultKind::Illegal,
            },
        }),
        StopReason::OutOfFuel => Err(RunError::FuelExhausted),
    }
}

/// The argument registers a call descriptor carries across (§IV-B).
const ARG_REGS: [Reg; 6] = [abi::A0, abi::A1, abi::A2, abi::A3, abi::A4, abi::A5];

/// How a suspended thread expects to be woken.
#[derive(Clone, Copy, Debug)]
struct PendingWake {
    /// Arrival time of the wake-up MSI, or `None` when the interrupt
    /// (or its whole payload burst) was lost in flight — the watchdog
    /// deadline in the `task_struct` then drives recovery.
    msi_at: Option<Picos>,
    /// The descriptor channel (= NxP index = MSI vector) the wake-up
    /// travels on.
    chan: usize,
    /// The channel incarnation the reply was sent under. A failover
    /// rejoin resets the channel; a wake stamped with an older
    /// incarnation belongs to a dead device and must be re-executed,
    /// not retransmitted, even though the rejoined device reads
    /// healthy.
    incarnation: u64,
}

/// Everything the machine keeps for one thread beside its kernel
/// `task_struct`. Created at load or request spawn and dropped whole
/// when a request task is reaped; the round-trip fields are `Some` only
/// while a crossing is open (DESIGN.md §10 lists when each is set).
#[derive(Debug)]
struct Thread {
    /// The process's migration handler addresses.
    vas: ProcessVas,
    /// The NxP runtime's saved contexts (parks and idle checkpoints).
    nxp: NxpThread,
    /// Which NxPs hold the thread's accelerator continuations,
    /// outermost first: return legs always follow the thread back to
    /// the innermost (last) entry. Depth exceeds one only when a
    /// cross-accelerator call bounces through the host while an outer
    /// frame stays parked on its own NxP.
    on_nxps: Vec<usize>,
    /// Time and host core of the latest NX fault, stashed so the span
    /// that opens at the migrate `ioctl` can backdate its first mark to
    /// the trigger.
    nx_fault: Option<(Picos, usize)>,
    /// Span id of the current suspension round trip.
    span: Option<u64>,
    /// Channel and descriptor of the open host→NxP leg, retained by
    /// the host driver until the round trip completes. When an NxP dies
    /// mid-round-trip its device-side state (including the retained
    /// NxP→host reply) dies with it, and this copy is what failover
    /// re-executes on a surviving NxP.
    h2n: Option<(usize, MigrationDescriptor)>,
    /// Channel and descriptor of the in-flight NxP→host reply, retained
    /// until acceptance so the host can demand retransmission
    /// (re-encoded from this copy: the same wire bytes).
    n2h: Option<(usize, MigrationDescriptor)>,
    /// How the suspended thread expects to be woken, from its
    /// suspension until the event loop delivers the wake-up.
    wake: Option<PendingWake>,
    /// The serving request this task runs (serving mode only).
    request: Option<usize>,
}

impl Thread {
    fn new(vas: ProcessVas, request: Option<usize>) -> Self {
        Thread {
            vas,
            nxp: NxpThread::fresh(),
            on_nxps: Vec::new(),
            nx_fault: None,
            span: None,
            h2n: None,
            n2h: None,
            wake: None,
            request,
        }
    }
}

/// Everything the machine keeps for one NxP: the device's core and
/// the host driver's view of its channel. Slot `k` is NxP `k`, behind
/// descriptor channel `k` and MSI vector `k`.
struct NxpSlot {
    /// The NxP core; its configuration names the slot's ISA.
    core: Core,
    /// The channel's sequence spaces and incarnation.
    seqs: ChannelSeqs,
    /// Simulated pickup instants of kicked bursts, used by the
    /// ring-occupancy half of the admission check.
    pickups: VecDeque<Picos>,
    /// Liveness and circuit-breaker state, driven purely by *observed*
    /// delivery failures and successes on the deterministic timeline —
    /// never by peeking at the fault schedule.
    health: NxpHealth,
}

impl NxpSlot {
    fn new(cfg: CoreConfig) -> Self {
        NxpSlot {
            core: Core::new(cfg),
            seqs: ChannelSeqs::default(),
            pickups: VecDeque::new(),
            health: NxpHealth::default(),
        }
    }
}

/// What one host core currently holds between scheduling turns.
#[derive(Clone, Copy, Debug, Default)]
struct CoreSlot {
    /// Task whose live context is on the core (its quantum expired
    /// with nothing due, so it keeps running next turn).
    running: Option<u64>,
    /// Task preempted by a due wake-up, to re-queue behind the
    /// freshly woken ones.
    preempted: Option<u64>,
}

/// What a host `ecall` did to the control flow.
enum EcallFlow {
    /// Resume the same thread.
    Continue,
    /// The process exited with this code.
    Exit(u64),
    /// The thread suspended for migration; an MSI or the watchdog wakes
    /// it later.
    Suspended(PendingWake),
    /// The thread was made runnable again immediately with a modified
    /// context (graceful degradation unwound the migration); reinstall
    /// it and keep running.
    Resume,
}

/// Builder for a [`Machine`] with custom timing/trace configuration.
#[derive(Debug, Default)]
pub struct MachineBuilder {
    os_timing: Option<OsTiming>,
    nxp_timing: Option<NxpTiming>,
    trace: Option<TraceConfig>,
    host_cfg: Option<CoreConfig>,
    nxp_cfg: Option<CoreConfig>,
    latency: Option<flick_mem::LatencyModel>,
    kernel_cfg: Option<flick_os::KernelConfig>,
    fault_plan: Option<FaultPlan>,
    fast_path: Option<bool>,
    topology: Option<Topology>,
    nxp_placement: Option<NxpPlacement>,
    observability: Option<bool>,
    nxp_isas: Option<Vec<IsaId>>,
}

impl MachineBuilder {
    /// Overrides the kernel path timing.
    pub fn os_timing(mut self, t: OsTiming) -> Self {
        self.os_timing = Some(t);
        self
    }

    /// Overrides the NxP runtime timing.
    pub fn nxp_timing(mut self, t: NxpTiming) -> Self {
        self.nxp_timing = Some(t);
        self
    }

    /// Overrides trace recording.
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.trace = Some(t);
        self
    }

    /// Overrides the host core configuration.
    pub fn host_core(mut self, c: CoreConfig) -> Self {
        self.host_cfg = Some(c);
        self
    }

    /// Overrides the NxP core configuration of the rv64 slots (every
    /// slot unless [`MachineBuilder::nxp_isas`] lists others). A slot's
    /// ISA is read from its core configuration, so a configuration of
    /// another accelerator ISA makes those slots run that ISA.
    pub fn nxp_core(mut self, c: CoreConfig) -> Self {
        self.nxp_cfg = Some(c);
        self
    }

    /// Overrides the memory latency model (ablations: descriptor
    /// transfer over MMIO instead of burst DMA, slower links, …).
    pub fn latency_model(mut self, lat: flick_mem::LatencyModel) -> Self {
        self.latency = Some(lat);
        self
    }

    /// Overrides kernel configuration (hugepage granularity of the NxP
    /// window, stack placement ablation).
    pub fn kernel_config(mut self, cfg: flick_os::KernelConfig) -> Self {
        self.kernel_cfg = Some(cfg);
        self
    }

    /// Installs a seeded fault-injection plan for the PCIe/DMA/MSI
    /// paths. The default is [`FaultPlan::none`], which draws no random
    /// numbers and perturbs nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Toggles the host-side decoded-instruction fast path on every
    /// core (host, NxP, and the degraded-mode emulator). On by default;
    /// the differential tests switch it off to prove simulated clocks,
    /// stats, and traces are bit-identical either way. Overrides any
    /// `fast_path` already present in custom core configurations.
    pub fn fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = Some(enabled);
        self
    }

    /// Configures the machine as `topology.host_cores` symmetric host
    /// cores × `topology.nxp_cores` NxPs, each NxP behind its own
    /// descriptor channel. The default is the paper's 1×1 pair.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Picks the placement policy for fresh host→NxP calls. The
    /// default is [`NxpPlacement::RoundRobin`].
    pub fn nxp_placement(mut self, p: NxpPlacement) -> Self {
        self.nxp_placement = Some(p);
        self
    }

    /// Assigns an ISA to each NxP slot, making the fleet heterogeneous
    /// beyond the classic all-rv64 accelerator pool. Slot `i` runs
    /// `isas[i]`; slots past the end of the list default to
    /// [`IsaId::Rv64`]. Every listed ISA must be an accelerator ISA
    /// (descriptor `nx_text` set). A custom [`MachineBuilder::nxp_core`]
    /// configuration applies to the rv64 slots only; other ISAs derive
    /// their configuration from the descriptor via
    /// [`CoreConfig::accel`]. Either way the slot's ISA is the one its
    /// core configuration names.
    pub fn nxp_isas(mut self, isas: Vec<IsaId>) -> Self {
        self.nxp_isas = Some(isas);
        self
    }

    /// Enables the migration observability layer: a lifecycle
    /// [`Span`] per cross-ISA call (NX fault → descriptor pack → DMA
    /// submit → NxP dispatch → return submit → MSI → wake), per-segment
    /// latency histograms and per-NxP queue-depth gauges folded into
    /// [`Outcome::stats`], all exportable as a Perfetto/Chrome trace.
    ///
    /// Off by default and provably inert: span ids are assigned and
    /// carried in descriptors either way, marks never advance a clock,
    /// so enabling this changes neither simulated time nor counters nor
    /// the event trace (the differential tests pin this down).
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = Some(enabled);
        self
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        let mut env = MemEnv::paper_default();
        if let Some(lat) = self.latency {
            env.latency = lat;
        }
        let mem = PhysMem::new();
        let mut kcfg = self.kernel_cfg.unwrap_or_default();
        if let Some(t) = self.os_timing {
            kcfg.timing = t;
        }
        let kernel = Kernel::with_config(env.map.clone(), kcfg);
        let mut host_cfg = self.host_cfg.unwrap_or_else(CoreConfig::host);
        let mut nxp_cfg = self.nxp_cfg.unwrap_or_else(CoreConfig::nxp);
        if let Some(fp) = self.fast_path {
            host_cfg.fast_path = fp;
            nxp_cfg.fast_path = fp;
        }
        let topology = self.topology.unwrap_or_default();
        let listed = self.nxp_isas.unwrap_or_default();
        let nxps: Vec<NxpSlot> = (0..topology.nxp_cores)
            .map(|i| match listed.get(i).copied().unwrap_or(IsaId::Rv64) {
                IsaId::Rv64 => nxp_cfg.clone(),
                isa => {
                    let mut c = CoreConfig::accel(isa);
                    if let Some(fp) = self.fast_path {
                        c.fast_path = fp;
                    }
                    c
                }
            })
            .map(NxpSlot::new)
            .collect();
        let fleet: Vec<IsaId> = nxps.iter().map(|s| s.core.config().isa).collect();
        Machine {
            hosts: (0..topology.host_cores)
                .map(|_| Core::new(host_cfg.clone()))
                .collect(),
            best_fit: best_fit_accel_isa(&fleet),
            nxps,
            fabric: PcieFabric::new(env.latency.clone(), topology.nxp_cores),
            irq: InterruptController::new(),
            kernel,
            nxp_timing: self.nxp_timing.unwrap_or_else(NxpTiming::paper_default),
            trace: Trace::new(self.trace.unwrap_or_default()),
            stats: Stats::default(),
            threads: HashMap::default(),
            symbols: HashMap::new(),
            plan: self.fault_plan.unwrap_or_else(FaultPlan::none),
            emus: (0..topology.host_cores).map(|_| None).collect(),
            placement: self.nxp_placement.unwrap_or_default(),
            rr_next: 0,
            obs: SpanRecorder::new(self.observability.unwrap_or(false)),
            obs_stats: Stats::default(),
            next_span: 1,
            retired: 0,
            retired_emu_insts: 0,
            fuel_end: u64::MAX,
            serving: None,
            topology,
            mem,
            env,
        }
    }
}

/// The heterogeneous-ISA machine of Table I: a 2.4 GHz x64-like host
/// core and a 200 MHz rv64-like NxP core behind PCIe 3.0, sharing one
/// unified physical and virtual memory space.
pub struct Machine {
    mem: PhysMem,
    env: MemEnv,
    topology: Topology,
    hosts: Vec<Core>,
    /// One record per NxP, in slot order.
    nxps: Vec<NxpSlot>,
    /// The accelerator ISA an untagged call target resolves to: the
    /// best fit over the fleet ([`best_fit_accel_isa`]), fixed at build.
    best_fit: IsaId,
    fabric: PcieFabric,
    irq: InterruptController,
    kernel: Kernel,
    nxp_timing: NxpTiming,
    trace: Trace,
    stats: Stats,
    /// One record per thread, keyed by pid. Pids are small unique
    /// integers, so the deterministic one-multiply hasher spreads them
    /// without SipHash's per-probe cost on every crossing.
    threads: HashMap<u64, Thread, U64BuildHasher>,
    symbols: HashMap<u64, std::collections::BTreeMap<String, u64>>,
    /// Seeded fault injection for the interconnect (inactive by
    /// default).
    plan: FaultPlan,
    /// Lazily created per-host-core interpreter cores for degraded
    /// threads.
    emus: Vec<Option<Core>>,
    /// Placement policy for fresh host→NxP calls.
    placement: NxpPlacement,
    /// Round-robin cursor for [`NxpPlacement::RoundRobin`].
    rr_next: usize,
    /// Migration lifecycle spans (inert unless enabled at build time).
    obs: SpanRecorder,
    /// Histograms and gauges recorded by the observability layer, kept
    /// apart from the machine counters and merged into
    /// [`Outcome::stats`] at exit so the counter map is untouched.
    obs_stats: Stats,
    /// Next span id. Always advanced — span ids ride in descriptor
    /// wire bytes whether or not recording is on, which is what makes
    /// the observability toggle bit-inert.
    next_span: u64,
    /// Running total of instructions retired across the whole fleet
    /// (hosts, NxPs, emulators). Bumped after every `Core::run` so the
    /// scheduling loop's fuel accounting reads one field instead of
    /// re-summing every core each iteration.
    retired: u64,
    /// Instructions retired by host emulators that were since replaced
    /// by one of another guest ISA — keeps the `executed()` invariant
    /// exact after the old core is dropped.
    retired_emu_insts: u64,
    /// The `retired` total at which the current run's fuel budget runs
    /// out. Host quanta, NxP legs and emulated segments run with
    /// whatever is left of it.
    fuel_end: u64,
    /// Open-loop serving state while [`Machine::run_serving`] drives
    /// the event loop; `None` in every other mode, which keeps the
    /// closed-loop paths byte-identical to the pre-serving machine.
    serving: Option<ServingCtx>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.topology)
            .field("host_now", &self.host_now())
            .finish()
    }
}

impl Machine {
    /// A machine with all paper-calibrated defaults.
    pub fn paper_default() -> Self {
        MachineBuilder::default().build()
    }

    /// Starts building a customised machine.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// Loads a pre-built multi-ISA image, returning the new PID.
    ///
    /// The image must contain the Flick runtime (link it with
    /// [`handlers::add_runtime`]).
    ///
    /// # Errors
    ///
    /// Fails when the image lacks the runtime symbols or cannot be
    /// mapped.
    pub fn load(&mut self, image: &MultiIsaImage) -> Result<u64, RunError> {
        let need = |name: &str| {
            image
                .find_symbol(name)
                .map(VirtAddr)
                .ok_or_else(|| RunError::Build(format!("image lacks runtime symbol `{name}`")))
        };
        // Host and classic-NxP handlers are mandatory (every runtime
        // links them); handlers of other accelerator ISAs are optional
        // — present only when the image holds functions of that ISA.
        let mut accel = [None; flick_isa::IsaId::COUNT];
        accel[flick_isa::IsaId::Nxp.tag() as usize] = Some((
            need(handlers::NXP_HANDLER)?,
            need(handlers::NXP_HANDLER_LOOP)?,
        ));
        for d in flick_isa::IsaId::all() {
            if !d.nx_text || d.id == flick_isa::IsaId::Nxp {
                continue;
            }
            let entry = image.find_symbol(&handlers::nxp_handler_symbol(d.id));
            let lp = image.find_symbol(&handlers::nxp_handler_loop_symbol(d.id));
            if let (Some(e), Some(l)) = (entry, lp) {
                accel[d.id.tag() as usize] = Some((VirtAddr(e), VirtAddr(l)));
            }
        }
        let vas = ProcessVas {
            host_handler: need(handlers::HOST_HANDLER)?,
            accel,
        };
        let pid = self.kernel.create_process(&mut self.mem, image)?;
        self.threads.insert(pid, Thread::new(vas, None));
        self.symbols.insert(pid, image.symbols.clone());
        Ok(pid)
    }

    /// Convenience: injects the Flick runtime into `program`, builds it
    /// and loads it.
    ///
    /// # Errors
    ///
    /// Propagates build and load failures.
    pub fn load_program(&mut self, program: &mut ProgramBuilder) -> Result<u64, RunError> {
        handlers::add_runtime(program);
        let image = program
            .build()
            .map_err(|e| RunError::Build(e.to_string()))?;
        self.load(&image)
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The kernel (console, tasks).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Machine-level statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Per-kind tallies of the faults the plan actually injected.
    pub fn fault_counts(&self) -> FaultCounts {
        self.plan.counts()
    }

    /// Health and circuit-breaker state of NxP `nc`, or `None` when
    /// the machine has no such NxP.
    pub fn nxp_health(&self, nc: usize) -> Option<NxpHealth> {
        self.nxps.get(nc).map(|s| s.health)
    }

    /// Fleet-wide task census: `(live, exited)` pids, each spawned
    /// thread in exactly one of the two lists. The chaos tests assert
    /// this invariant across crash/rejoin schedules — failover must
    /// neither lose a thread nor duplicate one.
    pub fn task_census(&self) -> (Vec<u64>, Vec<u64>) {
        let mut live = Vec::new();
        let mut exited = Vec::new();
        for t in self.kernel.tasks() {
            if t.state == flick_os::TaskState::Zombie {
                exited.push(t.pid);
            } else {
                live.push(t.pid);
            }
        }
        (live, exited)
    }

    /// Completed migration spans in completion order. Empty unless the
    /// machine was built with [`MachineBuilder::observability`].
    pub fn spans(&self) -> &[Span] {
        self.obs.spans()
    }

    /// Whether the migration observability layer is recording.
    pub fn observability_enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// The observability histograms and gauges recorded so far (empty
    /// when observability is off). Also folded into [`Outcome::stats`]
    /// when a process exits.
    pub fn observability_stats(&self) -> &Stats {
        &self.obs_stats
    }

    /// Looks up a linker symbol in the image `pid` was loaded from.
    pub fn symbol(&self, pid: u64, name: &str) -> Option<VirtAddr> {
        self.symbols
            .get(&pid)
            .and_then(|t| t.get(name))
            .map(|&va| VirtAddr(va))
    }

    /// Latest host-core time (the host-side wall clock: with several
    /// cores, the furthest-ahead one).
    pub fn host_now(&self) -> Picos {
        self.hosts
            .iter()
            .map(|c| c.clock().now())
            .max()
            .unwrap_or(Picos::ZERO)
    }

    /// The machine's core topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Per-core statistics snapshots, keyed by [`CoreId`] (host, NxP,
    /// and — for host cores that ran degraded threads — emulator
    /// cores). The aggregate counters in [`Outcome::stats`] are the
    /// sums of these. Format a key with `Display` (`host0`, `nxp1`,
    /// `emu0`) when a label is needed.
    pub fn per_core_stats(&self) -> Vec<(CoreId, Stats)> {
        let mut out = Vec::new();
        for (i, c) in self.hosts.iter().enumerate() {
            out.push((CoreId::host(i), c.stats()));
        }
        for (i, s) in self.nxps.iter().enumerate() {
            out.push((CoreId::nxp(i), s.core.stats()));
        }
        for (i, c) in self.emus.iter().enumerate() {
            if let Some(c) = c {
                out.push((CoreId::emu(i), c.stats()));
            }
        }
        out
    }

    /// Fleet-wide fold of every core's host-side chain-efficacy
    /// tallies (hits, patches, breaks, fallback steps, data-memo hits
    /// and misses, spin-tier instructions, block builds). Host-only
    /// telemetry: deliberately *not* part of [`stats`](Self::stats) or
    /// [`per_core_stats`](Self::per_core_stats), whose contents the
    /// differential suites compare bit-for-bit across engine configs.
    pub fn chain_stats(&self) -> ChainCounters {
        let mut total = ChainCounters::default();
        let cores = self
            .hosts
            .iter()
            .chain(self.nxps.iter().map(|s| &s.core))
            .chain(self.emus.iter().flatten());
        for c in cores {
            total += *c.chain_counters();
        }
        total
    }

    /// Human label for a core with its ISA name rendered from the
    /// descriptor — `host0 (x64)`, `nxp1 (arm64)`, `emu0 (rv64 on
    /// x64)` — so heterogeneous-fleet timelines and per-core reports
    /// stay readable. Falls back to the bare `Display` form for cores
    /// the machine does not have.
    pub fn core_label(&self, core: CoreId) -> String {
        match core.side {
            Side::Host => match self.hosts.get(core.index) {
                Some(c) => format!("{core} ({})", c.config().isa.name()),
                None => core.to_string(),
            },
            Side::Nxp => match self.nxps.get(core.index) {
                Some(s) => format!("{core} ({})", s.core.config().isa.name()),
                None => core.to_string(),
            },
            Side::Emu => match self.emus.get(core.index).and_then(|c| c.as_ref()) {
                Some(c) => format!(
                    "{core} ({} on {})",
                    c.config().isa.name(),
                    self.hosts
                        .get(core.index)
                        .map_or("host", |h| h.config().isa.name())
                ),
                None => core.to_string(),
            },
        }
    }

    /// Track namer for [`flick_sim::chrome_trace_named`]: every
    /// Perfetto track carries the core's ISA via [`Machine::core_label`].
    pub fn track_namer(&self) -> impl Fn(Option<CoreId>) -> String + '_ {
        move |core| match core {
            Some(c) => self.core_label(c),
            None => "untagged".to_string(),
        }
    }

    /// Allocates NxP-DRAM heap for `pid` without charging simulated
    /// time — workload harnesses use this to stage data structures
    /// (linked lists, graphs) before the measured run, the way the
    /// paper's harness prepares the NxP-side storage.
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the allocation does not fit the NxP
    /// window or the pid is unknown.
    pub fn stage_alloc_nxp(&mut self, pid: u64, size: u64) -> Result<VirtAddr, RunError> {
        Ok(self.kernel.alloc_nxp_heap(pid, size)?)
    }

    /// Allocates host heap for `pid` without charging simulated time.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn stage_alloc_host(&mut self, pid: u64, size: u64) -> Result<VirtAddr, RunError> {
        self.kernel
            .alloc_host_heap(&mut self.mem, pid, size)
            .map_err(RunError::Load)
    }

    /// Writes user memory without charging simulated time (staging).
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the range touches unmapped memory or the
    /// pid is unknown.
    pub fn stage_write(&mut self, pid: u64, va: VirtAddr, bytes: &[u8]) -> Result<(), RunError> {
        Ok(self.kernel.write_user(&mut self.mem, pid, va, bytes)?)
    }

    /// Reads user memory without charging simulated time (inspection).
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the range touches unmapped memory or the
    /// pid is unknown.
    pub fn stage_read(&self, pid: u64, va: VirtAddr, buf: &mut [u8]) -> Result<(), RunError> {
        Ok(self.kernel.read_user(&self.mem, pid, va, buf)?)
    }

    /// Runs process `pid` to completion with a default budget of two
    /// billion instructions.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run(&mut self, pid: u64) -> Result<Outcome, RunError> {
        self.run_with_fuel(pid, 2_000_000_000)
    }

    /// Runs with an explicit instruction budget.
    ///
    /// # Errors
    ///
    /// See [`RunError`]; [`RunError::FuelExhausted`] if the budget runs
    /// out.
    pub fn run_with_fuel(&mut self, pid: u64, fuel: u64) -> Result<Outcome, RunError> {
        // No quantum: a lone process is never preempted, exactly as in
        // the pre-topology single-process loop.
        let mut done = self.run_event_loop(&[pid], fuel, u64::MAX)?;
        let (_, outcome) = done.pop().ok_or(RunError::Protocol {
            side: Side::Host,
            context: "event loop returned no outcome for its only pid",
        })?;
        Ok(outcome)
    }

    /// Runs several processes concurrently across the host cores.
    ///
    /// While one thread is suspended awaiting an NxP, its host core is
    /// free and the scheduler runs another process — the property that
    /// distinguishes Flick's suspend-based migration from busy-wait
    /// offloading. A running thread is preempted when a wake-up
    /// interrupt fires (checked at a timer-tick granularity of ~20 µs
    /// of host time), so NxP-bound threads resume promptly even while a
    /// compute-bound thread occupies a core.
    ///
    /// Returns `(pid, outcome)` pairs in completion order.
    ///
    /// # Errors
    ///
    /// See [`RunError`]. One crashing process fails the whole run.
    pub fn run_concurrent(
        &mut self,
        pids: &[u64],
        fuel: u64,
    ) -> Result<Vec<(u64, Outcome)>, RunError> {
        self.run_event_loop(pids, fuel, QUANTUM)
    }

    /// Pre-allocates `pid`'s NxP SRAM stack slot and records it in the
    /// descriptor-page TCB word, without charging simulated time — the
    /// staging analog of the `ALLOC_NXP_STACK` service. The migration
    /// handler's first-time check then sees a live stack pointer and
    /// skips the allocation `ecall` on the first cross-ISA call.
    ///
    /// Serving setups call this once per tenant: every request task
    /// spawned from the tenant's prototype inherits the slot, so a
    /// fleet of hundreds of tenants uses one SRAM slot each instead of
    /// exhausting the 255-slot SRAM on per-request allocations.
    ///
    /// # Errors
    ///
    /// [`RunError::Load`] when the pid is unknown, the slot was already
    /// allocated, or the SRAM is out of slots.
    pub fn stage_nxp_stack(&mut self, pid: u64) -> Result<VirtAddr, RunError> {
        let sp = self
            .kernel
            .alloc_nxp_stack(&mut self.mem, pid)
            .map_err(RunError::Load)?;
        self.kernel
            .write_user(
                &mut self.mem,
                pid,
                VirtAddr(layout::DESC_PAGE_VA + L::TCB_NXP_SP),
                &sp.as_u64().to_le_bytes(),
            )
            .map_err(RunError::Load)?;
        Ok(sp)
    }

    /// The deterministic discrete-event interleave driving every run:
    /// each turn goes to the eligible host core whose clock is globally
    /// earliest (ties toward the lowest index). A core is eligible when
    /// it holds a task (running or preempted), has queued or stealable
    /// work, or awaits a wake-up; when no core qualifies but processes
    /// remain, the machine is deadlocked.
    fn run_event_loop(
        &mut self,
        pids: &[u64],
        fuel: u64,
        quantum: u64,
    ) -> Result<Vec<(u64, Outcome)>, RunError> {
        for &pid in pids {
            if self.kernel.task(pid)?.state == flick_os::TaskState::Zombie {
                return Err(RunError::Build(format!("process {pid} already exited")));
            }
        }
        let n = self.hosts.len();
        let mut rq = RunQueues::new(n);
        for (i, &pid) in pids.iter().enumerate() {
            let task = self.kernel.task_mut(pid)?;
            if matches!(
                task.state,
                flick_os::TaskState::Runnable | flick_os::TaskState::Running
            ) {
                task.last_core = i % n;
                rq.enqueue(i % n, pid);
            }
        }
        // Per-core pending wake-ups, keyed (due, pid): due is the MSI
        // arrival, or the watchdog deadline when the interrupt was
        // lost. A min-heap replaces the old sort-then-scan so delivery
        // stays O(log n) per wake.
        let mut pending: Vec<BinaryHeap<Reverse<(Picos, u64)>>> =
            (0..n).map(|_| BinaryHeap::new()).collect();
        let mut slots: Vec<CoreSlot> = vec![CoreSlot::default(); n];
        let mut done: Vec<(u64, Outcome)> = Vec::new();
        self.fuel_end = self.executed().saturating_add(fuel);
        // Closed-loop runs finish when every submitted process exits;
        // a serving run finishes when every request of the open-loop
        // schedule has completed (its `pids` list is empty — work
        // enters through the arrival queues instead).
        let finished = |m: &Machine, done: &[(u64, Outcome)]| match &m.serving {
            Some(ctx) => ctx.completions.len() >= ctx.total,
            None => done.len() >= pids.len(),
        };
        while !finished(self, &done) {
            if self.executed() >= self.fuel_end {
                return Err(RunError::FuelExhausted);
            }
            let stealable = rq.total() > 0;
            let hc = (0..n)
                .filter(|&c| {
                    slots[c].running.is_some()
                        || slots[c].preempted.is_some()
                        || rq.len(c) > 0
                        || stealable
                        || !pending[c].is_empty()
                        || self
                            .serving
                            .as_ref()
                            .is_some_and(|ctx| !ctx.arrivals[c].is_empty())
                })
                .min_by_key(|&c| (self.hosts[c].clock().now(), c));
            let Some(hc) = hc else {
                let stuck = match &self.serving {
                    Some(_) => {
                        let mut live: Vec<u64> = self
                            .threads
                            .iter()
                            .filter_map(|(&pid, t)| t.request.map(|_| pid))
                            .collect();
                        live.sort_unstable();
                        live
                    }
                    None => pids
                        .iter()
                        .copied()
                        .filter(|p| !done.iter().any(|(d, _)| d == p))
                        .collect(),
                };
                return Err(RunError::Deadlock { stuck });
            };
            self.core_turn(hc, &mut rq, &mut pending, &mut slots, &mut done, quantum)?;
        }
        Ok(done)
    }

    /// One scheduling turn of host core `hc`: deliver its due
    /// wake-ups, re-queue its preempted task, pick up work (locally,
    /// then by stealing), and run until the next scheduling event.
    fn core_turn(
        &mut self,
        hc: usize,
        rq: &mut RunQueues,
        pending: &mut [BinaryHeap<Reverse<(Picos, u64)>>],
        slots: &mut [CoreSlot],
        done: &mut Vec<(u64, Outcome)>,
        quantum: u64,
    ) -> Result<(), RunError> {
        // Deliver every wake-up that has already fired on this core,
        // oldest first; a preempted thread re-queues *behind* the
        // freshly woken ones.
        loop {
            if pending[hc]
                .peek()
                .is_none_or(|&Reverse((due, _))| due > self.hosts[hc].clock().now())
            {
                break;
            }
            let Some(Reverse((_, pid))) = pending[hc].pop() else {
                break;
            };
            let wake = self.thread_mut(pid)?.wake.take();
            let wake = wake.ok_or(RunError::Protocol {
                side: Side::Host,
                context: "heaped wake-up without a wake record",
            })?;
            self.deliver_wakeup(hc, pid, wake)?;
            let now = self.hosts[hc].clock().now();
            let task = self.kernel.task_mut(pid)?;
            task.ready_at = now;
            task.last_core = hc;
            rq.enqueue(hc, pid);
        }
        // Open-loop arrivals land like wake-ups: every request whose
        // arrival instant this core's clock has reached is spawned (or
        // queued behind its tenant's live request) before scheduling.
        self.admit_due_arrivals(hc, rq)?;
        if let Some(p) = slots[hc].preempted.take() {
            rq.enqueue(hc, p);
        }
        let pid = match slots[hc].running {
            Some(pid) => pid,
            None => match rq.pop_local(hc).or_else(|| rq.steal(hc)) {
                Some(pid) => {
                    // Causality across cores: never run a task before
                    // the event that readied it (forward-only sync).
                    let ready = self.kernel.task(pid)?.ready_at;
                    self.hosts[hc].clock_mut().sync_to(ready);
                    self.kernel.task_mut(pid)?.last_core = hc;
                    self.install_task(hc, pid)?;
                    slots[hc].running = Some(pid);
                    pid
                }
                None => {
                    // Idle: fast-forward to this core's earliest wake —
                    // or, in serving mode, its next request arrival if
                    // that comes sooner (an idle open-loop core must
                    // advance to the next arrival or the fleet would
                    // deadlock waiting for work that is due in its
                    // future).
                    let mut next = pending[hc].peek().map(|&Reverse((due, _))| due);
                    if let Some(&Reverse((due, _))) = self
                        .serving
                        .as_ref()
                        .and_then(|ctx| ctx.arrivals[hc].peek())
                    {
                        next = Some(next.map_or(due, |n| n.min(due)));
                    }
                    if let Some(due) = next {
                        self.hosts[hc].clock_mut().sync_to(due);
                    }
                    return Ok(());
                }
            },
        };
        loop {
            let left = self.fuel_end.saturating_sub(self.executed());
            if left == 0 {
                return Err(RunError::FuelExhausted);
            }
            let before = self.hosts[hc].counters().instructions;
            let stop = self.hosts[hc].run(&mut self.mem, &self.env, quantum.min(left));
            self.retired += self.hosts[hc].counters().instructions - before;
            let code = match stop {
                StopReason::Halt => self.hosts[hc].reg(abi::A0),
                StopReason::Ecall(service) => match self.host_ecall(hc, pid, service)? {
                    EcallFlow::Continue => continue,
                    EcallFlow::Exit(code) => code,
                    EcallFlow::Suspended(wake) => {
                        let due = match wake.msi_at {
                            Some(at) => at,
                            None => self
                                .kernel
                                .task(pid)?
                                .deadline
                                .unwrap_or_else(|| self.hosts[hc].clock().now()),
                        };
                        pending[hc].push(Reverse((due, pid)));
                        self.thread_mut(pid)?.wake = Some(wake);
                        slots[hc].running = None;
                        return Ok(()); // this core is free for others
                    }
                    EcallFlow::Resume => {
                        self.install_task(hc, pid)?;
                        continue;
                    }
                },
                StopReason::Fault(Exception::InstFault {
                    va,
                    kind: InstFaultKind::NxViolation,
                }) => {
                    // The Flick trigger: host fetched NxP code. Charge
                    // the measured 0.7µs fault path, then either hijack
                    // into the user-space migration handler (§IV-B1) or
                    // — for a thread whose link died — interpret the
                    // NxP function on the host.
                    self.stats.bump("nx_faults");
                    self.trace.record_on(
                        CoreId::host(hc),
                        self.hosts[hc].clock().now(),
                        Event::NxFault {
                            side: Side::Host,
                            fault_va: va.as_u64(),
                        },
                    );
                    // The span opens only at the migrate ioctl (where
                    // its id is assigned); stash the trigger so the
                    // first mark can be backdated to the fault itself.
                    let now = self.hosts[hc].clock().now();
                    let thread = self.thread_mut(pid)?;
                    thread.nx_fault = Some((now, hc));
                    let handler = thread.vas.host_handler;
                    let t = self.kernel.timing().page_fault_path;
                    self.hosts[hc].clock_mut().advance(t);
                    if self.kernel.task(pid)?.degraded {
                        self.emulate_segment(hc, pid, va)?;
                    } else {
                        self.kernel
                            .redirect_to_handler(pid, &mut self.hosts[hc], va, handler)?;
                    }
                    continue;
                }
                StopReason::Fault(exception) => {
                    return Err(RunError::Crash {
                        side: Side::Host,
                        exception,
                    })
                }
                StopReason::OutOfFuel => {
                    // Quantum expired. Preempt only if a wake-up is
                    // actually due here — otherwise the task keeps the
                    // core and the turn ends (another core may hold
                    // the globally earliest clock now).
                    let now = self.hosts[hc].clock().now();
                    if pending[hc]
                        .peek()
                        .is_some_and(|&Reverse((due, _))| due <= now)
                    {
                        let t = self.kernel.timing().suspend_and_switch;
                        self.hosts[hc].clock_mut().advance(t);
                        let ctx = self.hosts[hc].save_context();
                        let task = self.kernel.task_mut(pid)?;
                        task.context = ctx;
                        task.state = flick_os::TaskState::Runnable;
                        task.ready_at = self.hosts[hc].clock().now();
                        slots[hc].running = None;
                        slots[hc].preempted = Some(pid);
                    }
                    return Ok(());
                }
            };
            slots[hc].running = None;
            if self.serving.is_some() {
                self.finish_serving(hc, pid, code, rq)?;
            } else {
                done.push((pid, self.finish(hc, pid, code)?));
            }
            return Ok(());
        }
    }

    /// The ISA of the thread's saved call target, read from the
    /// faulting page's PTE ISA tag (the metadata the loader's extended
    /// `mprotect()` of §IV-C3 stored). Untagged pages — data reached
    /// through a wild pointer, or images predating tagging — resolve
    /// by best fit over the accelerator fleet ([`best_fit_accel_isa`]).
    fn call_target_isa(&self, pid: u64) -> IsaId {
        let Ok(task) = self.kernel.task(pid) else {
            return self.best_fit;
        };
        let Some(va) = task.fault_va else {
            return self.best_fit;
        };
        let tag = flick_paging::walk(|a| self.mem.read_u64(a), task.cr3, va)
            .map(|t| t.isa_tag)
            .unwrap_or(0);
        isa_from_tag(tag, self.best_fit)
    }

    fn executed(&self) -> u64 {
        // Polled every scheduling-loop iteration: a running total
        // maintained at each `Core::run` call site, instead of
        // re-summing every core in the fleet per poll.
        debug_assert_eq!(
            self.retired,
            self.retired_emu_insts
                + self
                    .hosts
                    .iter()
                    .chain(self.nxps.iter().map(|s| &s.core))
                    .chain(self.emus.iter().flatten())
                    .map(|c| c.counters().instructions)
                    .sum::<u64>(),
            "running retired total out of sync with core counters"
        );
        self.retired
    }

    fn finish(&mut self, hc: usize, pid: u64, code: u64) -> Result<Outcome, RunError> {
        let task = self.kernel.task_mut(pid)?;
        task.state = flick_os::TaskState::Zombie;
        task.exit_code = code;
        let stats = self.fleet_stats();
        Ok(Outcome {
            exit_code: code,
            sim_time: self.hosts[hc].clock().now(),
            console: self.kernel.console().to_vec(),
            stats,
        })
    }

    /// Fleet-wide stats snapshot: machine counters plus every core's
    /// counters (NxPs folded under the `nxp_` name space), emulated
    /// instruction totals, health gauges, and the observability bag.
    /// Shared by the per-process [`Outcome`] and the end-of-run
    /// [`ServingReport`] — serving takes it exactly once, because a
    /// per-exit snapshot would clone the whole bag for each of
    /// thousands of request completions.
    fn fleet_stats(&mut self) -> Stats {
        let mut stats = self.stats.clone();
        for host in &self.hosts {
            stats.merge(&host.stats());
        }
        // Prefix-less merge would collide; fold NxP counters under a
        // different name space.
        for slot in &self.nxps {
            for (k, v) in slot.core.stats().iter() {
                let name: &'static str = match k {
                    "instructions" => "nxp_instructions",
                    "itlb_misses" => "nxp_itlb_misses",
                    "dtlb_misses" => "nxp_dtlb_misses",
                    "icache_misses" => "nxp_icache_misses",
                    "dcache_misses" => "nxp_dcache_misses",
                    "loads" => "nxp_loads",
                    "stores" => "nxp_stores",
                    "walks" => "nxp_walks",
                    _ => continue,
                };
                stats.bump_by(name, v);
            }
        }
        for emu in self.emus.iter().flatten() {
            stats.bump_by("emulated_instructions", emu.counters().instructions);
        }
        // Per-NxP health gauges, recorded only when a device-fault
        // schedule exists so fault-free observability output is
        // byte-identical to the pre-failover machine.
        if self.obs.enabled() && self.plan.has_device_events() {
            for (i, h) in self.nxps.iter().map(|s| s.health).enumerate() {
                self.obs_stats
                    .record_hist(&format!("health:deaths:nxp{i}"), h.deaths);
                self.obs_stats
                    .record_hist(&format!("health:recoveries:nxp{i}"), h.recoveries);
            }
        }
        // Observability histograms/gauges ride along in the same bag;
        // the merge touches only the histogram map, never the counters,
        // so stats comparisons stay bit-identical with the layer off.
        stats.merge(&self.obs_stats);
        stats
    }

    /// Handles a host `ecall`.
    fn host_ecall(&mut self, hc: usize, pid: u64, service: u16) -> Result<EcallFlow, RunError> {
        let timing = self.kernel.timing().clone();
        self.hosts[hc].clock_mut().advance(timing.syscall_entry);
        match service {
            svc::EXIT => {
                return Ok(EcallFlow::Exit(self.hosts[hc].reg(abi::A0)));
            }
            svc::PRINT_U64 => {
                let v = self.hosts[hc].reg(abi::A0);
                self.kernel.console_push(format!("{v}"));
            }
            svc::PRINT_STR => {
                let ptr = VirtAddr(self.hosts[hc].reg(abi::A0));
                let len = self.hosts[hc].reg(abi::A1) as usize;
                let mut buf = vec![0u8; len.min(4096)];
                self.kernel
                    .read_user(&self.mem, pid, ptr, &mut buf)
                    .map_err(RunError::Load)?;
                self.kernel
                    .console_push(String::from_utf8_lossy(&buf).into_owned());
            }
            svc::ALLOC_HOST => {
                let size = self.hosts[hc].reg(abi::A0);
                let pages = size.div_ceil(flick_mem::PAGE_SIZE);
                let va = self
                    .kernel
                    .alloc_host_heap(&mut self.mem, pid, size)
                    .map_err(RunError::Load)?;
                self.hosts[hc].clock_mut().advance(timing.page_alloc * pages.max(1));
                self.hosts[hc].set_reg(abi::A0, va.as_u64());
            }
            svc::SLEEP_NS => {
                let ns = self.hosts[hc].reg(abi::A0);
                self.hosts[hc].clock_mut().advance(Picos::from_nanos(ns));
            }
            svc::ALLOC_NXP_STACK => {
                self.stage_nxp_stack(pid)?;
                self.hosts[hc].clock_mut().advance(timing.nxp_stack_setup);
                self.stats.bump("nxp_stack_allocs");
                // No register result: the handler must keep the original
                // call's argument registers intact for the descriptor.
            }
            svc::MIGRATE_AND_SUSPEND => {
                return self.migrate_send(hc, pid, DescKind::HostToNxpCall);
            }
            svc::MIGRATE_RETURN_AND_SUSPEND => {
                return self.migrate_send(hc, pid, DescKind::HostToNxpReturn);
            }
            other => runtime_stop(
                &mut self.kernel,
                &mut self.hosts[hc],
                pid,
                Side::Host,
                StopReason::Ecall(other),
            )?,
        }
        self.hosts[hc].clock_mut().advance(timing.syscall_exit);
        Ok(EcallFlow::Continue)
    }

    /// The migrate-and-suspend `ioctl` (§IV-B1) plus the full NxP
    /// phase: builds and sends the descriptor (retransmitting, bounded,
    /// on injected burst faults), suspends the thread, runs the NxP
    /// side to completion of its leg, and returns how the thread
    /// expects to be woken. The host core is *free* from the moment the
    /// thread suspends — which is what lets other processes run in the
    /// gap (see [`Machine::run_concurrent`]).
    ///
    /// If the host→NxP *call* leg exhausts its delivery budget the call
    /// degrades gracefully: the thread is unwound out of the migration
    /// handler and re-pointed at the target function, which the
    /// host-side interpreter then executes ([`EcallFlow::Resume`]). A
    /// dead *return* leg is unrecoverable ([`RunError::LinkDead`]):
    /// re-running the remote call would double its side effects.
    fn migrate_send(&mut self, hc: usize, pid: u64, kind: DescKind) -> Result<EcallFlow, RunError> {
        let timing = self.kernel.timing().clone();
        self.refresh_fleet(hc);
        // ioctl: gather target/CR3/PID/args from task_struct + regs
        // (call) or just the return value (return).
        self.hosts[hc].clock_mut().advance(match kind {
            DescKind::HostToNxpCall => timing.ioctl_desc_prep_call,
            _ => timing.ioctl_desc_prep_return,
        });
        // Pick the serving NxP: a return leg follows the thread back to
        // the NxP holding its continuation; a fresh call goes where the
        // placement policy says.
        let nc = match kind {
            DescKind::HostToNxpReturn => {
                self.thread_mut(pid)?
                    .on_nxps
                    .last()
                    .copied()
                    .ok_or(RunError::Protocol {
                        side: Side::Host,
                        context: "return leg for a thread with no NxP continuation",
                    })?
            }
            _ => {
                let want = self.call_target_isa(pid);
                let nc = self.place_call(want).ok_or(RunError::Protocol {
                    side: Side::Host,
                    context: "placement over a machine with no NxPs",
                })?;
                self.thread_mut(pid)?.on_nxps.push(nc);
                nc
            }
        };
        let seq = self.nxps[nc].seqs.next_h2n();
        // The span id is assigned unconditionally — it lives in the
        // descriptor's wire bytes, so it must not depend on whether
        // span *recording* is enabled (bit-inert observability).
        let span = self.next_span;
        self.next_span += 1;
        let (target, ret, args) = match kind {
            DescKind::HostToNxpCall => {
                let Some(target) = self.kernel.task_mut(pid)?.fault_va.take() else {
                    return Err(RunError::Protocol {
                        side: Side::Host,
                        context: "migrate ioctl without a saved fault target",
                    });
                };
                (target.as_u64(), 0, ARG_REGS.map(|r| self.hosts[hc].reg(r)))
            }
            DescKind::HostToNxpReturn => {
                // The handler stored the host function's return value
                // in the descriptor page.
                let mut ret = [0u8; 8];
                self.kernel
                    .read_user(
                        &self.mem,
                        pid,
                        VirtAddr(layout::DESC_PAGE_VA + L::RET),
                        &mut ret,
                    )
                    .map_err(RunError::Load)?;
                (0, u64::from_le_bytes(ret), [0; 6])
            }
            _ => {
                return Err(RunError::Protocol {
                    side: Side::Host,
                    context: "host only sends host-to-NxP descriptor kinds",
                })
            }
        };
        let task = self.kernel.task(pid)?;
        let mut desc = MigrationDescriptor {
            kind,
            target,
            ret,
            args,
            pid,
            cr3: task.cr3.as_u64(),
            nxp_sp: task.nxp_stack_ptr.as_u64(),
            seq,
            span,
        };

        // Suspend (TASK_KILLABLE) and context switch away; the
        // scheduler triggers the DMA *after* the switch via the
        // migration flag (§IV-D).
        self.kernel.suspend_for_migration(pid, &self.hosts[hc])?;
        self.hosts[hc].clock_mut().advance(timing.suspend_and_switch);
        self.obs.begin(span, pid, kind.label());
        // Open the round trip on the thread's record. The h2n descriptor
        // stays retained host-side until the round trip closes: if the
        // serving NxP dies before the reply lands, this copy is what
        // failover re-executes on a survivor.
        let thread = self.thread_mut(pid)?;
        thread.span = Some(span);
        thread.h2n = Some((nc, desc));
        if let Some((at, core)) = thread.nx_fault.take() {
            self.obs.mark(span, SpanStage::NxFault, at, CoreId::host(core));
        }
        self.obs.mark(
            span,
            SpanStage::DescPack,
            self.hosts[hc].clock().now(),
            CoreId::host(hc),
        );
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::ThreadSuspended { pid },
        );
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::DescriptorSent {
                from: Side::Host,
                kind: kind.label(),
                bytes: L::SIZE as usize,
            },
        );
        match kind {
            DescKind::HostToNxpCall => self.stats.bump("migrations_host_to_nxp"),
            _ => self.stats.bump("returns_host_to_nxp"),
        }

        let sent = self.send_h2n(hc, pid, nc, nc, &mut desc, false);
        let Some((nc, in_bytes, in_desc)) = sent else {
            // Pure link death, or the whole fleet is gone: degrade a
            // call to host-side emulation, fail a return leg.
            let thread = self.thread_mut(pid)?;
            thread.h2n = None;
            return if kind == DescKind::HostToNxpCall {
                // The call never reached an NxP: drop the continuation
                // pushed for it, so the next return leg goes to the
                // frame that is really parked.
                thread.on_nxps.pop();
                thread.span = None;
                self.obs.abandon(span);
                self.degrade_unwind(hc, pid, &desc)?;
                Ok(EcallFlow::Resume)
            } else {
                Err(RunError::LinkDead {
                    pid,
                    stage: "host-to-nxp return",
                })
            };
        };
        // Accepted: run the NxP leg until it sends a descriptor back.
        let wake = self.dispatch_leg(nc, pid, &in_bytes, &in_desc)?;
        self.arm_watchdog(hc, pid, &wake)?;
        Ok(EcallFlow::Suspended(wake))
    }

    /// The NxP a fresh host→NxP call wanting ISA `want` is placed on,
    /// or `None` on a machine with no NxPs.
    ///
    /// Placement sees only NxPs whose breaker admits work (closed or
    /// half-open). With every device dead it falls back to the full set
    /// and lets the delivery loop detect the failure and degrade
    /// gracefully. It then narrows to the callee's ISA (read off the
    /// faulting page's PTE tag). When every NxP of that ISA is
    /// breaker-open, a matching-but-unhealthy slot is preferred —
    /// delivery failure degrades to host emulation, which speaks any
    /// ISA — over a healthy slot that would fault `NxViolation` at the
    /// first fetch and bounce the call straight back. A fleet with no
    /// slot of the wanted ISA at all keeps the generic pool.
    fn place_call(&mut self, want: IsaId) -> Option<usize> {
        let n = self.nxps.len();
        let any_live = self.nxps.iter().any(|s| !s.health.is_open());
        let in_pool = |k: usize| !any_live || !self.nxps[k].health.is_open();
        let of_isa = |k: usize| self.nxps[k].core.config().isa == want;
        let live_of_isa = (0..n).any(|k| in_pool(k) && of_isa(k));
        let some_of_isa = (0..n).any(of_isa);
        let cand = |k: &usize| match (live_of_isa, some_of_isa) {
            (true, _) => in_pool(*k) && of_isa(*k),
            (false, true) => of_isa(*k),
            (false, false) => in_pool(*k),
        };
        match self.placement {
            NxpPlacement::RoundRobin => {
                let i = self.rr_next.checked_rem((0..n).filter(cand).count())?;
                let k = (0..n).filter(cand).nth(i);
                self.rr_next = self.rr_next.wrapping_add(1);
                k
            }
            NxpPlacement::LeastLoaded => (0..n)
                .filter(cand)
                .min_by_key(|&k| (self.nxps[k].core.clock().now(), k)),
        }
    }

    /// Installs a runnable task onto host core `hc` (context switch in).
    fn install_task(&mut self, hc: usize, pid: u64) -> Result<(), RunError> {
        let task = self.kernel.task_mut(pid)?;
        task.state = flick_os::TaskState::Running;
        let ctx = task.context.clone();
        let cr3 = task.cr3;
        self.hosts[hc].restore_context(&ctx);
        if self.hosts[hc].cr3() != cr3 {
            self.hosts[hc].set_cr3(cr3);
        }
        Ok(())
    }

    /// `pid`'s per-thread record.
    fn thread_mut(&mut self, pid: u64) -> Result<&mut Thread, RunError> {
        self.threads.get_mut(&pid).ok_or(RunError::Protocol {
            side: Side::Host,
            context: "thread with no per-thread record",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_isa::{FuncBuilder, MemSize, TargetIsa};
    use flick_toolchain::{DataDef, Placement};

    fn machine() -> Machine {
        Machine::paper_default()
    }

    /// Builds, loads and runs a program; returns (machine, outcome).
    fn run_program(build: impl FnOnce(&mut ProgramBuilder)) -> (Machine, Outcome) {
        let mut p = ProgramBuilder::new("test");
        build(&mut p);
        let mut m = machine();
        let pid = m.load_program(&mut p).unwrap();
        let outcome = m.run(pid).unwrap();
        (m, outcome)
    }

    #[test]
    fn null_cross_call_round_trip() {
        let (m, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 40);
            main.li(abi::A1, 2);
            main.call("nxp_add");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_add", TargetIsa::Nxp);
            f.add(abi::A0, abi::A0, abi::A1);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 1);
        assert_eq!(out.stats.get("returns_nxp_to_host"), 1);
        assert_eq!(out.stats.get("nx_faults"), 1);
        assert_eq!(out.stats.get("nxp_stack_allocs"), 1);
        // One round trip should land in the Table III ballpark.
        assert!(out.sim_time > Picos::from_micros(8), "{}", out.sim_time);
        assert!(out.sim_time < Picos::from_micros(60), "{}", out.sim_time);
        assert!(m.trace().count(|e| matches!(e, Event::NxFault { .. })) == 1);
    }

    #[test]
    fn repeated_migrations_reuse_stack() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            let lp = main.new_label();
            main.li(abi::S1, 10);
            main.li(abi::S2, 0);
            main.bind(lp);
            main.mv(abi::A0, abi::S2);
            main.call("nxp_inc");
            main.mv(abi::S2, abi::A0);
            main.addi(abi::S1, abi::S1, -1);
            main.bne(abi::S1, abi::ZERO, lp);
            main.mv(abi::A0, abi::S2);
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_inc", TargetIsa::Nxp);
            f.addi(abi::A0, abi::A0, 1);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 10);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 10);
        assert_eq!(out.stats.get("nxp_stack_allocs"), 1, "stack allocated once");
    }

    #[test]
    fn nxp_calls_host_function() {
        // main -> nxp_work -> host_double(21) -> back -> +0 -> exit 42.
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 21);
            main.call("nxp_work");
            main.call("flick_exit");
            p.func(main.finish());

            let mut w = FuncBuilder::new("nxp_work", TargetIsa::Nxp);
            w.prologue(16, &[]);
            w.call("host_double");
            w.epilogue(16, &[]);
            p.func(w.finish());

            let mut h = FuncBuilder::new("host_double", TargetIsa::Host);
            h.add(abi::A0, abi::A0, abi::A0);
            h.ret();
            p.func(h.finish());
        });
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 1);
        assert_eq!(out.stats.get("migrations_nxp_to_host"), 1);
        assert_eq!(out.stats.get("returns_host_to_nxp"), 1);
        assert_eq!(out.stats.get("returns_nxp_to_host"), 1);
        assert_eq!(out.stats.get("nxp_exec_faults"), 1);
    }

    #[test]
    fn cross_isa_recursion() {
        // Mutual recursion across the ISA boundary:
        // host_fact(n) = n == 0 ? 1 : n * nxp_fact(n-1)
        // nxp_fact(n)  = n == 0 ? 1 : n * host_fact(n-1)
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 6);
            main.call("host_fact");
            main.call("flick_exit");
            p.func(main.finish());

            for (name, callee, target) in [
                ("host_fact", "nxp_fact", TargetIsa::Host),
                ("nxp_fact", "host_fact", TargetIsa::Nxp),
            ] {
                let mut f = FuncBuilder::new(name, target);
                let base = f.new_label();
                f.prologue(32, &[abi::S1]);
                f.beq(abi::A0, abi::ZERO, base);
                f.mv(abi::S1, abi::A0);
                f.addi(abi::A0, abi::A0, -1);
                f.call(callee);
                f.mul(abi::A0, abi::A0, abi::S1);
                f.epilogue(32, &[abi::S1]);
                f.bind(base);
                f.li(abi::A0, 1);
                f.epilogue(32, &[abi::S1]);
                p.func(f.finish());
            }
        });
        assert_eq!(out.exit_code, 720);
        // 6 levels: nxp_fact called for n = 5, 3, 1 → 3 host→NxP calls.
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 3);
        assert_eq!(out.stats.get("migrations_nxp_to_host"), 3); // n = 4, 2, 0
    }

    #[test]
    fn function_pointer_crosses_isa() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li_sym(abi::T3, "nxp_seven");
            main.call_reg(abi::T3);
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_seven", TargetIsa::Nxp);
            f.li(abi::A0, 7);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 7);
        assert_eq!(out.stats.get("migrations_host_to_nxp"), 1);
    }

    #[test]
    fn nxp_reads_nxp_dram_data() {
        let (_, out) = run_program(|p| {
            p.data(
                DataDef::new("nxp_table", 99u64.to_le_bytes().to_vec())
                    .placed(Placement::NxpDram),
            );
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.call("nxp_read");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_read", TargetIsa::Nxp);
            f.li_sym(abi::T0, "nxp_table");
            f.ld(abi::A0, abi::T0, 0, MemSize::B8);
            f.ret();
            p.func(f.finish());
        });
        assert_eq!(out.exit_code, 99);
    }

    #[test]
    fn console_output_collected() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, 123);
            main.call("flick_print_u64");
            main.li(abi::A0, 0);
            main.call("flick_exit");
            p.func(main.finish());
        });
        assert_eq!(out.console, vec!["123".to_string()]);
    }

    #[test]
    fn trace_sequences_migration_events() {
        let (m, _) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.call("nxp_nop");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_nop", TargetIsa::Nxp);
            f.ret();
            p.func(f.finish());
        });
        let kinds: Vec<&str> = m
            .trace()
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                Event::NxFault { .. } => Some("fault"),
                Event::ThreadSuspended { .. } => Some("suspend"),
                Event::DescriptorSent { from: Side::Host, .. } => Some("h-send"),
                Event::DescriptorReceived { to: Side::Nxp, .. } => Some("n-recv"),
                Event::DescriptorSent { from: Side::Nxp, .. } => Some("n-send"),
                Event::DescriptorReceived { to: Side::Host, .. } => Some("h-recv"),
                Event::ThreadWoken { .. } => Some("wake"),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "fault", "suspend", "h-send", "n-recv", "n-send", "h-recv", "wake"
            ]
        );
        // Timestamps are monotone across the whole sequence.
        let times: Vec<Picos> = m.trace().events().iter().map(|(t, _)| *t).collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "trace time went backwards");
        }
    }

    #[test]
    fn host_crash_reports_side_and_pc() {
        let mut p = ProgramBuilder::new("crash");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.li(abi::A1, 0x1234_5678_0000u64 as i64); // unmapped
        main.ld(abi::A0, abi::A1, 0, MemSize::B8);
        main.call("flick_exit");
        p.func(main.finish());
        let mut m = machine();
        let pid = m.load_program(&mut p).unwrap();
        match m.run(pid) {
            Err(RunError::Crash { side: Side::Host, exception }) => {
                assert!(matches!(exception, Exception::DataFault { .. }));
            }
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn image_without_runtime_rejected() {
        let mut p = ProgramBuilder::new("bare");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.halt();
        p.func(main.finish());
        let image = p.build().unwrap();
        let mut m = machine();
        assert!(matches!(m.load(&image), Err(RunError::Build(_))));
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut p = ProgramBuilder::new("spin");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        let lp = main.new_label();
        main.bind(lp);
        main.jmp(lp);
        p.func(main.finish());
        let mut m = machine();
        let pid = m.load_program(&mut p).unwrap();
        assert!(matches!(
            m.run_with_fuel(pid, 10_000),
            Err(RunError::FuelExhausted)
        ));
    }

    #[test]
    fn two_processes_run_sequentially() {
        let build = |p: &mut ProgramBuilder, v: i64| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.li(abi::A0, v);
            main.call("nxp_id");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_id", TargetIsa::Nxp);
            f.ret();
            p.func(f.finish());
        };
        let mut m = machine();
        let mut p1 = ProgramBuilder::new("p1");
        build(&mut p1, 11);
        let mut p2 = ProgramBuilder::new("p2");
        build(&mut p2, 22);
        let pid1 = m.load_program(&mut p1).unwrap();
        let pid2 = m.load_program(&mut p2).unwrap();
        assert_eq!(m.run(pid1).unwrap().exit_code, 11);
        assert_eq!(m.run(pid2).unwrap().exit_code, 22);
    }

    #[test]
    fn nxp_leg_honours_the_run_fuel_budget() {
        // A long NxP loop must stop where the run's budget runs out,
        // not run to completion first.
        let budget = 100_000;
        let mut p = ProgramBuilder::new("leg_fuel");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("nxp_loop");
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_loop", TargetIsa::Nxp);
        let lp = f.new_label();
        f.li(abi::T0, 0);
        f.li(abi::T1, 2_000_000);
        f.bind(lp);
        f.ld(abi::T2, abi::SP, 0, MemSize::B8);
        f.addi(abi::T0, abi::T0, 1);
        f.blt(abi::T0, abi::T1, lp);
        f.mv(abi::A0, abi::T0);
        f.ret();
        p.func(f.finish());
        let mut m = machine();
        let pid = m.load_program(&mut p).unwrap();
        assert!(matches!(
            m.run_with_fuel(pid, budget),
            Err(RunError::FuelExhausted)
        ));
        let retired: u64 = m
            .per_core_stats()
            .iter()
            .map(|(_, st)| st.get("instructions"))
            .sum();
        assert!(retired <= budget, "{retired} instructions under a {budget} budget");
    }

    /// A process that calls an NxP spin function `calls` times; each
    /// call keeps the NxP busy for a while, leaving the host core idle
    /// in single-process mode.
    fn migration_loop_program(calls: i64, spin: i64, tag: i64) -> ProgramBuilder {
        let mut p = ProgramBuilder::new("loop");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        let lp = main.new_label();
        main.li(abi::S1, calls);
        main.li(abi::S2, 0);
        main.bind(lp);
        main.li(abi::A0, spin);
        main.call("nxp_spin");
        main.add(abi::S2, abi::S2, abi::A0);
        main.addi(abi::S1, abi::S1, -1);
        main.bne(abi::S1, abi::ZERO, lp);
        main.li(abi::T0, tag);
        main.add(abi::A0, abi::S2, abi::T0);
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_spin", TargetIsa::Nxp);
        let sl = f.new_label();
        let done = f.new_label();
        f.li(abi::T0, 0);
        f.bind(sl);
        f.bge(abi::T0, abi::A0, done);
        f.addi(abi::T0, abi::T0, 1);
        f.jmp(sl);
        f.bind(done);
        f.mv(abi::A0, abi::T0);
        f.ret();
        p.func(f.finish());
        p
    }

    #[test]
    fn concurrent_matches_single_process_semantics() {
        let mut m1 = machine();
        let mut p = migration_loop_program(5, 100, 7);
        let pid = m1.load_program(&mut p).unwrap();
        let serial = m1.run(pid).unwrap();

        let mut m2 = machine();
        let mut p = migration_loop_program(5, 100, 7);
        let pid = m2.load_program(&mut p).unwrap();
        let conc = m2.run_concurrent(&[pid], u64::MAX / 2).unwrap();
        assert_eq!(conc.len(), 1);
        assert_eq!(conc[0].1.exit_code, serial.exit_code);
        // Identical machinery → identical simulated time.
        assert_eq!(conc[0].1.sim_time, serial.sim_time);
    }

    #[test]
    fn concurrent_processes_overlap_host_and_nxp_time() {
        // Serial: run the two processes one after the other.
        let mut serial_m = machine();
        let mut p1 = migration_loop_program(8, 2_000, 1);
        let mut p2 = migration_loop_program(8, 2_000, 2);
        let a = serial_m.load_program(&mut p1).unwrap();
        let b = serial_m.load_program(&mut p2).unwrap();
        serial_m.run(a).unwrap();
        serial_m.run(b).unwrap();
        let serial_total = serial_m.host_now();

        // Concurrent: while one thread is on the NxP, the other runs.
        let mut conc_m = machine();
        let mut p1 = migration_loop_program(8, 2_000, 1);
        let mut p2 = migration_loop_program(8, 2_000, 2);
        let a = conc_m.load_program(&mut p1).unwrap();
        let b = conc_m.load_program(&mut p2).unwrap();
        let done = conc_m.run_concurrent(&[a, b], u64::MAX / 2).unwrap();
        let conc_total = conc_m.host_now();

        let codes: std::collections::HashMap<u64, u64> =
            done.iter().map(|(pid, o)| (*pid, o.exit_code)).collect();
        assert_eq!(codes[&a], 8 * 2_000 + 1);
        assert_eq!(codes[&b], 8 * 2_000 + 2);
        assert!(
            conc_total.as_nanos_f64() < serial_total.as_nanos_f64() * 0.9,
            "overlap expected: concurrent {conc_total} vs serial {serial_total}"
        );
    }

    #[test]
    fn three_processes_all_complete() {
        let mut m = machine();
        let mut pids = Vec::new();
        for tag in 0..3i64 {
            let mut p = migration_loop_program(3, 50, tag * 1000);
            pids.push(m.load_program(&mut p).unwrap());
        }
        let done = m.run_concurrent(&pids, u64::MAX / 2).unwrap();
        assert_eq!(done.len(), 3);
        for (pid, out) in &done {
            let idx = pids.iter().position(|p| p == pid).unwrap() as u64;
            assert_eq!(out.exit_code, 3 * 50 + idx * 1000);
        }
    }

    #[test]
    fn concurrent_fuel_exhaustion() {
        let mut m = machine();
        let mut p = migration_loop_program(1000, 1000, 0);
        let pid = m.load_program(&mut p).unwrap();
        assert!(matches!(
            m.run_concurrent(&[pid], 5_000),
            Err(RunError::FuelExhausted)
        ));
    }

    #[test]
    fn two_nxps_round_robin_uses_both() {
        use crate::topology::Topology;
        let mut m = Machine::builder().topology(Topology::new(1, 2)).build();
        let mut pids = Vec::new();
        for tag in 0..2i64 {
            let mut p = migration_loop_program(2, 100, tag * 1000);
            pids.push(m.load_program(&mut p).unwrap());
        }
        let done = m.run_concurrent(&pids, u64::MAX / 2).unwrap();
        assert_eq!(done.len(), 2);
        for (core, stats) in m.per_core_stats() {
            if core.side == Side::Nxp {
                assert!(stats.get("instructions") > 0, "{core} starved");
            }
        }
    }

    #[test]
    fn least_loaded_prefers_idle_nxp() {
        use crate::topology::{NxpPlacement, Topology};
        // One long call occupies NxP 0; the next call must land on the
        // idle NxP 1 because its clock is furthest behind.
        let mut m = Machine::builder()
            .topology(Topology::new(1, 2))
            .nxp_placement(NxpPlacement::LeastLoaded)
            .build();
        let mut p = migration_loop_program(2, 5_000, 0);
        let pid = m.load_program(&mut p).unwrap();
        m.run(pid).unwrap();
        let nxp_insts: Vec<u64> = m
            .per_core_stats()
            .into_iter()
            .filter(|(c, _)| c.side == Side::Nxp)
            .map(|(_, s)| s.get("instructions"))
            .collect();
        assert_eq!(nxp_insts.len(), 2);
        assert!(
            nxp_insts.iter().all(|&i| i > 0),
            "least-loaded alternates between the NxPs: {nxp_insts:?}"
        );
    }

    #[test]
    fn outcome_merges_core_stats() {
        let (_, out) = run_program(|p| {
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            main.call("nxp_three");
            main.call("flick_exit");
            p.func(main.finish());
            let mut f = FuncBuilder::new("nxp_three", TargetIsa::Nxp);
            f.li(abi::A0, 3);
            f.ret();
            p.func(f.finish());
        });
        assert!(out.stats.get("instructions") > 0, "host instructions");
        assert!(out.stats.get("nxp_instructions") > 0, "nxp instructions");
        assert!(out.stats.get("nxp_itlb_misses") > 0);
    }
}
