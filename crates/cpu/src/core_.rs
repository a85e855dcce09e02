//! The interpreting core: fetch → translate → decode → execute, with
//! cycle/latency accounting and the Flick exception surface.

use crate::cache::{Cache, CacheConfig};
use crate::decoded::{
    lower_spin, BlockInst, DecodedBlock, DecodedCache, SpinBranch, SpinOp, NO_LINK, NO_SUCC,
};
use crate::tlb::{MmuHole, Tlb, TlbEntry};
use crate::MemEnv;
use flick_isa::inst::AluOp;
use flick_isa::{abi, ControlKind, DecodeError, Inst, Isa, MemSize, Reg, Target};
use flick_mem::{AccessKind, PhysAddr, PhysMem, Region, Requester, VirtAddr, PAGE_SIZE};
use flick_paging::{walk, WalkError};
use flick_sim::trace::Side;
use flick_sim::{Clock, Hertz, Picos, Stats};
use std::fmt;

/// Cycles charged per instruction class (before memory stalls).
#[derive(Clone, Copy, Debug)]
pub struct CpiModel {
    /// Simple ALU / immediate ops.
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide / remainder.
    pub div: u64,
    /// Load/store issue overhead (memory latency added separately).
    pub mem: u64,
    /// Conditional branch.
    pub branch: u64,
    /// Jumps, calls, returns.
    pub jump: u64,
    /// Trap entry for `ecall`.
    pub ecall: u64,
}

impl CpiModel {
    /// Wide out-of-order host core: everything is cheap.
    pub fn host() -> Self {
        CpiModel {
            alu: 1,
            mul: 3,
            div: 20,
            mem: 1,
            branch: 1,
            jump: 2,
            ecall: 50,
        }
    }

    /// In-order scalar NxP core (RV64-I soft core).
    pub fn nxp() -> Self {
        CpiModel {
            alu: 1,
            mul: 5,
            div: 35,
            mem: 3,
            branch: 2,
            jump: 2,
            ecall: 10,
        }
    }

    /// Costs from an ISA descriptor's registry table (what
    /// [`CoreConfig::accel`] uses to build cores for any registered
    /// accelerator ISA).
    pub fn from_table(t: &flick_isa::CpiTable) -> Self {
        CpiModel {
            alu: t.alu,
            mul: t.mul,
            div: t.div,
            mem: t.mem,
            branch: t.branch,
            jump: t.jump,
            ecall: t.ecall,
        }
    }

    /// Host core running the software *interpreter* for foreign (NxP)
    /// text — the graceful-degradation path taken when the PCIe link is
    /// declared dead. Each guest instruction costs a dispatch loop on
    /// the wide host core, so everything is roughly an order of
    /// magnitude more expensive than native host execution.
    pub fn host_emulating() -> Self {
        CpiModel {
            alu: 14,
            mul: 18,
            div: 40,
            mem: 16,
            branch: 15,
            jump: 16,
            ecall: 80,
        }
    }
}

/// Static configuration of one core.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Host or NxP side (selects requester, NX convention, walker cost).
    pub side: Side,
    /// Instruction encoding the core decodes.
    pub isa: Isa,
    /// Clock frequency.
    pub freq: Hertz,
    /// Per-class cycle costs.
    pub cpi: CpiModel,
    /// I-TLB entries.
    pub itlb_entries: usize,
    /// D-TLB entries.
    pub dtlb_entries: usize,
    /// I-cache geometry.
    pub icache: CacheConfig,
    /// D-cache geometry.
    pub dcache: CacheConfig,
    /// Extra per-walk firmware overhead (the NxP's MMU is a tiny
    /// microcontroller, §IV-A; zero for the host's hardware walker).
    pub walk_overhead: Picos,
    /// Allow the D-cache to cover NxP DRAM (off by default: PCIe offers
    /// no coherence, §III-D; an ablation bench flips this).
    pub dcache_nxp_dram: bool,
    /// This core models a software interpreter executing the *other*
    /// side's text (graceful degradation after link death). Inverts the
    /// fetch NX convention: a host-side emulating core fetches NX-set
    /// (NxP) pages and faults with `IsaMismatch` on NX-clear (host)
    /// pages, so control returning to host text hands execution back to
    /// the native core.
    pub emulates_foreign_isa: bool,
    /// Enables the host-side block lane and its decoded-block store
    /// (see [`DecodedCache`]). Purely a host wall-clock optimization: the
    /// simulated clocks, stats, and traces are bit-identical either way
    /// (enforced by `tests/fastpath.rs`). On by default; switched off by
    /// the differential tests.
    pub fast_path: bool,
}

impl CoreConfig {
    /// The Xeon-like host core of Table I (2.4 GHz, big TLBs).
    pub fn host() -> Self {
        CoreConfig {
            side: Side::Host,
            isa: Isa::X64,
            freq: Hertz::ghz_milli(2_400),
            cpi: CpiModel::host(),
            itlb_entries: 128,
            dtlb_entries: 128,
            icache: CacheConfig::host_l1(),
            dcache: CacheConfig::host_l1(),
            walk_overhead: Picos::ZERO,
            dcache_nxp_dram: false,
            emulates_foreign_isa: false,
            fast_path: true,
        }
    }

    /// A host core configured as the degraded-mode interpreter: decodes
    /// RV64 text at host frequency with interpreter-loop CPI, and
    /// accepts NX-set pages (see `emulates_foreign_isa`).
    pub fn host_emulator() -> Self {
        CoreConfig::host_emulator_for(Isa::Rv64)
    }

    /// A host core interpreting `guest` text in software — the
    /// graceful-degradation path, for any registered accelerator ISA.
    pub fn host_emulator_for(guest: Isa) -> Self {
        assert!(
            guest.descriptor().nx_text,
            "{guest} is host text; nothing to emulate"
        );
        CoreConfig {
            isa: guest,
            cpi: CpiModel::host_emulating(),
            emulates_foreign_isa: true,
            ..CoreConfig::host()
        }
    }

    /// The RV64-like NxP core of Table I (200 MHz, 16-entry TLBs,
    /// programmable MMU).
    pub fn nxp() -> Self {
        CoreConfig::accel(Isa::Rv64)
    }

    /// An accelerator-side core for any registered NX-text ISA, with
    /// clock and CPI drawn from the ISA's registry descriptor. The
    /// platform plumbing (tiny TLBs, small caches, firmware-walked MMU)
    /// is common to every NxP card slot, so `accel(Isa::Rv64)` is
    /// exactly [`CoreConfig::nxp`].
    ///
    /// # Panics
    ///
    /// Panics when `isa` is the host's own encoding (host cores are
    /// [`CoreConfig::host`]; they are not behind the PCIe link).
    pub fn accel(isa: Isa) -> Self {
        let d = isa.descriptor();
        assert!(d.nx_text, "{isa} is the host ISA, not an accelerator ISA");
        CoreConfig {
            side: Side::Nxp,
            isa,
            freq: Hertz::khz(d.clock_khz),
            cpi: CpiModel::from_table(&d.cpi),
            itlb_entries: 16,
            dtlb_entries: 16,
            icache: CacheConfig::nxp(),
            dcache: CacheConfig::nxp(),
            // MicroBlaze firmware: decode request, compute slot address,
            // issue reads — per missed translation.
            walk_overhead: Picos::from_nanos(150),
            dcache_nxp_dram: false,
            emulates_foreign_isa: false,
            fast_path: true,
        }
    }
}

/// Why an instruction fetch faulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstFaultKind {
    /// No translation exists.
    NotPresent,
    /// Host core fetched from a page with NX **set** — a host thread
    /// called an NxP function. The Flick migration trigger (§III-B).
    NxViolation,
    /// NxP core fetched from a page with NX **clear** — an NxP thread
    /// called a host function. The inverted convention (§IV-B2).
    IsaMismatch,
    /// NxP fetch at a non-8-byte-aligned PC (x86 code is variable
    /// length, so host function entries are usually misaligned).
    Misaligned,
    /// Bytes did not decode in this core's ISA.
    Illegal,
}

impl fmt::Display for InstFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstFaultKind::NotPresent => "not-present",
            InstFaultKind::NxViolation => "nx-violation",
            InstFaultKind::IsaMismatch => "isa-mismatch",
            InstFaultKind::Misaligned => "misaligned",
            InstFaultKind::Illegal => "illegal",
        };
        write!(f, "{s}")
    }
}

/// A synchronous exception. The PC is left at the faulting instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exception {
    /// Instruction fetch fault (Flick's migration triggers live here).
    InstFault {
        /// Faulting virtual PC — for NX faults this is the *address of
        /// the target function*, which the kernel passes to the
        /// migration handler.
        va: VirtAddr,
        /// Fault classification.
        kind: InstFaultKind,
    },
    /// Data access fault.
    DataFault {
        /// Faulting data address.
        va: VirtAddr,
        /// True for stores.
        write: bool,
    },
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exception::InstFault { va, kind } => write!(f, "inst fault at {va} ({kind})"),
            Exception::DataFault { va, write } => {
                write!(f, "data fault at {va} (write={write})")
            }
        }
    }
}

/// Why [`Core::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// An `ecall` trapped to the kernel / NxP runtime; the PC has
    /// already advanced past it.
    Ecall(u16),
    /// A `halt` retired.
    Halt,
    /// A synchronous exception; PC still points at the faulting
    /// instruction.
    Fault(Exception),
    /// The fuel budget ran out before anything interesting happened.
    OutOfFuel,
}

/// A thread's CPU state, as saved/restored on context switches and
/// carried (in part) inside migration descriptors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuContext {
    /// General-purpose registers.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: VirtAddr,
}

impl Default for CpuContext {
    fn default() -> Self {
        CpuContext {
            regs: [0; 32],
            pc: VirtAddr::NULL,
        }
    }
}

/// Hot-path event counters, kept as plain struct fields so the
/// per-instruction loop pays a register increment instead of a
/// `BTreeMap<&str, u64>` probe. They are folded into a named [`Stats`]
/// bag only at report time ([`Core::stats`]), preserving the exact key
/// set the map-backed counters produced: a key exists iff its count is
/// nonzero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Instructions retired.
    pub instructions: u64,
    /// Load instructions executed.
    pub loads: u64,
    /// Store instructions executed.
    pub stores: u64,
    /// I-TLB misses (fetch-side walks).
    pub itlb_misses: u64,
    /// D-TLB misses (data-side walks).
    pub dtlb_misses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses (reads only; writes are write-through).
    pub dcache_misses: u64,
    /// Page-table walks performed (either TLB).
    pub walks: u64,
}

impl CoreCounters {
    /// Materializes the counters into a named [`Stats`] bag. Zero-valued
    /// counters are skipped so the key set is identical to what
    /// incremental `Stats::bump` calls would have produced.
    pub fn to_stats(self) -> Stats {
        let mut s = Stats::default();
        for (name, v) in [
            ("instructions", self.instructions),
            ("loads", self.loads),
            ("stores", self.stores),
            ("itlb_misses", self.itlb_misses),
            ("dtlb_misses", self.dtlb_misses),
            ("icache_misses", self.icache_misses),
            ("dcache_misses", self.dcache_misses),
            ("walks", self.walks),
        ] {
            if v != 0 {
                s.bump_by(name, v);
            }
        }
        s
    }
}

/// Host-side chain-efficacy tallies, deliberately a *separate* bag from
/// [`CoreCounters`]: those materialize into the simulated [`Stats`] the
/// differential suites compare bit-for-bit between engine variants, and
/// these differ between the block lane and the step path. These
/// counters describe the host execution strategy (which lane retired
/// the work), not the simulated machine, so they are reported through
/// their own accessor ([`Core::chain_counters`]) and never folded into
/// simulated stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainCounters {
    /// Control transfers that continued in the block lane through a
    /// chained successor instead of returning to top-level dispatch.
    pub chain_hits: u64,
    /// Successor links patched (first resolution of an edge).
    pub chain_patches: u64,
    /// Chain exits where the finished block *had* a static successor
    /// edge but the follow validation declined it (fuel exhausted, a
    /// cross-page or unexpected target, self-modified text, or an
    /// unresolvable successor), forcing a return to dispatch.
    pub chain_breaks: u64,
    /// Single instructions retired through the step-path fallback
    /// inside the block run loop (cold pages, MMU holes, page-spanning
    /// or pre-link text).
    pub block_fallback_steps: u64,
    /// Block-lane loads and stores served by the core's data-side memo
    /// instead of the D-TLB probe, region classification and latency
    /// lookup.
    pub data_memo_hits: u64,
    /// Block-lane loads and stores that took the reference data path:
    /// no memo entry covered the page (cold, evicted, or invalidated by
    /// a D-TLB change), the access crossed a frame, or a store hit a
    /// read-only page.
    pub data_memo_misses: u64,
    /// Instructions retired by the spin tier ([`SpinOp`] batches of a
    /// charge-free, memory-free self-loop) rather than by the block
    /// executor or the step path.
    pub spin_insts: u64,
    /// Blocks decoded into the core's block store (store misses that
    /// built a block); a text write that clears the store makes the
    /// next pass rebuild.
    pub block_builds: u64,
}

impl std::ops::AddAssign for ChainCounters {
    fn add_assign(&mut self, o: Self) {
        self.chain_hits += o.chain_hits;
        self.chain_patches += o.chain_patches;
        self.chain_breaks += o.chain_breaks;
        self.block_fallback_steps += o.block_fallback_steps;
        self.data_memo_hits += o.data_memo_hits;
        self.data_memo_misses += o.data_memo_misses;
        self.spin_insts += o.spin_insts;
        self.block_builds += o.block_builds;
    }
}

impl ChainCounters {
    /// Materializes the tallies into a named [`Stats`] bag (zero-valued
    /// counters skipped), for report-time printing. Never merged into
    /// simulated stats — see the type docs.
    pub fn to_stats(self) -> Stats {
        let mut s = Stats::default();
        for (name, v) in [
            ("chain_hits", self.chain_hits),
            ("chain_patches", self.chain_patches),
            ("chain_breaks", self.chain_breaks),
            ("block_fallback_steps", self.block_fallback_steps),
            ("data_memo_hits", self.data_memo_hits),
            ("data_memo_misses", self.data_memo_misses),
            ("spin_insts", self.spin_insts),
            ("block_builds", self.block_builds),
        ] {
            if v != 0 {
                s.bump_by(name, v);
            }
        }
        s
    }
}

/// Host-side memo of the last successful fetch translation: the page it
/// landed in, that page's physical frame, and the I-cache line it
/// touched. A fetch that stays on the same page with the same I-TLB
/// generation *would* be an MRU hit in [`Tlb::lookup`] and (same line)
/// a hit in [`Cache::access`]; both of those mutate nothing but their
/// private hit tallies, so skipping them is invisible to simulated
/// clocks, stats, and traces. Any I-TLB insert/flush bumps the TLB
/// generation and invalidates the frame.
#[derive(Clone, Copy)]
struct FetchFrame {
    /// 4 KiB-aligned VA page base of the last fetch.
    va_page: u64,
    /// Matching 4 KiB-aligned physical frame base.
    pa_page: u64,
    /// I-cache line index of the last fetch (the tag array is known to
    /// hold this line, so a same-line fetch is a guaranteed hit).
    line: u64,
    /// [`Tlb::generation`] snapshot at memo time.
    itlb_gen: u64,
}

/// Pages the data memo holds. Scanned MRU-first on every block-lane load
/// and store, so it must stay tiny: a loop's stack, globals and a data
/// page or two.
const DATA_MEMO: usize = 4;

/// One data-memo entry: a D-TLB slot's whole-page translation plus the
/// timing of the one mapped region the page lies in, precomputed from
/// the [`MemEnv`] of the current [`Core::run`].
#[derive(Clone, Copy, Debug, Default)]
struct DataPage {
    /// Virtual page base (4 KiB, 2 MiB or 1 GiB aligned).
    va_base: u64,
    /// `!(page bytes - 1)`: one entry covers a whole huge page.
    page_mask: u64,
    /// Physical page base.
    pa_base: u64,
    /// Effective writability of the translation.
    writable: bool,
    /// The D-TLB slot holding the translation.
    slot: usize,
    /// Whether the region is D-cacheable for this core.
    dcacheable: bool,
    /// Load latency to the region.
    read: Picos,
    /// Store latency to the region.
    write: Picos,
}

/// Host-side memo of recent data translations: the data-side twin of
/// [`FetchFrame`]. While the D-TLB generation is unchanged, each entry's
/// slot still holds the translation it mirrors; and because an entry is
/// only installed while the D-TLB is [disjoint](Tlb::disjoint), a
/// `lookup` of any address in the page would hit exactly that slot. A
/// hit therefore replays the lookup's only effects with
/// [`Tlb::touch`] and skips the probe, while the region classification
/// and latency lookup it skips are pure functions of the page (an entry
/// is only installed when the whole page lies in one mapped region, and
/// the memo is emptied at every `run` entry, so the `MemEnv` cannot
/// change under it). Only the block lane consults the memo, and the lane
/// never runs while an MMU hole (which would shadow the TLB) is
/// configured, so `fast_path = false` and hole-bearing cores run the
/// reference path untouched.
#[derive(Clone, Copy, Debug, Default)]
struct DataMemo {
    /// [`Tlb::generation`] of the D-TLB the entries were taken under.
    dtlb_gen: u64,
    /// Valid entries, most recently used first.
    len: usize,
    pages: [DataPage; DATA_MEMO],
}

/// Maximum instructions in one decoded (super)block. Extension through
/// direct jumps would otherwise decode forever (a `jal` to itself
/// re-decodes the same bytes); the cap also bounds how much decode work
/// a fuel cut can discard mid-block.
const SUPERBLOCK_CAP: usize = 128;

/// One interpreting core.
pub struct Core {
    cfg: CoreConfig,
    clock: Clock,
    regs: [u64; 32],
    pc: VirtAddr,
    cr3: PhysAddr,
    itlb: Tlb,
    dtlb: Tlb,
    icache: Cache,
    dcache: Cache,
    holes: Vec<MmuHole>,
    counters: CoreCounters,
    chain: ChainCounters,
    /// Decoded-block store (fast path only). Empty while
    /// [`run_blocks`](Self::run_blocks) holds it.
    decoded: DecodedCache,
    /// Last-fetch translation memo (fast path only; see [`FetchFrame`]).
    fetch_frame: Option<FetchFrame>,
    /// Data-side translation memo (block lane only; see [`DataMemo`]).
    data_memo: DataMemo,
    /// `isa.fetch_align() - 1`, cached so the per-fetch alignment check
    /// is a mask instead of a division by a runtime value.
    fetch_align_mask: u64,
}

impl fmt::Debug for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Core")
            .field("side", &self.cfg.side)
            .field("pc", &self.pc)
            .field("now", &self.clock.now())
            .finish()
    }
}

impl Core {
    /// Builds a core from its configuration.
    pub fn new(cfg: CoreConfig) -> Self {
        Core {
            clock: Clock::new(cfg.freq),
            regs: [0; 32],
            pc: VirtAddr::NULL,
            cr3: PhysAddr::NULL,
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            holes: Vec::new(),
            counters: CoreCounters::default(),
            chain: ChainCounters::default(),
            decoded: DecodedCache::new(),
            fetch_frame: None,
            data_memo: DataMemo::default(),
            fetch_align_mask: cfg.isa.fetch_align() - 1,
            cfg,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Local clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Mutable clock (the OS charges kernel time here).
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Run statistics, materialized from the hot counters. For
    /// per-iteration polling prefer [`counters`](Self::counters), which
    /// is free.
    pub fn stats(&self) -> Stats {
        self.counters.to_stats()
    }

    /// Raw hot-path counters (no materialization cost).
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Host-side chain-efficacy tallies. Kept out of [`stats`]
    /// (see [`ChainCounters`]): they describe which host lane retired
    /// the work, not the simulated machine.
    ///
    /// [`stats`]: Self::stats
    pub fn chain_counters(&self) -> &ChainCounters {
        &self.chain
    }

    /// Reads a register (`zero` always reads 0).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `zero` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }

    /// Current PC.
    pub fn pc(&self) -> VirtAddr {
        self.pc
    }

    /// Redirects the PC (kernel return-address hijack, context switch).
    pub fn set_pc(&mut self, pc: VirtAddr) {
        self.pc = pc;
    }

    /// Current page-table base.
    pub fn cr3(&self) -> PhysAddr {
        self.cr3
    }

    /// Loads a new page-table base, flushing both TLBs (as a CR3 write
    /// does). The decoded-block store survives: it is keyed by
    /// *physical* address and every decoded page is watched in `PhysMem`,
    /// so translation changes cannot alias it and text changes bump the
    /// generation it validates against. (Clearing it here used to cost
    /// migration-heavy workloads a full re-decode per context switch.)
    pub fn set_cr3(&mut self, cr3: PhysAddr) {
        self.cr3 = cr3;
        self.itlb.flush();
        self.dtlb.flush();
        self.fetch_frame = None;
    }

    /// Flushes both TLBs without changing CR3 (mprotect shootdown). As
    /// with [`set_cr3`](Self::set_cr3) the block store is untouched:
    /// permission changes are enforced by the fetch path (the fetch memo
    /// is dropped here, so the next fetch re-walks and re-checks NX),
    /// not by the PA-keyed block store.
    pub fn flush_tlbs(&mut self) {
        self.itlb.flush();
        self.dtlb.flush();
        self.fetch_frame = None;
    }

    /// Adds an MMU bypass hole (NxP scratchpad/debug windows, §IV-A).
    pub fn add_hole(&mut self, hole: MmuHole) {
        self.holes.push(hole);
        // Holes take priority over TLB translations, so a memoized fetch
        // translation may no longer be how this VA resolves.
        self.fetch_frame = None;
    }

    /// Captures the thread-visible CPU state.
    pub fn save_context(&self) -> CpuContext {
        CpuContext {
            regs: self.regs,
            pc: self.pc,
        }
    }

    /// Restores thread state (context switch in).
    pub fn restore_context(&mut self, ctx: &CpuContext) {
        self.regs = ctx.regs;
        self.pc = ctx.pc;
    }

    /// I-TLB miss count (for experiment decomposition).
    pub fn itlb_misses(&self) -> u64 {
        self.itlb.misses()
    }

    /// D-TLB miss count.
    pub fn dtlb_misses(&self) -> u64 {
        self.dtlb.misses()
    }

    fn requester(&self) -> Requester {
        match self.cfg.side {
            Side::Host | Side::Emu => Requester::HostCpu,
            Side::Nxp => Requester::NxpCore,
        }
    }

    fn walk_requester(&self) -> Requester {
        match self.cfg.side {
            Side::Host | Side::Emu => Requester::HostCpu,
            Side::Nxp => Requester::NxpMmu,
        }
    }

    /// Translates for data access; fills the D-TLB.
    fn translate_data(
        &mut self,
        va: VirtAddr,
        write: bool,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<PhysAddr, Exception> {
        // Most cores configure no holes; skip the scan outright then.
        if !self.holes.is_empty() {
            if let Some(h) = self.holes.iter().find(|h| h.contains(va)) {
                return Ok(h.translate(va));
            }
        }
        let entry = match self.dtlb.lookup(va) {
            Some(e) => e,
            None => {
                let e = self.walk_fill(va, mem, env, false)?;
                self.counters.dtlb_misses += 1;
                e
            }
        };
        if write && !entry.writable {
            return Err(Exception::DataFault { va, write: true });
        }
        Ok(entry.translate(va))
    }

    /// Walks the page tables, charging latency per level, and fills the
    /// right TLB.
    fn walk_fill(
        &mut self,
        va: VirtAddr,
        mem: &PhysMem,
        env: &MemEnv,
        exec: bool,
    ) -> Result<TlbEntry, Exception> {
        let who = self.walk_requester();
        let mut stall = self.cfg.walk_overhead;
        let result = walk(
            |pte_addr| {
                let region = env.map.classify(pte_addr);
                if region == Region::Unmapped {
                    // A table pointer no bus target decodes: the read
                    // returns nothing, which the walk sees as a
                    // not-present entry and faults on.
                    return 0;
                }
                stall += env.latency.access(who, region, AccessKind::Read);
                mem.read_u64(pte_addr)
            },
            self.cr3,
            va,
        );
        self.clock.advance(stall);
        self.counters.walks += 1;
        match result {
            Ok(t) => {
                let entry = TlbEntry::from_translation(&t);
                if exec {
                    self.itlb.insert(entry);
                } else {
                    self.dtlb.insert(entry);
                }
                Ok(entry)
            }
            // A corrupted table (reserved-bit entry) faults exactly like
            // a missing one: real hardware raises a page fault with the
            // RSVD error-code bit, and either way the access cannot
            // complete — the task degrades to a fault, not an abort.
            Err(WalkError::NotPresent { .. } | WalkError::CorruptEntry { .. }) => {
                if exec {
                    Err(Exception::InstFault {
                        va,
                        kind: InstFaultKind::NotPresent,
                    })
                } else {
                    Err(Exception::DataFault { va, write: false })
                }
            }
        }
    }

    /// Fetch-side translation: TLB, walk, and the per-side NX
    /// convention — the heart of the migration trigger.
    fn translate_exec(
        &mut self,
        va: VirtAddr,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<PhysAddr, Exception> {
        // Most cores configure no holes; skip the scan outright then.
        if !self.holes.is_empty() {
            if let Some(h) = self.holes.iter().find(|h| h.contains(va)) {
                if !h.executable {
                    return Err(Exception::InstFault {
                        va,
                        kind: InstFaultKind::NotPresent,
                    });
                }
                return Self::fetchable(va, h.translate(va), env);
            }
        }
        let entry = match self.itlb.lookup(va) {
            Some(e) => e,
            None => {
                let e = self.walk_fill(va, mem, env, true)?;
                self.counters.itlb_misses += 1;
                e
            }
        };
        // Fetch NX convention: a core executes pages matching its ISA's
        // descriptor — host ISAs run NX-clear pages, accelerator ISAs
        // NX-set pages (this also covers the host-side emulator, whose
        // `cfg.isa` is the *guest* ISA and which therefore accepts NX-set
        // pages, interpreting foreign text in software). In N-way fleets
        // the PTE additionally carries an ISA tag, so an accelerator core
        // rejects NX-set text of a *different* accelerator ISA; tag 0
        // (pre-tagging images, host text, data) is accepted by any
        // NX-side core, preserving classic two-ISA behaviour. The fault
        // kind follows the page, not the core: fetching NX-set text the
        // core cannot run is the Flick migration trigger (NxViolation);
        // fetching NX-clear text is an encoding mismatch.
        let expects_nx = self.cfg.isa.descriptor().nx_text;
        let wrong_nx = entry.nx != expects_nx;
        let wrong_tag =
            entry.nx && entry.isa_tag != 0 && entry.isa_tag != self.cfg.isa.tag() + 1;
        if wrong_nx || wrong_tag {
            return Err(Exception::InstFault {
                va,
                kind: if entry.nx {
                    InstFaultKind::NxViolation
                } else {
                    InstFaultKind::IsaMismatch
                },
            });
        }
        if va.as_u64() & self.fetch_align_mask != 0 {
            return Err(Exception::InstFault {
                va,
                kind: InstFaultKind::Misaligned,
            });
        }
        Self::fetchable(va, entry.translate(va), env)
    }

    /// Passes a fetch translation whose frame a bus target decodes, and
    /// faults one that lands on unmapped physical space — a page table
    /// may point anywhere. Region bounds are frame-aligned, so one check
    /// per translated frame covers every later fetch charge in it.
    fn fetchable(va: VirtAddr, pa: PhysAddr, env: &MemEnv) -> Result<PhysAddr, Exception> {
        if env.map.classify(pa) == Region::Unmapped {
            return Err(Exception::InstFault {
                va,
                kind: InstFaultKind::NotPresent,
            });
        }
        Ok(pa)
    }

    /// Charges I-cache / memory time for a fetch at `pa` (which
    /// [`translate_exec`](Self::translate_exec) checked is mapped).
    fn charge_fetch(&mut self, pa: PhysAddr, env: &MemEnv) {
        if !self.icache.access(pa.as_u64()) {
            self.counters.icache_misses += 1;
            let region = env.map.classify(pa);
            self.clock
                .advance(env.latency.access(self.requester(), region, AccessKind::Fetch));
        }
    }

    /// Fast-path fetch translation through the last-fetch memo. Returns
    /// `Ok(Some(pa))` only when the slow path would have taken an I-TLB
    /// MRU hit with the same entry (same page, no entry-set change) —
    /// in which case the only state the slow path would touch is private
    /// hit tallies. Alignment still depends on the PC, so it is
    /// re-checked; the I-cache charge still runs whenever the fetch
    /// moves to a different line.
    fn fetch_frame_translate(
        &mut self,
        pc: VirtAddr,
        env: &MemEnv,
    ) -> Result<Option<PhysAddr>, Exception> {
        if !self.cfg.fast_path {
            return Ok(None);
        }
        let Some(fc) = self.fetch_frame else {
            return Ok(None);
        };
        if fc.va_page != pc.page_base().as_u64() || fc.itlb_gen != self.itlb.generation() {
            return Ok(None);
        }
        if pc.as_u64() & self.fetch_align_mask != 0 {
            return Err(Exception::InstFault {
                va: pc,
                kind: InstFaultKind::Misaligned,
            });
        }
        let pa = PhysAddr(fc.pa_page | pc.page_offset());
        let line = self.icache.line_index(pa.as_u64());
        if line != fc.line {
            self.charge_fetch(pa, env);
            if let Some(fc) = &mut self.fetch_frame {
                fc.line = line;
            }
        }
        Ok(Some(pa))
    }

    /// Reads and decodes the instruction bytes at the current PC,
    /// handling page-spanning instructions. There is no decode memo: the
    /// step path retires only what the block lane declines, so it
    /// decodes from bytes every time.
    ///
    /// Simulated-time charging (`translate_exec`, `charge_fetch`) runs
    /// unconditionally; the fast path only skips the I-TLB probe and
    /// same-line I-cache probe through the fetch memo ([`FetchFrame`]),
    /// which is invisible to simulated clocks, stats, and traces.
    fn fetch_decode(&mut self, mem: &PhysMem, env: &MemEnv) -> Result<(Inst, u64), Exception> {
        let pc = self.pc;
        let pa = match self.fetch_frame_translate(pc, env)? {
            Some(pa) => pa,
            None => {
                let pa = self.translate_exec(pc, mem, env)?;
                self.charge_fetch(pa, env);
                self.fetch_frame = if self.cfg.fast_path && self.holes.is_empty() {
                    Some(FetchFrame {
                        va_page: pc.page_base().as_u64(),
                        pa_page: pa.as_u64() & !(PAGE_SIZE - 1),
                        line: self.icache.line_index(pa.as_u64()),
                        itlb_gen: self.itlb.generation(),
                    })
                } else {
                    None
                };
                pa
            }
        };
        let in_page = (PAGE_SIZE - pc.page_offset()) as usize;
        let avail = in_page.min(16);
        let mut buf = [0u8; 16];
        mem.read_bytes(pa, &mut buf[..avail]);
        match self.cfg.isa.decode(&buf[..avail]) {
            Ok((inst, len)) => Ok((inst, len as u64)),
            Err(DecodeError::Truncated) if avail < 16 => {
                // Instruction spans a page boundary: fetch from the next
                // page (with full permission checks there). The extra
                // translation/charge can touch I-TLB and I-cache state
                // the fetch memo assumed stable, so drop it.
                self.fetch_frame = None;
                let next_va = VirtAddr(pc.page_base().as_u64() + PAGE_SIZE);
                let next_pa = self.translate_exec(next_va, mem, env)?;
                self.charge_fetch(next_pa, env);
                mem.read_bytes(next_pa, &mut buf[avail..]);
                match self.cfg.isa.decode(&buf) {
                    Ok((inst, len)) => Ok((inst, len as u64)),
                    Err(_) => Err(Exception::InstFault {
                        va: pc,
                        kind: InstFaultKind::Illegal,
                    }),
                }
            }
            Err(_) => Err(Exception::InstFault {
                va: pc,
                kind: InstFaultKind::Illegal,
            }),
        }
    }

    fn dcacheable(&self, region: Region) -> bool {
        match (self.cfg.side, region) {
            (Side::Host | Side::Emu, Region::HostDram) => true,
            (Side::Nxp, Region::NxpDram) => self.cfg.dcache_nxp_dram,
            _ => false,
        }
    }

    /// Charges D-cache / memory time for a data access at `pa`, or
    /// faults — charging nothing — when no bus target decodes `pa` (a
    /// page table or hole may point anywhere).
    fn charge_data(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        write: bool,
        env: &MemEnv,
    ) -> Result<(), Exception> {
        let region = env.map.classify(pa);
        if region == Region::Unmapped {
            return Err(Exception::DataFault { va, write });
        }
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if self.dcacheable(region) {
            if write {
                // Write-through: always pay the memory write.
                self.clock
                    .advance(env.latency.access(self.requester(), region, kind));
                self.dcache.access(pa.as_u64());
            } else if !self.dcache.access(pa.as_u64()) {
                self.counters.dcache_misses += 1;
                self.clock
                    .advance(env.latency.access(self.requester(), region, kind));
            }
        } else {
            self.clock
                .advance(env.latency.access(self.requester(), region, kind));
        }
        Ok(())
    }

    /// Loads `size` bytes at `va` (zero-extended), splitting at page
    /// boundaries.
    pub fn mem_read(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<u64, Exception> {
        self.counters.loads += 1;
        let n = size.bytes();
        let first = (PAGE_SIZE - va.page_offset()).min(n);
        let pa = self.translate_data(va, false, mem, env)?;
        self.charge_data(va, pa, false, env)?;
        if first == n {
            return Ok(mem.read_word(pa, n));
        }
        let mut bytes = [0u8; 8];
        mem.read_bytes(pa, &mut bytes[..first as usize]);
        let va2 = VirtAddr(va.page_base().as_u64() + PAGE_SIZE);
        let pa2 = self.translate_data(va2, false, mem, env)?;
        self.charge_data(va2, pa2, false, env)?;
        mem.read_bytes(pa2, &mut bytes[first as usize..n as usize]);
        Ok(u64::from_le_bytes(bytes) & mask(n))
    }

    /// Stores the low `size` bytes of `val` at `va`.
    pub fn mem_write(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        val: u64,
        mem: &mut PhysMem,
        env: &MemEnv,
    ) -> Result<(), Exception> {
        self.counters.stores += 1;
        let n = size.bytes();
        let first = (PAGE_SIZE - va.page_offset()).min(n);
        let pa = self.translate_data(va, true, mem, env)?;
        self.charge_data(va, pa, true, env)?;
        if first == n {
            mem.write_word(pa, n, val);
            return Ok(());
        }
        let bytes = val.to_le_bytes();
        mem.write_bytes(pa, &bytes[..first as usize]);
        let va2 = VirtAddr(va.page_base().as_u64() + PAGE_SIZE);
        let pa2 = self.translate_data(va2, true, mem, env)?;
        self.charge_data(va2, pa2, true, env)?;
        mem.write_bytes(pa2, &bytes[first as usize..n as usize]);
        Ok(())
    }

    /// The data memo's page covering `va` under the current D-TLB
    /// generation, moved to the front.
    #[inline]
    fn data_memo_find(&mut self, va: u64) -> Option<DataPage> {
        let m = &mut self.data_memo;
        if m.dtlb_gen != self.dtlb.generation() {
            return None;
        }
        for i in 0..m.len {
            let p = m.pages[i];
            if va & p.page_mask == p.va_base {
                if i > 0 {
                    m.pages.copy_within(0..i, 1);
                    m.pages[0] = p;
                }
                return Some(p);
            }
        }
        None
    }

    /// Memoizes the D-TLB entry that just served an in-frame access at
    /// `va`, when [`DataMemo`]'s install conditions hold: the TLB is
    /// disjoint and the whole page lies in one mapped region. (No MMU
    /// hole can shadow it: the block lane only runs without holes.)
    fn data_memo_install(&mut self, va: VirtAddr, env: &MemEnv) {
        debug_assert!(self.holes.is_empty(), "block lane runs without holes");
        let Some((slot, e)) = self.dtlb.mru_entry() else {
            return;
        };
        let bytes = e.page.bytes();
        if !e.covers(va) || !self.dtlb.disjoint() {
            return;
        }
        let Some(region) = env.map.uniform_region(e.pa_base, bytes) else {
            return;
        };
        let who = self.requester();
        let page = DataPage {
            va_base: e.va_base.as_u64(),
            page_mask: !(bytes - 1),
            pa_base: e.pa_base.as_u64(),
            writable: e.writable,
            slot,
            dcacheable: self.dcacheable(region),
            read: env.latency.access(who, region, AccessKind::Read),
            write: env.latency.access(who, region, AccessKind::Write),
        };
        let gen = self.dtlb.generation();
        let m = &mut self.data_memo;
        if m.dtlb_gen != gen {
            m.dtlb_gen = gen;
            m.len = 0;
        }
        let kept = m.len.min(DATA_MEMO - 1);
        m.pages.copy_within(0..kept, 1);
        m.pages[0] = page;
        m.len = kept + 1;
    }

    /// Charges a memoized access exactly as [`charge_data`] would for
    /// the page's region: same D-cache access, same clock advance, same
    /// order.
    ///
    /// [`charge_data`]: Self::charge_data
    #[inline]
    fn charge_memoized(&mut self, p: &DataPage, pa: u64, write: bool) {
        if !p.dcacheable {
            self.clock.advance(if write { p.write } else { p.read });
        } else if write {
            self.clock.advance(p.write);
            self.dcache.access(pa);
        } else if !self.dcache.access(pa) {
            self.counters.dcache_misses += 1;
            self.clock.advance(p.read);
        }
    }

    /// Block-lane load: [`mem_read`](Self::mem_read) behind the data
    /// memo. A hit in a frame-contained access replays the D-TLB hit
    /// with [`Tlb::touch`] and charges from the memo; everything else
    /// takes `mem_read` and may install the page.
    #[inline]
    fn lane_read(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<u64, Exception> {
        let n = size.bytes();
        if va.page_offset() + n <= PAGE_SIZE {
            if let Some(p) = self.data_memo_find(va.as_u64()) {
                self.chain.data_memo_hits += 1;
                self.counters.loads += 1;
                self.dtlb.touch(p.slot);
                let pa = p.pa_base | (va.as_u64() & !p.page_mask);
                self.charge_memoized(&p, pa, false);
                return Ok(mem.read_word(PhysAddr(pa), n));
            }
        }
        self.lane_read_slow(va, size, mem, env)
    }

    /// [`lane_read`](Self::lane_read)'s memo miss: the reference path,
    /// then an install attempt. Kept out of line so the hit path stays
    /// small inside the block interpreter.
    #[cold]
    #[inline(never)]
    fn lane_read_slow(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        mem: &PhysMem,
        env: &MemEnv,
    ) -> Result<u64, Exception> {
        self.chain.data_memo_misses += 1;
        let v = self.mem_read(va, size, mem, env)?;
        if va.page_offset() + size.bytes() <= PAGE_SIZE {
            self.data_memo_install(va, env);
        }
        Ok(v)
    }

    /// Block-lane store: [`mem_write`](Self::mem_write) behind the data
    /// memo, as [`lane_read`](Self::lane_read). A store to a read-only
    /// page takes `mem_write`, which raises the fault.
    #[inline]
    fn lane_write(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        val: u64,
        mem: &mut PhysMem,
        env: &MemEnv,
    ) -> Result<(), Exception> {
        let n = size.bytes();
        if va.page_offset() + n <= PAGE_SIZE {
            if let Some(p) = self.data_memo_find(va.as_u64()) {
                if p.writable {
                    self.chain.data_memo_hits += 1;
                    self.counters.stores += 1;
                    self.dtlb.touch(p.slot);
                    let pa = p.pa_base | (va.as_u64() & !p.page_mask);
                    self.charge_memoized(&p, pa, true);
                    mem.write_word(PhysAddr(pa), n, val);
                    return Ok(());
                }
            }
        }
        self.lane_write_slow(va, size, val, mem, env)
    }

    /// [`lane_write`](Self::lane_write)'s memo miss, as
    /// [`lane_read_slow`](Self::lane_read_slow).
    #[cold]
    #[inline(never)]
    fn lane_write_slow(
        &mut self,
        va: VirtAddr,
        size: MemSize,
        val: u64,
        mem: &mut PhysMem,
        env: &MemEnv,
    ) -> Result<(), Exception> {
        self.chain.data_memo_misses += 1;
        self.mem_write(va, size, val, mem, env)?;
        if va.page_offset() + size.bytes() <= PAGE_SIZE {
            self.data_memo_install(va, env);
        }
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// `Err(stop)` when the core cannot simply continue: an `ecall`, a
    /// `halt`, or a fault (PC is then still at the faulting
    /// instruction).
    pub fn step(&mut self, mem: &mut PhysMem, env: &MemEnv) -> Result<(), StopReason> {
        let (inst, len) = match self.fetch_decode(mem, env) {
            Ok(x) => x,
            Err(e) => return Err(StopReason::Fault(e)),
        };
        let pc = self.pc;
        let next = VirtAddr(pc.as_u64() + len);
        self.counters.instructions += 1;
        let cpi = self.cfg.cpi;
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let cycles = match op {
                    AluOp::Mul => cpi.mul,
                    AluOp::Divu | AluOp::Remu => cpi.div,
                    _ => cpi.alu,
                };
                self.clock.tick(cycles);
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                self.pc = next;
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let cycles = match op {
                    AluOp::Mul => cpi.mul,
                    AluOp::Divu | AluOp::Remu => cpi.div,
                    _ => cpi.alu,
                };
                self.clock.tick(cycles);
                let v = op.eval(self.reg(rs1), imm as i64 as u64);
                self.set_reg(rd, v);
                self.pc = next;
            }
            Inst::Li { rd, imm } => {
                self.clock.tick(cpi.alu);
                self.set_reg(rd, imm as u64);
                self.pc = next;
            }
            Inst::LiSym { .. } => {
                // LiSym only exists pre-link; linked images contain Li.
                return Err(StopReason::Fault(Exception::InstFault {
                    va: pc,
                    kind: InstFaultKind::Illegal,
                }));
            }
            Inst::Ld { rd, base, off, size } => {
                self.clock.tick(cpi.mem);
                let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                match self.mem_read(va, size, mem, env) {
                    Ok(v) => {
                        self.set_reg(rd, v);
                        self.pc = next;
                    }
                    Err(e) => return Err(StopReason::Fault(e)),
                }
            }
            Inst::St { rs, base, off, size } => {
                self.clock.tick(cpi.mem);
                let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                let v = self.reg(rs);
                match self.mem_write(va, size, v, mem, env) {
                    Ok(()) => self.pc = next,
                    Err(e) => return Err(StopReason::Fault(e)),
                }
            }
            Inst::Branch { op, rs1, rs2, target } => {
                self.clock.tick(cpi.branch);
                let taken = op.eval(self.reg(rs1), self.reg(rs2));
                self.pc = if taken {
                    let d = rel_of(target);
                    VirtAddr((pc.as_u64() as i64 + d) as u64)
                } else {
                    next
                };
            }
            Inst::Jal { rd, target } => {
                self.clock.tick(cpi.jump);
                self.set_reg(rd, next.as_u64());
                let d = rel_of(target);
                self.pc = VirtAddr((pc.as_u64() as i64 + d) as u64);
            }
            Inst::Jalr { rd, rs1, off } => {
                self.clock.tick(cpi.jump);
                let dest = self.reg(rs1).wrapping_add(off as i64 as u64);
                self.set_reg(rd, next.as_u64());
                self.pc = VirtAddr(dest);
            }
            Inst::Ret => {
                self.clock.tick(cpi.jump);
                self.pc = VirtAddr(self.reg(abi::RA));
            }
            Inst::Ecall { service } => {
                self.clock.tick(cpi.ecall);
                self.pc = next;
                return Err(StopReason::Ecall(service));
            }
            Inst::Halt => {
                self.clock.tick(cpi.alu);
                self.pc = next;
                return Err(StopReason::Halt);
            }
            Inst::Nop => {
                self.clock.tick(cpi.alu);
                self.pc = next;
            }
        }
        Ok(())
    }

    /// Runs until a stop event or `fuel` instructions.
    pub fn run(&mut self, mem: &mut PhysMem, env: &MemEnv, fuel: u64) -> StopReason {
        if self.cfg.fast_path {
            return self.run_blocks(mem, env, fuel);
        }
        for _ in 0..fuel {
            if let Err(stop) = self.step(mem, env) {
                return stop;
            }
        }
        StopReason::OutOfFuel
    }

    /// Block-at-a-time run loop (fast path only). Executes decoded
    /// basic blocks where the per-block validation holds, and falls
    /// back to [`step`](Self::step) for everything else — cold pages,
    /// page-spanning instructions, MMU holes, pre-link text. Fuel is
    /// still charged per instruction, so `OutOfFuel` lands on exactly
    /// the same instruction as the step loop.
    fn run_blocks(&mut self, mem: &mut PhysMem, env: &MemEnv, fuel: u64) -> StopReason {
        // The memo's timing came from the previous call's `MemEnv`.
        self.data_memo.len = 0;
        // The lane borrows blocks from the store while the executors
        // mutate the core, so the store leaves `self` for the run. The
        // step path never touches it.
        let mut store = std::mem::take(&mut self.decoded);
        let mut left = fuel;
        let stop = 'run: {
            while left > 0 {
                match self.block_step(&mut store, mem, env, &mut left) {
                    Ok(true) => {}
                    Ok(false) => {
                        // One slow-path step: raises the fault the block
                        // path declined to classify, installs the fetch
                        // memo the next block entry validates against.
                        self.chain.block_fallback_steps += 1;
                        if let Err(stop) = self.step(mem, env) {
                            break 'run stop;
                        }
                        left -= 1;
                    }
                    Err(stop) => break 'run stop,
                }
            }
            StopReason::OutOfFuel
        };
        self.decoded = store;
        stop
    }

    /// Attempts one block execution at the current PC. Returns
    /// `Ok(false)` — with **zero** simulated side effects — when the
    /// per-block validation fails or no block starts here, so the
    /// caller can replay the instruction through `step` without
    /// double-charging anything.
    ///
    /// Validation is the per-instruction fetch fast path hoisted to
    /// block granularity, checked once against state that cannot change
    /// mid-block:
    /// - no MMU holes (holes shadow TLB translations);
    /// - the fetch memo covers the PC's page with a current I-TLB
    ///   generation (data-side walks fill only the D-TLB, and
    ///   flushes/CR3 loads/hole edits never happen inside `run`, so the
    ///   generation is stable until the block ends);
    /// - the PC is fetch-aligned (blocks only contain decode points
    ///   that preserve alignment, so this holds for every instruction
    ///   in the block);
    /// - the decoded block's text generation is current (any store to a
    ///   watched text frame bumps it; `exec_block` re-checks after
    ///   every store).
    fn block_step(
        &mut self,
        store: &mut DecodedCache,
        mem: &mut PhysMem,
        env: &MemEnv,
        left: &mut u64,
    ) -> Result<bool, StopReason> {
        if !self.holes.is_empty() {
            return Ok(false);
        }
        let Some(fc) = self.fetch_frame else {
            return Ok(false);
        };
        let pc = self.pc;
        if fc.va_page != pc.page_base().as_u64()
            || fc.itlb_gen != self.itlb.generation()
            || pc.as_u64() & self.fetch_align_mask != 0
        {
            return Ok(false);
        }
        let pa_page = fc.pa_page;
        let text_gen = mem.text_gen();
        let mut cur_off = pc.page_offset() as u16;
        let Some(mut cur) = self.find_or_build(store, pa_page, cur_off, text_gen, mem) else {
            // Not even the first instruction decodes into a block.
            return Ok(false);
        };
        // `b` is block `cur`, held across follows: the arena is only
        // re-indexed when the lane moves to another block or mutates
        // the store (a patch or a build).
        let mut b = store.block(cur);
        // The chain loop: run the current block; while its control
        // transfer lands on a statically known same-page successor and
        // the follow validation holds, continue in the lane. The
        // validation re-checks exactly what top-level dispatch would
        // have: fuel, the PC's page against the (unchanged) fetch
        // frame, the I-TLB generation, and the text generation.
        // Alignment needs no re-check — successor offsets were
        // alignment-checked at decode time. Holes cannot appear inside
        // `run`, and only the fetch frame's `line` mutates in the lane,
        // so `fc` and the entry validation above still cover everything
        // else.
        'lane: loop {
            if !self.exec_block(b, mem, env, text_gen, left)? {
                return Ok(true);
            }
            // Follow edges until a block must execute again (`continue
            // 'lane`) or the lane ends. Iterates without an intervening
            // exec only after a spin batch, whose exit PC is a fresh
            // transfer target needing its own validation.
            loop {
                let pc = self.pc;
                let off = pc.page_offset() as u16;
                // Which successor edge did the transfer take?
                // (succ_off entries are NO_SUCC when absent, which no
                // in-page offset equals.)
                let idx = if b.succ_off[0] == off {
                    0
                } else if b.succ_off[1] == off {
                    1
                } else {
                    2
                };
                if idx == 2
                    || *left == 0
                    || pc.page_base().as_u64() != fc.va_page
                    || mem.text_gen() != text_gen
                    || self.itlb.generation() != fc.itlb_gen
                {
                    if b.succ_off != [NO_SUCC; 2] {
                        self.chain.chain_breaks += 1;
                    }
                    return Ok(true);
                }
                if off == cur_off {
                    // Self-loop — the tightest hot loops chain to
                    // themselves; `b` stays put.
                    if b.links[idx] == NO_LINK {
                        store.link(cur, idx, cur);
                        self.chain.chain_patches += 1;
                        b = store.block(cur);
                    }
                    self.chain.chain_hits += 1;
                    let n = b.insts.len() as u64;
                    if !b.spin.is_empty() && *left >= n {
                        // Spin batch: replay full iterations back to
                        // back (see `exec_block_spin` for why the
                        // per-follow validation is provably constant
                        // here), then re-validate from the exit PC.
                        if let Some(iters) = self.exec_block_spin(b, left) {
                            self.chain.chain_hits += iters - 1;
                            self.chain.spin_insts += iters * n;
                            continue;
                        }
                    }
                    // Memory-touching, fetch-charging or fuel-short
                    // self-loop: execute normally (handles faults, SMC,
                    // I-cache charges, partial fuel).
                    continue 'lane;
                }
                let next = match b.links[idx] {
                    NO_LINK => {
                        // First follow of this edge: resolve it through
                        // the store and patch the link.
                        let Some(next) = self.find_or_build(store, pa_page, off, text_gen, mem)
                        else {
                            // Successor bytes don't decode; dispatch +
                            // step will fault.
                            self.chain.chain_breaks += 1;
                            return Ok(true);
                        };
                        store.link(cur, idx, next);
                        self.chain.chain_patches += 1;
                        next
                    }
                    next => next,
                };
                cur = next;
                cur_off = off;
                b = store.block(cur);
                self.chain.chain_hits += 1;
                continue 'lane;
            }
        }
    }

    /// Index of the decoded block starting at page offset `off` of the
    /// lane's (validated) frame: a store probe, else a fresh decode,
    /// watched and stored. `None` when not even the first instruction
    /// decodes into a block.
    fn find_or_build(
        &mut self,
        store: &mut DecodedCache,
        pa_page: u64,
        off: u16,
        text_gen: u64,
        mem: &mut PhysMem,
    ) -> Option<u32> {
        let pa = PhysAddr(pa_page | off as u64);
        if let Some(i) = store.find(pa, text_gen) {
            return Some(i);
        }
        let block = self.build_block(pa_page, off as u64, mem)?;
        self.chain.block_builds += 1;
        mem.watch_text(pa);
        Some(store.insert(pa, block))
    }

    /// Decodes a (super)block starting at page offset `start_off` of
    /// frame `pa_page`: straight-line instructions, decoding *through*
    /// unconditional direct jumps/calls whose target is in the same
    /// page and fetch-aligned — the vec's order is execution order, so
    /// a hot trace replays as one block with one validation — and
    /// ending at the first conditional branch, indirect transfer, or
    /// trap, at the page boundary, or just before anything the step
    /// path must handle itself (page-spanning or undecodable bytes,
    /// pre-link `LiSym`, a next-PC that would fault the alignment
    /// check). Returns `None` when not even the first instruction
    /// qualifies.
    ///
    /// The terminator's statically known same-page successors are
    /// recorded in `succ_off` (`[taken, fall-through]` for a branch)
    /// for the chain lane to follow; offsets are PA-anchored, so the
    /// edges stay valid across CR3 scopes.
    ///
    /// Pure host work: reads text bytes without simulated charges and
    /// precomputes each instruction's CPI cycles and I-cache
    /// line-crossing flag for replay.
    fn build_block(&self, pa_page: u64, start_off: u64, mem: &PhysMem) -> Option<DecodedBlock> {
        let cpi = self.cfg.cpi;
        let align_mask = self.fetch_align_mask;
        // In-page, fetch-aligned — what a decoded transfer target must
        // satisfy for the lane to keep going without a re-walk.
        let fits = |t: i64| t >= 0 && (t as u64) < PAGE_SIZE && t as u64 & align_mask == 0;
        let mut insts = Vec::new();
        let mut off = start_off;
        let mut prev_line = 0u64;
        let mut succ = [NO_SUCC; 2];
        loop {
            let avail = ((PAGE_SIZE - off) as usize).min(16);
            let mut buf = [0u8; 16];
            mem.read_bytes(PhysAddr(pa_page | off), &mut buf[..avail]);
            // Decode failures (illegal bytes, page-spanning truncation)
            // end the block *before* the offending point; the step path
            // raises the right fault or replays the next-page charges.
            let Ok((inst, len)) = self.cfg.isa.decode(&buf[..avail]) else {
                break;
            };
            if matches!(inst, Inst::LiSym { .. }) {
                break; // pre-link text: step raises Illegal
            }
            let cycles = match inst {
                Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                    AluOp::Mul => cpi.mul,
                    AluOp::Divu | AluOp::Remu => cpi.div,
                    _ => cpi.alu,
                },
                Inst::Li { .. } | Inst::Nop | Inst::Halt => cpi.alu,
                Inst::Ld { .. } | Inst::St { .. } => cpi.mem,
                Inst::Branch { .. } => cpi.branch,
                Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Ret => cpi.jump,
                Inst::Ecall { .. } => cpi.ecall,
                Inst::LiSym { .. } => unreachable!("filtered above"),
            };
            let line = self.icache.line_index(pa_page | off);
            insts.push(BlockInst {
                inst,
                off: off as u16,
                next_off: (off + len as u64) as u16,
                cycles,
                // Exactly what one `Clock::tick(cycles)` call adds.
                picos: self.clock.freq().cycles(cycles).0,
                new_line: !insts.is_empty() && line != prev_line,
            });
            prev_line = line;
            let next_off = off + len as u64;
            match inst.control_kind() {
                ControlKind::Straight => {
                    if next_off >= PAGE_SIZE || next_off & align_mask != 0 {
                        break;
                    }
                    off = next_off;
                }
                ControlKind::DirectJump(d) => {
                    let t = off as i64 + d;
                    if insts.len() < SUPERBLOCK_CAP && fits(t) {
                        // Superblock extension: keep decoding at the
                        // jump target. Backward targets re-decode bytes
                        // already in the block (natural loop unrolling),
                        // bounded by the cap.
                        off = t as u64;
                    } else {
                        if fits(t) {
                            succ[0] = t as u16;
                        }
                        break;
                    }
                }
                ControlKind::CondBranch(d) => {
                    let t = off as i64 + d;
                    if fits(t) {
                        succ[0] = t as u16;
                    }
                    if fits(next_off as i64) {
                        succ[1] = next_off as u16;
                    }
                    break;
                }
                ControlKind::Indirect | ControlKind::Trap => break,
            }
        }
        if insts.is_empty() {
            None
        } else {
            let total_cycles = insts.iter().map(|bi| bi.cycles).sum();
            let total_picos = insts.iter().map(|bi| bi.picos).sum();
            // Only blocks with a successor edge can ever spin; skip the
            // lowering for the rest (trap terminators, page exits).
            let spin = if succ != [NO_SUCC; 2] {
                lower_spin(&insts)
            } else {
                Vec::new()
            };
            Some(DecodedBlock {
                insts,
                total_cycles,
                total_picos,
                succ_off: succ,
                links: [NO_LINK; 2],
                spin,
            })
        }
    }

    /// Executes a validated block, charging simulated time exactly as
    /// the step loop would:
    ///
    /// - **Fetch charges** replay the memoized fetch-frame path: the
    ///   first instruction charges the I-cache iff its line differs
    ///   from the memo's `line` (the last line actually fetched); later
    ///   instructions use the precomputed `new_line` flags, which
    ///   encode the same line-change comparison. The memo's `line` is
    ///   updated on every charge, so an early exit (fault, fuel,
    ///   self-modifying store) leaves it exactly where the step loop
    ///   would have.
    /// - **Fuel** decrements per instruction, checked *before* each
    ///   one: running dry mid-block stops with the PC at the first
    ///   unexecuted instruction and none of its charges applied.
    /// - **PC** is advanced after each instruction, so a data fault on
    ///   the Nth instruction leaves the PC pointing at it, exactly like
    ///   `step`.
    /// - A **store** that bumps the text generation (self-modifying
    ///   code into any watched frame) ends the block after the store
    ///   retires; the next `block_step` misses on the stale generation
    ///   and re-decodes fresh bytes, exactly as the step path decodes
    ///   them.
    ///
    /// `Ok(true)` means the block *completed*: every instruction
    /// retired, so the PC is wherever the final transfer (or
    /// fall-through) sent it and the chain lane may consider following
    /// a successor edge. `Ok(false)` means the block was cut short
    /// (fuel, self-modified text) — the PC points mid-block and
    /// coincidental matches against successor offsets must not chain.
    fn exec_block(
        &mut self,
        block: &DecodedBlock,
        mem: &mut PhysMem,
        env: &MemEnv,
        text_gen: u64,
        left: &mut u64,
    ) -> Result<bool, StopReason> {
        let Some(fc) = self.fetch_frame else {
            unreachable!("blocks run from a validated lane");
        };
        let va_page = fc.va_page;
        let pa_page = fc.pa_page;
        // The per-instruction bookkeeping — PC, fuel, retired count,
        // tick time — lives in locals so the loop keeps it in
        // registers; everything is flushed exactly once below, at every
        // kind of exit. `credit` applies the tick time with per-call
        // rounding already baked into `BlockInst::picos`, and stall
        // charges inside `charge_fetch`/`mem_read`/`mem_write` add to
        // the clock directly — addition commutes, so the flushed total
        // is bit-identical to step-at-a-time ticking.
        let mut pc = self.pc.as_u64();
        let mut fuel = *left;
        let mut first = true;
        let mut retired = 0u64;
        let mut cycles = 0u64;
        let mut picos = 0u64;
        // `Ok(None)`: block ended or was cut short (fuel, self-modified
        // text) with execution simply continuing at `pc`.
        let res: Result<Option<StopReason>, Exception> = 'blk: {
            for bi in &block.insts {
                if fuel == 0 {
                    break 'blk Ok(None);
                }
                let charge = if first {
                    first = false;
                    self.icache.line_index(pa_page | bi.off as u64) != fc.line
                } else {
                    bi.new_line
                };
                if charge {
                    let pa = PhysAddr(pa_page | bi.off as u64);
                    self.charge_fetch(pa, env);
                    let line = self.icache.line_index(pa.as_u64());
                    if let Some(fc) = &mut self.fetch_frame {
                        fc.line = line;
                    }
                }
                retired += 1;
                fuel -= 1;
                cycles += bi.cycles;
                picos += bi.picos;
                let next = va_page + bi.next_off as u64;
                match bi.inst {
                    Inst::Alu { op, rd, rs1, rs2 } => {
                        let v = op.eval(self.reg(rs1), self.reg(rs2));
                        self.set_reg(rd, v);
                        pc = next;
                    }
                    Inst::AluImm { op, rd, rs1, imm } => {
                        let v = op.eval(self.reg(rs1), imm as i64 as u64);
                        self.set_reg(rd, v);
                        pc = next;
                    }
                    Inst::Li { rd, imm } => {
                        self.set_reg(rd, imm as u64);
                        pc = next;
                    }
                    Inst::Ld { rd, base, off, size } => {
                        let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                        match self.lane_read(va, size, mem, env) {
                            Ok(v) => {
                                self.set_reg(rd, v);
                                pc = next;
                            }
                            // `pc` still points at this instruction.
                            Err(e) => break 'blk Err(e),
                        }
                    }
                    Inst::St { rs, base, off, size } => {
                        let va = VirtAddr(self.reg(base).wrapping_add(off as i64 as u64));
                        let v = self.reg(rs);
                        match self.lane_write(va, size, v, mem, env) {
                            Ok(()) => pc = next,
                            Err(e) => break 'blk Err(e),
                        }
                        if mem.text_gen() != text_gen {
                            // Self-modifying text: the rest of this
                            // block may be stale. Stop here; the next
                            // block_step re-decodes under the new
                            // generation.
                            break 'blk Ok(None);
                        }
                    }
                    Inst::Branch { op, rs1, rs2, target } => {
                        let taken = op.eval(self.reg(rs1), self.reg(rs2));
                        pc = if taken {
                            let pc_va = va_page + bi.off as u64;
                            (pc_va as i64 + rel_of(target)) as u64
                        } else {
                            next
                        };
                    }
                    Inst::Jal { rd, target } => {
                        self.set_reg(rd, next);
                        let pc_va = va_page + bi.off as u64;
                        pc = (pc_va as i64 + rel_of(target)) as u64;
                    }
                    Inst::Jalr { rd, rs1, off } => {
                        let dest = self.reg(rs1).wrapping_add(off as i64 as u64);
                        self.set_reg(rd, next);
                        pc = dest;
                    }
                    Inst::Ret => {
                        pc = self.reg(abi::RA);
                    }
                    Inst::Ecall { service } => {
                        pc = next;
                        break 'blk Ok(Some(StopReason::Ecall(service)));
                    }
                    Inst::Halt => {
                        pc = next;
                        break 'blk Ok(Some(StopReason::Halt));
                    }
                    Inst::Nop => {
                        pc = next;
                    }
                    Inst::LiSym { .. } => {
                        // build_block never includes LiSym; mirror
                        // `step`'s fault anyway so the arm is total.
                        debug_assert!(false, "LiSym inside a decoded block");
                        break 'blk Err(Exception::InstFault {
                            va: VirtAddr(va_page + bi.off as u64),
                            kind: InstFaultKind::Illegal,
                        });
                    }
                }
            }
            Ok(None)
        };
        self.pc = VirtAddr(pc);
        *left = fuel;
        self.counters.instructions += retired;
        self.clock.credit(cycles, Picos(picos));
        match res {
            Ok(None) => Ok(retired == block.insts.len() as u64),
            Ok(Some(stop)) => Err(stop),
            Err(e) => Err(StopReason::Fault(e)),
        }
    }

    /// Replays a validated, memory-free self-loop block — the hottest
    /// shape there is — for as many *full* iterations as fuel allows
    /// without leaving the function between follows. Correctness leans
    /// on the block lowering to spin micro-ops ([`SpinOp`]): lowering
    /// rejects loads, stores and traps, so a spinning block performs no
    /// data walks, raises no faults, and cannot bump the text or I-TLB
    /// generations mid-batch. The per-follow validation the chain loop
    /// normally re-runs is therefore provably constant, and the only
    /// live exit conditions are the loop transfer leaving the block
    /// start and fuel.
    ///
    /// The batch must also be *charge-free*: no instruction inside the
    /// block starts a new I-cache line and the block's first line is
    /// the memoized one, so an iteration performs zero I-cache charges
    /// — and since charges are the only thing that can move the memo's
    /// line, that holds for every later iteration too. The loop body
    /// then shrinks to pure architectural effects, executed from the
    /// pre-lowered micro-ops: one jump table per instruction,
    /// bounds-check-free register-file indexing, pre-resolved branch
    /// displacements. The register file moves into a local array for
    /// the duration (no aliasing with `self`, so nothing reloads across
    /// instructions); `r0` stays zero because lowering turned every
    /// write to it into a `Nop` (the `Jalr` link is the one runtime
    /// discard left). Only the accounting is batched, flushed once by
    /// multiplying the pre-rounded per-iteration totals — bit-identical
    /// to per-iteration crediting because each summand already carries
    /// `Clock::tick`'s rounding.
    ///
    /// Returns the number of iterations executed (≥ 1; the caller
    /// checked fuel covers one), or `None` without touching any state
    /// when the block is not charge-free — the caller then executes it
    /// through [`exec_block`](Self::exec_block). The caller re-validates
    /// the exit PC.
    fn exec_block_spin(&mut self, block: &DecodedBlock, left: &mut u64) -> Option<u64> {
        let Some(fc) = self.fetch_frame else {
            unreachable!("spin is entered from a validated lane");
        };
        let va_page = fc.va_page;
        if block.insts.iter().any(|bi| bi.new_line)
            || self.icache.line_index(fc.pa_page | block.insts[0].off as u64) != fc.line
        {
            return None;
        }
        let start = self.pc.as_u64();
        let mut pc = start;
        let mut fuel = *left;
        let n = block.insts.len() as u64;
        let mut iters = 0u64;
        let mut lr = self.regs;
        let take = |b: &SpinBranch, cond: bool| -> u64 {
            if cond {
                (va_page as i64 + b.taken) as u64
            } else {
                va_page + b.next as u64
            }
        };
        loop {
            for op in &block.spin {
                match *op {
                    SpinOp::AddImm { rd, rs1, imm } => {
                        lr[rd as usize & 31] = lr[rs1 as usize & 31].wrapping_add(imm);
                    }
                    SpinOp::Add { rd, rs1, rs2 } => {
                        lr[rd as usize & 31] =
                            lr[rs1 as usize & 31].wrapping_add(lr[rs2 as usize & 31]);
                    }
                    SpinOp::Alu { op, rd, rs1, rs2 } => {
                        lr[rd as usize & 31] =
                            op.eval(lr[rs1 as usize & 31], lr[rs2 as usize & 31]);
                    }
                    SpinOp::AluImm { op, rd, rs1, imm } => {
                        lr[rd as usize & 31] = op.eval(lr[rs1 as usize & 31], imm);
                    }
                    SpinOp::Li { rd, imm } => {
                        lr[rd as usize & 31] = imm;
                    }
                    SpinOp::Beq(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] == lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Bne(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] != lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Blt(ref b) => {
                        pc = take(
                            b,
                            (lr[b.rs1 as usize & 31] as i64) < (lr[b.rs2 as usize & 31] as i64),
                        );
                    }
                    SpinOp::Bge(ref b) => {
                        pc = take(
                            b,
                            (lr[b.rs1 as usize & 31] as i64)
                                >= (lr[b.rs2 as usize & 31] as i64),
                        );
                    }
                    SpinOp::Bltu(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] < lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Bgeu(ref b) => {
                        pc = take(b, lr[b.rs1 as usize & 31] >= lr[b.rs2 as usize & 31]);
                    }
                    SpinOp::Jal { rd, taken, next } => {
                        lr[rd as usize & 31] = va_page + next as u64;
                        pc = (va_page as i64 + taken) as u64;
                    }
                    SpinOp::Jmp { taken } => {
                        pc = (va_page as i64 + taken) as u64;
                    }
                    SpinOp::Jalr { rd, rs1, off, next } => {
                        let dest = lr[rs1 as usize & 31].wrapping_add(off);
                        lr[rd as usize & 31] = va_page + next as u64;
                        lr[0] = 0;
                        pc = dest;
                    }
                    SpinOp::Ret => {
                        pc = lr[abi::RA.index()];
                    }
                    SpinOp::Nop => {}
                }
            }
            iters += 1;
            fuel -= n;
            if pc != start || fuel < n {
                break;
            }
        }
        self.regs = lr;
        self.pc = VirtAddr(pc);
        *left = fuel;
        self.counters.instructions += iters * n;
        self.clock
            .credit(iters * block.total_cycles, Picos(iters * block.total_picos));
        Some(iters)
    }
}

fn rel_of(t: Target) -> i64 {
    match t {
        Target::Rel(d) => d,
        // Labels/symbols never reach execution: encoders resolve labels
        // and the linker resolves symbols.
        Target::Label(_) | Target::Symbol(_) => {
            unreachable!("unresolved target reached execution")
        }
    }
}

fn mask(n: u64) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (n * 8)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_isa::{FuncBuilder, TargetIsa};
    use flick_paging::{flags, AddressSpace, BumpFrameAlloc};

    /// Builds a machine-less test fixture: physical memory, page tables
    /// identity-mapping the low 16 MiB, and a core of the given side.
    struct Fixture {
        mem: PhysMem,
        env: MemEnv,
        core: Core,
        aspace: AddressSpace,
    }

    fn fixture(cfg: CoreConfig) -> Fixture {
        let mut mem = PhysMem::new();
        let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x200_0000));
        let mut aspace = AddressSpace::new(&mut mem, &mut alloc);
        // Identity-map low 16 MiB with 4 KiB pages (so per-page
        // mprotect works), writable, executable (NX clear).
        aspace
            .map_range(
                &mut mem,
                &mut alloc,
                VirtAddr(0),
                PhysAddr(0),
                16 << 20,
                flags::PRESENT | flags::WRITABLE | flags::USER,
            )
            .unwrap();
        let mut core = Core::new(cfg);
        core.set_cr3(aspace.cr3());
        Fixture {
            mem,
            env: MemEnv::paper_default(),
            core,
            aspace,
        }
    }

    fn load_host_prog(fx: &mut Fixture, build: impl FnOnce(&mut FuncBuilder)) {
        let mut f = FuncBuilder::new("main", TargetIsa::Host);
        build(&mut f);
        let enc = Isa::X64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
    }

    #[test]
    fn arithmetic_program_runs() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A0, 6);
            f.li(abi::A1, 7);
            f.mul(abi::A0, abi::A0, abi::A1);
            f.halt();
        });
        let stop = fx.core.run(&mut fx.mem, &fx.env, 100);
        assert_eq!(stop, StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 42);
        assert_eq!(fx.core.stats().get("instructions"), 4);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x50_0000);
            f.li(abi::A0, 0xDEAD_BEEF);
            f.st(abi::A0, abi::A1, 8, MemSize::B8);
            f.ld(abi::A2, abi::A1, 8, MemSize::B4);
            f.halt();
        });
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A2), 0xDEAD_BEEF);
        assert_eq!(fx.mem.read_u64(PhysAddr(0x50_0008)), 0xDEAD_BEEF);
    }

    #[test]
    fn call_and_return() {
        // main calls f, f returns 5.
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("f");
        main.halt();
        let mut f = FuncBuilder::new("f", TargetIsa::Host);
        f.li(abi::A0, 5);
        f.ret();
        let obj = flick_toolchain_compile(vec![main.finish(), f.finish()]);
        let mut fx = fixture(CoreConfig::host());
        fx.mem.write_bytes(PhysAddr(0x40_0000), &obj);
        fx.core.set_pc(VirtAddr(0x40_0000));
        fx.core.set_reg(abi::SP, 0xF0_0000);
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 5);
    }

    /// Minimal "link": encode funcs back to back at 0x40_0000 with
    /// rel32 call patching (avoids a dev-dependency cycle on the real
    /// toolchain crate).
    fn flick_toolchain_compile(funcs: Vec<flick_isa::Func>) -> Vec<u8> {
        let mut offsets = std::collections::HashMap::new();
        let mut bytes = Vec::new();
        let mut encs = Vec::new();
        for f in &funcs {
            let enc = Isa::X64.encode(f).unwrap();
            offsets.insert(f.name.clone(), bytes.len() as u32);
            bytes.extend_from_slice(&enc.bytes);
            encs.push(enc);
        }
        let mut cursor = 0usize;
        for (f, enc) in funcs.iter().zip(&encs) {
            for r in &enc.relocs {
                let target = offsets[f.symbol_name(
                    // find index by name
                    f.symbols.iter().position(|s| *s == r.symbol).unwrap() as u32,
                )];
                let disp = target as i64 - (cursor as i64 + r.inst_start as i64);
                let at = cursor + r.field_at as usize;
                bytes[at..at + 4].copy_from_slice(&(disp as i32).to_le_bytes());
            }
            cursor += enc.bytes.len();
        }
        bytes
    }

    #[test]
    fn ecall_stops_and_resumes() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A0, 1);
            f.ecall(9);
            f.addi(abi::A0, abi::A0, 1);
            f.halt();
        });
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Ecall(9));
        // Kernel "handles" the call, e.g. doubling a0.
        let v = fx.core.reg(abi::A0);
        fx.core.set_reg(abi::A0, v * 10);
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 11);
    }

    #[test]
    fn host_nx_fetch_faults_with_target_address() {
        let mut fx = fixture(CoreConfig::host());
        // Map an NX page at 0x80_0000 (the "NxP function" page).
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x80_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.flush_tlbs();
        load_host_prog(&mut fx, |f| {
            f.li(abi::T0, 0x80_0000);
            f.call_reg(abi::T0);
            f.halt();
        });
        fx.core.set_reg(abi::SP, 0xF0_0000);
        let stop = fx.core.run(&mut fx.mem, &fx.env, 100);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x80_0000),
                kind: InstFaultKind::NxViolation,
            })
        );
        // The return address was linked before the fault: the hijack
        // point the kernel relies on.
        assert_ne!(fx.core.reg(abi::RA), 0);
    }

    #[test]
    fn nxp_fetch_from_host_page_faults_isa_mismatch() {
        let mut fx = fixture(CoreConfig::nxp());
        // All pages have NX clear → any fetch is an ISA mismatch for
        // the NxP (inverted convention).
        fx.core.set_pc(VirtAddr(0x40_0000));
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x40_0000),
                kind: InstFaultKind::IsaMismatch,
            })
        );
    }

    #[test]
    fn nxp_runs_code_from_nx_page() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.flush_tlbs();
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A0, 3);
        f.addi(abi::A0, abi::A0, 4);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 7);
    }

    #[test]
    fn emulator_core_runs_nx_pages_and_bounces_off_host_text() {
        // The degraded-mode interpreter accepts NX-set (NxP) text...
        let mut fx = fixture(CoreConfig::host_emulator());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.flush_tlbs();
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A0, 21);
        f.addi(abi::A0, abi::A0, 21);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 42);
        // ...and faults with IsaMismatch on NX-clear (host) pages, the
        // signal that hands control back to the native host core.
        fx.core.set_pc(VirtAddr(0x50_0000));
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x50_0000),
                kind: InstFaultKind::IsaMismatch,
            })
        );
    }

    #[test]
    fn nxp_misaligned_fetch_faults() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.set_pc(VirtAddr(0x40_0004)); // NX page, but odd entry
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x40_0004),
                kind: InstFaultKind::Misaligned,
            })
        );
    }

    #[test]
    fn nxp_illegal_decode_faults() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        // Write x64-looking bytes (opcode 0xBA) at an aligned address.
        fx.mem.write_bytes(PhysAddr(0x40_0000), &[0xBA; 16]);
        fx.core.set_pc(VirtAddr(0x40_0000));
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::InstFault {
                va: VirtAddr(0x40_0000),
                kind: InstFaultKind::Illegal,
            })
        );
    }

    #[test]
    fn unmapped_data_access_faults() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x7000_0000_0000u64 as i64);
            f.ld(abi::A0, abi::A1, 0, MemSize::B8);
            f.halt();
        });
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::DataFault {
                va: VirtAddr(0x7000_0000_0000),
                write: false,
            })
        );
    }

    /// A leaf PTE, a table pointer or a fetch target may name physical
    /// space no bus target decodes; each must raise a typed fault (with
    /// nothing charged for the dead access) on every engine, never
    /// abort the simulator.
    #[test]
    fn unmapped_physical_targets_fault_on_every_engine() {
        const DANGLING: u64 = 0x4000_0000_0000; // leaf -> unmapped PA
        const TORN: u64 = 0x5000_0000_0000; // PML4 entry -> unmapped table
        for fast_path in [true, false] {
            let mut cfg = CoreConfig::host();
            cfg.fast_path = fast_path;
            let mut fx = fixture(cfg);
            let mut alloc = BumpFrameAlloc::new(PhysAddr(0x180_0000), PhysAddr(0x200_0000));
            fx.aspace
                .map(
                    &mut fx.mem,
                    &mut alloc,
                    VirtAddr(DANGLING),
                    PhysAddr(0x2_0000_0000),
                    flick_paging::PageSize::Size4K,
                    flags::PRESENT | flags::WRITABLE | flags::USER,
                )
                .unwrap();
            let pml4_slot = fx.aspace.cr3() + VirtAddr(TORN).pt_index(3) as u64 * 8;
            fx.mem
                .write_u64(pml4_slot, 0x3_0000_0000 | flags::PRESENT | flags::WRITABLE);
            let env = MemEnv::paper_default();
            let data = |fx: &mut Fixture, va: u64, store: bool| {
                load_host_prog(fx, |f| {
                    f.li(abi::A1, va as i64);
                    if store {
                        f.st(abi::A0, abi::A1, 8, MemSize::B8);
                    } else {
                        f.ld(abi::A0, abi::A1, 8, MemSize::B8);
                    }
                    f.halt();
                });
                fx.core.run(&mut fx.mem, &env, 10)
            };
            for va in [DANGLING, TORN] {
                for write in [false, true] {
                    assert_eq!(
                        data(&mut fx, va, write),
                        StopReason::Fault(Exception::DataFault {
                            va: VirtAddr(va + 8),
                            // Walk faults report a read, as for any
                            // not-present entry.
                            write: write && va == DANGLING,
                        }),
                        "fast_path {fast_path}: data at {va:#x}"
                    );
                }
                fx.core.set_pc(VirtAddr(va));
                assert_eq!(
                    fx.core.run(&mut fx.mem, &env, 10),
                    StopReason::Fault(Exception::InstFault {
                        va: VirtAddr(va),
                        kind: InstFaultKind::NotPresent,
                    }),
                    "fast_path {fast_path}: fetch at {va:#x}"
                );
            }
        }
    }

    #[test]
    fn write_to_readonly_page_faults() {
        let mut fx = fixture(CoreConfig::host());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x60_0000), 0x1000, 0, flags::WRITABLE)
            .unwrap();
        fx.core.flush_tlbs();
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x60_0000);
            f.st(abi::A0, abi::A1, 0, MemSize::B8);
            f.halt();
        });
        let stop = fx.core.run(&mut fx.mem, &fx.env, 10);
        assert_eq!(
            stop,
            StopReason::Fault(Exception::DataFault {
                va: VirtAddr(0x60_0000),
                write: true,
            })
        );
    }

    #[test]
    fn nxp_time_advances_slower_core() {
        let mut host_fx = fixture(CoreConfig::host());
        let mut nxp_fx = fixture(CoreConfig::nxp());
        // Same logical program for both ISAs.
        let prog = |target| {
            let mut f = FuncBuilder::new("m", target);
            for _ in 0..100 {
                f.addi(abi::A0, abi::A0, 1);
            }
            f.halt();
            f.finish()
        };
        let x = Isa::X64.encode(&prog(TargetIsa::Host)).unwrap();
        host_fx.mem.write_bytes(PhysAddr(0x40_0000), &x.bytes);
        host_fx.core.set_pc(VirtAddr(0x40_0000));
        host_fx.core.run(&mut host_fx.mem, &host_fx.env, 1000);

        let rv = Isa::Rv64.encode(&prog(TargetIsa::Nxp)).unwrap();
        nxp_fx
            .aspace
            .protect(&mut nxp_fx.mem, VirtAddr(0x40_0000), 0x2000, flags::NX, 0)
            .unwrap();
        nxp_fx.mem.write_bytes(PhysAddr(0x40_0000), &rv.bytes);
        nxp_fx.core.set_pc(VirtAddr(0x40_0000));
        nxp_fx.core.run(&mut nxp_fx.mem, &nxp_fx.env, 1000);

        assert_eq!(host_fx.core.reg(abi::A0), 100);
        assert_eq!(nxp_fx.core.reg(abi::A0), 100);
        assert!(
            nxp_fx.core.clock().now() > host_fx.core.clock().now() * 5,
            "200 MHz in-order core must be much slower: {} vs {}",
            nxp_fx.core.clock().now(),
            host_fx.core.clock().now()
        );
    }

    #[test]
    fn tlb_miss_charges_walk_latency() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A1, 0x50_0000);
        f.ld(abi::A0, abi::A1, 0, MemSize::B8);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        fx.core.run(&mut fx.mem, &fx.env, 100);
        // One I-TLB miss + one D-TLB miss, each a 3-level walk (2 MiB
        // pages) over PCIe at 850ns/level plus firmware overhead.
        assert_eq!(fx.core.stats().get("itlb_misses"), 1);
        assert_eq!(fx.core.stats().get("dtlb_misses"), 1);
        let wall = fx.core.clock().now();
        assert!(
            wall > Picos::from_nanos(2 * (3 * 850 + 150)),
            "walks dominate: {wall}"
        );
    }

    #[test]
    fn mmu_hole_bypasses_walk() {
        let mut fx = fixture(CoreConfig::nxp());
        fx.aspace
            .protect(&mut fx.mem, VirtAddr(0x40_0000), 0x1000, flags::NX, 0)
            .unwrap();
        fx.core.add_hole(MmuHole {
            va_base: VirtAddr(0x9000_0000_0000),
            size: 1 << 20,
            pa_base: PhysAddr(0x9000_0000), // NxP SRAM via BAR1
            executable: false,
        });
        let mut f = FuncBuilder::new("w", TargetIsa::Nxp);
        f.li(abi::A1, 0x9000_0000_0000u64 as i64);
        f.li(abi::A0, 77);
        f.st(abi::A0, abi::A1, 0, MemSize::B8);
        f.ld(abi::A2, abi::A1, 0, MemSize::B8);
        f.halt();
        let enc = Isa::Rv64.encode(&f.finish()).unwrap();
        fx.mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
        fx.core.set_pc(VirtAddr(0x40_0000));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 100), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A2), 77);
        assert_eq!(fx.core.stats().get("dtlb_misses"), 0, "hole bypasses TLB");
    }

    #[test]
    fn context_save_restore_round_trips() {
        let mut core = Core::new(CoreConfig::host());
        core.set_reg(abi::A0, 123);
        core.set_pc(VirtAddr(0x1000));
        let ctx = core.save_context();
        core.set_reg(abi::A0, 0);
        core.set_pc(VirtAddr::NULL);
        core.restore_context(&ctx);
        assert_eq!(core.reg(abi::A0), 123);
        assert_eq!(core.pc(), VirtAddr(0x1000));
    }

    #[test]
    fn zero_register_is_hardwired() {
        let mut core = Core::new(CoreConfig::nxp());
        core.set_reg(abi::ZERO, 999);
        assert_eq!(core.reg(abi::ZERO), 0);
    }

    #[test]
    fn page_spanning_host_instruction_decodes() {
        let mut fx = fixture(CoreConfig::host());
        // Place a 10-byte `li` so it straddles a page boundary.
        let mut f = FuncBuilder::new("m", TargetIsa::Host);
        f.li(abi::A0, 0x0102_0304_0506_0708);
        f.halt();
        let enc = Isa::X64.encode(&f.finish()).unwrap();
        let start = 0x40_1000 - 4; // 10-byte inst crosses into next page
        fx.mem.write_bytes(PhysAddr(start), &enc.bytes);
        fx.core.set_pc(VirtAddr(start));
        assert_eq!(fx.core.run(&mut fx.mem, &fx.env, 10), StopReason::Halt);
        assert_eq!(fx.core.reg(abi::A0), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cr3_switch_flushes_tlbs() {
        let mut fx = fixture(CoreConfig::host());
        load_host_prog(&mut fx, |f| {
            f.li(abi::A1, 0x50_0000);
            f.ld(abi::A0, abi::A1, 0, MemSize::B8);
            f.halt();
        });
        fx.core.run(&mut fx.mem, &fx.env, 100);
        let misses_before = fx.core.dtlb_misses();
        let cr3 = fx.core.cr3();
        fx.core.set_cr3(cr3); // reload same root — still flushes
        fx.core.set_pc(VirtAddr(0x40_0000));
        fx.core.run(&mut fx.mem, &fx.env, 100);
        assert!(fx.core.dtlb_misses() > misses_before);
    }
}
