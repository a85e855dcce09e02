//! The kernel: frame allocation, process loading, user-memory access,
//! heaps, NxP stack allocation, and the Flick redirect hook.

use crate::task::{TaskState, TaskStruct};
use crate::timing::OsTiming;
use flick_cpu::Core;
use flick_mem::{PhysAddr, PhysMem, SystemMap, VirtAddr, PAGE_SIZE};
use flick_paging::{flags, walk, AddressSpace, BumpFrameAlloc, MapError, PageSize};
use flick_toolchain::layout::NXP_STACK_SLOT;
use flick_toolchain::layout;
use flick_toolchain::{MultiIsaImage, Placement, SegmentKind};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Task-table errors: the caller named a task the kernel does not have
/// (or one in the wrong state). These are reachable from any public API
/// that takes a pid, so they are typed errors, not panics — the machine
/// surfaces them as `RunError`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// No task with this pid exists.
    NoSuchTask(u64),
    /// A wake was requested for a task not in migration wait.
    SpuriousWake(u64),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchTask(pid) => write!(f, "no task with pid {pid}"),
            KernelError::SpuriousWake(pid) => {
                write!(f, "task {pid} woken while not in migration wait")
            }
        }
    }
}

impl Error for KernelError {}

/// Errors while loading a multi-ISA executable or servicing a process's
/// memory requests. The resource-exhaustion and bad-pointer variants
/// are *guest-reachable*: a user program can trigger them with a large
/// enough allocation or a wild pointer, so they surface as errors
/// rather than simulator panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// Page-table manipulation failed.
    Map(MapError),
    /// An NxP-placed segment lies outside the NxP DRAM window.
    SegmentOutsideWindow(String),
    /// A host-placed segment overlaps a reserved region.
    BadSegment(String),
    /// A user-supplied pointer touched unmapped memory
    /// (`copy_from_user`/`copy_to_user` would have returned `-EFAULT`).
    UserFault(VirtAddr),
    /// The NxP SRAM stack window has no free slots left.
    NxpSramExhausted,
    /// The per-process NxP DRAM heap window is exhausted.
    NxpDramExhausted,
    /// The request named a task that does not exist.
    NoSuchTask(u64),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Map(e) => write!(f, "mapping failed: {e}"),
            LoadError::SegmentOutsideWindow(s) => {
                write!(f, "segment `{s}` outside the NxP window")
            }
            LoadError::BadSegment(s) => write!(f, "segment `{s}` not loadable"),
            LoadError::UserFault(va) => {
                write!(f, "user pointer {:#x} touches unmapped memory", va.as_u64())
            }
            LoadError::NxpSramExhausted => write!(f, "NxP stack SRAM exhausted"),
            LoadError::NxpDramExhausted => write!(f, "NxP DRAM heap exhausted"),
            LoadError::NoSuchTask(pid) => write!(f, "no task with pid {pid}"),
        }
    }
}

impl Error for LoadError {}

impl From<MapError> for LoadError {
    fn from(e: MapError) -> Self {
        LoadError::Map(e)
    }
}

impl From<KernelError> for LoadError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::NoSuchTask(pid) | KernelError::SpuriousWake(pid) => {
                LoadError::NoSuchTask(pid)
            }
        }
    }
}

/// Kernel build-time options (ablation knobs for the bench harness).
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Kernel path timing.
    pub timing: OsTiming,
    /// Page size used to map the 4 GiB NxP DRAM window. The paper uses
    /// 1 GiB pages so four TLB entries cover the window (§V); the
    /// hugepage ablation maps it with 2 MiB pages instead and watches
    /// the NxP TLB thrash.
    pub nxp_window_page: PageSize,
    /// Ablation: allocate NxP stacks from *host* DRAM instead of the
    /// on-chip SRAM, making every NxP stack access cross PCIe
    /// (questioning the §III-D local-stack design point).
    pub stacks_in_host_dram: bool,
    /// Bytes of host stack mapped per process, clamped to
    /// `[PAGE_SIZE, HOST_STACK_SIZE]` and rounded up to a page. The
    /// default maps the full 8 MiB window; multi-tenant serving
    /// scenarios shrink it (their request `main`s use a few KiB) so
    /// hundreds of processes fit the user-frame pool.
    pub host_stack_bytes: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            timing: OsTiming::paper_default(),
            nxp_window_page: PageSize::Size1G,
            stacks_in_host_dram: false,
            host_stack_bytes: layout::HOST_STACK_SIZE,
        }
    }
}

/// The simulated kernel.
///
/// Owns physical-frame allocators, the task table and the console; the
/// Flick machine (in the `flick` crate) drives it from trap events.
pub struct Kernel {
    map: SystemMap,
    config: KernelConfig,
    /// Frames for page tables and kernel structures: [64 MiB, 256 MiB).
    pt_frames: BumpFrameAlloc,
    /// Frames for user pages: [256 MiB, 2 GiB).
    user_frames: BumpFrameAlloc,
    /// Next NxP SRAM stack slot.
    next_stack_slot: u64,
    /// Task table keyed by pid. Pids are allocated in increasing
    /// order, so key order is creation order.
    tasks: BTreeMap<u64, TaskStruct>,
    next_pid: u64,
    console: Vec<String>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

impl Kernel {
    /// Boots a kernel over the default system map.
    pub fn new(_mem: &mut PhysMem) -> Self {
        Kernel::with_config(SystemMap::paper_default(), KernelConfig::default())
    }

    /// Boots with an explicit map and timing model.
    pub fn with_map(map: SystemMap, timing: OsTiming) -> Self {
        Kernel::with_config(
            map,
            KernelConfig {
                timing,
                ..KernelConfig::default()
            },
        )
    }

    /// Boots with full configuration (ablation knobs included).
    pub fn with_config(map: SystemMap, config: KernelConfig) -> Self {
        Kernel {
            map,
            config,
            pt_frames: BumpFrameAlloc::new(PhysAddr(64 << 20), PhysAddr(256 << 20)),
            user_frames: BumpFrameAlloc::new(PhysAddr(256 << 20), PhysAddr(2 << 30)),
            next_stack_slot: 0,
            tasks: BTreeMap::new(),
            next_pid: 1,
            console: Vec::new(),
        }
    }

    /// Kernel path timing.
    pub fn timing(&self) -> &OsTiming {
        &self.config.timing
    }

    /// The system memory map.
    pub fn map(&self) -> &SystemMap {
        &self.map
    }

    /// Number of tasks in the table (reaped tasks are gone from it).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// All tasks in creation order — the fleet-level census view used
    /// to audit the exactly-once invariant (every spawned thread is
    /// live in exactly one state or has exited).
    pub fn tasks(&self) -> impl Iterator<Item = &TaskStruct> {
        self.tasks.values()
    }

    /// Looks up a task.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if `pid` does not exist — reachable
    /// from any caller-supplied pid, so a typed error, not a panic.
    pub fn task(&self, pid: u64) -> Result<&TaskStruct, KernelError> {
        self.tasks.get(&pid).ok_or(KernelError::NoSuchTask(pid))
    }

    /// Mutable task lookup.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if `pid` does not exist.
    pub fn task_mut(&mut self, pid: u64) -> Result<&mut TaskStruct, KernelError> {
        self.tasks.get_mut(&pid).ok_or(KernelError::NoSuchTask(pid))
    }

    /// Console lines printed by user programs.
    pub fn console(&self) -> &[String] {
        &self.console
    }

    /// Appends a console line.
    pub fn console_push(&mut self, line: String) {
        self.console.push(line);
    }

    /// Loads a multi-ISA image, creating the process address space per
    /// §III-D / §IV-C3:
    ///
    /// * host-placed segments get fresh host-DRAM frames;
    /// * `.text.riscv` pages are marked **NX via the extended
    ///   `mprotect`** after mapping;
    /// * NxP-placed segments are copied straight into NxP DRAM through
    ///   BAR0, covered by four 1 GiB huge-page mappings (the four-TLB-
    ///   entries trick of §V);
    /// * the SRAM stack window and descriptor pages are mapped.
    ///
    /// Returns the new PID.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] for malformed images.
    pub fn create_process(
        &mut self,
        mem: &mut PhysMem,
        image: &MultiIsaImage,
    ) -> Result<u64, LoadError> {
        let mut aspace = AddressSpace::new(mem, &mut self.pt_frames);

        // 1. NxP DRAM window: four 1 GiB pages by default (the §V
        //    four-TLB-entry trick), or smaller pages under ablation.
        let bar0 = self.map.nxp_dram_host_base();
        let page = self.config.nxp_window_page;
        let n_pages = layout::NXP_WINDOW_SIZE / page.bytes();
        for i in 0..n_pages {
            aspace.map(
                mem,
                &mut self.pt_frames,
                VirtAddr(layout::NXP_WINDOW_VA + i * page.bytes()),
                bar0 + i * page.bytes(),
                page,
                flags::PRESENT | flags::WRITABLE | flags::USER | flags::NX,
            )?;
        }

        // 2. NxP stack SRAM window (4 KiB pages so per-thread slots
        //    could be protected individually).
        aspace.map_range(
            mem,
            &mut self.pt_frames,
            VirtAddr(layout::NXP_STACK_VA),
            self.map.nxp_sram_host_base(),
            layout::NXP_STACK_SIZE,
            flags::PRESENT | flags::WRITABLE | flags::USER | flags::NX,
        )?;

        // 3. Host descriptor page.
        let desc_frame = self.user_frames.alloc_frame();
        mem.fill(desc_frame, PAGE_SIZE, 0);
        aspace.map(
            mem,
            &mut self.pt_frames,
            VirtAddr(layout::DESC_PAGE_VA),
            desc_frame,
            PageSize::Size4K,
            flags::PRESENT | flags::WRITABLE | flags::USER | flags::NX,
        )?;

        // 4. Host stack: only the configured top slice of the 8 MiB
        //    window is backed by frames (the stack grows down from
        //    HOST_STACK_TOP, so the mapped slice is the hot one).
        let stack_bytes = self
            .config
            .host_stack_bytes
            .clamp(PAGE_SIZE, layout::HOST_STACK_SIZE)
            .next_multiple_of(PAGE_SIZE);
        let stack_base = layout::HOST_STACK_TOP - stack_bytes;
        let stack_frames = self.user_frames.alloc_contiguous(stack_bytes / PAGE_SIZE);
        aspace.map_range(
            mem,
            &mut self.pt_frames,
            VirtAddr(stack_base),
            stack_frames,
            stack_bytes,
            flags::PRESENT | flags::WRITABLE | flags::USER | flags::NX,
        )?;

        // 5. Image segments.
        let mut nxp_brk = VirtAddr(layout::NXP_WINDOW_VA);
        for seg in &image.segments {
            match seg.placement {
                Placement::HostDram => {
                    let pages = seg.size.div_ceil(PAGE_SIZE);
                    let frames = self.user_frames.alloc_contiguous(pages);
                    mem.fill(frames, pages * PAGE_SIZE, 0);
                    mem.write_bytes(frames, &seg.bytes);
                    let fl = match seg.kind {
                        SegmentKind::Text(_) => flags::PRESENT | flags::USER,
                        SegmentKind::Data | SegmentKind::Bss => {
                            flags::PRESENT | flags::USER | flags::WRITABLE | flags::NX
                        }
                    };
                    aspace.map_range(
                        mem,
                        &mut self.pt_frames,
                        VirtAddr(seg.va),
                        frames,
                        pages * PAGE_SIZE,
                        fl,
                    )?;
                    if seg.is_nxp_text() {
                        // The extended mprotect() of §IV-C3: NX plus the
                        // text ISA's tag, so N-way fleets can tell whose
                        // accelerator code a page holds.
                        let isa = seg.text_isa().expect("nxp text segment has an ISA");
                        aspace.protect(
                            mem,
                            VirtAddr(seg.va),
                            seg.size,
                            flags::NX | flags::isa_tag_bits(isa.tag() + 1),
                            0,
                        )?;
                    }
                }
                Placement::NxpDram => {
                    if seg.va < layout::NXP_WINDOW_VA
                        || seg.va + seg.size > layout::NXP_WINDOW_VA + layout::NXP_WINDOW_SIZE
                    {
                        return Err(LoadError::SegmentOutsideWindow(seg.name.clone()));
                    }
                    let phys = bar0 + (seg.va - layout::NXP_WINDOW_VA);
                    mem.fill(phys, seg.size, 0);
                    mem.write_bytes(phys, &seg.bytes);
                    nxp_brk = nxp_brk.max(VirtAddr(seg.va + seg.size).page_align_up());
                }
            }
        }

        let pid = self.next_pid;
        self.next_pid += 1;
        let mut task = TaskStruct::new(pid, aspace.cr3());
        task.context.pc = VirtAddr(image.entry);
        task.context.regs[flick_isa::abi::SP.index()] = layout::HOST_STACK_TOP - 64;
        task.nxp_brk = if nxp_brk.as_u64() == layout::NXP_WINDOW_VA {
            VirtAddr(layout::NXP_WINDOW_VA)
        } else {
            nxp_brk
        };
        self.tasks.insert(pid, task);
        Ok(pid)
    }

    /// Spawns a task into an *existing* process: clones the prototype
    /// `task_struct` (same CR3, same heap cursors, same NxP stack slot)
    /// under a fresh pid, runnable at the image entry point. This is
    /// the serving scenario's cheap per-request spawn — the address
    /// space, page tables and staged data are loaded once per tenant,
    /// and each request reuses them. Callers must serialize tasks that
    /// share a prototype: the clone shares the host stack, descriptor
    /// page and NxP SRAM slot, so at most one may run at a time.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if `proto_pid` does not exist.
    pub fn spawn_task(&mut self, proto_pid: u64) -> Result<u64, KernelError> {
        let mut t = self.task(proto_pid)?.clone();
        let pid = self.next_pid;
        self.next_pid += 1;
        t.pid = pid;
        t.state = TaskState::Runnable;
        t.fault_va = None;
        t.migration_flag = false;
        t.deadline = None;
        t.degraded = false;
        t.ready_at = flick_sim::Picos::ZERO;
        t.exit_code = 0;
        self.tasks.insert(pid, t);
        Ok(pid)
    }

    /// Removes a zombie task from the table. Long-running serving loops
    /// reap finished request tasks so the table holds live tasks, not
    /// every request ever served. The process's memory is untouched —
    /// it belongs to the prototype task's address space.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if `pid` does not exist.
    pub fn reap_task(&mut self, pid: u64) -> Result<(), KernelError> {
        self.tasks
            .remove(&pid)
            .map(drop)
            .ok_or(KernelError::NoSuchTask(pid))
    }

    /// The Flick hook: after an NX instruction fault, save the faulting
    /// target in the `task_struct` and hijack the return so the thread
    /// resumes in the user-space migration handler with the original
    /// call's argument registers intact (§IV-B1).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if `pid` does not exist.
    pub fn redirect_to_handler(
        &mut self,
        pid: u64,
        core: &mut Core,
        fault_va: VirtAddr,
        handler_va: VirtAddr,
    ) -> Result<(), KernelError> {
        let task = self.task_mut(pid)?;
        task.fault_va = Some(fault_va);
        core.set_pc(handler_va);
        Ok(())
    }

    /// Allocates this thread's NxP stack (an SRAM slot by default, a
    /// host-DRAM block under the stack ablation) and records the stack
    /// pointer in the `task_struct`.
    ///
    /// # Errors
    ///
    /// [`LoadError::NxpSramExhausted`] when no stack slots remain — a
    /// guest-reachable condition (spawn enough threads), so it is an
    /// error, not a panic.
    pub fn alloc_nxp_stack(&mut self, mem: &mut PhysMem, pid: u64) -> Result<VirtAddr, LoadError> {
        if self.config.stacks_in_host_dram {
            let base = self.alloc_host_heap(mem, pid, NXP_STACK_SLOT)?;
            let sp = VirtAddr(base.as_u64() + NXP_STACK_SLOT - 128);
            self.task_mut(pid)?.nxp_stack_ptr = sp;
            return Ok(sp);
        }
        // Keep the last page for the descriptor buffer.
        let usable = layout::NXP_STACK_SIZE - PAGE_SIZE;
        let slot = self.next_stack_slot;
        if (slot + 1) * NXP_STACK_SLOT > usable {
            return Err(LoadError::NxpSramExhausted);
        }
        self.next_stack_slot += 1;
        // Stack grows down from the top of the slot; keep a small
        // red zone below the top.
        let sp = VirtAddr(layout::NXP_STACK_VA + (slot + 1) * NXP_STACK_SLOT - 128);
        self.task_mut(pid)?.nxp_stack_ptr = sp;
        Ok(sp)
    }

    /// `brk`-style host-heap allocation: extends the mapping as needed
    /// and returns the block's VA (16-byte aligned).
    pub fn alloc_host_heap(
        &mut self,
        mem: &mut PhysMem,
        pid: u64,
        size: u64,
    ) -> Result<VirtAddr, LoadError> {
        let cr3 = self.task(pid)?.cr3;
        let brk = self.task(pid)?.host_brk;
        let base = VirtAddr((brk.as_u64() + 15) & !15);
        let new_brk = VirtAddr(base.as_u64() + size);
        // Map any pages in [page(old mapped end), page_end(new_brk)).
        let mut aspace = AddressSpace::from_cr3(cr3);
        let mut page = brk.page_align_up();
        // If brk is mid-page, that page is already mapped.
        while page < new_brk {
            let frame = self.user_frames.alloc_frame();
            mem.fill(frame, PAGE_SIZE, 0);
            aspace.map(
                mem,
                &mut self.pt_frames,
                page,
                frame,
                PageSize::Size4K,
                flags::PRESENT | flags::WRITABLE | flags::USER | flags::NX,
            )?;
            page += PAGE_SIZE;
        }
        self.task_mut(pid)?.host_brk = new_brk;
        Ok(base)
    }

    /// NxP-DRAM heap allocation: a pure bump (the window is premapped),
    /// which is the "separate memory allocator for each core's local
    /// memory" of §III-D.
    ///
    /// # Errors
    ///
    /// [`LoadError::NxpDramExhausted`] when the bump pointer would
    /// leave the window — reachable from the guest's `nxp_malloc`.
    pub fn alloc_nxp_heap(&mut self, pid: u64, size: u64) -> Result<VirtAddr, LoadError> {
        let task = self.task_mut(pid)?;
        let base = VirtAddr((task.nxp_brk.as_u64() + 15) & !15);
        match base.as_u64().checked_add(size) {
            Some(end) if end <= layout::NXP_WINDOW_VA + layout::NXP_WINDOW_SIZE => {
                task.nxp_brk = VirtAddr(end);
                Ok(base)
            }
            _ => Err(LoadError::NxpDramExhausted),
        }
    }

    /// Reads user memory through the task's page tables (kernel-style
    /// `copy_from_user`; no simulated-time charge).
    ///
    /// # Errors
    ///
    /// [`LoadError::UserFault`] if any byte of the range is unmapped —
    /// the kernel's `-EFAULT`, reachable from any guest-supplied
    /// pointer (e.g. `flick_print_str` with a wild address).
    pub fn read_user(
        &self,
        mem: &PhysMem,
        pid: u64,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), LoadError> {
        let cr3 = self.task(pid)?.cr3;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = VirtAddr(va.as_u64() + off as u64);
            let t = walk(|a| mem.read_u64(a), cr3, cur).map_err(|_| LoadError::UserFault(cur))?;
            let in_page = (t.page.bytes() - (cur.as_u64() & (t.page.bytes() - 1))) as usize;
            let n = in_page.min(buf.len() - off);
            mem.read_bytes(t.pa, &mut buf[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Writes user memory through the task's page tables
    /// (`copy_to_user`).
    ///
    /// # Errors
    ///
    /// [`LoadError::UserFault`] if any byte of the range is unmapped.
    pub fn write_user(
        &self,
        mem: &mut PhysMem,
        pid: u64,
        va: VirtAddr,
        buf: &[u8],
    ) -> Result<(), LoadError> {
        let cr3 = self.task(pid)?.cr3;
        let mut off = 0usize;
        while off < buf.len() {
            let cur = VirtAddr(va.as_u64() + off as u64);
            let t = walk(|a| mem.read_u64(a), cr3, cur).map_err(|_| LoadError::UserFault(cur))?;
            let in_page = (t.page.bytes() - (cur.as_u64() & (t.page.bytes() - 1))) as usize;
            let n = in_page.min(buf.len() - off);
            mem.write_bytes(t.pa, &buf[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Transitions a task into the suspended migration-wait state,
    /// saving its context and setting the migration flag (§IV-D).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if `pid` does not exist.
    pub fn suspend_for_migration(&mut self, pid: u64, core: &Core) -> Result<(), KernelError> {
        let ctx = core.save_context();
        let task = self.task_mut(pid)?;
        task.context = ctx;
        task.state = TaskState::MigrationWait;
        task.migration_flag = true;
        Ok(())
    }

    /// Wakes a task after a descriptor arrived: `MigrationWait` →
    /// `Runnable`. The scheduler restores its context when it is next
    /// installed on a core.
    ///
    /// # Errors
    ///
    /// [`KernelError::SpuriousWake`] if the task is not in migration
    /// wait; interrupt-driven callers that can legitimately race a
    /// duplicate MSI should use [`Kernel::try_wake_from_migration`]
    /// instead. [`KernelError::NoSuchTask`] for an unknown pid.
    pub fn wake_from_migration(&mut self, pid: u64) -> Result<(), KernelError> {
        if self.try_wake_from_migration(pid)? {
            Ok(())
        } else {
            Err(KernelError::SpuriousWake(pid))
        }
    }

    /// Non-erroring wake: returns `false` (and changes nothing) if the
    /// task is not in `MigrationWait` — a *spurious* wakeup, which a
    /// duplicated MSI produces legitimately. Clears the watchdog
    /// deadline on a real wake.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if `pid` does not exist.
    pub fn try_wake_from_migration(&mut self, pid: u64) -> Result<bool, KernelError> {
        let task = self.task_mut(pid)?;
        if task.state != TaskState::MigrationWait {
            return Ok(false);
        }
        task.state = TaskState::Runnable;
        task.migration_flag = false;
        task.deadline = None;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_cpu::{CoreConfig, MemEnv, StopReason};
    use flick_isa::{abi, FuncBuilder, TargetIsa};
    use flick_toolchain::{DataDef, ProgramBuilder};

    fn simple_image() -> MultiIsaImage {
        let mut p = ProgramBuilder::new("t");
        let mut m = FuncBuilder::new("main", TargetIsa::Host);
        m.li(abi::A0, 41);
        m.addi(abi::A0, abi::A0, 1);
        m.halt();
        p.func(m.finish());
        let mut w = FuncBuilder::new("nxp_fn", TargetIsa::Nxp);
        w.ret();
        p.func(w.finish());
        p.data(DataDef::new("hostvar", vec![7, 0, 0, 0, 0, 0, 0, 0]));
        p.data(
            DataDef::new("nxpvar", vec![9u8; 8])
                .placed(flick_toolchain::Placement::NxpDram),
        );
        p.build().unwrap()
    }

    #[test]
    fn loads_and_runs_to_halt() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        let mut core = Core::new(CoreConfig::host());
        let env = MemEnv::paper_default();
        let task = kernel.task(pid).unwrap();
        core.set_cr3(task.cr3);
        core.restore_context(&task.context);
        assert_eq!(core.run(&mut mem, &env, 1000), StopReason::Halt);
        assert_eq!(core.reg(abi::A0), 42);
    }

    #[test]
    fn host_fetch_of_nxp_text_nx_faults() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let mut p = ProgramBuilder::new("t");
        let mut m = FuncBuilder::new("main", TargetIsa::Host);
        m.call("nxp_fn");
        m.halt();
        p.func(m.finish());
        let mut w = FuncBuilder::new("nxp_fn", TargetIsa::Nxp);
        w.ret();
        p.func(w.finish());
        let image = p.build().unwrap();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        let mut core = Core::new(CoreConfig::host());
        let env = MemEnv::paper_default();
        core.set_cr3(kernel.task(pid).unwrap().cr3);
        core.restore_context(&kernel.task(pid).unwrap().context);
        let stop = core.run(&mut mem, &env, 1000);
        let nxp_fn = image.find_symbol("nxp_fn").unwrap();
        assert_eq!(
            stop,
            StopReason::Fault(flick_cpu::Exception::InstFault {
                va: VirtAddr(nxp_fn),
                kind: flick_cpu::InstFaultKind::NxViolation,
            })
        );
    }

    #[test]
    fn data_in_both_regions_readable() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        let hostvar = image.find_symbol("hostvar").unwrap();
        let nxpvar = image.find_symbol("nxpvar").unwrap();
        let mut buf = [0u8; 8];
        kernel.read_user(&mem, pid, VirtAddr(hostvar), &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        kernel.read_user(&mem, pid, VirtAddr(nxpvar), &mut buf).unwrap();
        assert_eq!(buf, [9u8; 8]);
        assert!(nxpvar >= layout::NXP_WINDOW_VA);
    }

    #[test]
    fn nxp_data_lives_in_nxp_dram_phys() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        kernel.create_process(&mut mem, &image).unwrap();
        let nxpvar = image.find_symbol("nxpvar").unwrap();
        let bar0 = kernel.map().nxp_dram_host_base();
        let phys = bar0 + (nxpvar - layout::NXP_WINDOW_VA);
        assert_eq!(mem.read_u8(phys), 9);
    }

    #[test]
    fn heap_allocations_are_disjoint_and_mapped() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        let a = kernel.alloc_host_heap(&mut mem, pid, 100).unwrap();
        let b = kernel.alloc_host_heap(&mut mem, pid, 10_000).unwrap();
        assert!(b.as_u64() >= a.as_u64() + 100);
        kernel.write_user(&mut mem, pid, b, &[0xEE; 100]).unwrap();
        let mut buf = [0u8; 100];
        kernel.read_user(&mem, pid, b, &mut buf).unwrap();
        assert_eq!(buf, [0xEE; 100]);
    }

    #[test]
    fn nxp_heap_bumps_inside_window() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        let a = kernel.alloc_nxp_heap(pid, 64).unwrap();
        let b = kernel.alloc_nxp_heap(pid, 64).unwrap();
        assert!(a.as_u64() >= layout::NXP_WINDOW_VA);
        assert!(b.as_u64() >= a.as_u64() + 64);
    }

    #[test]
    fn nxp_stacks_get_distinct_slots() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let p1 = kernel.create_process(&mut mem, &image).unwrap();
        let p2 = kernel.create_process(&mut mem, &image).unwrap();
        let s1 = kernel.alloc_nxp_stack(&mut mem, p1).unwrap();
        let s2 = kernel.alloc_nxp_stack(&mut mem, p2).unwrap();
        assert_ne!(s1, s2);
        assert!(kernel.task(p1).unwrap().has_nxp_stack());
        assert_eq!(
            (s2 - s1),
            NXP_STACK_SLOT,
            "slots are consecutive 64 KiB regions"
        );
    }

    #[test]
    fn suspend_and_wake_round_trip() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        let mut core = Core::new(CoreConfig::host());
        core.set_reg(abi::A0, 55);
        core.set_pc(VirtAddr(0x1234));
        kernel.suspend_for_migration(pid, &core).unwrap();
        assert_eq!(kernel.task(pid).unwrap().state, TaskState::MigrationWait);
        assert!(kernel.task(pid).unwrap().migration_flag);
        kernel.wake_from_migration(pid).unwrap();
        assert_eq!(kernel.task(pid).unwrap().state, TaskState::Runnable);
        assert!(!kernel.task(pid).unwrap().migration_flag);
        // The saved context is what the scheduler will install.
        assert_eq!(kernel.task(pid).unwrap().context.regs[abi::A0.index()], 55);
        assert_eq!(kernel.task(pid).unwrap().context.pc, VirtAddr(0x1234));
    }

    #[test]
    fn redirect_saves_fault_va_and_hijacks_pc() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        let mut core = Core::new(CoreConfig::host());
        kernel
            .redirect_to_handler(pid, &mut core, VirtAddr(0xAAA000), VirtAddr(0x40_1000))
            .unwrap();
        assert_eq!(kernel.task(pid).unwrap().fault_va, Some(VirtAddr(0xAAA000)));
        assert_eq!(core.pc(), VirtAddr(0x40_1000));
    }

    #[test]
    fn unknown_pid_is_a_typed_error_everywhere() {
        // Regression for the old `panic!("no task {pid}")`: every
        // pid-taking entry point must surface NoSuchTask instead.
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        assert_eq!(kernel.task(42).err(), Some(KernelError::NoSuchTask(42)));
        assert_eq!(kernel.task_mut(42).err(), Some(KernelError::NoSuchTask(42)));
        let mut buf = [0u8; 4];
        assert_eq!(
            kernel.read_user(&mem, 42, VirtAddr(0x1000), &mut buf),
            Err(LoadError::NoSuchTask(42))
        );
        assert_eq!(
            kernel.write_user(&mut mem, 42, VirtAddr(0x1000), &buf),
            Err(LoadError::NoSuchTask(42))
        );
        assert_eq!(
            kernel.alloc_host_heap(&mut mem, 42, 64),
            Err(LoadError::NoSuchTask(42))
        );
        assert_eq!(kernel.alloc_nxp_heap(42, 64), Err(LoadError::NoSuchTask(42)));
        assert_eq!(
            kernel.alloc_nxp_stack(&mut mem, 42),
            Err(LoadError::NoSuchTask(42))
        );
        let core = Core::new(CoreConfig::host());
        assert_eq!(
            kernel.suspend_for_migration(42, &core),
            Err(KernelError::NoSuchTask(42))
        );
        assert_eq!(
            kernel.try_wake_from_migration(42),
            Err(KernelError::NoSuchTask(42))
        );
        assert_eq!(
            kernel.wake_from_migration(42),
            Err(KernelError::NoSuchTask(42))
        );
    }

    #[test]
    fn wake_of_running_task_is_spurious_not_fatal() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let pid = kernel.create_process(&mut mem, &simple_image()).unwrap();
        // Task is Runnable, not MigrationWait: try-wake reports false,
        // the strict wake reports the typed SpuriousWake error.
        assert_eq!(kernel.try_wake_from_migration(pid), Ok(false));
        assert_eq!(
            kernel.wake_from_migration(pid),
            Err(KernelError::SpuriousWake(pid))
        );
    }

    #[test]
    fn spawn_task_clones_proto_and_reap_removes() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let proto = kernel.create_process(&mut mem, &image).unwrap();
        kernel.alloc_nxp_stack(&mut mem, proto).unwrap();
        let spawned = kernel.spawn_task(proto).unwrap();
        assert_ne!(spawned, proto);
        let p = kernel.task(proto).unwrap().clone();
        let s = kernel.task(spawned).unwrap();
        // Same address space, heap cursors and NxP stack slot; fresh
        // runnable state at the entry point.
        assert_eq!(s.cr3, p.cr3);
        assert_eq!(s.nxp_brk, p.nxp_brk);
        assert_eq!(s.nxp_stack_ptr, p.nxp_stack_ptr);
        assert_eq!(s.context.pc, p.context.pc);
        assert_eq!(s.state, TaskState::Runnable);
        assert_eq!(s.exit_code, 0);
        // Reap removes exactly the spawned task.
        kernel.reap_task(spawned).unwrap();
        assert_eq!(
            kernel.task(spawned).err(),
            Some(KernelError::NoSuchTask(spawned))
        );
        assert!(kernel.task(proto).is_ok());
        // Unknown pids are typed errors.
        assert_eq!(kernel.spawn_task(999).err(), Some(KernelError::NoSuchTask(999)));
        assert_eq!(kernel.reap_task(999).err(), Some(KernelError::NoSuchTask(999)));
    }

    #[test]
    fn host_stack_bytes_maps_only_the_top_slice() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::with_config(
            SystemMap::paper_default(),
            KernelConfig {
                host_stack_bytes: 64 * 1024,
                ..KernelConfig::default()
            },
        );
        let image = simple_image();
        let pid = kernel.create_process(&mut mem, &image).unwrap();
        // The top 64 KiB is mapped...
        let top = VirtAddr(layout::HOST_STACK_TOP - 64);
        kernel.write_user(&mut mem, pid, top, &[1u8; 8]).unwrap();
        let lo_mapped = VirtAddr(layout::HOST_STACK_TOP - 64 * 1024);
        kernel.write_user(&mut mem, pid, lo_mapped, &[2u8; 8]).unwrap();
        // ...and the bottom of the 8 MiB window is not.
        let unmapped = VirtAddr(layout::HOST_STACK_TOP - layout::HOST_STACK_SIZE);
        assert!(matches!(
            kernel.write_user(&mut mem, pid, unmapped, &[3u8; 8]),
            Err(LoadError::UserFault(_))
        ));
    }

    #[test]
    fn two_processes_have_separate_address_spaces() {
        let mut mem = PhysMem::new();
        let mut kernel = Kernel::new(&mut mem);
        let image = simple_image();
        let p1 = kernel.create_process(&mut mem, &image).unwrap();
        let p2 = kernel.create_process(&mut mem, &image).unwrap();
        assert_ne!(kernel.task(p1).unwrap().cr3, kernel.task(p2).unwrap().cr3);
        let hostvar = image.find_symbol("hostvar").unwrap();
        // Writing p1's copy must not affect p2's.
        kernel.write_user(&mut mem, p1, VirtAddr(hostvar), &[0xFF]).unwrap();
        let mut buf = [0u8; 1];
        kernel.read_user(&mem, p2, VirtAddr(hostvar), &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }
}
