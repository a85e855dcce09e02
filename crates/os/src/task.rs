//! Tasks: the `task_struct` of the model.

use flick_cpu::CpuContext;
use flick_mem::{PhysAddr, VirtAddr};
use flick_sim::Picos;
use std::fmt;

/// Scheduling state of a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Currently executing on the host core.
    Running,
    /// Ready to run.
    Runnable,
    /// Suspended awaiting a migration descriptor (the model's
    /// `TASK_KILLABLE` of §IV-D).
    MigrationWait,
    /// Finished; `exit_code` is valid.
    Zombie,
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::Running => "running",
            TaskState::Runnable => "runnable",
            TaskState::MigrationWait => "migration-wait",
            TaskState::Zombie => "zombie",
        };
        write!(f, "{s}")
    }
}

/// The per-thread kernel structure, extended with Flick's fields.
#[derive(Clone, Debug)]
pub struct TaskStruct {
    /// Process/thread id.
    pub pid: u64,
    /// Scheduler state.
    pub state: TaskState,
    /// Saved host CPU context (valid when not `Running`).
    pub context: CpuContext,
    /// Page-table base for this task's address space.
    pub cr3: PhysAddr,
    /// **Flick field**: the faulting target-function address saved by
    /// the NX page-fault handler for the migration handler (§IV-B1).
    pub fault_va: Option<VirtAddr>,
    /// **Flick field**: the thread's NxP stack pointer; `NULL` until
    /// the first migration allocates one (Listing 1, lines 3–4).
    pub nxp_stack_ptr: VirtAddr,
    /// **Flick field**: set before suspension so the scheduler triggers
    /// the descriptor DMA only *after* the context switch, avoiding the
    /// race described in §IV-D.
    pub migration_flag: bool,
    /// **Recovery field**: absolute simulated time at which the
    /// migration watchdog fires if no wake-up MSI has arrived. Armed on
    /// suspension, cleared on wake-up.
    pub deadline: Option<Picos>,
    /// **Recovery field**: the PCIe link was declared dead for this
    /// thread; its NxP calls now run through the host-side interpreter
    /// instead of migrating.
    pub degraded: bool,
    /// **Topology field**: index of the host core this task last ran
    /// on. Wake-ups re-enqueue the task on that core's runqueue (cache
    /// affinity); idle stealing updates it when the task moves.
    pub last_core: usize,
    /// **Topology field**: simulated time at which the task last became
    /// runnable. A core that picks the task up (locally or by stealing)
    /// syncs its clock forward to this instant so cross-core scheduling
    /// never runs a task before the event that readied it.
    pub ready_at: Picos,
    /// Exit code once `Zombie`.
    pub exit_code: u64,
    /// Bump pointer for this process's host heap.
    pub host_brk: VirtAddr,
    /// Bump pointer for this process's NxP-DRAM heap.
    pub nxp_brk: VirtAddr,
}

impl TaskStruct {
    /// Creates a fresh runnable task.
    pub fn new(pid: u64, cr3: PhysAddr) -> Self {
        TaskStruct {
            pid,
            state: TaskState::Runnable,
            context: CpuContext::default(),
            cr3,
            fault_va: None,
            nxp_stack_ptr: VirtAddr::NULL,
            migration_flag: false,
            deadline: None,
            degraded: false,
            last_core: 0,
            ready_at: Picos::ZERO,
            exit_code: 0,
            host_brk: VirtAddr(flick_toolchain::layout::HOST_HEAP_BASE),
            nxp_brk: VirtAddr::NULL,
        }
    }

    /// True when the thread has migrated before (its NxP stack exists).
    pub fn has_nxp_stack(&self) -> bool {
        !self.nxp_stack_ptr.is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_task_has_no_nxp_stack() {
        let t = TaskStruct::new(7, PhysAddr(0x1000));
        assert!(!t.has_nxp_stack());
        assert_eq!(t.state, TaskState::Runnable);
        assert!(!t.migration_flag);
    }

    #[test]
    fn state_display() {
        assert_eq!(TaskState::MigrationWait.to_string(), "migration-wait");
    }
}
