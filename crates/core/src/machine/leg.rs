//! The NxP side of a crossing: one leg of a migrated thread, run
//! inline on its NxP core until it hands a descriptor back to the host,
//! and the reply that carries it.

use super::{runtime_stop, Machine, PendingWake, RunError, ARG_REGS};
use crate::descriptor::{DescKind, MigrationDescriptor};
use crate::services::{self as svc, desc_layout as L};
use flick_cpu::{CpuContext, Exception, InstFaultKind, StopReason};
use flick_isa::abi;
use flick_mem::PhysAddr;
use flick_sim::trace::Side;
use flick_sim::{CoreId, DeviceFaultKind, Event, SpanStage};
use flick_toolchain::layout;

impl Machine {
    /// Runs one NxP leg ([`Machine::run_leg`]) and sends its reply: the
    /// sequence number, the DMA kick of the outbound descriptor and
    /// the wake-up MSI. Returns how the suspended thread will be woken.
    pub(super) fn dispatch_leg(
        &mut self,
        nc: usize,
        pid: u64,
        in_bytes: &[u8],
        desc: &MigrationDescriptor,
    ) -> Result<PendingWake, RunError> {
        let mut out = self.run_leg(nc, pid, in_bytes, desc)?;
        out.seq = self.nxps[nc].seqs.next_n2h();
        self.thread_mut(pid)?.n2h = Some((nc, out));
        let now = self.nxps[nc].core.clock().now();
        self.obs
            .mark(out.span, SpanStage::NxpSubmit, now, CoreId::nxp(nc));
        // A crashed or unplugged device cannot DMA its reply out — the
        // burst and its MSI die on the card. (A *hung* one still can:
        // the link is up, only the inbound poll loop stopped.) The
        // host-side watchdog notices the silence and fails over.
        let msi_at = match self.plan.device_state(nc, now) {
            Some(DeviceFaultKind::Crash | DeviceFaultKind::Unplug) => None,
            _ => self.send_n2h(CoreId::nxp(nc), nc, now, out.to_bytes()),
        };
        Ok(PendingWake {
            msi_at,
            chan: nc,
            incarnation: self.nxps[nc].seqs.incarnation,
        })
    }

    /// One NxP leg, inline on NxP core `nc` and the machine memory: the
    /// inbound descriptor lands in the NxP-local buffer, the thread
    /// context-switches in and runs interpreted FIR — taking exec-fault
    /// redirects and runtime services — until it hands a descriptor
    /// back toward the host. The host thread stays suspended
    /// throughout (§IV-B). The leg runs with whatever is left of the
    /// run's fuel budget. Returns the outbound descriptor, its `seq`
    /// not yet assigned.
    fn run_leg(
        &mut self,
        nc: usize,
        pid: u64,
        in_bytes: &[u8],
        desc: &MigrationDescriptor,
    ) -> Result<MigrationDescriptor, RunError> {
        let nxp_stack_ptr = self.kernel.task(pid)?.nxp_stack_ptr.as_u64();
        let desc_phys = self.nxp_desc_phys();
        let on = CoreId::nxp(nc);
        let nt = &self.nxp_timing;
        let core = &mut self.nxps[nc].core;
        let leg_isa = core.config().isa;
        let record = self.threads.get_mut(&pid).ok_or(RunError::Protocol {
            side: Side::Nxp,
            context: "descriptor for a thread with no per-thread record",
        })?;
        // The leg runs on this slot's ISA: take that ISA's migration
        // handler pair. A program without functions of the slot's ISA
        // has no such handlers — any exec fault on the leg then fails
        // loudly instead of jumping through a wrong-ISA handler.
        let handlers = record
            .vas
            .accel_handlers(leg_isa)
            .map(|(entry, lp)| (lp, entry));
        let span = record.span.unwrap_or(0);
        let thread = &mut record.nxp;

        self.mem.write_bytes(desc_phys, in_bytes);
        core.clock_mut().advance(nt.context_switch);
        self.trace.record_on(
            on,
            core.clock().now(),
            Event::NxpContextSwitch { switch_in: true },
        );
        if core.cr3() != PhysAddr(desc.cr3) {
            core.set_cr3(PhysAddr(desc.cr3));
        }
        if desc.kind == DescKind::HostToNxpCall {
            if let Some(ctx) = thread.idle[leg_isa.tag() as usize].take() {
                // The thread is idle in this ISA's handler loop: resume
                // it; the loop re-reads the descriptor page.
                core.restore_context(&ctx);
            } else {
                // First call of this ISA: the host initialised the
                // stack; the thread starts inside the handler's while()
                // loop (§IV-B1). A nested call — outer accelerator
                // frames parked elsewhere — continues below the
                // innermost parked frame, so the per-thread stack slot
                // nests naturally.
                let Some((loop_va, _)) = handlers else {
                    return Err(RunError::Protocol {
                        side: Side::Nxp,
                        context: "descriptor for a process with no handler table",
                    });
                };
                let sp = thread
                    .parks
                    .last()
                    .map(|c| c.regs[abi::SP.index()])
                    .unwrap_or(desc.nxp_sp);
                let mut ctx = CpuContext {
                    pc: loop_va,
                    ..CpuContext::default()
                };
                ctx.regs[abi::SP.index()] = sp;
                ctx.regs[abi::S0.index()] = layout::NXP_DESC_VA;
                core.restore_context(&ctx);
            }
        } else {
            let Some(ctx) = thread.parks.pop() else {
                return Err(RunError::Protocol {
                    side: Side::Nxp,
                    context: "return descriptor for a thread with no parked frame",
                });
            };
            core.restore_context(&ctx);
        }

        // Run until the thread emits a descriptor toward the host.
        let (kind, target, ret, args) = loop {
            let fuel = self.fuel_end.saturating_sub(self.retired);
            let before = core.counters().instructions;
            let stop = core.run(&mut self.mem, &self.env, fuel);
            self.retired += core.counters().instructions - before;
            match stop {
                StopReason::Ecall(s) if s == svc::NXP_MIGRATE_AND_SUSPEND => {
                    let Some(fault_va) = thread.fault_va.take() else {
                        return Err(RunError::Protocol {
                            side: Side::Nxp,
                            context: "NxP migrate without a saved fault target",
                        });
                    };
                    self.stats.bump("migrations_nxp_to_host");
                    let args = ARG_REGS.map(|r| core.reg(r));
                    break (DescKind::NxpToHostCall, fault_va.as_u64(), 0, args);
                }
                StopReason::Ecall(s) if s == svc::NXP_RETURN_AND_SWITCH => {
                    self.stats.bump("returns_nxp_to_host");
                    let ret = self.mem.read_u64(PhysAddr(desc_phys.as_u64() + L::RET));
                    break (DescKind::NxpToHostReturn, 0, ret, [0; 6]);
                }
                StopReason::Fault(Exception::InstFault { va, kind })
                    if matches!(
                        kind,
                        InstFaultKind::IsaMismatch
                            | InstFaultKind::Misaligned
                            | InstFaultKind::NxViolation
                    ) =>
                {
                    // The NxP called a function it cannot execute —
                    // host text (`IsaMismatch`), or another
                    // accelerator's text (`NxViolation`: NX set but a
                    // foreign ISA tag). Either way control escalates
                    // through the NxP migration handler (§IV-B2); for a
                    // cross-accelerator call the host then re-faults at
                    // the same target and re-places it on an NxP of the
                    // right ISA.
                    self.stats.bump("nxp_exec_faults");
                    let event = match kind {
                        InstFaultKind::Misaligned => Event::MisalignedFetch {
                            fault_va: va.as_u64(),
                        },
                        _ => Event::NxFault {
                            side: Side::Nxp,
                            fault_va: va.as_u64(),
                        },
                    };
                    self.trace.record_on(on, core.clock().now(), event);
                    core.clock_mut().advance(nt.exception_entry);
                    thread.fault_va = Some(va);
                    let Some((_, handler)) = handlers else {
                        return Err(RunError::Protocol {
                            side: Side::Nxp,
                            context: "exec fault in a process with no handler table",
                        });
                    };
                    core.set_pc(handler);
                }
                other => runtime_stop(&mut self.kernel, core, pid, Side::Nxp, other)?,
            }
        };

        // The device half of the send: save the thread, switch to the
        // scheduler, stamp the outbound descriptor.
        let out = MigrationDescriptor {
            kind,
            target,
            ret,
            args,
            pid,
            cr3: core.cr3().as_u64(),
            nxp_sp: nxp_stack_ptr,
            seq: 0,
            span,
        };
        core.clock_mut().advance(nt.desc_build);
        let ctx = core.save_context();
        match out.kind {
            // Escalated a call to the host: the frame parks
            // mid-function, awaiting its return descriptor.
            DescKind::NxpToHostCall => thread.parks.push(ctx),
            // Completed: the thread settles back into this ISA's
            // handler loop, ready for the next call descriptor.
            _ => thread.idle[leg_isa.tag() as usize] = Some(ctx),
        }
        core.clock_mut().advance(nt.context_switch);
        self.trace.record_on(
            on,
            core.clock().now(),
            Event::NxpContextSwitch { switch_in: false },
        );
        // The wire length is fixed, so the event can be recorded before
        // the sequence number is assigned.
        self.trace.record_on(
            on,
            core.clock().now(),
            Event::DescriptorSent {
                from: Side::Nxp,
                kind: out.kind.label(),
                bytes: L::SIZE as usize,
            },
        );
        Ok(out)
    }

    /// Physical address of the NxP-side descriptor buffer (the SRAM
    /// page behind `layout::NXP_DESC_VA`).
    fn nxp_desc_phys(&self) -> PhysAddr {
        self.env.map.nxp_sram_host_base() + (layout::NXP_DESC_VA - layout::NXP_STACK_VA)
    }
}
