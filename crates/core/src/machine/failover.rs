//! Device death and its two recoveries: failover of an in-flight leg
//! to a surviving NxP of the same ISA, and — with no survivor left —
//! graceful degradation of the call to the host-side interpreter.

use super::{isa_from_tag, runtime_stop, Machine, NxpSlot, PendingWake, RunError, ARG_REGS};
use crate::descriptor::MigrationDescriptor;
use flick_cpu::{Core, CoreConfig, Exception, InstFaultKind, StopReason};
use flick_isa::abi;
use flick_mem::VirtAddr;
use flick_sim::trace::Side;
use flick_sim::{CoreId, DeviceFaultKind, Event};

impl Machine {
    /// Scans for dead NxPs whose scheduled outage has ended (presence
    /// detect came back): resets the channel protocol state for the new
    /// device incarnation — fresh sequence spaces, reaped rings, purged
    /// MSI vector — and half-opens the breaker so exactly one probe
    /// migration is routed there before full placement resumes.
    pub(super) fn refresh_fleet(&mut self, hc: usize) {
        if !self.plan.has_device_events() {
            return;
        }
        let now = self.hosts[hc].clock().now();
        for nc in 0..self.nxps.len() {
            if self.nxps[nc].health.is_open() && self.plan.device_up(nc, now) {
                let slot = &mut self.nxps[nc];
                slot.seqs.rejoin();
                slot.health.rejoin();
                self.quiesce(nc);
                self.stats.bump("nxp_rejoins");
                self.trace
                    .record_on(CoreId::host(hc), now, Event::NxpRejoined { nxp: nc });
            }
        }
    }

    /// Declares NxP `nc` dead and quiesces its channel: both ring
    /// directions are reaped and its MSI vector purged, so nothing sent
    /// by the dead incarnation can ever be claimed by a thread placed
    /// on a later one. Reaping loses no work — every open round trip
    /// retains its h2n descriptor host-side for re-execution. Idempotent.
    pub(super) fn declare_nxp_dead(&mut self, hc: usize, nc: usize, fault: DeviceFaultKind) {
        let health = &mut self.nxps[nc].health;
        if health.is_open() {
            return;
        }
        health.declare_dead();
        let now = self.hosts[hc].clock().now();
        self.stats.bump("nxp_deaths");
        self.trace.record_on(
            CoreId::host(hc),
            now,
            Event::DeviceFault {
                nxp: nc,
                kind: fault.label(),
            },
        );
        self.trace
            .record_on(CoreId::host(hc), now, Event::NxpDeclaredDead { nxp: nc });
        let (reaped, purged) = self.quiesce(nc);
        self.stats.bump_by("descs_reaped", reaped as u64);
        self.stats.bump_by("msis_purged", purged as u64);
        self.trace.record_on(
            CoreId::host(hc),
            now,
            Event::DescriptorsReaped {
                nxp: nc,
                count: reaped as u64,
            },
        );
    }

    /// Quiesces NxP `nc`'s channel, on its death and on its rejoin:
    /// reaps both ring directions and purges its MSI vector. Returns
    /// how many descriptors were reaped and MSIs purged.
    fn quiesce(&mut self, nc: usize) -> (usize, usize) {
        let reaped = self.fabric.reap_channel(nc);
        (reaped, self.irq.purge_vector(nc as u32))
    }

    /// Deterministic failover placement: the surviving NxP whose clock
    /// is earliest (ties toward the lowest index) — a victim always
    /// re-places onto the least-loaded survivor, whatever the
    /// configured policy for fresh calls. Only same-ISA survivors
    /// qualify: a leg re-executed on a core of another ISA would fault
    /// at its first fetch instead of making progress. `avoid` is the
    /// slot the leg started from, never a target even once it rejoins.
    pub(super) fn pick_failover_target(&self, avoid: usize) -> Option<usize> {
        let isa = self.nxps[avoid].core.config().isa;
        let fits = |s: &NxpSlot| !s.health.is_open() && s.core.config().isa == isa;
        (0..self.nxps.len())
            .filter(|&k| k != avoid && fits(&self.nxps[k]))
            .min_by_key(|&k| (self.nxps[k].core.clock().now(), k))
    }

    /// Moves `pid`'s open host→NxP leg from NxP `from` to `to`: a fresh
    /// sequence number on the new channel, the innermost continuation
    /// and the retained copy repointed (nesting depth unchanged), and
    /// the move counted — as the replacement of a first send, or as a
    /// failover re-execution when `reexec`.
    pub(super) fn move_leg(
        &mut self,
        hc: usize,
        pid: u64,
        from: usize,
        to: usize,
        desc: &mut MigrationDescriptor,
        reexec: bool,
    ) {
        let now = self.hosts[hc].clock().now();
        if reexec {
            self.stats.bump("failover_reexecutions");
            let e = Event::FailoverReexecuted { pid, on_nxp: to };
            self.trace.record_on(CoreId::host(hc), now, e);
        } else {
            self.stats.bump("failover_replacements");
            self.trace.record_on(
                CoreId::host(hc),
                now,
                Event::FailoverReplaced {
                    pid,
                    from_nxp: from,
                    to_nxp: to,
                },
            );
        }
        desc.seq = self.nxps[to].seqs.next_h2n();
        if let Some(thread) = self.threads.get_mut(&pid) {
            match thread.on_nxps.last_mut() {
                Some(top) => *top = to,
                None => thread.on_nxps.push(to),
            }
            thread.h2n = Some((to, *desc));
        }
    }

    /// Re-executes `pid`'s retained host→NxP leg on a surviving NxP
    /// after its serving device died mid-round-trip. The NxP leg is a
    /// pure function of its descriptor plus the thread's checkpointed
    /// context — saved host-side at every NxP switch-out — so
    /// re-delivery is at-least-once semantics over an offload model
    /// with no device-resident side effects, not a correctness risk.
    /// Returns `Ok(None)` when no live NxP remains to take the work;
    /// otherwise the new wake-up, its watchdog armed.
    pub(super) fn failover_reexecute(
        &mut self,
        hc: usize,
        pid: u64,
    ) -> Result<Option<PendingWake>, RunError> {
        self.refresh_fleet(hc);
        let Some((dead, mut desc)) = self.threads.get(&pid).and_then(|t| t.h2n) else {
            return Err(RunError::Protocol {
                side: Side::Host,
                context: "no retained descriptor to re-execute",
            });
        };
        let Some(nc) = self.pick_failover_target(dead) else {
            return Ok(None);
        };
        self.move_leg(hc, pid, dead, nc, &mut desc, true);
        let sent = self.send_h2n(hc, pid, nc, dead, &mut desc, true);
        let Some((nc, in_bytes, in_desc)) = sent else {
            return Ok(None);
        };
        let wake = self.dispatch_leg(nc, pid, &in_bytes, &in_desc)?;
        self.arm_watchdog(hc, pid, &wake)?;
        Ok(Some(wake))
    }

    /// Graceful degradation: the link died while delivering a host→NxP
    /// *call*. Unwind the suspended thread out of the user-space
    /// migration handler frame (RA at `[sp+0]`, S0 at `[sp+8]`, 32-byte
    /// frame) and point it straight at the target function: the
    /// argument registers are restored from the descriptor and the
    /// restored RA returns to the original call site when the function
    /// returns. The thread is marked degraded, so its NX faults now run
    /// NxP text through the host-side interpreter instead of migrating.
    pub(super) fn degrade_unwind(&mut self, hc: usize, pid: u64, desc: &MigrationDescriptor) -> Result<(), RunError> {
        self.stats.bump("migrations_degraded");
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::Degraded { pid },
        );
        let sp = self.kernel.task(pid)?.context.regs[abi::SP.index()];
        let mut ra = [0u8; 8];
        let mut s0 = [0u8; 8];
        self.kernel
            .read_user(&self.mem, pid, VirtAddr(sp), &mut ra)
            .map_err(RunError::Load)?;
        self.kernel
            .read_user(&self.mem, pid, VirtAddr(sp + 8), &mut s0)
            .map_err(RunError::Load)?;
        let task = self.kernel.task_mut(pid)?;
        task.degraded = true;
        task.deadline = None;
        task.context.regs[abi::RA.index()] = u64::from_le_bytes(ra);
        task.context.regs[abi::S0.index()] = u64::from_le_bytes(s0);
        task.context.regs[abi::SP.index()] = sp + 32;
        for (r, arg) in ARG_REGS.into_iter().zip(desc.args) {
            task.context.regs[r.index()] = arg;
        }
        task.context.pc = VirtAddr(desc.target);
        if !self.kernel.try_wake_from_migration(pid)? {
            return Err(RunError::Protocol {
                side: Side::Host,
                context: "degraded thread was not in migration wait",
            });
        }
        Ok(())
    }

    /// Runs one segment of NxP text through the host-side interpreter
    /// core, from the faulting target until control returns to host
    /// text, with whatever is left of the run's fuel budget. Nested
    /// cross-ISA calls hand back and forth naturally: the interpreter
    /// faults `IsaMismatch` at host text and the native core faults
    /// `NxViolation` at NxP text.
    pub(super) fn emulate_segment(
        &mut self,
        hc: usize,
        pid: u64,
        va: VirtAddr,
    ) -> Result<(), RunError> {
        self.stats.bump("emulated_calls");
        self.trace.record_on(
            CoreId::host(hc),
            self.hosts[hc].clock().now(),
            Event::EmulatedSegment {
                pid,
                from_va: va.as_u64(),
            },
        );
        let host_cr3 = self.hosts[hc].cr3();
        let host_now = self.hosts[hc].clock().now();
        let mut ctx = self.hosts[hc].save_context();
        ctx.pc = va;
        // The guest ISA is whatever the faulting page is tagged with;
        // a cached emulator of another ISA retires (its instruction
        // count folds into the offset so the `executed()` invariant
        // holds) and a fresh core of the right ISA takes its slot.
        let tag = flick_paging::walk(|a| self.mem.read_u64(a), host_cr3, va)
            .map(|t| t.isa_tag)
            .unwrap_or(0);
        let guest = isa_from_tag(tag, self.best_fit);
        if self.emus[hc]
            .as_ref()
            .is_some_and(|e| e.config().isa != guest)
        {
            let old = self.emus[hc].take().expect("emulator checked present");
            self.retired_emu_insts += old.counters().instructions;
        }
        // The degraded-mode interpreter inherits the host's fast-path
        // setting so the differential tests cover it too.
        let fast_path = self.hosts[hc].config().fast_path;
        let emu = self.emus[hc].get_or_insert_with(|| {
            Core::new(CoreConfig {
                fast_path,
                ..CoreConfig::host_emulator_for(guest)
            })
        });
        emu.restore_context(&ctx);
        if emu.cr3() != host_cr3 {
            emu.set_cr3(host_cr3);
        }
        emu.clock_mut().sync_to(host_now);
        loop {
            let left = self.fuel_end.saturating_sub(self.retired);
            if left == 0 {
                return Err(RunError::FuelExhausted);
            }
            let emu = self.emus[hc].as_mut().ok_or(RunError::Protocol {
                side: Side::Host,
                context: "degraded thread without an emulation core",
            })?;
            let before = emu.counters().instructions;
            let stop = emu.run(&mut self.mem, &self.env, left);
            self.retired += emu.counters().instructions - before;
            match stop {
                StopReason::Fault(Exception::InstFault {
                    va: back,
                    kind: InstFaultKind::IsaMismatch | InstFaultKind::NxViolation,
                }) => {
                    // Control reached text this emulator cannot speak —
                    // host text (`IsaMismatch`) or another
                    // accelerator's (`NxViolation`). Hand the context
                    // back to the native core; a cross-accelerator
                    // target re-faults there and re-enters emulation
                    // under the right guest ISA.
                    let mut ctx = emu.save_context();
                    ctx.pc = back;
                    let at = emu.clock().now();
                    self.hosts[hc].restore_context(&ctx);
                    self.hosts[hc].clock_mut().sync_to(at);
                    return Ok(());
                }
                other => runtime_stop(&mut self.kernel, emu, pid, Side::Host, other)?,
            }
        }
    }
}
