//! The open-loop serving driver: request arrivals as one more
//! deterministic event source of the machine's event loop.

use super::{Machine, RunError, Thread};
use crate::serving::{ServingCompletion, ServingCtx, ServingReport, ServingRequest};
use flick_isa::abi;
use flick_os::RunQueues;
use flick_sim::trace::Side;
use flick_sim::Picos;
use std::cmp::Reverse;

impl Machine {
    /// Runs an open-loop multi-tenant serving schedule to completion.
    ///
    /// `tenants` are loaded prototype processes (one address space,
    /// CR3, staged data set and SRAM stack slot each — see
    /// [`Machine::stage_nxp_stack`]); they never run themselves.
    /// Each [`ServingRequest`] names a tenant by index, an absolute
    /// simulated arrival instant, and an argument delivered in `A0`; at
    /// its arrival the machine spawns a fresh task from the tenant's
    /// prototype ([`flick_os::Kernel::spawn_task`] — pristine entry
    /// context, shared address space) on host core `tenant % hosts` and
    /// schedules it like any other thread, preemption quantum
    /// `quantum`. Tasks of one tenant share its host stack and
    /// descriptor page, so they serialize: a request arriving while its
    /// tenant is busy waits its turn, and the wait is charged to its
    /// latency (open-loop accounting — [`ServingCompletion::latency`]
    /// runs from *arrival*, not admission, so queueing delay under
    /// overload shows up in the tail instead of vanishing into
    /// coordinated omission).
    ///
    /// The run is bit-identical on any rerun at the same schedule,
    /// like every other mode of the machine: arrivals are just one
    /// more deterministic event source.
    ///
    /// # Errors
    ///
    /// [`RunError::Build`] on an empty tenant list, an out-of-range
    /// tenant index, or a zombie prototype; otherwise see [`RunError`]
    /// — a crashing request fails the whole run.
    pub fn run_serving(
        &mut self,
        tenants: &[u64],
        requests: &[ServingRequest],
        fuel: u64,
        quantum: u64,
    ) -> Result<ServingReport, RunError> {
        if tenants.is_empty() {
            return Err(RunError::Build("serving run with no tenants".into()));
        }
        for &pid in tenants {
            if self.kernel.task(pid)?.state == flick_os::TaskState::Zombie {
                return Err(RunError::Build(format!(
                    "serving tenant {pid} already exited"
                )));
            }
        }
        if let Some(r) = requests.iter().find(|r| r.tenant >= tenants.len()) {
            return Err(RunError::Build(format!(
                "request names tenant {} but only {} tenants were given",
                r.tenant,
                tenants.len()
            )));
        }
        // Ensure every tenant owns its SRAM stack slot up front, so
        // request tasks never race the first-call allocation path.
        for &pid in tenants {
            if self.kernel.task(pid)?.nxp_stack_ptr.as_u64() == 0 {
                self.stage_nxp_stack(pid)?;
            }
        }
        self.serving = Some(ServingCtx::new(
            tenants,
            requests.to_vec(),
            self.hosts.len(),
        ));
        let res = self.run_event_loop(&[], fuel, quantum);
        let ctx = self.serving.take();
        res?;
        let ctx = ctx.ok_or(RunError::Protocol {
            side: Side::Host,
            context: "serving context vanished during the run",
        })?;
        let finished_at = ctx
            .completions
            .iter()
            .map(|c| c.finished)
            .max()
            .unwrap_or(Picos::ZERO);
        Ok(ServingReport {
            completions: ctx.completions,
            stats: self.fleet_stats(),
            finished_at,
        })
    }

    /// Spawns every request whose arrival instant host core `hc` has
    /// reached: a fresh task from the tenant's prototype if the tenant
    /// is free, else a FIFO deferral behind its live request. No-op
    /// outside serving mode.
    pub(super) fn admit_due_arrivals(&mut self, hc: usize, rq: &mut RunQueues) -> Result<(), RunError> {
        if self.serving.is_none() {
            return Ok(());
        }
        loop {
            let now = self.hosts[hc].clock().now();
            let Some(ctx) = self.serving.as_mut() else {
                return Ok(());
            };
            let Some(&Reverse((due, idx))) = ctx.arrivals[hc].peek() else {
                return Ok(());
            };
            if due > now {
                return Ok(());
            }
            ctx.arrivals[hc].pop();
            let tenant = ctx.reqs[idx].tenant;
            if ctx.tenants[tenant].busy {
                ctx.tenants[tenant].deferred.push_back(idx);
            } else {
                self.spawn_request(hc, idx, due, rq)?;
            }
        }
    }

    /// Spawns the task for request `idx` (ready at `ready`, queued on
    /// host core `hc`) and marks its tenant busy.
    fn spawn_request(
        &mut self,
        hc: usize,
        idx: usize,
        ready: Picos,
        rq: &mut RunQueues,
    ) -> Result<(), RunError> {
        let (proto, arg, tenant) = {
            let ctx = self.serving.as_ref().ok_or(RunError::Protocol {
                side: Side::Host,
                context: "request spawn outside a serving run",
            })?;
            let req = ctx.reqs[idx];
            (ctx.tenants[req.tenant].proto, req.arg, req.tenant)
        };
        let pid = self.kernel.spawn_task(proto)?;
        // The request task migrates through its tenant's handler table
        // (same address space, same handler VAs).
        let vas = self
            .threads
            .get(&proto)
            .map(|t| t.vas)
            .ok_or(RunError::Protocol {
                side: Side::Host,
                context: "request spawn from a tenant with no per-thread record",
            })?;
        self.threads.insert(pid, Thread::new(vas, Some(idx)));
        let task = self.kernel.task_mut(pid)?;
        // The request argument rides in A0: the tenant program's
        // `main` dispatches on it (request kind, key, …). Spawning
        // charges no simulated time — the model is a pre-forked worker
        // picking a request off its tenant's queue, not a fork.
        task.context.regs[abi::A0.index()] = arg;
        task.ready_at = ready;
        task.last_core = hc;
        if let Some(ctx) = self.serving.as_mut() {
            ctx.tenants[tenant].busy = true;
        }
        rq.enqueue(hc, pid);
        Ok(())
    }

    /// Serving-mode request exit: record the completion, reap the
    /// task, and hand the tenant to its next deferred request (which
    /// becomes ready *now* — its queueing delay stays charged to its
    /// open-loop latency). Deliberately does none of [`Machine::finish`]'s
    /// fleet-wide work: no leg barrier, no stats clone — a saturated
    /// run retires thousands of requests and takes its one snapshot at
    /// the end.
    pub(super) fn finish_serving(
        &mut self,
        hc: usize,
        pid: u64,
        code: u64,
        rq: &mut RunQueues,
    ) -> Result<(), RunError> {
        let idx = self
            .threads
            .remove(&pid)
            .and_then(|t| t.request)
            .ok_or(RunError::Protocol {
                side: Side::Host,
                context: "serving exit from a task with no live request",
            })?;
        let now = self.hosts[hc].clock().now();
        let ctx = self.serving.as_mut().ok_or(RunError::Protocol {
            side: Side::Host,
            context: "serving exit outside a serving run",
        })?;
        let req = ctx.reqs[idx];
        ctx.completions.push(ServingCompletion {
            request: idx,
            tenant: req.tenant,
            arrival: req.arrival,
            finished: now,
            exit_code: code,
        });
        let next = {
            let t = &mut ctx.tenants[req.tenant];
            let n = t.deferred.pop_front();
            if n.is_none() {
                t.busy = false;
            }
            n
        };
        self.kernel.reap_task(pid)?;
        if let Some(nidx) = next {
            self.spawn_request(hc, nidx, now, rq)?;
        }
        Ok(())
    }
}
