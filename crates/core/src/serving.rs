//! Open-loop multi-tenant serving: the datacenter-side view of
//! ISA-crossing calls.
//!
//! Every workload elsewhere in the repo is closed-loop — a fixed set of
//! processes issuing their next call only after the previous one
//! returned. A serving fleet is the opposite: requests arrive on their
//! own (open-loop) schedule whether or not the machine has kept up, so
//! queueing delay compounds and the *tail* of the latency distribution
//! — not the mean — decides whether the paper's migration cost is
//! viable on a request path.
//!
//! The driver is deliberately small: tenants are ordinary loaded
//! processes (their CR3s, staged data and NxP SRAM stack slots are set
//! up once), and each request is a cheap task spawn into its tenant's
//! address space ([`flick_os::Kernel::spawn_task`]). The machine's
//! deterministic event loop does the rest — arrivals are just one more
//! source of schedulable work, delivered when the simulated clock of
//! the owning host core reaches the arrival instant, so a whole
//! open-loop run replays bit-identically run after run.

use flick_sim::{Picos, Stats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One request of the open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingRequest {
    /// Index into the tenant list passed to
    /// [`crate::Machine::run_serving`].
    pub tenant: usize,
    /// Absolute simulated arrival instant.
    pub arrival: Picos,
    /// Opaque request argument, handed to the spawned task in `A0`
    /// (harnesses use it to select the request kind).
    pub arg: u64,
}

/// One finished request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingCompletion {
    /// Index of the request in the submitted schedule.
    pub request: usize,
    /// The owning tenant.
    pub tenant: usize,
    /// When the request arrived (open-loop: queueing delay counts).
    pub arrival: Picos,
    /// When its task exited.
    pub finished: Picos,
    /// The task's exit code.
    pub exit_code: u64,
}

impl ServingCompletion {
    /// End-to-end latency: exit minus *arrival* (not admission), so the
    /// time a request spent queued behind its tenant's previous request
    /// is charged to it — the open-loop accounting that avoids
    /// coordinated omission.
    pub fn latency(&self) -> Picos {
        self.finished - self.arrival
    }
}

/// The outcome of a serving run.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Every completion, in completion order (deterministic).
    pub completions: Vec<ServingCompletion>,
    /// Fleet-wide stats snapshot at the end of the run — the same fold
    /// a process [`crate::Outcome`] carries, including the
    /// observability histograms when the machine records them.
    pub stats: Stats,
    /// Simulated instant the last request completed.
    pub finished_at: Picos,
}

impl ServingReport {
    /// Exact latency quantile over the completed requests (sorted
    /// vector, nearest-rank) — the report holds every sample, so no
    /// histogram approximation is involved. `q` is clamped to
    /// `[0, 1]`; an empty report returns zero.
    pub fn latency_quantile(&self, q: f64) -> Picos {
        let mut lat: Vec<Picos> = self.completions.iter().map(|c| c.latency()).collect();
        if lat.is_empty() {
            return Picos::ZERO;
        }
        lat.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    }

    /// Completed requests per simulated second.
    pub fn goodput_rps(&self) -> f64 {
        let secs = self.finished_at.as_nanos_f64() * 1e-9;
        if secs <= 0.0 {
            return 0.0;
        }
        self.completions.len() as f64 / secs
    }
}

/// Per-tenant serving state. A tenant's tasks share its host stack,
/// descriptor page and NxP SRAM slot, so at most one request of a
/// tenant runs at a time; later arrivals queue in `deferred`.
#[derive(Debug)]
pub(crate) struct TenantState {
    /// The loaded prototype process requests are spawned from.
    pub(crate) proto: u64,
    /// A request of this tenant is currently live.
    pub(crate) busy: bool,
    /// Arrived-but-not-admitted request indices, FIFO.
    pub(crate) deferred: VecDeque<usize>,
}

/// Driver state for one open-loop run, held by the machine while the
/// event loop is in serving mode.
#[derive(Debug)]
pub(crate) struct ServingCtx {
    /// The full request schedule (indexed by the heaps below).
    pub(crate) reqs: Vec<ServingRequest>,
    /// Per-host-core arrival queues, min-heaps on `(arrival, index)`.
    /// A request belongs to core `tenant % hosts` — tenant affinity,
    /// so admission order per core is deterministic.
    pub(crate) arrivals: Vec<BinaryHeap<Reverse<(Picos, usize)>>>,
    pub(crate) tenants: Vec<TenantState>,
    /// Finished requests, in completion order.
    pub(crate) completions: Vec<ServingCompletion>,
    /// Total requests submitted (the loop's termination target).
    pub(crate) total: usize,
}

impl ServingCtx {
    /// Builds the context: distributes arrivals across host cores by
    /// tenant affinity.
    pub(crate) fn new(tenants: &[u64], reqs: Vec<ServingRequest>, hosts: usize) -> Self {
        let mut arrivals: Vec<BinaryHeap<Reverse<(Picos, usize)>>> =
            (0..hosts).map(|_| BinaryHeap::new()).collect();
        for (i, r) in reqs.iter().enumerate() {
            arrivals[r.tenant % hosts].push(Reverse((r.arrival, i)));
        }
        let total = reqs.len();
        ServingCtx {
            reqs,
            arrivals,
            tenants: tenants
                .iter()
                .map(|&proto| TenantState {
                    proto,
                    busy: false,
                    deferred: VecDeque::new(),
                })
                .collect(),
            completions: Vec::with_capacity(total),
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(request: usize, arrival: u64, finished: u64) -> ServingCompletion {
        ServingCompletion {
            request,
            tenant: 0,
            arrival: Picos::from_nanos(arrival),
            finished: Picos::from_nanos(finished),
            exit_code: 0,
        }
    }

    #[test]
    fn latency_is_charged_from_arrival() {
        let c = comp(0, 100, 175);
        assert_eq!(c.latency(), Picos::from_nanos(75));
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let completions: Vec<ServingCompletion> =
            (0..100).map(|i| comp(i, 0, (i as u64 + 1) * 10)).collect();
        let r = ServingReport {
            completions,
            stats: Stats::default(),
            finished_at: Picos::from_nanos(1000),
        };
        assert_eq!(r.latency_quantile(0.5), Picos::from_nanos(500));
        assert_eq!(r.latency_quantile(0.99), Picos::from_nanos(990));
        assert_eq!(r.latency_quantile(1.0), Picos::from_nanos(1000));
        assert_eq!(r.latency_quantile(0.0), Picos::from_nanos(10));
        // 100 requests over 1 µs of simulated time.
        assert!((r.goodput_rps() - 1e8).abs() < 1.0);
    }

    #[test]
    fn empty_report_is_quietly_zero() {
        let r = ServingReport {
            completions: Vec::new(),
            stats: Stats::default(),
            finished_at: Picos::ZERO,
        };
        assert_eq!(r.latency_quantile(0.999), Picos::ZERO);
        assert_eq!(r.goodput_rps(), 0.0);
    }

    #[test]
    fn arrivals_shard_by_tenant_affinity() {
        let reqs = vec![
            ServingRequest { tenant: 0, arrival: Picos::from_nanos(5), arg: 0 },
            ServingRequest { tenant: 1, arrival: Picos::from_nanos(1), arg: 0 },
            ServingRequest { tenant: 2, arrival: Picos::from_nanos(3), arg: 0 },
        ];
        let ctx = ServingCtx::new(&[10, 11, 12], reqs, 2);
        // Tenants 0 and 2 land on core 0, tenant 1 on core 1.
        assert_eq!(ctx.arrivals[0].len(), 2);
        assert_eq!(ctx.arrivals[1].len(), 1);
        assert_eq!(ctx.total, 3);
    }
}
