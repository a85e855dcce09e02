//! Per-NxP health and the failover circuit breaker.
//!
//! The host cannot see a device die — it can only observe symptoms:
//! descriptors that never get picked up, retransmit budgets that
//! exhaust, a presence-detect bit that reads zero at a doorbell write.
//! Each NxP's [`NxpHealth`] turns those observations into a liveness
//! verdict with circuit-breaker semantics:
//!
//! * **Closed** — healthy, in normal placement rotation.
//! * **Open** — declared dead. No new work is placed on it; in-flight
//!   descriptors are reaped and victims re-placed.
//! * **HalfOpen** — the device rejoined (presence detect came back).
//!   Exactly one probe migration is allowed through; success closes
//!   the breaker, failure re-opens it.
//!
//! The breaker is driven entirely by *observed* events on the
//! deterministic simulation timeline — never by peeking at the fault
//! schedule — so failover decisions replay bit-identically and the
//! detection latency (retry budget × back-off) is itself part of the
//! modelled cost.

/// Circuit-breaker state for one NxP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: placement uses this NxP normally.
    #[default]
    Closed,
    /// Declared dead: excluded from placement until it rejoins.
    Open,
    /// Rejoined, unproven: one probe migration may be routed here.
    HalfOpen,
}

/// Health record for one NxP: its breaker and lifetime tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NxpHealth {
    /// Current breaker state.
    pub breaker: BreakerState,
    /// How many times this NxP has been declared dead.
    pub deaths: u64,
    /// How many times its breaker closed again after a probe.
    pub recoveries: u64,
}

impl NxpHealth {
    /// True when the NxP is declared dead.
    pub fn is_open(&self) -> bool {
        self.breaker == BreakerState::Open
    }

    /// A sign of life — a descriptor pickup or MSI. A successful round
    /// on a half-open breaker closes it: returns true when this was
    /// that probe's success.
    pub fn note_activity(&mut self) -> bool {
        let probe = self.breaker == BreakerState::HalfOpen;
        if probe {
            self.breaker = BreakerState::Closed;
            self.recoveries += 1;
        }
        probe
    }

    /// Declares the NxP dead: the breaker opens and placement stops
    /// routing work here. Idempotent.
    pub fn declare_dead(&mut self) {
        if !self.is_open() {
            self.breaker = BreakerState::Open;
            self.deaths += 1;
        }
    }

    /// Presence detect came back for a dead NxP: the breaker goes
    /// half-open, admitting one probe. No-op unless currently open.
    pub fn rejoin(&mut self) {
        if self.is_open() {
            self.breaker = BreakerState::HalfOpen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_lifecycle() {
        let mut h = NxpHealth::default();
        assert_eq!(h.breaker, BreakerState::Closed);

        h.declare_dead();
        assert!(h.is_open());
        assert_eq!(h.deaths, 1);

        // Idempotent death.
        h.declare_dead();
        assert_eq!(h.deaths, 1);

        // Rejoin admits one probe; activity on the half-open breaker
        // closes it.
        h.rejoin();
        assert_eq!(h.breaker, BreakerState::HalfOpen);
        assert!(!h.is_open());
        assert!(h.note_activity(), "the probe succeeded");
        assert_eq!(h.breaker, BreakerState::Closed);
        assert_eq!(h.recoveries, 1);
        // Activity on a closed breaker counts no further recovery.
        assert!(!h.note_activity());
        assert_eq!(h.recoveries, 1);
    }

    #[test]
    fn rejoin_is_a_noop_when_not_dead() {
        let mut h = NxpHealth::default();
        h.rejoin();
        assert_eq!(h.breaker, BreakerState::Closed);
    }
}
