//! Step-scoped scheduling state for the simulated serving stack: the
//! serving knobs, and per-backend replica fleets whose server slots model
//! queueing delay under a configurable concurrency limit.
//!
//! The scheduler deliberately knows nothing about engines or tenants — it
//! only tracks how much simulated work each server slot of one backend's
//! replicas has accepted this step, and which replicas are down restarting
//! after an injected crash. [`crate::InferenceService`] owns one
//! [`BackendQueue`] per distinct model profile and consults it for every
//! scheduling decision.

use crate::serving_faults::{ServingFaultInjector, ServingFaultProfile};
use embodied_profiler::{SimDuration, SimInstant};

embodied_profiler::record! {
    config;
    /// Serving-layer knobs (paper Rec. 1: batching, shared endpoints) plus the
    /// serving fault plane and its SLO-aware resilience tier.
    ///
    /// The default is a pure pass-through: no batching, an unbounded
    /// concurrency limit, a single infallible replica, and every resilience
    /// knob off — under which every call takes exactly the legacy per-module
    /// path and draw order, so reports are byte-identical to builds without
    /// the serving layer.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ServingConfig {
        /// Batch co-arriving same-model requests of a step phase into one
        /// shared latency bill with amortized per-request attribution.
        pub batching: bool,
        /// Simulated server slots per backend replica; 0 means unbounded (no
        /// queueing delay is ever modeled).
        pub concurrency: u32,
        /// Replicas per backend fleet (0 is treated as 1). Extra replicas add
        /// scheduling choice: placements go to the least-loaded healthy
        /// replica, and failover/hedging need a healthy peer to target.
        pub replicas: u32,
        /// Serving fault plane: replica crashes, brownouts, queue overflow.
        pub faults: ServingFaultProfile,
        /// Per-request SLO deadline: a call whose end-to-end serving latency
        /// exceeds it fails with [`crate::LlmError::DeadlineExceeded`].
        pub deadline: Option<SimDuration>,
        /// Hedging delay: when a placement would queue longer than this, the
        /// request is re-issued to a second healthy replica after the delay —
        /// first completion wins, both are billed.
        pub hedge_after: Option<SimDuration>,
        /// Admission-control threshold: once a backend has accepted this many
        /// placements in the current step, low-priority calls (reflection,
        /// communication, summarization) are shed; at twice the threshold
        /// everything is. 0 disables shedding.
        pub shed_depth: u32,
    }
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            batching: false,
            concurrency: 0,
            replicas: 1,
            faults: ServingFaultProfile::none(),
            deadline: None,
            hedge_after: None,
            shed_depth: 0,
        }
    }
}

impl ServingConfig {
    /// The default pass-through configuration.
    pub fn disabled() -> Self {
        ServingConfig::default()
    }

    /// Batching on, concurrency unbounded.
    pub fn batched() -> Self {
        ServingConfig {
            batching: true,
            ..Self::default()
        }
    }

    /// Batching off, `concurrency` server slots per backend replica.
    pub fn limited(concurrency: u32) -> Self {
        ServingConfig {
            concurrency,
            ..Self::default()
        }
    }

    /// Same config with `replicas` backend replicas per fleet.
    pub fn with_replicas(self, replicas: u32) -> Self {
        ServingConfig { replicas, ..self }
    }

    /// Same config with the given serving fault profile.
    pub fn with_faults(self, faults: ServingFaultProfile) -> Self {
        ServingConfig { faults, ..self }
    }

    /// Same config with a per-request SLO deadline.
    pub fn with_deadline(self, deadline: SimDuration) -> Self {
        ServingConfig {
            deadline: Some(deadline),
            ..self
        }
    }

    /// Same config with hedged requests after `hedge_after` of queueing.
    pub fn with_hedging(self, hedge_after: SimDuration) -> Self {
        ServingConfig {
            hedge_after: Some(hedge_after),
            ..self
        }
    }

    /// Same config with load shedding past `shed_depth` placements.
    pub fn with_shedding(self, shed_depth: u32) -> Self {
        ServingConfig { shed_depth, ..self }
    }

    /// Whether the layer changes nothing (the byte-identity fast path).
    pub fn is_passthrough(&self) -> bool {
        !self.batching
            && self.concurrency == 0
            && self.replicas <= 1
            && self.faults.is_none()
            && self.deadline.is_none()
            && self.hedge_after.is_none()
            && self.shed_depth == 0
    }

    /// Validated constructor: delegates the fault plane to
    /// [`ServingFaultProfile::validated`] (the scheduling knobs themselves
    /// are unsigned and cannot go out of range).
    pub fn validated(self) -> Result<Self, String> {
        self.faults.validated()?;
        Ok(self)
    }
}

/// One backend replica: per-step server-slot loads plus the instant until
/// which it is down cold-restarting after an injected crash.
#[derive(Debug, Clone)]
struct Replica {
    slots: Vec<SimDuration>,
    down_until: SimInstant,
}

impl Replica {
    fn new(concurrency: u32) -> Self {
        Replica {
            slots: vec![SimDuration::ZERO; concurrency as usize],
            down_until: SimInstant::EPOCH,
        }
    }

    fn healthy(&self, now: SimInstant) -> bool {
        self.down_until <= now
    }

    /// Load on the least-loaded slot — the queueing delay a request
    /// arriving now would wait. Unbounded (0 slots) never queues.
    fn delay(&self) -> SimDuration {
        self.slots
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Places `work` on the least-loaded slot (lowest index on ties),
    /// returning the queueing delay the request waited first.
    fn place(&mut self, work: SimDuration) -> SimDuration {
        self.place_tracked(work).0
    }

    /// [`Replica::place`], also returning the chosen slot (when bounded) so
    /// a hedge race can later shrink the loser's reservation.
    fn place_tracked(&mut self, work: SimDuration) -> (SimDuration, Option<usize>) {
        let Some(idx) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| **load)
            .map(|(idx, _)| idx)
        else {
            return (SimDuration::ZERO, None);
        };
        let queued = self.slots[idx];
        self.slots[idx] += work;
        (queued, Some(idx))
    }

    /// Returns `by` worth of reservation on `slot` — the hedge loser was
    /// cancelled before consuming its full booking.
    fn shrink(&mut self, slot: Option<usize>, by: SimDuration) {
        if let Some(idx) = slot {
            self.slots[idx] = self.slots[idx].saturating_sub(by);
        }
    }
}

/// What one scheduling decision on the replica fleet cost and triggered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlacementOutcome {
    /// Wait before service begins: slot queueing, restart waits, and
    /// overflow re-dispatch penalties.
    pub(crate) queue: SimDuration,
    /// Extra service time from a brownout (the request still completes).
    pub(crate) slowdown: SimDuration,
    /// Wasted partial service on a replica that crashed mid-request.
    pub(crate) failover_penalty: SimDuration,
    /// The serving replica crashed during this placement.
    pub(crate) crashed: bool,
    /// The request was re-dispatched to a healthy peer after the crash.
    pub(crate) failed_over: bool,
    /// The least-loaded healthy replica was already past the overflow
    /// threshold; the request paid a re-dispatch penalty.
    pub(crate) overflowed: bool,
    /// The serving replica was browned out.
    pub(crate) slowed: bool,
    /// A hedge was issued; `Some(true)` when the hedge won the race.
    pub(crate) hedged: Option<bool>,
}

/// Extra wait charged when a request spills past the overflow threshold
/// (the client re-dispatches after a rejected admission).
const OVERFLOW_REDISPATCH: SimDuration = SimDuration::from_millis(250);

/// Fraction of the request's service time wasted on a replica that
/// crashes mid-request (partial prefill lost before the failover).
const CRASH_WASTE: f64 = 0.3;

/// Per-backend, per-step replica fleet.
///
/// Work placed on the fleet goes to the least-loaded slot of the
/// least-loaded *healthy* replica (lowest index on ties); the load already
/// on that slot is the queueing delay the new request waits out first.
/// Slot loads reset at every step boundary — the paper's step loop is a
/// synchronization barrier, so queues cannot carry over — but a crashed
/// replica's restart clock keeps running on the simulated timeline.
#[derive(Debug, Clone)]
pub(crate) struct BackendQueue {
    replicas: Vec<Replica>,
}

impl BackendQueue {
    /// A fleet of `replicas` (0 treated as 1) with `concurrency` slots
    /// each (0 = unbounded, never queues).
    pub(crate) fn new(concurrency: u32, replicas: u32) -> Self {
        BackendQueue {
            replicas: (0..replicas.max(1))
                .map(|_| Replica::new(concurrency))
                .collect(),
        }
    }

    /// Clears all slot loads (step boundary). Restart clocks persist: a
    /// replica still cold-restarting stays down into the next step.
    pub(crate) fn reset(&mut self) {
        for r in &mut self.replicas {
            for s in &mut r.slots {
                *s = SimDuration::ZERO;
            }
        }
    }

    /// Index of the best (least queueing, lowest index on ties) healthy
    /// replica at `now`, excluding `skip`.
    fn best_healthy(&self, now: SimInstant, skip: Option<usize>) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, r)| Some(i) != skip && r.healthy(now))
            .min_by_key(|(_, r)| r.delay())
            .map(|(i, _)| i)
    }

    /// The delay a request arriving at `now` would wait before any slot
    /// frees, without reserving one — the bill for *dependent* follow-up
    /// calls that contend for the backend but whose own service time is
    /// already accounted sequentially. When every replica is down, the
    /// wait includes the soonest restart.
    pub(crate) fn delay(&self, now: SimInstant) -> SimDuration {
        if let Some(idx) = self.best_healthy(now, None) {
            return self.replicas[idx].delay();
        }
        self.replicas
            .iter()
            .map(|r| r.down_until.duration_since(now) + r.delay())
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Schedules `work` on the fleet at simulated instant `now`, drawing
    /// crash/brownout faults from `inj` and optionally hedging.
    ///
    /// Pipeline, in order: pick the least-loaded healthy replica (or wait
    /// out the soonest restart when none is up); charge an overflow
    /// re-dispatch if its backlog is already past the profile threshold;
    /// draw a crash (fail over to a healthy peer, or ride out the restart
    /// when the fleet has none); draw a brownout (service time inflates);
    /// finally, if hedging is on and the placement is browned out or would
    /// queue longer than `hedge_after`, issue the request to a second
    /// healthy replica too — first completion wins, the loser is cancelled
    /// (its reservation shrinks to what it consumed), and the caller bills
    /// the duplicate tokens. With one fault-free replica and hedging off
    /// this reduces exactly to the pre-fleet single-backend behavior.
    pub(crate) fn place_at(
        &mut self,
        now: SimInstant,
        work: SimDuration,
        inj: &mut ServingFaultInjector,
        hedge_after: Option<SimDuration>,
    ) -> PlacementOutcome {
        let mut out = PlacementOutcome::default();
        let profile = *inj.profile();

        // 1. Target selection: least-loaded healthy replica, else wait for
        //    the soonest restart.
        let mut target = match self.best_healthy(now, None) {
            Some(idx) => idx,
            None => {
                let idx = self
                    .replicas
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.down_until)
                    .map(|(i, _)| i)
                    .expect("fleet has at least one replica");
                out.queue += self.replicas[idx].down_until.duration_since(now);
                idx
            }
        };

        // 2. Overflow: even the best replica's backlog is past the
        //    threshold — admission rejects and the client re-dispatches.
        if !profile.overflow_queue.is_zero()
            && self.replicas[target].delay() >= profile.overflow_queue
        {
            out.overflowed = true;
            out.queue += OVERFLOW_REDISPATCH;
        }

        // 3. Crash: the serving replica dies mid-request; partial service
        //    is wasted and the replica cold-restarts. The request fails
        //    over to a healthy peer when one exists, otherwise it waits
        //    out the restart on the same replica.
        if inj.crash() {
            out.crashed = true;
            out.failover_penalty = work.mul_f64(CRASH_WASTE);
            self.replicas[target].down_until = now + profile.restart;
            match self.best_healthy(now, Some(target)) {
                Some(peer) => {
                    out.failed_over = true;
                    target = peer;
                }
                None => out.queue += profile.restart,
            }
        }

        // 4. Brownout: the replica serves, but slower.
        let mut effective = work;
        if inj.brownout() {
            out.slowed = true;
            effective = work.mul_f64(profile.brownout_factor.max(1.0));
            out.slowdown = effective.saturating_sub(work);
        }

        // 5. Placement, hedged when the primary looks slow — backlogged
        //    past the hedge trigger or browned out — and a second healthy
        //    replica is available. The duplicate serves at *clean* speed
        //    on the peer (brownouts are per-replica), so the race is
        //    primary queue + inflated service vs hedge delay + peer queue
        //    + clean service. First completion wins and the loser is
        //    cancelled: its reservation keeps only the capacity consumed
        //    before the winner returned, but its tokens are billed in
        //    full by the caller (the cancelled side already decoded them).
        let primary_delay = self.replicas[target].delay();
        let hedge_peer = hedge_after
            .filter(|h| primary_delay > *h || out.slowed)
            .and_then(|_| self.best_healthy(now, Some(target)));
        match hedge_peer {
            Some(peer) => {
                let h = hedge_after.expect("hedge peer implies hedge delay");
                let (d1, primary_slot) = self.replicas[target].place_tracked(effective);
                let (d2, peer_slot) = self.replicas[peer].place_tracked(work);
                let won = h + d2 + work < d1 + effective;
                out.hedged = Some(won);
                if won {
                    // The clean duplicate finishes first: the caller rides
                    // the hedge path and never suffers the brownout. The
                    // primary is cancelled at the winner's completion
                    // instant, freeing whatever it had not yet served.
                    let t_win = h + d2 + work;
                    let unused = (d1 + effective).saturating_sub(t_win).min(effective);
                    self.replicas[target].shrink(primary_slot, unused);
                    out.queue += h + d2;
                    out.slowdown = SimDuration::ZERO;
                } else {
                    // The primary finishes first; the duplicate is
                    // cancelled with its remaining service unconsumed.
                    let t_win = d1 + effective;
                    let unused = (h + d2 + work).saturating_sub(t_win).min(work);
                    self.replicas[peer].shrink(peer_slot, unused);
                    out.queue += d1;
                }
            }
            None => out.queue += self.replicas[target].place(effective),
        }
        out
    }
}

/// One fleet-mode replica: slot *busy-until instants* on the global
/// virtual timeline instead of per-step load sums. Nothing ever resets —
/// a slot that is busy until 14:32 stays busy until 14:32 no matter how
/// many episode step boundaries pass, which is exactly the cross-episode
/// queueing the per-step [`Replica`] cannot express.
#[derive(Debug, Clone)]
struct FleetReplica {
    /// Busy-until instant per server slot; empty = unbounded (never
    /// queues).
    slots: Vec<SimInstant>,
    down_until: SimInstant,
}

impl FleetReplica {
    fn new(concurrency: u32) -> Self {
        FleetReplica {
            slots: vec![SimInstant::EPOCH; concurrency as usize],
            down_until: SimInstant::EPOCH,
        }
    }

    fn healthy(&self, now: SimInstant) -> bool {
        self.down_until <= now
    }

    /// Queueing delay a request arriving at `now` would wait before its
    /// best slot frees.
    fn delay(&self, now: SimInstant) -> SimDuration {
        self.slots
            .iter()
            .map(|&busy| busy.duration_since(now))
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Books `work` on the least-loaded slot (lowest index on ties) for a
    /// request arriving at `now`. Returns the queueing delay waited, the
    /// absolute completion instant, the chosen slot, and the slot's prior
    /// busy-until (so a hedge cancellation can revert an unstarted
    /// booking).
    fn place_tracked(
        &mut self,
        now: SimInstant,
        work: SimDuration,
    ) -> (SimDuration, SimInstant, Option<usize>, SimInstant) {
        let Some(idx) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, busy)| **busy)
            .map(|(idx, _)| idx)
        else {
            // Unbounded: service starts immediately and nothing is booked.
            return (SimDuration::ZERO, now + work, None, SimInstant::EPOCH);
        };
        let prev = self.slots[idx];
        let start = prev.max(now);
        let completion = start + work;
        self.slots[idx] = completion;
        (start.duration_since(now), completion, Some(idx), prev)
    }

    /// Cancels a booking on `slot` at instant `t_win` (the hedge winner's
    /// completion): the slot keeps only what it served before `t_win`, and
    /// reverts fully to `prev` if the booking never started.
    fn cancel_at(&mut self, slot: Option<usize>, prev: SimInstant, t_win: SimInstant) {
        if let Some(idx) = slot {
            self.slots[idx] = prev.max(self.slots[idx].min(t_win));
        }
    }
}

/// Fleet-mode backend queue over the global virtual timeline.
///
/// Mirrors the [`BackendQueue`] five-stage pipeline — target selection,
/// overflow, crash/failover, brownout, hedged placement — but in absolute
/// time: placements book slot intervals that persist across episode step
/// boundaries, every placement returns the completion instant for the
/// fleet's `DecodeFinish` event, and a crash returns the restart instant
/// for its `ReplicaRestart` event. The fault-draw order is deterministic
/// per seed but intentionally *not* draw-compatible with the per-step
/// scheduler: fleet mode is a different serving regime, not a replay of
/// the old one.
#[derive(Debug, Clone)]
pub(crate) struct FleetBackend {
    replicas: Vec<FleetReplica>,
}

impl FleetBackend {
    /// A fleet of `replicas` (0 treated as 1) with `concurrency` slots
    /// each (0 = unbounded, never queues).
    pub(crate) fn new(concurrency: u32, replicas: u32) -> Self {
        FleetBackend {
            replicas: (0..replicas.max(1))
                .map(|_| FleetReplica::new(concurrency))
                .collect(),
        }
    }

    fn best_healthy(&self, now: SimInstant, skip: Option<usize>) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, r)| Some(i) != skip && r.healthy(now))
            .min_by_key(|(_, r)| r.delay(now))
            .map(|(i, _)| i)
    }

    /// The delay a request arriving at `now` would wait before any slot
    /// frees, without booking one — the dependent-call contention bill,
    /// same contract as [`BackendQueue::delay`].
    pub(crate) fn delay(&self, now: SimInstant) -> SimDuration {
        if let Some(idx) = self.best_healthy(now, None) {
            return self.replicas[idx].delay(now);
        }
        self.replicas
            .iter()
            .map(|r| r.down_until.duration_since(now) + r.delay(r.down_until))
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Schedules `work` arriving at global instant `now`; returns what the
    /// placement cost, the absolute completion instant (the fleet pushes a
    /// `DecodeFinish` there), and, when the serving replica crashed, the
    /// `(replica, restart_instant)` for a `ReplicaRestart` event.
    pub(crate) fn place_at(
        &mut self,
        now: SimInstant,
        work: SimDuration,
        inj: &mut ServingFaultInjector,
        hedge_after: Option<SimDuration>,
    ) -> (PlacementOutcome, SimInstant, Option<(usize, SimInstant)>) {
        let mut out = PlacementOutcome::default();
        let mut restart_event = None;
        let profile = *inj.profile();

        // 1. Target selection. With every replica down the request waits
        //    out the soonest restart: its effective arrival slides forward.
        let mut arrive = now;
        let mut target = match self.best_healthy(now, None) {
            Some(idx) => idx,
            None => {
                let idx = self
                    .replicas
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.down_until)
                    .map(|(i, _)| i)
                    .expect("fleet has at least one replica");
                out.queue += self.replicas[idx].down_until.duration_since(now);
                arrive = arrive.max(self.replicas[idx].down_until);
                idx
            }
        };

        // 2. Overflow: admission rejects, the client re-dispatches after
        //    the penalty — its arrival slides by the re-dispatch wait.
        if !profile.overflow_queue.is_zero()
            && self.replicas[target].delay(arrive) >= profile.overflow_queue
        {
            out.overflowed = true;
            out.queue += OVERFLOW_REDISPATCH;
            arrive = arrive + OVERFLOW_REDISPATCH;
        }

        // 3. Crash: partial service wasted, replica cold-restarts (the
        //    caller schedules the ReplicaRestart event), request fails
        //    over to a healthy peer or rides out the restart.
        if inj.crash() {
            out.crashed = true;
            out.failover_penalty = work.mul_f64(CRASH_WASTE);
            let restart_at = arrive + profile.restart;
            self.replicas[target].down_until = restart_at;
            restart_event = Some((target, restart_at));
            match self.best_healthy(arrive, Some(target)) {
                Some(peer) => {
                    out.failed_over = true;
                    target = peer;
                }
                None => {
                    out.queue += profile.restart;
                    arrive = restart_at;
                }
            }
        }

        // 4. Brownout: the replica serves, but slower.
        let mut effective = work;
        if inj.brownout() {
            out.slowed = true;
            effective = work.mul_f64(profile.brownout_factor.max(1.0));
            out.slowdown = effective.saturating_sub(work);
        }

        // 5. Placement, hedged exactly as in the per-step pipeline, except
        //    the race is decided on absolute completion instants: the
        //    duplicate dispatches `hedge_after` later and serves clean on
        //    the peer; first completion wins, the loser's booking is
        //    cancelled at the winner's completion instant.
        let primary_delay = self.replicas[target].delay(arrive);
        let hedge_peer = hedge_after
            .filter(|h| primary_delay > *h || out.slowed)
            .and_then(|_| self.best_healthy(arrive, Some(target)));
        let completion = match hedge_peer {
            Some(peer) => {
                let h = hedge_after.expect("hedge peer implies hedge delay");
                let (d1, c1, primary_slot, prev1) =
                    self.replicas[target].place_tracked(arrive, effective);
                let (d2, c2, peer_slot, prev2) =
                    self.replicas[peer].place_tracked(arrive + h, work);
                let won = c2 < c1;
                out.hedged = Some(won);
                if won {
                    self.replicas[target].cancel_at(primary_slot, prev1, c2);
                    out.queue += h + d2;
                    out.slowdown = SimDuration::ZERO;
                    c2
                } else {
                    self.replicas[peer].cancel_at(peer_slot, prev2, c1);
                    out.queue += d1;
                    c1
                }
            }
            None => {
                let (d, c, _, _) = self.replicas[target].place_tracked(arrive, effective);
                out.queue += d;
                c
            }
        };
        (out, completion, restart_event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sec(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn no_faults() -> ServingFaultInjector {
        ServingFaultInjector::new(ServingFaultProfile::none(), 0)
    }

    fn at(secs: u64) -> SimInstant {
        SimInstant::EPOCH + sec(secs)
    }

    #[test]
    fn default_is_passthrough() {
        assert!(ServingConfig::default().is_passthrough());
        assert!(ServingConfig::disabled().is_passthrough());
        assert!(!ServingConfig::batched().is_passthrough());
        assert!(!ServingConfig::limited(2).is_passthrough());
        assert!(!ServingConfig::disabled().with_replicas(3).is_passthrough());
        assert!(!ServingConfig::disabled()
            .with_faults(ServingFaultProfile::brownouts(0.1))
            .is_passthrough());
        assert!(!ServingConfig::disabled()
            .with_deadline(sec(30))
            .is_passthrough());
        assert!(!ServingConfig::disabled()
            .with_hedging(sec(5))
            .is_passthrough());
        assert!(!ServingConfig::disabled().with_shedding(4).is_passthrough());
        // A single replica is the implicit baseline, not a new regime.
        assert!(ServingConfig::disabled().with_replicas(1).is_passthrough());
    }

    #[test]
    fn unbounded_queue_never_delays() {
        let mut q = BackendQueue::new(0, 1);
        let out = q.place_at(SimInstant::EPOCH, sec(100), &mut no_faults(), None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(q.delay(SimInstant::EPOCH), SimDuration::ZERO);
    }

    #[test]
    fn least_loaded_slot_wins_with_lowest_index_ties() {
        let mut q = BackendQueue::new(2, 1);
        let mut inj = no_faults();
        let place = |q: &mut BackendQueue, inj: &mut ServingFaultInjector, w| {
            q.place_at(SimInstant::EPOCH, w, inj, None).queue
        };
        assert_eq!(place(&mut q, &mut inj, sec(10)), SimDuration::ZERO); // slot 0
        assert_eq!(place(&mut q, &mut inj, sec(10)), SimDuration::ZERO); // slot 1
                                                                         // Tie at 10 s each: slot 0 wins, so the request queues 10 s.
        assert_eq!(place(&mut q, &mut inj, sec(5)), sec(10));
        // Loads now (15, 10): the consume-only delay is the min.
        assert_eq!(q.delay(SimInstant::EPOCH), sec(10));
        q.reset();
        assert_eq!(q.delay(SimInstant::EPOCH), SimDuration::ZERO);
    }

    #[test]
    fn extra_replicas_absorb_load() {
        // Two replicas with one slot each behave like two slots: the third
        // placement queues behind the least-loaded replica.
        let mut q = BackendQueue::new(1, 2);
        let mut inj = no_faults();
        assert_eq!(
            q.place_at(SimInstant::EPOCH, sec(10), &mut inj, None).queue,
            SimDuration::ZERO
        );
        assert_eq!(
            q.place_at(SimInstant::EPOCH, sec(6), &mut inj, None).queue,
            SimDuration::ZERO
        );
        assert_eq!(
            q.place_at(SimInstant::EPOCH, sec(5), &mut inj, None).queue,
            sec(6)
        );
    }

    #[test]
    fn crash_fails_over_and_restart_expires() {
        // crash_rate 1.0: every placement crashes its replica.
        let profile = ServingFaultProfile {
            crash_rate: 1.0,
            restart: sec(20),
            ..ServingFaultProfile::none()
        };
        let mut inj = ServingFaultInjector::new(profile, 1);
        let mut q = BackendQueue::new(1, 2);
        let out = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, None);
        assert!(out.crashed);
        assert!(out.failed_over, "a healthy peer existed");
        assert_eq!(out.failover_penalty, sec(3));
        // Second placement: replica 0 is down, replica 1 takes it, crashes
        // too, and with no healthy peer left the request rides out the
        // restart.
        let out = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, None);
        assert!(out.crashed);
        assert!(!out.failed_over);
        assert!(
            out.queue >= sec(20),
            "restart wait charged: {:?}",
            out.queue
        );
        // After the restart window both replicas serve again.
        assert!(q.best_healthy(at(25), None).is_some());
        // reset() clears loads but not restart clocks.
        q.reset();
        assert!(q.best_healthy(SimInstant::EPOCH, None).is_none());
    }

    #[test]
    fn brownout_inflates_service_time() {
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 1);
        let out = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, None);
        assert!(out.slowed);
        assert_eq!(out.slowdown, sec(20)); // 3x factor: 30 s total, 20 s extra
                                           // The inflated load is what the next request queues behind.
        let out = q.place_at(SimInstant::EPOCH, sec(1), &mut inj, None);
        assert!(out.queue >= sec(30), "queued {:?}", out.queue);
    }

    #[test]
    fn overflow_charges_redispatch() {
        let profile = ServingFaultProfile {
            overflow_queue: sec(5),
            ..ServingFaultProfile::none()
        };
        let mut inj = ServingFaultInjector::new(profile, 1);
        let mut q = BackendQueue::new(1, 1);
        let first = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, None);
        assert!(!first.overflowed);
        let spilled = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, None);
        assert!(spilled.overflowed);
        assert_eq!(spilled.queue, sec(10) + OVERFLOW_REDISPATCH);
    }

    #[test]
    fn queue_triggered_hedge_loses_to_the_least_loaded_primary() {
        let mut q = BackendQueue::new(1, 2);
        let mut inj = no_faults();
        // Load replica 0 with 30 s, replica 1 with 8 s.
        q.replicas[0].place(sec(30));
        q.replicas[1].place(sec(8));
        // Primary is replica 1 (8 s backlog > 2 s hedge trigger); the hedge
        // goes to replica 0 (30 s backlog) and loses the race — the
        // primary was already the best choice. Queue stays 8 s, but the
        // duplicate's tokens were burned.
        let out = q.place_at(SimInstant::EPOCH, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(out.queue, sec(8));
    }

    #[test]
    fn hedge_beats_a_browned_out_primary() {
        // Every placement browns out (3x service), but the duplicate
        // serves clean on the peer: 2 s hedge delay + 10 s clean beats
        // 30 s inflated. The caller never suffers the slowdown.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 2);
        let out = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(true), "clean duplicate wins the race");
        assert!(out.slowed, "the brownout still happened on the primary");
        assert_eq!(out.slowdown, SimDuration::ZERO, "but is never suffered");
        assert_eq!(out.queue, sec(2), "hedge path: 2 s delay + idle peer");
        // Without hedging the same draw charges the full 20 s slowdown.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 2);
        let out = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, None);
        assert_eq!(out.slowdown, sec(20));
    }

    #[test]
    fn hedge_loser_is_cancelled_and_frees_capacity() {
        // Winning hedge: the brownout inflates the primary's service to
        // 30 s, the clean duplicate completes at 2 + 10 = 12 s, and the
        // primary is cancelled with 18 s of its booking unserved.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 2);
        let out = q.place_at(SimInstant::EPOCH, sec(10), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(true));
        assert_eq!(
            q.replicas[0].delay(),
            sec(12),
            "primary keeps only the consumed part"
        );
        assert_eq!(q.replicas[1].delay(), sec(10), "winner serves in full");

        // Losing hedge: the primary finishes at 13 s, before the deeply
        // backlogged duplicate would even start (32 s) — the duplicate is
        // cancelled without consuming any peer capacity.
        let mut q = BackendQueue::new(1, 2);
        let mut inj = no_faults();
        q.replicas[0].place(sec(30));
        q.replicas[1].place(sec(8));
        let out = q.place_at(SimInstant::EPOCH, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(q.replicas[0].delay(), sec(30), "cancelled before starting");
        assert_eq!(q.replicas[1].delay(), sec(13));
    }

    #[test]
    fn hedging_needs_backlog_and_a_peer() {
        let mut inj = no_faults();
        // No backlog: below the trigger, no hedge.
        let mut q = BackendQueue::new(1, 2);
        let out = q.place_at(SimInstant::EPOCH, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, None);
        // Single replica: backlog but nowhere to hedge.
        let mut q = BackendQueue::new(1, 1);
        q.replicas[0].place(sec(30));
        let out = q.place_at(SimInstant::EPOCH, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, None);
        assert_eq!(out.queue, sec(30));
    }

    #[test]
    fn fleet_backend_queues_across_arrivals_without_reset() {
        // Two requests 5 s apart on one slot: the second queues behind the
        // remaining 5 s of the first — state persists, no step boundary
        // ever clears it.
        let mut q = FleetBackend::new(1, 1);
        let mut inj = no_faults();
        let (out, c1, restart) = q.place_at(at(0), sec(10), &mut inj, None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(c1, at(10));
        assert!(restart.is_none());
        let (out, c2, _) = q.place_at(at(5), sec(10), &mut inj, None);
        assert_eq!(out.queue, sec(5), "waits out the in-flight request");
        assert_eq!(c2, at(20));
        // Once the backlog drains, arrivals start fresh.
        let (out, c3, _) = q.place_at(at(30), sec(2), &mut inj, None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(c3, at(32));
        assert_eq!(q.delay(at(30)), sec(2), "booked by the request itself");
        assert_eq!(q.delay(at(32)), SimDuration::ZERO);
    }

    #[test]
    fn fleet_backend_crash_reports_restart_event() {
        let profile = ServingFaultProfile {
            crash_rate: 1.0,
            restart: sec(20),
            ..ServingFaultProfile::none()
        };
        let mut inj = ServingFaultInjector::new(profile, 1);
        let mut q = FleetBackend::new(1, 2);
        let (out, _, restart) = q.place_at(at(0), sec(10), &mut inj, None);
        assert!(out.crashed && out.failed_over);
        let (replica, restart_at) = restart.expect("crash schedules a restart");
        assert_eq!(restart_at, at(20));
        // The crashed replica is down until its restart instant, then
        // serves again — purely by clock comparison, no reset call.
        assert!(!q.replicas[replica].healthy(at(19)));
        assert!(q.replicas[replica].healthy(at(20)));
    }

    #[test]
    fn fleet_backend_hedge_race_on_completion_instants() {
        // Primary (replica 1) busy until 8 s, peer (replica 0) until 30 s:
        // the duplicate dispatches at 2 s, starts at 30 s, completes at
        // 35 s — the primary completes at 13 s and wins; the loser's
        // booking reverts entirely.
        let mut q = FleetBackend::new(1, 2);
        let mut inj = no_faults();
        q.replicas[0].place_tracked(at(0), sec(30));
        q.replicas[1].place_tracked(at(0), sec(8));
        let (out, completion, _) = q.place_at(at(0), sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(out.queue, sec(8));
        assert_eq!(completion, at(13));
        assert_eq!(q.replicas[0].slots[0], at(30), "loser reverted");
        assert_eq!(q.replicas[1].slots[0], at(13));

        // Browned-out primary: the clean duplicate wins at 2 + 10 = 12 s,
        // and the primary keeps only the 12 s it served before the cancel.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = FleetBackend::new(1, 2);
        let (out, completion, _) = q.place_at(at(0), sec(10), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(true));
        assert_eq!(
            out.slowdown,
            SimDuration::ZERO,
            "winner rode the clean path"
        );
        assert_eq!(completion, at(12));
        assert_eq!(
            q.replicas[0].slots[0],
            at(12),
            "cancelled at winner's finish"
        );
    }

    #[test]
    fn fleet_backend_matches_per_step_queueing_at_a_common_instant() {
        // Same work sequence, same instant, no faults: the absolute-time
        // pipeline degenerates to the per-step one (delays and queue bills
        // agree), anchoring fleet mode to the validated scheduler.
        let works = [7u64, 3, 11, 2, 9];
        let mut legacy = BackendQueue::new(2, 2);
        let mut fleet = FleetBackend::new(2, 2);
        let mut inj_a = no_faults();
        let mut inj_b = no_faults();
        for w in works {
            let a = legacy.place_at(at(0), sec(w), &mut inj_a, None);
            let (b, completion, _) = fleet.place_at(at(0), sec(w), &mut inj_b, None);
            assert_eq!(a.queue, b.queue);
            assert_eq!(completion.duration_since(at(0)), b.queue + sec(w));
        }
        assert_eq!(legacy.delay(at(0)), fleet.delay(at(0)));
    }

    /// Total queue delay for `works` placed in order on `c` slots.
    fn total_queue(works: &[u64], c: u32) -> SimDuration {
        let mut q = BackendQueue::new(c, 1);
        let mut inj = no_faults();
        works
            .iter()
            .map(|&w| {
                q.place_at(
                    SimInstant::EPOCH,
                    SimDuration::from_micros(w.max(1)),
                    &mut inj,
                    None,
                )
                .queue
            })
            .sum()
    }

    proptest! {
        /// Satellite invariant: one submission per tenant sees zero queue
        /// delay once concurrency reaches the tenant count, and total
        /// queue delay is monotone non-increasing as slots are added
        /// (equivalently: monotone non-decreasing as concurrency shrinks).
        #[test]
        fn queue_delay_zero_at_full_concurrency_and_monotone(
            works in proptest::collection::vec(1u64..30_000_000, 1..12),
        ) {
            let k = works.len() as u32;
            prop_assert_eq!(total_queue(&works, k), SimDuration::ZERO);
            prop_assert_eq!(total_queue(&works, 0), SimDuration::ZERO);
            let mut prev = total_queue(&works, 1);
            for c in 2..=k {
                let cur = total_queue(&works, c);
                prop_assert!(
                    cur <= prev,
                    "queue delay grew from {} to {} when adding a slot (c={})",
                    prev, cur, c
                );
                prev = cur;
            }
        }

        /// A fault-free single replica with hedging off reduces exactly to
        /// the pre-fleet single-backend scheduler: spreading the same work
        /// over r replicas can only shrink total queueing.
        #[test]
        fn extra_replicas_never_increase_queueing(
            works in proptest::collection::vec(1u64..30_000_000, 1..12),
            replicas in 1u32..4,
        ) {
            let run = |r: u32| {
                let mut q = BackendQueue::new(1, r);
                let mut inj = no_faults();
                works
                    .iter()
                    .map(|&w| {
                        q.place_at(
                            SimInstant::EPOCH,
                            SimDuration::from_micros(w),
                            &mut inj,
                            None,
                        )
                        .queue
                    })
                    .sum::<SimDuration>()
            };
            prop_assert!(run(replicas) <= run(1));
        }
    }
}
