//! Scheduling state of the simulated serving stack: the serving knobs, and
//! per-backend replica sets whose server slots model queueing delay under a
//! configurable concurrency limit.
//!
//! The scheduler deliberately knows nothing about engines, tenants or
//! episodes. It only tracks, on one absolute simulated timeline, the
//! instant until which each server slot of one backend's replicas is busy,
//! and the instant until which each crashed replica is down restarting.
//! [`crate::InferenceService`] owns one [`Backend`] per distinct model
//! profile and consults it for every scheduling decision.

use crate::serving_faults::{ServingFaultInjector, ServingFaultProfile};
use embodied_profiler::{SimDuration, SimInstant};

/// Ceiling on [`ServingConfig::concurrency`] and on
/// [`ServingConfig::replicas`]. A backend allocates one slot per unit of
/// concurrency on every replica, so an unchecked value read from JSON
/// could ask for gigabytes; no simulated deployment comes near this many.
pub const MAX_SERVING_WIDTH: u32 = 1024;

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
        /// Batch co-arriving same-model requests of a fan-out into one
        /// shared latency bill with amortized per-request attribution.
        pub batching: bool,
        /// Simulated server slots per backend replica; 0 means unbounded (no
        /// queueing delay is ever modeled). At most [`MAX_SERVING_WIDTH`].
        pub concurrency: u32,
        /// Replicas per backend (0 is treated as 1; at most
        /// [`MAX_SERVING_WIDTH`]). Extra replicas add
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
        /// Admission-control threshold: once this many placements are still
        /// in service, low-priority calls (reflection, communication,
        /// summarization) are shed; at twice the threshold everything is.
        /// 0 disables shedding.
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

    /// Validated constructor: `concurrency` and `replicas` stay within
    /// [`MAX_SERVING_WIDTH`], and the fault plane passes
    /// [`ServingFaultProfile::validated`].
    pub fn validated(self) -> Result<Self, String> {
        for (field, value) in [
            ("concurrency", self.concurrency),
            ("replicas", self.replicas),
        ] {
            if value > MAX_SERVING_WIDTH {
                return Err(format!(
                    "{field} {value} exceeds the {MAX_SERVING_WIDTH} ceiling"
                ));
            }
        }
        self.faults.validated()?;
        Ok(self)
    }
}

/// One backend replica: the busy-until instant of each server slot, and
/// the instant until which it is down cold-restarting after an injected
/// crash. Nothing ever resets: a slot busy until 14:32 stays busy until
/// 14:32 however many step boundaries pass.
#[derive(Debug, Clone)]
struct Replica {
    /// Busy-until instant per server slot; empty = unbounded (never
    /// queues).
    slots: Vec<SimInstant>,
    down_until: SimInstant,
}

impl Replica {
    fn new(concurrency: u32) -> Self {
        Replica {
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
    fn place(
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

/// What one scheduling decision on a backend cost and triggered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlacementOutcome {
    /// Wait before service begins: slot queueing, restart waits, and
    /// overflow re-dispatch penalties.
    pub(crate) queue: SimDuration,
    /// Extra service time from a brownout (the request still completes).
    pub(crate) slowdown: SimDuration,
    /// Wasted partial service on a replica that crashed mid-request.
    pub(crate) failover_penalty: SimDuration,
    /// The absolute instant the request completes.
    pub(crate) completion: SimInstant,
    /// The serving replica crashed during this placement; it rejoins at
    /// this instant.
    pub(crate) restart: Option<SimInstant>,
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

/// One model's replica set on the absolute simulated timeline.
///
/// Work placed on the backend goes to the least-loaded slot of the
/// least-loaded *healthy* replica (lowest index on ties) and waits until
/// that slot frees. Placements book slot intervals that persist across
/// step and episode boundaries, so every request queues behind exactly
/// the work still in service when it arrives.
#[derive(Debug, Clone)]
pub(crate) struct Backend {
    replicas: Vec<Replica>,
}

impl Backend {
    /// A backend of `replicas` (0 treated as 1) with `concurrency` slots
    /// each (0 = unbounded, never queues).
    pub(crate) fn new(concurrency: u32, replicas: u32) -> Self {
        Backend {
            replicas: (0..replicas.max(1))
                .map(|_| Replica::new(concurrency))
                .collect(),
        }
    }

    /// Index of the best (least queueing, lowest index on ties) healthy
    /// replica at `now`, excluding `skip`.
    fn best_healthy(&self, now: SimInstant, skip: Option<usize>) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, r)| Some(i) != skip && r.healthy(now))
            .min_by_key(|(_, r)| r.delay(now))
            .map(|(i, _)| i)
    }

    /// The delay a request arriving at `now` would wait before any slot
    /// frees, without booking one: the bill for *dependent* follow-up
    /// calls that contend for the backend but whose own service time is
    /// already accounted sequentially. When every replica is down, the
    /// wait includes the soonest restart.
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

    /// Schedules `work` arriving at instant `now`, drawing crash/brownout
    /// faults from `inj` and optionally hedging.
    ///
    /// Pipeline, in order: pick the least-loaded healthy replica (or wait
    /// out the soonest restart when none is up); charge an overflow
    /// re-dispatch if its backlog is already past the profile threshold;
    /// draw a crash (fail over to a healthy peer, or ride out the restart
    /// when there is none); draw a brownout (service time inflates);
    /// finally, if hedging is on and the placement is browned out or would
    /// queue longer than `hedge_after`, issue the request to a second
    /// healthy replica too: first completion wins, and the loser is
    /// cancelled at the winner's completion instant (the caller bills the
    /// duplicate tokens). Each stage that makes the client wait slides its
    /// effective arrival forward.
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
                    .expect("backend has at least one replica");
                out.queue += self.replicas[idx].down_until.duration_since(now);
                arrive = arrive.max(self.replicas[idx].down_until);
                idx
            }
        };

        // 2. Overflow: even the best replica's backlog is past the
        //    threshold; admission rejects and the client re-dispatches.
        if !profile.overflow_queue.is_zero()
            && self.replicas[target].delay(arrive) >= profile.overflow_queue
        {
            out.overflowed = true;
            out.queue += OVERFLOW_REDISPATCH;
            arrive = arrive + OVERFLOW_REDISPATCH;
        }

        // 3. Crash: the serving replica dies mid-request; partial service
        //    is wasted and the replica cold-restarts. The request fails
        //    over to a healthy peer when one exists, otherwise it waits
        //    out the restart on the same replica.
        if inj.crash() {
            out.failover_penalty = work.mul_f64(CRASH_WASTE);
            let restart_at = arrive + profile.restart;
            self.replicas[target].down_until = restart_at;
            out.restart = Some(restart_at);
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

        // 5. Placement, hedged when the primary looks slow (backlogged
        //    past the hedge trigger or browned out) and a second healthy
        //    replica is available. The duplicate dispatches `hedge_after`
        //    later and serves at *clean* speed on the peer (brownouts are
        //    per-replica). First completion wins; the loser's booking is
        //    cancelled at the winner's completion instant, but its tokens
        //    are billed in full by the caller.
        let primary_delay = self.replicas[target].delay(arrive);
        let hedge_peer = hedge_after
            .filter(|h| primary_delay > *h || out.slowed)
            .and_then(|_| self.best_healthy(arrive, Some(target)));
        out.completion = match hedge_peer {
            Some(peer) => {
                let h = hedge_after.expect("hedge peer implies hedge delay");
                let (d1, c1, primary_slot, prev1) = self.replicas[target].place(arrive, effective);
                let (d2, c2, peer_slot, prev2) = self.replicas[peer].place(arrive + h, work);
                let won = c2 < c1;
                out.hedged = Some(won);
                if won {
                    // The clean duplicate finishes first: the caller rides
                    // the hedge path and never suffers the brownout.
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
                let (d, c, _, _) = self.replicas[target].place(arrive, effective);
                out.queue += d;
                c
            }
        };
        out
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
    fn width_ceiling_is_inclusive() {
        let at_ceiling = ServingConfig::limited(MAX_SERVING_WIDTH).with_replicas(MAX_SERVING_WIDTH);
        assert!(at_ceiling.validated().is_ok());
        assert!(ServingConfig::limited(MAX_SERVING_WIDTH + 1)
            .validated()
            .is_err());
        assert!(ServingConfig::disabled()
            .with_replicas(u32::MAX)
            .validated()
            .is_err());
    }

    #[test]
    fn unbounded_backend_never_delays() {
        let mut q = Backend::new(0, 1);
        let out = q.place_at(at(0), sec(100), &mut no_faults(), None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(out.completion, at(100));
        assert_eq!(q.delay(at(0)), SimDuration::ZERO);
    }

    #[test]
    fn least_loaded_slot_wins_with_lowest_index_ties() {
        let mut q = Backend::new(2, 1);
        let mut inj = no_faults();
        let mut place = |w| q.place_at(at(0), w, &mut inj, None).queue;
        assert_eq!(place(sec(10)), SimDuration::ZERO); // slot 0
        assert_eq!(place(sec(10)), SimDuration::ZERO); // slot 1
                                                       // Tie at 10 s each: slot 0 wins, so the request queues 10 s.
        assert_eq!(place(sec(5)), sec(10));
        // Busy until (15, 10): the consume-only delay is the min.
        assert_eq!(q.delay(at(0)), sec(10));
        assert_eq!(q.replicas[0].slots, vec![at(15), at(10)]);
    }

    #[test]
    fn queues_across_arrivals_without_reset() {
        // Two requests 5 s apart on one slot: the second queues behind the
        // remaining 5 s of the first.
        let mut q = Backend::new(1, 1);
        let mut inj = no_faults();
        let out = q.place_at(at(0), sec(10), &mut inj, None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(out.completion, at(10));
        assert!(out.restart.is_none());
        let out = q.place_at(at(5), sec(10), &mut inj, None);
        assert_eq!(out.queue, sec(5), "waits out the in-flight request");
        assert_eq!(out.completion, at(20));
        // Once the backlog drains, arrivals start fresh.
        let out = q.place_at(at(30), sec(2), &mut inj, None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(out.completion, at(32));
        assert_eq!(q.delay(at(30)), sec(2), "booked by the request itself");
        assert_eq!(q.delay(at(32)), SimDuration::ZERO);
    }

    #[test]
    fn extra_replicas_absorb_load() {
        // Two replicas with one slot each behave like two slots: the third
        // placement queues behind the least-loaded replica.
        let mut q = Backend::new(1, 2);
        let mut inj = no_faults();
        assert_eq!(
            q.place_at(at(0), sec(10), &mut inj, None).queue,
            SimDuration::ZERO
        );
        assert_eq!(
            q.place_at(at(0), sec(6), &mut inj, None).queue,
            SimDuration::ZERO
        );
        assert_eq!(q.place_at(at(0), sec(5), &mut inj, None).queue, sec(6));
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
        let mut q = Backend::new(1, 2);
        let out = q.place_at(at(0), sec(10), &mut inj, None);
        assert_eq!(out.restart, Some(at(20)), "crash reports its restart");
        assert!(out.failed_over, "a healthy peer existed");
        assert_eq!(out.failover_penalty, sec(3));
        // Second placement: replica 0 is down, replica 1 takes it, crashes
        // too, and with no healthy peer left the request rides out the
        // restart.
        let out = q.place_at(at(0), sec(10), &mut inj, None);
        assert!(out.restart.is_some());
        assert!(!out.failed_over);
        assert!(
            out.queue >= sec(20),
            "restart wait charged: {:?}",
            out.queue
        );
        // Replicas are down until their restart instant, then serve again,
        // purely by clock comparison.
        assert!(q.best_healthy(at(19), None).is_none());
        assert!(q.best_healthy(at(20), None).is_some());
    }

    #[test]
    fn all_replicas_down_waits_for_the_soonest_restart() {
        let profile = ServingFaultProfile {
            crash_rate: 1.0,
            restart: sec(20),
            ..ServingFaultProfile::none()
        };
        let mut q = Backend::new(1, 1);
        q.place_at(
            at(0),
            sec(1),
            &mut ServingFaultInjector::new(profile, 1),
            None,
        );
        // Down until 20 s: a dependent call at 5 s waits 15 s for the
        // restart plus whatever is booked on the replica by then.
        assert!(q.delay(at(5)) >= sec(15));
        let out = q.place_at(at(5), sec(4), &mut no_faults(), None);
        assert!(out.queue >= sec(15), "queued {:?}", out.queue);
        assert!(out.completion >= at(24));
    }

    #[test]
    fn brownout_inflates_service_time() {
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = Backend::new(1, 1);
        let out = q.place_at(at(0), sec(10), &mut inj, None);
        assert!(out.slowed);
        assert_eq!(out.slowdown, sec(20)); // 3x factor: 30 s total, 20 s extra
        assert_eq!(out.completion, at(30));
        // The inflated booking is what the next request queues behind.
        let out = q.place_at(at(0), sec(1), &mut inj, None);
        assert!(out.queue >= sec(30), "queued {:?}", out.queue);
    }

    #[test]
    fn overflow_charges_redispatch() {
        let profile = ServingFaultProfile {
            overflow_queue: sec(5),
            ..ServingFaultProfile::none()
        };
        let mut inj = ServingFaultInjector::new(profile, 1);
        let mut q = Backend::new(1, 1);
        let first = q.place_at(at(0), sec(10), &mut inj, None);
        assert!(!first.overflowed);
        // The re-dispatch slides the arrival 250 ms later, so the request
        // waits the penalty plus the 9.75 s the slot is still busy.
        let spilled = q.place_at(at(0), sec(10), &mut inj, None);
        assert!(spilled.overflowed);
        assert_eq!(spilled.queue, sec(10));
        assert_eq!(spilled.completion, at(20));
    }

    #[test]
    fn queue_triggered_hedge_loses_and_the_loser_reverts() {
        // Primary (replica 1) busy until 8 s, peer (replica 0) until 30 s:
        // the duplicate dispatches at 2 s, starts at 30 s, completes at
        // 35 s. The primary completes at 13 s and wins; the loser's
        // booking reverts entirely, but its tokens were burned.
        let mut q = Backend::new(1, 2);
        let mut inj = no_faults();
        q.replicas[0].place(at(0), sec(30));
        q.replicas[1].place(at(0), sec(8));
        let out = q.place_at(at(0), sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(out.queue, sec(8));
        assert_eq!(out.completion, at(13));
        assert_eq!(q.replicas[0].slots[0], at(30), "loser reverted");
        assert_eq!(q.replicas[1].slots[0], at(13));
    }

    #[test]
    fn hedge_beats_a_browned_out_primary_and_cancels_it() {
        // Every placement browns out (3x service), but the duplicate
        // serves clean on the peer: 2 s hedge delay + 10 s clean beats
        // 30 s inflated. The caller never suffers the slowdown, and the
        // primary keeps only the 12 s it served before the cancel.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = Backend::new(1, 2);
        let out = q.place_at(at(0), sec(10), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(true), "clean duplicate wins the race");
        assert!(out.slowed, "the brownout still happened on the primary");
        assert_eq!(out.slowdown, SimDuration::ZERO, "but is never suffered");
        assert_eq!(out.queue, sec(2), "hedge path: 2 s delay + idle peer");
        assert_eq!(out.completion, at(12));
        assert_eq!(
            q.replicas[0].slots[0],
            at(12),
            "cancelled at winner's finish"
        );
        assert_eq!(q.replicas[1].slots[0], at(12), "winner serves in full");
        // Without hedging the same draw charges the full 20 s slowdown.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = Backend::new(1, 2);
        let out = q.place_at(at(0), sec(10), &mut inj, None);
        assert_eq!(out.slowdown, sec(20));
    }

    #[test]
    fn hedging_needs_backlog_and_a_peer() {
        let mut inj = no_faults();
        // No backlog: below the trigger, no hedge.
        let mut q = Backend::new(1, 2);
        let out = q.place_at(at(0), sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, None);
        // Single replica: backlog but nowhere to hedge.
        let mut q = Backend::new(1, 1);
        q.replicas[0].place(at(0), sec(30));
        let out = q.place_at(at(0), sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, None);
        assert_eq!(out.queue, sec(30));
    }

    /// Total queue delay for `works` placed on `c` slots of one fault-free
    /// replica, each arriving at the instant `arrival` gives it.
    fn total_queue(
        works: &[u64],
        c: u32,
        mut arrival: impl FnMut(SimInstant) -> SimInstant,
    ) -> SimDuration {
        let mut q = Backend::new(c, 1);
        let mut inj = no_faults();
        let mut last = SimInstant::EPOCH;
        works
            .iter()
            .map(|&w| {
                let out = q.place_at(
                    arrival(last),
                    SimDuration::from_micros(w.max(1)),
                    &mut inj,
                    None,
                );
                last = out.completion;
                out.queue
            })
            .sum()
    }

    proptest! {
        /// The analytic oracle: n requests of work w placed at one instant
        /// on C slots wait w·Σ_{k<n}⌊k/C⌋ in total (request k starts once
        /// ⌊k/C⌋ earlier waves have finished), and n requests that each
        /// arrive at the previous one's completion never wait, at every C.
        #[test]
        fn queueing_matches_the_analytic_oracle(
            w in 1u64..30_000_000,
            n in 1usize..24,
            c in 1u32..6,
        ) {
            let works = vec![w; n];
            let waves: u64 = (0..n as u64).map(|k| k / u64::from(c)).sum();
            prop_assert_eq!(
                total_queue(&works, c, |_| SimInstant::EPOCH),
                SimDuration::from_micros(w * waves)
            );
            prop_assert_eq!(total_queue(&works, c, |prev| prev), SimDuration::ZERO);
        }

        /// One submission per tenant sees zero queue delay once
        /// concurrency reaches the tenant count, and total queue delay is
        /// monotone non-increasing as slots are added.
        #[test]
        fn queue_delay_zero_at_full_concurrency_and_monotone(
            works in proptest::collection::vec(1u64..30_000_000, 1..12),
        ) {
            let common = |_| SimInstant::EPOCH;
            let k = works.len() as u32;
            prop_assert_eq!(total_queue(&works, k, common), SimDuration::ZERO);
            prop_assert_eq!(total_queue(&works, 0, common), SimDuration::ZERO);
            let mut prev = total_queue(&works, 1, common);
            for c in 2..=k {
                let cur = total_queue(&works, c, common);
                prop_assert!(
                    cur <= prev,
                    "queue delay grew from {} to {} when adding a slot (c={})",
                    prev, cur, c
                );
                prev = cur;
            }
        }

        /// Spreading the same work over r fault-free replicas can only
        /// shrink total queueing.
        #[test]
        fn extra_replicas_never_increase_queueing(
            works in proptest::collection::vec(1u64..30_000_000, 1..12),
            replicas in 1u32..4,
        ) {
            let run = |r: u32| {
                let mut q = Backend::new(1, r);
                let mut inj = no_faults();
                works
                    .iter()
                    .map(|&w| {
                        q.place_at(at(0), SimDuration::from_micros(w), &mut inj, None)
                            .queue
                    })
                    .sum::<SimDuration>()
            };
            prop_assert!(run(replicas) <= run(1));
        }
    }
}
