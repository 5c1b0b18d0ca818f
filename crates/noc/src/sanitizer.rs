//! Runtime invariant sanitizer: per-tick structural checks on the
//! simulator's flow-control and scheduling state.
//!
//! The simulator maintains several redundant views of the same physical
//! quantities — incremental flit counts next to authoritative buffer
//! scans, an event queue next to per-router deadlines, a
//! global in-flight counter next to the union of NI queues and VC
//! buffers. [`SimSanitizer`] cross-checks those views after every event
//! tick and collects any disagreement as a structured
//! [`InvariantViolation`] in its [`SanitizerReport`].
//!
//! The sanitizer is **purely observational**: it only ever takes
//! `&Network`, and a run without one skips the sweep entirely. Run
//! reports are bit-identical with the sanitizer on or off — the
//! determinism goldens enforce this.
//!
//! The invariant catalogue lives in `DESIGN.md` ("Invariant catalogue");
//! each [`ViolationKind`] variant documents the check that produces it.

use dozznoc_topology::Port;
use dozznoc_types::{
    ClockDivisor, DomainCycles, Mode, PacketId, PowerState, RouterId, TICKS_PER_NS,
};

use crate::network::Network;

/// Largest base-tick divisor any power state runs at (the gated
/// heartbeat ticks at the M3 rate).
const MAX_DIVISOR: ClockDivisor = Mode::M3.divisor();

/// Deadlock watchdog: a VC whose front flit makes no progress for longer
/// than this many ticks (10 µs) is reported as [`ViolationKind::VcStall`].
/// 10 µs is orders of magnitude above any legitimate wait (a full
/// wake-up chain across an 8×8 mesh is under 100 ns).
const MAX_STALL_TICKS: u64 = 10_000 * TICKS_PER_NS;

/// At most this many violations are recorded in the report; the total
/// count keeps incrementing past it (flood control for a corrupted run
/// that trips the same check every sweep).
const MAX_RECORDED: usize = 64;

/// What a violated invariant looked like, with enough context to
/// localize the bug: the tick, the router/port/VC involved, and the
/// disagreeing counter values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Base tick at which the check failed.
    pub tick: u64,
    /// Router involved, when the check is router-local.
    pub router: Option<RouterId>,
    /// Input-port index, when the check is port-local.
    pub port: Option<usize>,
    /// VC index, when the check is VC-local.
    pub vc: Option<usize>,
    /// Which invariant failed, with the disagreeing values.
    pub kind: ViolationKind,
}

/// The individual invariants the sanitizer checks (see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A router's incremental `buffered_flits` counter disagrees with
    /// the authoritative scan of its input buffers. The counter is what
    /// lets the hot path skip empty routers — drift here silently skips
    /// routing work (credit-conservation check).
    CreditConservation {
        /// The incrementally-maintained count.
        counted: u64,
        /// The authoritative buffer-scan occupancy.
        actual: u64,
    },
    /// A VC buffer holds more flits than its credit pool allows.
    BufferOverflow {
        /// Flits buffered.
        len: usize,
        /// The VC's flit capacity.
        capacity: usize,
    },
    /// Wormhole ownership or route linkage is inconsistent (e.g. flits
    /// without an owner, a route on an unowned VC, or a downstream VC
    /// that is not owned by the packet holding its upstream allocation).
    WormholeState {
        /// Which linkage broke.
        reason: &'static str,
    },
    /// The global in-flight counter disagrees with the sum of NI-queued
    /// and buffered flits: a flit was lost or double-counted.
    FlitConservation {
        /// The network's `in_flight` counter.
        in_flight: u64,
        /// Flits waiting in NI injection queues.
        queued: u64,
        /// Flits resident in router input buffers.
        buffered: u64,
    },
    /// `in_flight + flits_delivered` (total flits ever admitted)
    /// decreased between sweeps — admission accounting went backwards.
    FlitAccountingRegressed {
        /// Admitted-flit total at the previous sweep.
        before: u64,
        /// Admitted-flit total now.
        after: u64,
    },
    /// A VC's front flit has not moved for longer than the 10 µs
    /// watchdog: a deadlock or wedged wake-up.
    VcStall {
        /// How long the flit has been stuck at the front, in ticks.
        age_ticks: u64,
        /// The stuck packet.
        packet: PacketId,
        /// The stuck flit's sequence number within the packet.
        seq: u16,
    },
    /// The event queue and a router's `next_cycle_at` disagree (the
    /// router would fire at the wrong tick, or never), or the deadline
    /// is out of place. An awake router's deadline must lie
    /// in `[now, now + 18]`; a sleeping router's (one more than a cycle
    /// past its grid origin) must be at or after `now`, on its divisor
    /// grid, and no later than its next epoch boundary.
    ScheduleConsistency {
        /// The router's next-cycle deadline.
        next_cycle_at: u64,
        /// Whether the event queue holds the same deadline.
        has_entry: bool,
    },
    /// A buffered flit's `ready_at` violates clock-domain causality:
    /// it is out of FIFO order or beyond the worst-case pipeline bound
    /// `now + 1 + (pipeline_cycles − 1) × 18`.
    ClockCausality {
        /// The offending `ready_at` tick.
        ready_at: u64,
        /// The bound it violated.
        bound: u64,
    },
    /// A router's power-state timestamps run backwards: `state_since`
    /// is in the future, or a wake-up deadline precedes its own start.
    StateCausality {
        /// The router's `state_since` tick.
        state_since: u64,
    },
}

/// Summary of one sanitized run.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerReport {
    /// Event ticks swept.
    pub sweeps: u64,
    /// Total violations detected (including any dropped past the
    /// 64-violation record cap).
    pub total_violations: u64,
    /// The recorded violations, in detection order.
    pub violations: Vec<InvariantViolation>,
}

/// Watchdog state for one VC: the front flit last seen and when it
/// first appeared there.
#[derive(Debug, Clone, Copy, Default)]
struct FrontWatch {
    packet: Option<PacketId>,
    seq: u16,
    since: u64,
}

/// The runtime invariant checker. Construct one with
/// [`SimSanitizer::default`], pass it to [`Network::run_sanitized`], then
/// inspect [`SimSanitizer::report`].
#[derive(Debug, Default)]
pub struct SimSanitizer {
    sweeps: u64,
    total_violations: u64,
    violations: Vec<InvariantViolation>,
    /// Per-VC front-flit watchdog, indexed `(router · ports + port) ·
    /// vcs + vc`; sized lazily on the first sweep.
    watch: Vec<FrontWatch>,
    /// `in_flight + flits_delivered` at the previous sweep.
    prev_admitted: u64,
}

impl SimSanitizer {
    /// Total violations detected so far.
    pub fn violation_count(&self) -> u64 {
        self.total_violations
    }

    /// The first violation detected, if any.
    pub fn first_violation(&self) -> Option<&InvariantViolation> {
        self.violations.first()
    }

    /// Event ticks swept so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Snapshot the run's findings.
    pub fn report(&self) -> SanitizerReport {
        SanitizerReport {
            sweeps: self.sweeps,
            total_violations: self.total_violations,
            violations: self.violations.clone(),
        }
    }

    fn emit(&mut self, v: InvariantViolation) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(v);
        }
    }

    /// Sweep every invariant once. Called by the run loop after the
    /// router drain of each event tick, so all deadlines at `now` have
    /// fired and re-armed.
    pub(crate) fn check_tick(&mut self, net: &Network) {
        self.sweeps += 1;
        let now = net.now;
        let n_ports = net.topo.ports_per_router();
        let n_vcs = net.cfg.vcs_per_port;
        if self.watch.is_empty() {
            self.watch = vec![FrontWatch::default(); net.routers.len() * n_ports * n_vcs];
        }

        // Worst-case pipeline bound for any buffered flit's ready tick
        // (link traversal plus the remaining pipeline at the slowest
        // divisor; NI injection books one tick, ≤ any legal lookahead).
        let ready_bound = now
            + net.cfg.lookahead_ticks
            + DomainCycles::new(net.cfg.pipeline_cycles - 1)
                .to_ticks(MAX_DIVISOR)
                .ticks();

        let mut total_buffered = 0u64;
        for (i, r) in net.routers.iter().enumerate() {
            let router = Some(r.id);

            // Schedule: every deadline is what the event queue holds for
            // the router (else it fires at the wrong tick or never) and
            // never in the past (a missed cycle); `now` itself is legal
            // only before the first drain (a fresh network). An awake
            // router's deadline is at most one max-divisor cycle away. A
            // sleeping router's lies on its grid and does not skip its
            // next epoch boundary, which must stay a real firing.
            let div = r.divisor().cycle_ticks();
            let asleep = r.next_cycle_at > r.cycle_origin + div;
            let in_window = r.next_cycle_at >= now
                && if asleep {
                    let to_epoch = net
                        .cfg
                        .epoch_cycles
                        .saturating_sub(r.cycles_into_epoch)
                        .max(1);
                    (r.next_cycle_at - r.cycle_origin) % div == 0
                        && r.next_cycle_at <= r.cycle_origin + to_epoch * div
                } else {
                    r.next_cycle_at <= now + MAX_DIVISOR.cycle_ticks()
                };
            let has_entry = net.sched.tick(i) == r.next_cycle_at;
            if !has_entry || !in_window {
                self.emit(InvariantViolation {
                    tick: now,
                    router,
                    port: None,
                    vc: None,
                    kind: ViolationKind::ScheduleConsistency {
                        next_cycle_at: r.next_cycle_at,
                        has_entry,
                    },
                });
            }

            // State causality.
            let state_since = r.state_since.ticks();
            let wake_ok = match r.state {
                PowerState::Wakeup { until, .. } => until.ticks() >= state_since,
                _ => true,
            };
            if state_since > now || !wake_ok {
                self.emit(InvariantViolation {
                    tick: now,
                    router,
                    port: None,
                    vc: None,
                    kind: ViolationKind::StateCausality { state_since },
                });
            }

            // Credit conservation: incremental count vs authoritative scan.
            let occupancy = r.occupancy() as u64;
            total_buffered += occupancy;
            if u64::from(r.buffered_flits) != occupancy {
                self.emit(InvariantViolation {
                    tick: now,
                    router,
                    port: None,
                    vc: None,
                    kind: ViolationKind::CreditConservation {
                        counted: u64::from(r.buffered_flits),
                        actual: occupancy,
                    },
                });
            }

            for ((p, v), vcb) in r.vcs() {
                self.check_vc(net, i, p, v, vcb, ready_bound);
            }
        }

        // --- Flit conservation: the global in-flight counter must equal
        // NI-queued plus buffered flits.
        let queued: u64 = net.inject.iter().map(|q| q.len() as u64).sum();
        if net.in_flight != queued + total_buffered {
            self.emit(InvariantViolation {
                tick: now,
                router: None,
                port: None,
                vc: None,
                kind: ViolationKind::FlitConservation {
                    in_flight: net.in_flight,
                    queued,
                    buffered: total_buffered,
                },
            });
        }

        // --- Admission accounting is monotone.
        let admitted = net.in_flight + net.stats.flits_delivered;
        if admitted < self.prev_admitted {
            self.emit(InvariantViolation {
                tick: now,
                router: None,
                port: None,
                vc: None,
                kind: ViolationKind::FlitAccountingRegressed {
                    before: self.prev_admitted,
                    after: admitted,
                },
            });
        }
        self.prev_admitted = admitted;
    }

    /// Per-VC checks: capacity, wormhole linkage, ready-tick causality
    /// and the stall watchdog.
    fn check_vc(
        &mut self,
        net: &Network,
        i: usize,
        p: usize,
        v: usize,
        vcb: &crate::buffer::VcBuffer,
        ready_bound: u64,
    ) {
        let now = net.now;
        let at = |kind: ViolationKind| InvariantViolation {
            tick: now,
            router: Some(net.routers[i].id),
            port: Some(p),
            vc: Some(v),
            kind,
        };

        if vcb.len() > vcb.capacity() {
            self.emit(at(ViolationKind::BufferOverflow {
                len: vcb.len(),
                capacity: vcb.capacity(),
            }));
        }

        match vcb.owner() {
            None => {
                // Unowned VCs hold nothing and route nothing.
                if !vcb.is_empty() {
                    self.emit(at(ViolationKind::WormholeState {
                        reason: "flits in an unowned VC",
                    }));
                }
                if vcb.route().is_some() {
                    self.emit(at(ViolationKind::WormholeState {
                        reason: "route on an unowned VC",
                    }));
                }
            }
            Some(owner) => {
                if vcb.entries().any(|(f, _)| f.packet != owner) {
                    self.emit(at(ViolationKind::WormholeState {
                        reason: "foreign flit in an owned VC",
                    }));
                }
                // Downstream linkage: an allocated output VC must still
                // be owned by this packet (it releases only when the
                // tail pops there, which clears this VC first).
                if let Some(route) = vcb.route() {
                    if let (Port::Dir(dir), Some(d), Some(out_vc)) =
                        (route.out_port, route.next_router, route.out_vc)
                    {
                        let down_port = Port::Dir(dir.opposite()).index();
                        let down = net.routers[d.idx()].vc(down_port, usize::from(out_vc));
                        if down.owner() != Some(owner) {
                            self.emit(at(ViolationKind::WormholeState {
                                reason: "downstream VC not owned by the allocated packet",
                            }));
                        }
                    }
                }
            }
        }

        // Ready ticks are FIFO-monotone and within the pipeline bound.
        let mut prev_ready = 0u64;
        for (_, ready_at) in vcb.entries() {
            if *ready_at < prev_ready || *ready_at > ready_bound {
                let bound = if *ready_at < prev_ready {
                    prev_ready
                } else {
                    ready_bound
                };
                self.emit(at(ViolationKind::ClockCausality {
                    ready_at: *ready_at,
                    bound,
                }));
                break;
            }
            prev_ready = *ready_at;
        }

        // Deadlock watchdog on the front flit.
        let n_vcs = net.cfg.vcs_per_port;
        let n_ports = net.topo.ports_per_router();
        let w = &mut self.watch[(i * n_ports + p) * n_vcs + v];
        match vcb.entries().next() {
            Some((front, _)) => {
                if w.packet == Some(front.packet) && w.seq == front.seq {
                    let age = now.saturating_sub(w.since);
                    if age > MAX_STALL_TICKS {
                        let kind = ViolationKind::VcStall {
                            age_ticks: age,
                            packet: front.packet,
                            seq: front.seq,
                        };
                        // Re-arm so a wedged VC reports once per stall
                        // period instead of once per sweep.
                        w.since = now;
                        self.emit(at(kind));
                    }
                } else {
                    w.packet = Some(front.packet);
                    w.seq = front.seq;
                    w.since = now;
                }
            }
            None => w.packet = None,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Fault-injection tests: corrupt one redundant view of the
    //! network's state and assert the sanitizer pins the matching
    //! violation kind on the right router.

    use super::*;
    use crate::buffer::VcRoute;
    use crate::config::NocConfig;
    use dozznoc_topology::{Direction, Topology};
    use dozznoc_types::{CoreId, Packet, PacketKind, SimTime};

    fn net() -> Network {
        Network::new(NocConfig::paper(Topology::mesh8x8()))
    }

    fn head_flit(id: u64) -> dozznoc_types::Flit {
        Packet {
            id: PacketId(id),
            src: CoreId(0),
            dst: CoreId(9),
            kind: PacketKind::Request,
            inject_time: SimTime::ZERO,
        }
        .flits()
        .next()
        .expect("packet has a head flit")
    }

    fn kinds(san: &SimSanitizer) -> Vec<&ViolationKind> {
        san.violations.iter().map(|v| &v.kind).collect()
    }

    #[test]
    fn clean_network_has_no_violations() {
        let n = net();
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        san.check_tick(&n);
        assert_eq!(san.violation_count(), 0);
        assert_eq!(san.sweeps(), 2);
        assert!(san.first_violation().is_none());
    }

    #[test]
    fn corrupted_flit_counter_is_credit_violation() {
        let mut n = net();
        n.routers[5].buffered_flits += 1;
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        let v = san.first_violation().expect("violation detected");
        assert_eq!(v.router, Some(dozznoc_types::RouterId(5)));
        assert_eq!(
            v.kind,
            ViolationKind::CreditConservation {
                counted: 1,
                actual: 0
            }
        );
    }

    #[test]
    fn lost_flit_trips_flit_conservation() {
        let mut n = net();
        n.in_flight += 3; // claims flits exist that no buffer holds
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        assert!(kinds(&san).iter().any(|k| matches!(
            k,
            ViolationKind::FlitConservation {
                in_flight: 3,
                queued: 0,
                buffered: 0
            }
        )));
    }

    #[test]
    fn stalled_vc_trips_the_watchdog() {
        let mut n = net();
        let local = dozznoc_topology::Port::Local(0).index();
        // Count the planted flit everywhere so only the stall fires.
        n.routers[7].vc_mut(local, 0).push(head_flit(0), 1);
        n.routers[7].buffered_flits += 1;
        n.in_flight += 1;
        let mut san = SimSanitizer::default();
        san.check_tick(&n); // arms the watchdog
        assert_eq!(san.violation_count(), 0);
        // 10 µs at 18 GHz is 180 000 ticks. The jump strands every
        // router's deadline; fire them all at the new tick so only the
        // watchdog is under test.
        n.now = 200_000;
        rearm_all(&mut n, 8);
        san.check_tick(&n);
        let v = san.first_violation().expect("watchdog fired");
        assert_eq!(v.router, Some(dozznoc_types::RouterId(7)));
        assert_eq!(v.port, Some(local));
        assert_eq!(v.vc, Some(0));
        assert!(matches!(
            v.kind,
            ViolationKind::VcStall {
                packet: PacketId(0),
                seq: 0,
                ..
            }
        ));
    }

    #[test]
    fn watchdog_rearms_instead_of_flooding() {
        let mut n = net();
        let local = dozznoc_topology::Port::Local(0).index();
        n.routers[7].vc_mut(local, 0).push(head_flit(0), 1);
        n.routers[7].buffered_flits += 1;
        n.in_flight += 1;
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        n.now = 200_000;
        rearm_all(&mut n, 8);
        san.check_tick(&n);
        let after_first = san.violation_count();
        // Immediately re-checking at the same tick must not re-report.
        san.check_tick(&n);
        assert_eq!(san.violation_count(), after_first);
    }

    /// Fake a firing of every router at `n.now`: each re-arms `cycles`
    /// cycles of its 8-tick M7 grid later (1 = awake, more = asleep).
    fn rearm_all(n: &mut Network, cycles: u64) {
        for i in 0..n.routers.len() {
            let next = n.now + cycles * 8;
            n.routers[i].cycle_origin = n.now;
            n.routers[i].next_cycle_at = next;
            n.sched.set(i, next);
        }
    }

    #[test]
    fn deadline_missing_from_the_event_queue_is_schedule_violation() {
        let mut n = net();
        // Fake a fired tick: everyone re-armed to now + divisor, but
        // router 4's new deadline never reached the event queue.
        n.now = 16;
        rearm_all(&mut n, 1);
        n.routers[4].next_cycle_at = 30; // the event queue still holds 24
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        let v = san.first_violation().expect("schedule violation");
        assert_eq!(v.router, Some(dozznoc_types::RouterId(4)));
        assert_eq!(
            v.kind,
            ViolationKind::ScheduleConsistency {
                next_cycle_at: 30,
                has_entry: false
            }
        );
    }

    #[test]
    fn stale_deadline_is_schedule_violation_even_with_entry() {
        let mut n = net();
        n.now = 16;
        rearm_all(&mut n, 1);
        // Router 2's deadline sits in the past (missed cycle).
        n.routers[2].next_cycle_at = 10;
        n.sched.set(2, 10);
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        assert!(kinds(&san).iter().any(|k| matches!(
            k,
            ViolationKind::ScheduleConsistency {
                next_cycle_at: 10,
                has_entry: true
            }
        )));
    }

    #[test]
    fn sleeping_router_on_its_grid_within_its_epoch_is_clean() {
        let mut n = net();
        // All fired at 16 with one cycle of the epoch done: 499 cycles
        // to the boundary at 16 + 499 · 8. Sleeping right up to it is
        // legal, and so is a sleep that ends earlier on the grid.
        n.now = 16;
        for r in &mut n.routers {
            r.cycles_into_epoch = 1;
        }
        rearm_all(&mut n, 499);
        n.routers[5].next_cycle_at = 16 + 40 * 8;
        n.sched.set(5, 16 + 40 * 8);
        let mut san = SimSanitizer::default();
        n.now = 100; // mid-sleep: no cycle has to fire now
        san.check_tick(&n);
        assert_eq!(san.violation_count(), 0);
    }

    #[test]
    fn sleeping_router_off_its_grid_is_schedule_violation() {
        let mut n = net();
        n.now = 16;
        rearm_all(&mut n, 10);
        // Router 6 sleeps to a tick its 8-tick grid never reaches.
        n.routers[6].next_cycle_at = 16 + 10 * 8 + 3;
        n.sched.set(6, 16 + 10 * 8 + 3);
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        let v = san.first_violation().expect("schedule violation");
        assert_eq!(v.router, Some(dozznoc_types::RouterId(6)));
        assert_eq!(
            v.kind,
            ViolationKind::ScheduleConsistency {
                next_cycle_at: 99,
                has_entry: true
            }
        );
        assert_eq!(san.violation_count(), 1);
    }

    #[test]
    fn sleep_past_the_epoch_boundary_is_schedule_violation() {
        let mut n = net();
        n.now = 16;
        rearm_all(&mut n, 10);
        // Router 3 is one cycle short of its boundary, so the cycle at
        // 24 must fire: sleeping to 96 would skip an epoch decision.
        n.routers[3].cycles_into_epoch = 499;
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        let v = san.first_violation().expect("schedule violation");
        assert_eq!(v.router, Some(dozznoc_types::RouterId(3)));
        assert_eq!(
            v.kind,
            ViolationKind::ScheduleConsistency {
                next_cycle_at: 96,
                has_entry: true
            }
        );
        assert_eq!(san.violation_count(), 1);
    }

    #[test]
    fn out_of_order_ready_ticks_are_causality_violation() {
        let mut n = net();
        let local = dozznoc_topology::Port::Local(0).index();
        let flits: Vec<_> = Packet {
            id: PacketId(1),
            src: CoreId(0),
            dst: CoreId(9),
            kind: PacketKind::Response,
            inject_time: SimTime::ZERO,
        }
        .flits()
        .collect();
        let vc = n.routers[0].vc_mut(local, 0);
        vc.push(flits[0], 9);
        vc.push(flits[1], 3); // ready before its predecessor
        n.routers[0].buffered_flits += 2;
        n.in_flight += 2;
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        assert!(kinds(&san).iter().any(|k| matches!(
            k,
            ViolationKind::ClockCausality {
                ready_at: 3,
                bound: 9
            }
        )));
    }

    #[test]
    fn broken_wormhole_linkage_is_detected() {
        let mut n = net();
        let local = dozznoc_topology::Port::Local(0).index();
        n.routers[0].vc_mut(local, 0).push(head_flit(2), 1);
        n.routers[0].buffered_flits += 1;
        n.in_flight += 1;
        // Claim a downstream VC allocation that was never granted: the
        // east neighbor's matching VC is unowned.
        n.routers[0].vc_mut(local, 0).set_route(VcRoute {
            out_port: Port::Dir(Direction::East),
            next_router: Some(dozznoc_types::RouterId(1)),
            out_vc: Some(0),
        });
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        assert!(kinds(&san).iter().any(|k| matches!(
            k,
            ViolationKind::WormholeState {
                reason: "downstream VC not owned by the allocated packet"
            }
        )));
    }

    #[test]
    fn state_since_in_the_future_is_causality_violation() {
        let mut n = net();
        n.routers[11].state_since = SimTime::from_ticks(500);
        let mut san = SimSanitizer::default();
        san.check_tick(&n); // now == 0 < 500
        assert!(kinds(&san)
            .iter()
            .any(|k| matches!(k, ViolationKind::StateCausality { state_since: 500 })));
    }

    #[test]
    fn recording_caps_but_counting_does_not() {
        let mut n = net();
        for i in 0..n.routers.len() {
            n.routers[i].buffered_flits += 1; // 64 violations per sweep
        }
        let mut san = SimSanitizer::default();
        san.check_tick(&n);
        san.check_tick(&n);
        assert_eq!(san.violation_count(), 128);
        let report = san.report();
        assert_eq!(report.total_violations, 128);
        assert_eq!(report.violations.len(), 64);
        assert_eq!(report.sweeps, 2);
    }
}
