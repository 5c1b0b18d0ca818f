//! The network: owns all routers and runs the simulation loop.
//!
//! ## Tick discipline
//!
//! The global clock advances in base ticks (18 GHz). Each router's local
//! cycles fall on a grid `divisor()` ticks apart — every 18 ticks at
//! 1 GHz, every 8 at 2.25 GHz. All flit movement happens inside the
//! *upstream* router's cycle, which is what makes hop latency follow the
//! sender's frequency (§III-A). A flit that lands in a downstream buffer
//! carries `ready_at = tick + lookahead_ticks`, so it can never traverse
//! two routers within one base tick regardless of router iteration order.
//!
//! ## Quiescent routers sleep
//!
//! A router fires when the tick counter reaches its `next_cycle_at`. A
//! busy router re-arms at its next grid tick. A *quiescent* one — gated
//! off, waking, or active with empty buffers and empty NI queues — would
//! only count idle cycles there, so it sleeps instead: it re-arms at the
//! first grid tick at which it could do anything else (its next epoch
//! boundary, its wake-up deadline, or the cycle T-Idle and the T-Switch
//! stall would let it gate off). The cycles it skips are accounted in
//! closed form (`Router::skip_idle_cycles`) when it next fires, when a
//! cross-router effect or an admission reaches it (which also wakes it
//! onto its grid), and at the end of the run. All of that is integer
//! arithmetic, so a run's report is bit-identical to firing every cycle:
//! epoch decisions, gate-offs and wake-up completions stay real firings
//! at the same tick and in the same router-index order, and a run that
//! exhausts `max_ticks` stops on the tick where firing every cycle
//! would have stopped. Deadlines live in an event queue that pops
//! the earliest `(tick, router)` and re-keys a router in `O(log n)`,
//! so waking and re-sleeping leave nothing stale behind.
//!
//! ## End-of-tick application
//!
//! Every event tick runs in two phases. During the **fire** phase a
//! router mutates only *its own* state; anything it does to another
//! router — handing over a flit (a tail also releases the
//! downstream-secure reference its head took), taking a downstream-secure
//! reference, punching a wake signal — is queued as a deferred `Effect`
//! instead of applied in place. The **settle** phase then
//! applies the queued effects in emission order (admissions in packet
//! order, then firings in router index order).
//!
//! Cross-router *reads* (can the downstream router move flits, which of
//! its VCs accept a new packet or have space) see the neighbour as it
//! stood at the start of the tick. Since only a router's own firing
//! mutates it during the fire phase, its live state is that view until
//! it fires; what the firing changes, it saves first, stamped with the
//! tick. A router saves whether it is operational and its divisor as it
//! starts firing, and a VC saves its two flags before its first pop of
//! the tick. Pushes save nothing: link flits land in the settle phase,
//! after every read, and injected flits land on local ports, which no
//! neighbour reads. A reader takes the saved value when its tick is
//! `now` and the live one otherwise.
//!
//! That rule is what the goldens pin: a router that fires later in a
//! tick never sees an earlier router's same-tick changes or effects, so
//! the outcome does not depend on router iteration order.
//!
//! ## One walk per firing
//!
//! An operational router with buffered flits does its per-VC work in one
//! walk of its occupied-VC mask ([`Router::occupied`](Router)): an
//! unrouted packet head gets its output port and look-ahead router from
//! one table read ([`XyRouter::route`]) and secures that router, and a
//! ready routed head joins its output port's candidate mask (one `u64`
//! of VC slots per output). Each output with candidates then grants the
//! first one, in round-robin order from its pointer, that can send.
//! Occupancy sampling reads per-class flit counts that the router's push
//! and pop keep, so it walks nothing.
//!
//! ## Power mechanics
//!
//! Gating (Fig. 3(a)): an active router gates off when its policy permits
//! gating, its buffers have been empty ≥ T-Idle consecutive cycles, no
//! attached core has a pending injection, and it is not *secured* as the
//! downstream router of any in-flight packet. Route computation secures
//! the downstream router of every packet (look-ahead) and wakes it if it
//! is off; a local injection wakes the router it targets. Wake-ups pay
//! the target mode's T-Wakeup; active-mode switches pay T-Switch;
//! off-residencies shorter than T-Breakeven are counted as violations.
//!
//! ## Entry points
//!
//! A network runs in one of three ways, all through one loop:
//! [`Network::run`] (plain), [`Network::run_with_telemetry`] (observed
//! per epoch by a [`Telemetry`] sink) and [`Network::run_sanitized`]
//! (swept every event tick by a [`SimSanitizer`]). A sanitized run's
//! report is bit-identical to a plain one. An enabled sink settles
//! residency billing at every epoch boundary, so an observed run's
//! energy totals may differ from a plain run's in float-summation
//! order only.

use dozznoc_power::{
    EnergyDelta, EnergyLedger, MlOverhead, RouterEnergy, TransitionEnergy, VfTable,
};
use dozznoc_topology::{Port, Topology, XyRouter};
use dozznoc_traffic::Trace;
use dozznoc_types::{
    DomainCycles, Flit, FlitKind, Mode, PowerState, RouterId, SimTime, TransitionEvent,
    TransitionKind,
};

use std::collections::VecDeque;

use crate::buffer::VcRoute;
use crate::config::NocConfig;
use crate::event_queue::EventQueue;
use crate::policy::PowerPolicy;
use crate::router::{port_class, Router};
use crate::sanitizer::SimSanitizer;
use crate::stats::{RunReport, RunStats};
use crate::telemetry::{NullSink, Telemetry};

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run exceeded `NocConfig::max_ticks` without draining —
    /// either the network is hopelessly saturated or a policy livelocked
    /// it. Carries the flits still in flight.
    Livelock {
        /// Flits still undelivered at abort time.
        in_flight: u64,
    },
    /// The trace was generated for a different core count than the
    /// configured topology attaches.
    TraceCoreMismatch {
        /// Cores the trace addresses.
        trace_cores: usize,
        /// Cores the topology attaches.
        topology_cores: usize,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Livelock { in_flight } => {
                write!(
                    f,
                    "simulation hit max_ticks with {in_flight} flits in flight"
                )
            }
            SimError::TraceCoreMismatch {
                trace_cores,
                topology_cores,
            } => write!(
                f,
                "trace has {trace_cores} cores but the topology attaches {topology_cores}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A cross-router side effect deferred to the end-of-tick settlement.
///
/// Every mutation of a router other than the one currently firing is
/// expressed as one of these; the settle phase applies them in emission
/// order. `Punch` and `Secure` carry no "is the target gated?" check at
/// the emitter: the emitter only has the start-of-tick view of its
/// neighbors, so the gate check happens at apply time against the
/// target's live state. A run whose policy never gates emits no `Punch`:
/// no router can be gated, so every punch would be a no-op.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// Admission-time wake punch along a packet's XY path.
    Punch {
        /// Target router index.
        router: usize,
    },
    /// Downstream-secure reference taken at route compute (wakes a
    /// gated target).
    Secure {
        /// Target router index.
        router: usize,
    },
    /// A flit crossing a link into a downstream router's input VC. A
    /// tail also releases the downstream-secure reference its packet's
    /// head took on this router at route compute.
    Transfer {
        /// Downstream router index.
        dst: usize,
        /// Input-port index at the downstream router.
        port: usize,
        /// VC index within that port.
        vc: u8,
        /// The flit itself.
        flit: Flit,
        /// Earliest tick the flit may move on downstream.
        ready_at: u64,
    },
}

/// Index of `flit`'s packet in the per-packet arrays (packet ids are
/// dense trace positions).
fn packet_index(flit: Flit) -> usize {
    usize::try_from(flit.packet.0).expect("packet ids index the trace")
}

/// The VC slots set in `mask`, in round-robin order from slot `start`:
/// every slot at or past `start` ascending, then the wrap-around
/// ascending.
fn rr_order(mask: u64, start: usize) -> impl Iterator<Item = usize> {
    let start = u32::try_from(start).expect("VC slots fit a 64-bit mask");
    let mut bits = mask.rotate_right(start);
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let b = bits.trailing_zeros();
        bits &= bits - 1;
        Some(((b + start) & 63) as usize)
    })
}

/// The simulated network.
///
/// Fields the [`SimSanitizer`](crate::sanitizer) cross-checks are
/// `pub(crate)`: the sanitizer reads them but, by taking `&Network`
/// only, can never perturb a run.
pub struct Network {
    pub(crate) cfg: NocConfig,
    pub(crate) topo: Topology,
    xy: XyRouter,
    vf: VfTable,
    pub(crate) routers: Vec<Router>,
    /// Downstream-secure reference counts, one per router.
    secured: Vec<u32>,
    /// Per-core injection queues (unbounded NI buffers).
    pub(crate) inject: Vec<VecDeque<Flit>>,
    ledger: EnergyLedger,
    transition: TransitionEnergy,
    pub(crate) stats: RunStats,
    pub(crate) now: u64,
    pub(crate) in_flight: u64,
    /// Tick each packet's head flit entered the network (dense by
    /// `PacketId`; `u64::MAX` = not yet entered).
    net_entry: Vec<u64>,
    /// Telemetry fast path: `false` (the default) skips every hook and
    /// all bookkeeping behind them.
    tel_enabled: bool,
    /// Transition events buffered for the sink (inner helpers fill
    /// this; the main loop drains it once per tick, so the sink does
    /// not need to be threaded through every state-machine helper).
    events: Vec<TransitionEvent>,
    /// Ledger snapshot at each router's previous epoch boundary
    /// (allocated only when telemetry is enabled).
    energy_prev: Vec<RouterEnergy>,
    /// Next-event schedule: every router's `next_cycle_at`, earliest
    /// first, ties in router-index order — the order a linear index scan
    /// would fire them in. Every assignment of a `next_cycle_at` goes
    /// through [`Network::arm`], which re-keys the router here in
    /// `O(log n)`, earlier (a wake) or later (a sleep) alike.
    pub(crate) sched: EventQueue,
    /// Switch-allocation scratch: per output port, the mask of its
    /// candidate input VC slots. A firing writes the entry of an output
    /// the first time it sees a candidate for it, and reads only those
    /// outputs, so the scratch is never cleared.
    out_cand: Vec<u64>,
    /// The policy's [`PowerPolicy::gating_enabled`], read once per run:
    /// the sleep bound of an idle active router depends on it.
    gating: bool,
    /// Deferred cross-router effects emitted during the current tick's
    /// fire phase, in emission order.
    outbox: Vec<Effect>,
}

impl Network {
    /// Build a network in the baseline state (everything active at M7).
    pub fn new(cfg: NocConfig) -> Self {
        assert!(
            cfg.pipeline_cycles >= 1,
            "pipeline_cycles must be ≥ 1 (use NocConfig::try_with_pipeline_cycles)"
        );
        assert!(
            cfg.lookahead_ticks >= 1,
            "lookahead_ticks must be ≥ 1 (use NocConfig::try_with_lookahead_ticks)"
        );
        let topo = cfg.topology;
        let n = topo.num_routers();
        Network {
            cfg,
            topo,
            xy: XyRouter::with_order(topo, cfg.routing),
            vf: VfTable::paper(),
            routers: (0..n)
                .map(|i| Router::new(RouterId::from(i), &cfg))
                .collect(),
            secured: vec![0; n],
            inject: (0..topo.num_cores()).map(|_| VecDeque::new()).collect(),
            ledger: EnergyLedger::new(n),
            transition: TransitionEnergy::default(),
            stats: RunStats::default(),
            now: 0,
            in_flight: 0,
            net_entry: Vec::new(),
            tel_enabled: false,
            events: Vec::new(),
            energy_prev: Vec::new(),
            // Every router starts with next_cycle_at == 0.
            sched: EventQueue::new(n, 0),
            out_cand: vec![0; topo.ports_per_router()],
            gating: false,
            outbox: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Borrow a router (tests, diagnostics).
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.idx()]
    }

    /// Run `trace` under `policy` to completion and report.
    pub fn run(self, trace: &Trace, policy: &mut dyn PowerPolicy) -> Result<RunReport, SimError> {
        self.run_instrumented(trace, policy, &mut NullSink, None)
    }

    /// Run `trace` under `policy`, streaming per-epoch observations,
    /// power-state transitions and the final report into `tel`.
    ///
    /// With a disabled sink ([`NullSink`], or any sink whose
    /// [`Telemetry::is_enabled`] returns `false`) this is exactly
    /// [`Network::run`]: no snapshots are kept and no hooks fire.
    pub fn run_with_telemetry(
        self,
        trace: &Trace,
        policy: &mut dyn PowerPolicy,
        tel: &mut dyn Telemetry,
    ) -> Result<RunReport, SimError> {
        self.run_instrumented(trace, policy, tel, None)
    }

    /// Run under a [`SimSanitizer`]: every event tick's post-drain state
    /// is swept for invariant violations, which are collected in the
    /// sanitizer for [`SimSanitizer::report`]. The sanitizer only reads
    /// network state, so the returned report is bit-identical to an
    /// unsanitized run.
    pub fn run_sanitized(
        self,
        trace: &Trace,
        policy: &mut dyn PowerPolicy,
        san: &mut SimSanitizer,
    ) -> Result<RunReport, SimError> {
        self.run_instrumented(trace, policy, &mut NullSink, Some(san))
    }

    fn run_instrumented(
        mut self,
        trace: &Trace,
        policy: &mut dyn PowerPolicy,
        tel: &mut dyn Telemetry,
        mut san: Option<&mut SimSanitizer>,
    ) -> Result<RunReport, SimError> {
        if trace.num_cores != self.topo.num_cores() {
            return Err(SimError::TraceCoreMismatch {
                trace_cores: trace.num_cores,
                topology_cores: self.topo.num_cores(),
            });
        }
        let packets = trace.packets();
        self.net_entry = vec![u64::MAX; packets.len()];
        let mut next_pkt = 0usize;
        let ml_overhead = policy.ml_features().map(MlOverhead::for_features);
        self.gating = policy.gating_enabled();
        self.tel_enabled = tel.is_enabled();
        if self.tel_enabled {
            self.energy_prev = vec![RouterEnergy::default(); self.routers.len()];
        }

        loop {
            self.admit(packets, &mut next_pkt);
            self.fire(policy, ml_overhead.as_ref(), tel);
            self.settle();

            // Deliver the transitions this tick produced (admissions
            // included) in one batch; events carry their own timestamps.
            if self.tel_enabled && !self.events.is_empty() {
                for e in self.events.drain(..) {
                    tel.on_transition(&e);
                }
            }

            // Sweep invariants over the post-drain state (read-only).
            if let Some(s) = san.as_deref_mut() {
                s.check_tick(&self);
            }

            if next_pkt == packets.len() && self.in_flight == 0 {
                break;
            }
            if self.now >= self.cfg.max_ticks {
                return Err(SimError::Livelock {
                    in_flight: self.in_flight,
                });
            }

            // Jump straight to the next event: the earliest router cycle
            // or the next packet injection — but never past the tick the
            // tick budget expires on, which a sleeping router's grid may
            // hit first.
            let mut next = self.local_next_event();
            if next_pkt < packets.len() {
                next = next.min(packets[next_pkt].inject_time.ticks());
            }
            if next > self.cfg.max_ticks {
                next = next.min(self.first_grid_tick_from(self.cfg.max_ticks));
            }
            debug_assert!(next > self.now, "time must advance");
            self.now = next;
        }

        // Account every cycle slept through up to the final tick, then
        // flush residual residency into the ledger.
        for i in 0..self.routers.len() {
            self.catch_up(i, self.now + 1);
        }
        self.flush_residency();

        // Flush each router's final partial epoch to the sink so
        // per-epoch sums (flits, energy) conserve against run totals.
        // A zero-cycle tail still flushes if the residual residency
        // billed anything since the last boundary snapshot.
        if self.tel_enabled {
            for i in 0..self.routers.len() {
                let id = self.routers[i].id;
                let cur = *self.ledger.router(id);
                let delta = cur.delta_since(&self.energy_prev[i]);
                if self.routers[i].counters.cycles == 0 && delta == EnergyDelta::default() {
                    continue;
                }
                let obs = self.routers[i].end_epoch(self.now.max(1));
                self.energy_prev[i] = cur;
                tel.on_epoch(id, &obs, self.routers[i].selected_mode, &delta);
            }
        }

        let report = self.build_report(policy.name(), &trace.name);
        if self.tel_enabled {
            tel.on_run_end(&report);
        }
        Ok(report)
    }

    /// Assemble the final [`RunReport`]. Call only after the run loop
    /// has finished and residency has been flushed.
    fn build_report(&self, policy: &str, trace: &str) -> RunReport {
        let per_router = self
            .ledger
            .routers()
            .iter()
            .map(|e| crate::stats::RouterSummary {
                off_fraction: e.off_fraction(),
                hops: e.flit_hops,
                static_j: e.static_j,
                dynamic_j: e.dynamic_j,
                wakeups: e.wakeups,
            })
            .collect();
        RunReport {
            policy: policy.to_string(),
            trace: trace.to_string(),
            finished_at: SimTime::from_ticks(self.now),
            stats: self.stats.clone(),
            energy: self.ledger.report(),
            per_router,
        }
    }

    /// Admit packets whose injection time has arrived.
    fn admit(&mut self, packets: &[dozznoc_types::Packet], next_pkt: &mut usize) {
        while *next_pkt < packets.len() && packets[*next_pkt].inject_time.ticks() <= self.now {
            let p = &packets[*next_pkt];
            self.stats.packets_injected += 1;
            self.in_flight += p.flit_count() as u64;
            for f in p.flits() {
                self.inject[p.src.idx()].push_back(f);
            }
            // A non-empty NI queue ends an idle active router's sleep. The
            // home router has not fired yet this tick, so it wakes onto
            // its first grid tick at or after `now`.
            let home = self.topo.router_of_core(p.src).idx();
            self.wake(home, self.now);
            // Power Punch-style wake punching: the packet's XY path is
            // fully determined at injection, so wake signals race ahead
            // of it and gated routers charge up while the packet is
            // still upstream — this is what makes the gating *partially
            // non-blocking* rather than adding a full T-Wakeup per hop.
            // (Routers are only *secured* one hop ahead, at route
            // compute.) A policy that never gates has no router to punch.
            if self.gating {
                if self.cfg.wake_punch {
                    let path = self.xy.path(p.src, p.dst);
                    self.outbox
                        .extend(path.map(|hop| Effect::Punch { router: hop.idx() }));
                } else {
                    // Ablation: only the home router wakes at injection;
                    // downstream routers wait for the one-hop look-ahead.
                    self.outbox.push(Effect::Punch { router: home });
                }
            }
            *next_pkt += 1;
        }
    }

    /// Fire every router whose local cycle lands on this tick.
    ///
    /// Routers due on the same tick fire in router-index order. A firing
    /// router's re-arm lands strictly in the future, so this drain
    /// terminates. Before it steps, a router accounts the idle
    /// cycles it slept through; after, it re-arms at its next grid tick
    /// or sleeps ([`Network::next_cycle`]).
    fn fire(
        &mut self,
        policy: &mut dyn PowerPolicy,
        ml_overhead: Option<&MlOverhead>,
        tel: &mut dyn Telemetry,
    ) {
        loop {
            let (t, i) = self.sched.peek();
            if t > self.now {
                break;
            }
            debug_assert_eq!(t, self.now, "router cycle slipped past the clock");
            self.routers[i].save_view(self.now);
            self.catch_up(i, self.now);
            self.step_router(i, policy, ml_overhead, tel);
            let next = self.next_cycle(i);
            self.routers[i].cycle_origin = self.now;
            self.arm(i, next);
        }
    }

    /// Set router `i`'s next local cycle, keeping the schedule in step.
    fn arm(&mut self, i: usize, tick: u64) {
        self.routers[i].next_cycle_at = tick;
        self.sched.set(i, tick);
    }

    /// Tick of router `i`'s next local cycle, right after it fired at
    /// `now`: the next grid tick, unless the router is quiescent — gated
    /// off, waking, or active with empty buffers and empty NI queues.
    /// Then every cycle before some later grid tick would only count an
    /// idle cycle, and the router sleeps until the earliest of
    ///
    /// * its next epoch boundary (every state: epochs are real firings);
    /// * while waking, the first cycle at or after the wake-up deadline;
    /// * while active and gate-eligible apart from T-Idle and the
    ///   T-Switch stall, the first cycle at which both have passed.
    ///
    /// Everything else that could end a sleep — a flit, a secure or
    /// unsecure, a wake punch on a gated router, an NI admission — comes
    /// from outside and wakes the router explicitly ([`Network::wake`]).
    /// The gating bound relies on `gating` being constant for the run.
    fn next_cycle(&self, i: usize) -> u64 {
        let r = &self.routers[i];
        let div = r.divisor().cycle_ticks();
        let cycles_to = |tick: u64| tick.saturating_sub(self.now).div_ceil(div).max(1);
        let to_epoch = self
            .cfg
            .epoch_cycles
            .saturating_sub(r.cycles_into_epoch)
            .max(1);
        let cycles = match r.state {
            _ if r.buffered_flits > 0 => 1,
            PowerState::Inactive => to_epoch,
            PowerState::Wakeup { until, .. } => to_epoch.min(cycles_to(until.ticks())),
            PowerState::Active(_) if self.ni_pending(i) => 1,
            PowerState::Active(_) if self.gating && self.secured[i] == 0 => {
                let idle = self.cfg.t_idle.saturating_sub(r.idle_streak);
                to_epoch.min(idle.max(cycles_to(r.stall_until)))
            }
            PowerState::Active(_) => to_epoch,
        };
        self.now + cycles * div
    }

    /// True when a core attached to router `i` has a flit queued in its NI.
    fn ni_pending(&self, i: usize) -> bool {
        let conc = self.topo.concentration();
        self.inject[i * conc..(i + 1) * conc]
            .iter()
            .any(|q| !q.is_empty())
    }

    /// Account, in closed form, every idle cycle router `i` slept through
    /// on a grid tick before `before` (and before its live deadline).
    fn catch_up(&mut self, i: usize, before: u64) {
        let secured = self.secured[i] > 0;
        let r = &mut self.routers[i];
        let div = r.divisor().cycle_ticks();
        let before = before.min(r.next_cycle_at);
        if before > r.cycle_origin + div {
            let k = (before - r.cycle_origin - 1) / div;
            r.skip_idle_cycles(k, secured);
            r.cycle_origin += k * div;
        }
    }

    /// Wake router `i` onto its grid: account the idle cycles before
    /// `from`, then re-arm at the first grid tick at or after `from`
    /// if that is earlier than its deadline. Settle-phase effects pass
    /// `now + 1` (the router's cycle at `now`, if any, already fired in
    /// the fire phase); admission passes `now` (it runs before firing).
    fn wake(&mut self, i: usize, from: u64) {
        self.catch_up(i, from);
        let r = &self.routers[i];
        let next = r.cycle_origin + r.divisor().cycle_ticks();
        if next < r.next_cycle_at {
            self.arm(i, next);
        }
    }

    /// The first tick at or after `tick` on any router's grid: where a
    /// network firing every router every cycle would next stop. Only
    /// called when every live deadline lies beyond `tick`.
    fn first_grid_tick_from(&self, tick: u64) -> u64 {
        self.routers
            .iter()
            .map(|r| {
                let div = r.divisor().cycle_ticks();
                r.cycle_origin + tick.saturating_sub(r.cycle_origin).div_ceil(div) * div
            })
            .min()
            .unwrap_or(tick)
    }

    /// Apply this tick's deferred effects in emission order.
    fn settle(&mut self) {
        let effects = std::mem::take(&mut self.outbox);
        for &e in &effects {
            self.apply(e);
        }
        self.outbox = effects; // keep the allocation for the next tick
        self.outbox.clear();
    }

    /// Apply one deferred effect against live state. A sleeping target
    /// first wakes onto its grid ([`Network::wake`]): it accounts the
    /// idle cycles the fire phase would have given it, and its deadline
    /// is back at its next grid tick before the effect reads it.
    fn apply(&mut self, effect: Effect) {
        match effect {
            // A punch on a router that is not gated changes nothing its
            // sleep bound reads, so only a gated target wakes.
            Effect::Punch { router } => {
                if self.routers[router].state.is_inactive() {
                    self.wake(router, self.now + 1);
                    self.begin_wakeup(router);
                }
            }
            Effect::Secure { router } => {
                self.wake(router, self.now + 1);
                self.secure(router);
            }
            Effect::Transfer {
                dst,
                port,
                vc,
                flit,
                ready_at,
            } => {
                self.wake(dst, self.now + 1);
                let r = &mut self.routers[dst];
                r.push_flit(port, usize::from(vc), flit, ready_at);
                r.counters.flits_in[port_class(port)] += 1;
                if flit.kind.is_tail() {
                    self.unsecure(dst);
                }
            }
        }
    }

    /// Earliest router-cycle deadline. Finite: a sleeping router's
    /// deadline is at the latest its next epoch boundary.
    fn local_next_event(&self) -> u64 {
        self.sched.peek().0
    }

    /// Bill the residual residency of every router at `now`.
    fn flush_residency(&mut self) {
        let now = SimTime::from_ticks(self.now);
        for r in &mut self.routers {
            self.ledger
                .bill_residency(r.id, r.state, now.since(r.state_since));
            r.state_since = now;
        }
    }

    /// One local cycle of router `i`.
    fn step_router(
        &mut self,
        i: usize,
        policy: &mut dyn PowerPolicy,
        ml_overhead: Option<&MlOverhead>,
        tel: &mut dyn Telemetry,
    ) {
        match self.routers[i].state {
            PowerState::Inactive => {
                // Gated: the always-on power-management logic accounts
                // off time and advances the epoch.
                let div = self.routers[i].divisor().cycle_ticks();
                let r = &mut self.routers[i];
                r.counters.off_ticks += div;
                r.total_off_ticks += div;
                r.sample_cycle(false);
            }
            PowerState::Wakeup { until, target } => {
                if self.now >= until.ticks() {
                    self.transition(i, PowerState::Active(target));
                    self.routers[i].idle_streak = 0;
                }
                let secured = self.secured[i] > 0;
                self.routers[i].sample_cycle(secured);
            }
            PowerState::Active(_) => {
                let secured = self.secured[i] > 0;
                self.routers[i].sample_cycle(secured);
                if self.routers[i].operational(self.now) {
                    self.inject_flits(i);
                    debug_assert_eq!(
                        self.routers[i].buffered_flits as usize,
                        self.routers[i].occupancy(),
                        "buffered-flit count drifted from the buffers"
                    );
                    debug_assert!(
                        self.routers[i].occupancy_matches_buffers(),
                        "occupied-VC mask or class counts drifted from the buffers"
                    );
                    // Nothing buffered means the walk below is a no-op;
                    // most routers are empty most cycles.
                    if self.routers[i].buffered_flits > 0 {
                        self.switch_allocate(i);
                    }
                }
                self.maybe_gate_off(i);
            }
        }

        // Epoch bookkeeping (all states: idle epochs train the model).
        self.routers[i].cycles_into_epoch += 1;
        if self.routers[i].at_epoch_boundary(self.cfg.epoch_cycles) {
            let obs = self.routers[i].end_epoch(self.now.max(1));
            let mode = policy.select_mode(self.routers[i].id, &obs);
            self.stats.epochs += 1;
            self.stats.mode_selections[mode.rank()] += 1;
            if let Some(oh) = ml_overhead {
                self.ledger.bill_label(self.routers[i].id, oh);
            }
            if self.tel_enabled {
                // Settle residency billing up to this boundary so the
                // delta carries the epoch's static energy (residency is
                // otherwise only billed at state transitions). The
                // epoch's delta excludes the T-Switch this decision may
                // cost below — that bills to the epoch it stalls.
                let now = SimTime::from_ticks(self.now);
                let r = &mut self.routers[i];
                self.ledger
                    .bill_residency(r.id, r.state, now.since(r.state_since));
                r.state_since = now;
                let id = r.id;
                let cur = *self.ledger.router(id);
                let delta = cur.delta_since(&self.energy_prev[i]);
                self.energy_prev[i] = cur;
                if let Some(d) = policy.decision_trace() {
                    tel.on_decision(id, d, mode);
                }
                tel.on_epoch(id, &obs, mode, &delta);
            }
            self.apply_mode(i, mode);
        }
    }

    /// Apply an epoch mode decision: switch an active router (paying
    /// T-Switch) or retarget a gated router's future wake-up.
    fn apply_mode(&mut self, i: usize, mode: Mode) {
        self.routers[i].selected_mode = mode;
        if let PowerState::Active(cur) = self.routers[i].state {
            if cur != mode {
                self.transition(i, PowerState::Active(mode));
                let stall = self.vf.timings(mode).t_switch();
                self.routers[i].stall_until = self.now + stall.ticks();
                let id = self.routers[i].id;
                self.ledger
                    .bill_transition(id, self.transition.mode_switch_j(cur, mode));
            }
        }
    }

    /// Inject up to one flit per local port from the attached cores' NI
    /// queues.
    fn inject_flits(&mut self, i: usize) {
        // Core ids of router i are i·c .. i·c+c (Topology's attachment
        // rule) — plain arithmetic keeps the per-cycle hot path free of
        // the iterator collect this loop used to do.
        let conc = self.topo.concentration();
        let core_base = i * conc;
        for slot in 0..conc {
            let core_idx = core_base + slot;
            let Some(&flit) = self.inject[core_idx].front() else {
                continue;
            };
            let port_idx = Port::Local(u8::try_from(slot).expect("local slots fit u8")).index();
            let r = &mut self.routers[i];
            let divisor = r.divisor();
            let target_vc = if flit.kind.is_head() {
                r.free_vc(port_idx).map(usize::from)
            } else {
                (0..self.cfg.vcs_per_port).find(|&v| r.vc(port_idx, v).owner() == Some(flit.packet))
            };
            let Some(vc) = target_vc else { continue };
            if !r.vc(port_idx, vc).has_space() {
                continue;
            }
            // The flit spends the router pipeline (minus the ST cycle
            // the switch allocator itself models) before it may move on.
            let ready = self.now
                + 1
                + DomainCycles::new(self.cfg.pipeline_cycles - 1)
                    .to_ticks(divisor)
                    .ticks();
            r.push_flit(port_idx, vc, flit, ready);
            if flit.kind.is_head() {
                self.net_entry[packet_index(flit)] = self.now;
            }
            self.inject[core_idx].pop_front();
            let c = &mut r.counters;
            c.flits_injected += 1;
            c.flits_in[port_class(port_idx)] += 1;
            if flit.kind.is_head() {
                // Single-flit packets are requests, multi-flit are
                // responses (PacketKind::flit_count).
                if flit.kind == FlitKind::Single {
                    c.reqs_sent += 1;
                } else {
                    c.resps_sent += 1;
                }
            }
        }
    }

    /// Route compute and switch allocation, in one walk of the occupied
    /// VCs.
    ///
    /// The walk gives every unrouted packet head its route, securing
    /// (and so waking) its downstream router, and adds every ready routed
    /// head to its output port's candidate mask. The `Secure`s go out in
    /// slot order, before any `Transfer`. Then each output with
    /// candidates, in port order, grants the first candidate in
    /// round-robin order from its pointer ([`rr_order`]) that can send.
    /// Gathering first is sound because a granted send only mutates the
    /// winning VC and the *downstream* router, never another input VC's
    /// candidacy on this router.
    fn switch_allocate(&mut self, i: usize) {
        let now = self.now;
        let r = &mut self.routers[i];
        let n_slots = r.buffers.len();
        let mut outs = 0u64;
        let mut occupied = r.occupied;
        while occupied != 0 {
            let slot = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            let vc = &mut r.buffers[slot];
            let &(flit, ready_at) = vc.front().expect("occupied VC has a front flit");
            let out_port = match vc.route() {
                Some(route) => route.out_port,
                None => {
                    // An unrouted VC holds its packet's head at the front.
                    let (out_port, next_router) = self.xy.route(r.id, flit.dst);
                    vc.set_route(VcRoute {
                        out_port,
                        next_router,
                        out_vc: None,
                    });
                    if let Some(d) = next_router {
                        self.outbox.push(Effect::Secure { router: d.idx() });
                    }
                    out_port
                }
            };
            if ready_at <= now {
                let out = out_port.index();
                let bit = 1u64 << slot;
                let first = (outs >> out) & 1 == 0;
                self.out_cand[out] = if first { bit } else { self.out_cand[out] | bit };
                outs |= 1 << out;
            }
        }
        // Stall gauges are per router *cycle*, not per output port: a
        // 5-port router must book at most one stall cycle per cycle.
        let mut credit_stalled = false;
        let mut contended = false;
        while outs != 0 {
            let out = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let cand = self.out_cand[out];
            // A candidate that cannot actually send (downstream gated, no
            // free VC, no space) must not hold the grant — skipping it is
            // what keeps a blocked head from starving every other packet
            // on this output.
            let start = self.routers[i].sa_rr[out];
            match rr_order(cand, start).find(|&s| self.try_send(i, s)) {
                Some(s) => {
                    self.routers[i].sa_rr[out] = if s + 1 == n_slots { 0 } else { s + 1 };
                    // Losers of a granted output stalled this cycle.
                    contended |= cand & (cand - 1) != 0;
                }
                // Every candidate was blocked downstream.
                None => credit_stalled = true,
            }
        }
        let c = &mut self.routers[i].counters;
        c.credit_stall_cycles += credit_stalled as u64;
        c.stall_cycles += contended as u64;
    }

    /// Try to move the head flit of input VC slot `slot` through the
    /// switch. Returns false when blocked on downstream state or space.
    fn try_send(&mut self, i: usize, slot: usize) -> bool {
        let vc = &self.routers[i].buffers[slot];
        let route = *vc.route().expect("routed VC");
        match route.out_port {
            Port::Local(_) => {
                self.eject(i, slot, route.out_port);
                true
            }
            Port::Dir(dir) => {
                let d = route
                    .next_router
                    .expect("direction routes have a downstream router")
                    .idx();
                // Every read of the downstream router sees it as it stood
                // at the start of the tick, whether or not it fired
                // earlier this tick. The checks
                // stay *exact* at apply time because each in-port has a
                // single upstream sender and each output port grants at
                // most once per tick — at most one flit lands per
                // (router, in-port) per settlement, so space seen at the
                // start of the tick cannot be stolen in between.
                let down = &self.routers[d];
                let (operational, down_divisor) = down.view_at(self.now);
                if !operational {
                    return false;
                }
                let down_port = Port::Dir(dir.opposite()).index();
                let flit_is_head = vc
                    .peek_ready(self.now)
                    .expect("caller checked readiness")
                    .kind
                    .is_head();
                // Pick / reuse the downstream VC.
                let down_vc = if flit_is_head {
                    match down.free_vc_at(down_port, self.now) {
                        Some(v) => v,
                        None => return false,
                    }
                } else {
                    match route.out_vc {
                        Some(v) => v,
                        None => return false, // head not yet sent
                    }
                };
                if !down.vc(down_port, usize::from(down_vc)).view_at(self.now).1 {
                    return false;
                }
                if flit_is_head {
                    self.routers[i].buffers[slot].set_out_vc(down_vc);
                }
                // Grant: pop here, hand the flit over as a transfer
                // applied at the end of the tick.
                let flit = self.routers[i].pop_flit(slot, self.now);
                let mode = match self.routers[i].state {
                    PowerState::Active(m) => m,
                    _ => unreachable!("only active routers allocate"),
                };
                let ready = self.now
                    + self.cfg.lookahead_ticks
                    + DomainCycles::new(self.cfg.pipeline_cycles - 1)
                        .to_ticks(down_divisor)
                        .ticks();
                let out_class = port_class(route.out_port.index());
                {
                    let c = &mut self.routers[i].counters;
                    c.flits_out[out_class] += 1;
                    c.class_busy_cycles[out_class] += 1;
                    c.hops += 1;
                }
                self.ledger.bill_hop(self.routers[i].id, mode);
                self.outbox.push(Effect::Transfer {
                    dst: d,
                    port: down_port,
                    vc: down_vc,
                    flit,
                    ready_at: ready,
                });
                true
            }
        }
    }

    /// Eject the head flit of input VC slot `slot` to the attached core.
    fn eject(&mut self, i: usize, slot: usize, out_port: Port) {
        let flit = self.routers[i].pop_flit(slot, self.now);
        let mode = match self.routers[i].state {
            PowerState::Active(m) => m,
            _ => unreachable!("only active routers eject"),
        };
        let out_class = port_class(out_port.index());
        {
            let c = &mut self.routers[i].counters;
            c.flits_ejected += 1;
            c.flits_out[out_class] += 1;
            c.class_busy_cycles[out_class] += 1;
            c.hops += 1;
        }
        // Router + ejection-link traversal costs one hop charge too.
        self.ledger.bill_hop(self.routers[i].id, mode);
        self.in_flight -= 1;
        self.stats.flits_delivered += 1;
        if flit.kind.is_tail() {
            let c = &mut self.routers[i].counters;
            if flit.kind == FlitKind::Single {
                c.reqs_recv += 1;
            } else {
                c.resps_recv += 1;
            }
            self.stats.packets_delivered += 1;
            let latency = self.now.saturating_sub(flit.inject_time.ticks());
            self.stats.latency_sum_ticks += latency as u128;
            self.stats.latency_max_ticks = self.stats.latency_max_ticks.max(latency);
            let entered = self.net_entry[packet_index(flit)];
            debug_assert_ne!(entered, u64::MAX, "delivered before entering?");
            let net_latency = self.now.saturating_sub(entered);
            self.stats.net_latency_sum_ticks += net_latency as u128;
            self.stats.net_latency_max_ticks = self.stats.net_latency_max_ticks.max(net_latency);
            self.stats.net_latency_hist.record(net_latency);
            self.stats.last_delivery = SimTime::from_ticks(self.now);
        }
    }

    /// Gate the router off when every Fig. 3(a) condition holds.
    fn maybe_gate_off(&mut self, i: usize) {
        if !self.gating {
            return;
        }
        let r = &self.routers[i];
        debug_assert_eq!(r.buffered_flits == 0, r.buffers_empty());
        if r.idle_streak < self.cfg.t_idle
            || r.buffered_flits > 0
            || self.secured[i] > 0
            || self.now < r.stall_until
        {
            return;
        }
        // No pending local injection either (it would re-wake instantly).
        let router_id = r.id;
        if self.ni_pending(i) {
            return;
        }
        self.transition(i, PowerState::Inactive);
        let r = &mut self.routers[i];
        r.off_since = Some(SimTime::from_ticks(self.now));
        r.lifetime_gate_offs += 1;
        self.ledger.note_gate_off(router_id);
    }

    /// Secure router `d` as a downstream router; wake it if gated.
    fn secure(&mut self, d: usize) {
        self.secured[d] += 1;
        if self.routers[d].state.is_inactive() {
            self.begin_wakeup(d);
        }
    }

    /// Release one downstream-secure reference on router `d`.
    ///
    /// An unbalanced secure/unsecure pairing is a flow-control
    /// accounting bug that would wedge gating forever; instead of
    /// silently saturating, it is counted in
    /// [`RunStats::secure_underflows`] and logged (and still panics
    /// under debug assertions).
    fn unsecure(&mut self, d: usize) {
        match self.secured[d].checked_sub(1) {
            Some(n) => self.secured[d] = n,
            None => {
                self.stats.secure_underflows += 1;
                if self.stats.secure_underflows == 1 {
                    eprintln!(
                        "dozznoc-noc: invariant violation at tick {}: unbalanced unsecure \
                         of router {d} (counted in RunStats::secure_underflows)",
                        self.now
                    );
                }
                debug_assert!(false, "unbalanced unsecure of router {d}");
            }
        }
    }

    /// Begin waking a gated router into its selected mode.
    fn begin_wakeup(&mut self, i: usize) {
        debug_assert!(self.routers[i].state.is_inactive());
        let target = self.routers[i].selected_mode;
        let t_wakeup = self.vf.timings(target).t_wakeup();
        let until = SimTime::from_ticks(self.now + t_wakeup.ticks());
        // T-Breakeven accounting.
        if let Some(off_since) = self.routers[i].off_since.take() {
            let off_for = self.now.saturating_sub(off_since.ticks());
            if off_for < self.vf.timings(target).t_breakeven().ticks() {
                self.ledger.note_breakeven_violation(self.routers[i].id);
            }
        }
        self.transition(i, PowerState::Wakeup { target, until });
        self.routers[i].lifetime_wakeups += 1;
        let id = self.routers[i].id;
        self.ledger.note_wakeup(id);
        self.ledger
            .bill_transition(id, self.transition.wakeup_j(target));
        // The waking router must check `until` promptly, on its target
        // mode's clock: a cycle due later than one target-mode cycle from
        // now is pulled in, and the grid restarts at the pull. Otherwise
        // the standing deadline stays, and the grid is re-anchored so
        // that it lands one target-mode cycle after its origin.
        let r = &mut self.routers[i];
        let div = r.divisor().cycle_ticks();
        let pulled = self.now + div;
        if pulled < r.next_cycle_at {
            r.cycle_origin = self.now;
            self.arm(i, pulled);
        } else {
            r.cycle_origin = r.next_cycle_at.saturating_sub(div);
        }
    }

    /// Change power state, billing the residency of the outgoing state.
    fn transition(&mut self, i: usize, new_state: PowerState) {
        let now = SimTime::from_ticks(self.now);
        let r = &mut self.routers[i];
        self.ledger
            .bill_residency(r.id, r.state, now.since(r.state_since));
        if self.tel_enabled {
            let kind = match (r.state, new_state) {
                (_, PowerState::Inactive) => Some(TransitionKind::GateOff),
                (_, PowerState::Wakeup { target, .. }) => {
                    Some(TransitionKind::WakeupStart { target })
                }
                (PowerState::Wakeup { .. }, PowerState::Active(mode)) => {
                    Some(TransitionKind::WakeupDone { mode })
                }
                (PowerState::Active(from), PowerState::Active(to)) if from != to => {
                    Some(TransitionKind::ModeSwitch { from, to })
                }
                _ => None,
            };
            if let Some(kind) = kind {
                self.events.push(TransitionEvent {
                    at: now,
                    router: r.id,
                    kind,
                });
            }
        }
        r.state = new_state;
        r.state_since = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AlwaysMode;
    use dozznoc_traffic::trace::packet;
    use dozznoc_types::PacketKind;

    fn mesh_cfg() -> NocConfig {
        NocConfig::paper(Topology::mesh8x8())
    }

    fn one_packet_trace(src: u16, dst: u16, kind: PacketKind) -> Trace {
        Trace::new("unit", 64, vec![packet(src, dst, kind, 1.0)])
    }

    /// A single packet injected *after* the first epoch boundary
    /// (≈222 ns at M7), so an `AlwaysMode` policy's choice has already
    /// taken effect when the packet traverses.
    fn late_packet_trace(src: u16, dst: u16, kind: PacketKind) -> Trace {
        Trace::new("late", 64, vec![packet(src, dst, kind, 400.0)])
    }

    fn run(trace: &Trace, policy: &mut dyn PowerPolicy) -> RunReport {
        Network::new(mesh_cfg())
            .run(trace, policy)
            .expect("run completes")
    }

    #[test]
    fn single_request_delivers() {
        let t = one_packet_trace(0, 63, PacketKind::Request);
        let r = run(&t, &mut AlwaysMode::new(Mode::M7));
        assert_eq!(r.stats.packets_delivered, 1);
        assert_eq!(r.stats.flits_delivered, 1);
        assert!(r.stats.avg_latency_ns() > 0.0);
    }

    #[test]
    fn response_delivers_all_flits() {
        let t = one_packet_trace(5, 40, PacketKind::Response);
        let r = run(&t, &mut AlwaysMode::new(Mode::M7));
        assert_eq!(r.stats.packets_delivered, 1);
        assert_eq!(r.stats.flits_delivered, 5);
    }

    #[test]
    fn latency_scales_with_distance() {
        let near = run(
            &one_packet_trace(0, 1, PacketKind::Request),
            &mut AlwaysMode::new(Mode::M7),
        );
        let far = run(
            &one_packet_trace(0, 63, PacketKind::Request),
            &mut AlwaysMode::new(Mode::M7),
        );
        assert!(
            far.stats.avg_latency_ns() > near.stats.avg_latency_ns(),
            "far {} ns vs near {} ns",
            far.stats.avg_latency_ns(),
            near.stats.avg_latency_ns()
        );
    }

    #[test]
    fn lower_mode_is_slower() {
        let t = late_packet_trace(0, 63, PacketKind::Response);
        let fast = run(&t, &mut AlwaysMode::new(Mode::M7));
        let slow = run(&t, &mut AlwaysMode::new(Mode::M3));
        assert!(
            slow.stats.avg_latency_ns() > fast.stats.avg_latency_ns() * 1.5,
            "slow {} ns vs fast {} ns",
            slow.stats.avg_latency_ns(),
            fast.stats.avg_latency_ns()
        );
    }

    #[test]
    fn lower_mode_uses_less_dynamic_energy() {
        let t = late_packet_trace(0, 63, PacketKind::Response);
        let fast = run(&t, &mut AlwaysMode::new(Mode::M7));
        let slow = run(&t, &mut AlwaysMode::new(Mode::M3));
        assert!(slow.energy.dynamic_j < fast.energy.dynamic_j);
        // Same flits, same hops — only the per-hop cost differs.
        assert_eq!(slow.energy.flit_hops, fast.energy.flit_hops);
    }

    #[test]
    fn hop_count_matches_route_length() {
        // 0 → 7 on the top row: 7 link hops + 1 ejection = 8 hop charges.
        let t = one_packet_trace(0, 7, PacketKind::Request);
        let r = run(&t, &mut AlwaysMode::new(Mode::M7));
        assert_eq!(r.energy.flit_hops, 8);
    }

    #[test]
    fn gating_saves_static_energy_on_idle_network() {
        let t = one_packet_trace(0, 1, PacketKind::Request);
        let always_on = run(&t, &mut AlwaysMode::new(Mode::M7));
        let gated = run(&t, &mut AlwaysMode::new(Mode::M7).with_gating());
        assert!(
            gated.energy.static_j < always_on.energy.static_j * 0.7,
            "gated {} J vs always-on {} J",
            gated.energy.static_j,
            always_on.energy.static_j
        );
        assert!(gated.energy.gate_offs > 0);
        assert!(gated.energy.off_fraction() > 0.3);
        // Delivery still happens.
        assert_eq!(gated.stats.packets_delivered, 1);
    }

    #[test]
    fn gated_run_pays_wakeup_latency() {
        // Inject a second packet long after the first so routers have
        // gated off; its latency must absorb wake-ups.
        let t = Trace::new(
            "two",
            64,
            vec![
                packet(0, 9, PacketKind::Request, 1.0),
                packet(0, 9, PacketKind::Request, 800.0),
            ],
        );
        let on = run(&t, &mut AlwaysMode::new(Mode::M7));
        let gated = run(&t, &mut AlwaysMode::new(Mode::M7).with_gating());
        assert_eq!(gated.stats.packets_delivered, 2);
        assert!(gated.energy.wakeups > 0);
        assert!(gated.stats.avg_latency_ns() > on.stats.avg_latency_ns());
    }

    #[test]
    fn in_flight_conservation_under_load() {
        // A burst of packets from many sources: everything injected must
        // be delivered.
        let mut pkts = Vec::new();
        for s in 0..32u16 {
            for k in 0..4 {
                pkts.push(packet(
                    s,
                    63 - s,
                    PacketKind::Response,
                    1.0 + k as f64 * 3.0,
                ));
            }
        }
        let t = Trace::new("burst", 64, pkts);
        let r = run(&t, &mut AlwaysMode::new(Mode::M7));
        assert_eq!(r.stats.packets_delivered, 128);
        assert_eq!(r.stats.flits_delivered, 128 * 5);
    }

    #[test]
    fn gating_preserves_delivery_under_load() {
        let mut pkts = Vec::new();
        for s in 0..64u16 {
            for k in 0..3 {
                pkts.push(packet(
                    s,
                    (s + 17) % 64,
                    PacketKind::Request,
                    1.0 + k as f64 * 400.0,
                ));
            }
        }
        let t = Trace::new("gated-load", 64, pkts);
        let r = run(&t, &mut AlwaysMode::new(Mode::M3).with_gating());
        assert_eq!(r.stats.packets_delivered, 192);
    }

    #[test]
    fn cmesh_topology_works() {
        let t = Trace::new(
            "cmesh",
            64,
            vec![
                packet(0, 63, PacketKind::Response, 1.0),
                packet(13, 2, PacketKind::Request, 2.0),
            ],
        );
        let r = Network::new(NocConfig::paper(Topology::cmesh4x4()))
            .run(&t, &mut AlwaysMode::new(Mode::M7))
            .expect("cmesh run completes");
        assert_eq!(r.stats.packets_delivered, 2);
    }

    #[test]
    fn epochs_fire_and_count_modes() {
        // A trace long enough to cross several epoch boundaries.
        let pkts = (0..40)
            .map(|k| packet(0, 5, PacketKind::Request, 1.0 + k as f64 * 50.0))
            .collect();
        let t = Trace::new("epochs", 64, pkts);
        let r = run(&t, &mut AlwaysMode::new(Mode::M4));
        assert!(r.stats.epochs > 0);
        // AlwaysMode(M4) selects M4 every epoch.
        assert_eq!(r.stats.mode_selections[Mode::M4.rank()], r.stats.epochs);
        let d = r.stats.mode_distribution();
        assert!((d[Mode::M4.rank()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn static_energy_scales_with_run_length() {
        let short = run(
            &one_packet_trace(0, 1, PacketKind::Request),
            &mut AlwaysMode::new(Mode::M7),
        );
        let long_trace = Trace::new(
            "long",
            64,
            vec![
                packet(0, 1, PacketKind::Request, 1.0),
                packet(0, 1, PacketKind::Request, 2000.0),
            ],
        );
        let long = run(&long_trace, &mut AlwaysMode::new(Mode::M7));
        assert!(long.energy.static_j > short.energy.static_j * 10.0);
    }

    /// A head flit of packet `id` from `src` to `dst`.
    fn head_flit(id: u64, src: u16, dst: u16) -> Flit {
        dozznoc_types::Packet {
            id: dozznoc_types::PacketId(id),
            src: dozznoc_types::CoreId(src),
            dst: dozznoc_types::CoreId(dst),
            kind: PacketKind::Request,
            inject_time: SimTime::ZERO,
        }
        .flits()
        .next()
        .expect("packet has a head flit")
    }

    #[test]
    fn stalls_count_at_most_once_per_router_cycle() {
        use dozznoc_topology::Direction;
        // Router 9 (coord (1,1)) holds two routed, ready head flits
        // aimed at *different* output ports, both blocked because the
        // downstream routers are gated. The old accounting booked one
        // credit-stall per output port (2 here, up to 5 on a mesh
        // router) in a single cycle; it must book exactly one.
        let mut net = Network::new(mesh_cfg());
        let i = 9;
        net.routers[10].state = PowerState::Inactive; // east neighbor
        net.routers[8].state = PowerState::Inactive; // west neighbor
        let east = dozznoc_topology::Port::Dir(Direction::East);
        let west = dozznoc_topology::Port::Dir(Direction::West);
        // Local input VC 0 → east; north input VC 0 → west.
        let local = dozznoc_topology::Port::Local(0).index();
        net.routers[i].push_flit(local, 0, head_flit(0, 9, 15), 0);
        net.routers[i].vc_mut(local, 0).set_route(VcRoute {
            out_port: east,
            next_router: Some(RouterId(10)),
            out_vc: None,
        });
        let north = dozznoc_topology::Port::Dir(Direction::North).index();
        net.routers[i].push_flit(north, 0, head_flit(1, 9, 8), 0);
        net.routers[i].vc_mut(north, 0).set_route(VcRoute {
            out_port: west,
            next_router: Some(RouterId(8)),
            out_vc: None,
        });
        net.switch_allocate(i);
        assert_eq!(net.routers[i].counters.credit_stall_cycles, 1);
        assert_eq!(net.routers[i].counters.stall_cycles, 0);
    }

    /// The flits of a 5-flit response packet `id` from `src` to `dst`.
    fn response_flits(id: u64, src: u16, dst: u16) -> Vec<Flit> {
        dozznoc_types::Packet {
            id: dozznoc_types::PacketId(id),
            src: dozznoc_types::CoreId(src),
            dst: dozznoc_types::CoreId(dst),
            kind: PacketKind::Response,
            inject_time: SimTime::ZERO,
        }
        .flits()
        .collect()
    }

    /// The same-tick view fixtures: router 10 (upstream) sends west into
    /// router 9 (downstream, lower index, so it fires first in a tick),
    /// where the flit lands on the east input port. Returns the network
    /// and that port's index at router 9.
    fn same_tick_pair() -> (Network, usize) {
        let mut net = Network::new(mesh_cfg());
        // Ejections decrement the in-flight count and read entry ticks.
        net.in_flight = 100;
        net.net_entry = vec![0; 8];
        (net, Port::Dir(dozznoc_topology::Direction::East).index())
    }

    #[test]
    fn upstream_sees_a_same_tick_tail_pop_free_a_vc_only_next_tick() {
        let mut policy = AlwaysMode::new(Mode::M7);
        let (mut net, east) = same_tick_pair();
        let local = Port::Local(0).index();
        // Router 9's east port: VC 0 holds a single-flit packet that
        // ejects at tick 8 (its tail pop frees the VC); VCs 1–3 are
        // owned by heads that never become ready.
        net.routers[9].push_flit(east, 0, head_flit(0, 10, 9), 8);
        for v in 1..4u64 {
            let head = response_flits(v, 10, 8)[0];
            net.routers[9].push_flit(east, usize::try_from(v).expect("small"), head, 10_000);
        }
        // Router 10 holds a head bound west through router 9.
        net.routers[10].push_flit(local, 0, head_flit(4, 10, 8), 8);
        advance_to(&mut net, &mut policy, 0);
        advance_to(&mut net, &mut policy, 8);
        assert!(net.routers[9].vc(east, 0).can_accept_new_packet());
        assert_eq!(net.routers[10].counters.hops, 0);
        assert_eq!(net.routers[10].counters.credit_stall_cycles, 1);
        advance_to(&mut net, &mut policy, 16);
        assert_eq!(net.routers[10].counters.hops, 1);
        assert_eq!(
            net.routers[9].vc(east, 0).owner(),
            Some(dozznoc_types::PacketId(4))
        );
    }

    #[test]
    fn upstream_sees_a_same_tick_pop_free_space_only_next_tick() {
        let mut policy = AlwaysMode::new(Mode::M7);
        let (mut net, east) = same_tick_pair();
        let local = Port::Local(0).index();
        // Packet 0 (10 → 9): its first four flits fill router 9's east
        // VC 0 and eject one per cycle from tick 8; its tail waits at
        // router 10 with VC 0 already allocated downstream.
        let flits = response_flits(0, 10, 9);
        for &f in &flits[..4] {
            net.routers[9].push_flit(east, 0, f, 8);
        }
        net.routers[10].push_flit(local, 0, flits[0], 0);
        net.routers[10].push_flit(local, 0, flits[4], 8);
        net.routers[10].pop_flit(local * net.cfg.vcs_per_port, 0);
        net.routers[10].vc_mut(local, 0).set_route(VcRoute {
            out_port: Port::Dir(dozznoc_topology::Direction::West),
            next_router: Some(RouterId(9)),
            out_vc: Some(0),
        });
        // The head's route compute took a secure reference on router 9.
        net.secured[9] = 1;
        advance_to(&mut net, &mut policy, 0);
        advance_to(&mut net, &mut policy, 8);
        assert!(net.routers[9].vc(east, 0).has_space());
        assert_eq!(net.routers[10].counters.hops, 0);
        assert_eq!(net.routers[10].counters.credit_stall_cycles, 1);
        advance_to(&mut net, &mut policy, 16);
        assert_eq!(net.routers[10].counters.hops, 1);
        assert_eq!(net.routers[10].buffered_flits, 0);
    }

    #[test]
    fn upstream_sees_a_same_tick_mode_switch_stall_only_next_tick() {
        let mut policy = AlwaysMode::new(Mode::M6);
        let (mut net, east) = same_tick_pair();
        let local = Port::Local(0).index();
        // Router 9 reaches its epoch boundary at tick 8 and switches
        // M7 → M6, stalling for T-Switch.
        net.routers[9].cycles_into_epoch = net.cfg.epoch_cycles - 2;
        // Router 10 holds a response's head and first body flit, bound
        // west through router 9 and ready at ticks 8 and 16.
        let flits = response_flits(0, 10, 8);
        net.routers[10].push_flit(local, 0, flits[0], 8);
        net.routers[10].push_flit(local, 0, flits[1], 16);
        advance_to(&mut net, &mut policy, 0);
        advance_to(&mut net, &mut policy, 8);
        assert_eq!(net.routers[9].state, PowerState::Active(Mode::M6));
        assert!(net.routers[9].stall_until > 16);
        // The head crossed at tick 8 and carries router 9's M7 pipeline
        // timing: 8 + lookahead 1 + 2 cycles × 8 ticks.
        assert_eq!(net.routers[10].counters.hops, 1);
        let landed: Vec<u64> = net.routers[9]
            .vc(east, 0)
            .entries()
            .map(|&(_, ready_at)| ready_at)
            .collect();
        assert_eq!(landed, [25]);
        advance_to(&mut net, &mut policy, 16);
        assert_eq!(net.routers[10].counters.hops, 1);
        assert_eq!(net.routers[10].counters.credit_stall_cycles, 1);
    }

    #[test]
    fn unbalanced_unsecure_is_counted_not_saturated() {
        let mut net = Network::new(mesh_cfg());
        if cfg!(debug_assertions) {
            // Debug builds still fail fast.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.unsecure(3)));
            assert!(r.is_err(), "debug build must panic on unbalanced unsecure");
            assert_eq!(net.stats.secure_underflows, 1);
        } else {
            // Release builds count the violation instead of wedging
            // gating with a silently-saturated reference count.
            net.unsecure(3);
            net.unsecure(3);
            assert_eq!(net.stats.secure_underflows, 2);
            assert_eq!(net.secured[3], 0);
        }
        // Balanced pairs never trip the counter.
        let mut ok = Network::new(mesh_cfg());
        ok.secure(4);
        ok.unsecure(4);
        assert_eq!(ok.stats.secure_underflows, 0);
    }

    #[test]
    fn wakeup_pull_reschedules_earlier_than_standing_deadline() {
        // A gated router's standing deadline can sit far in the future
        // when a wake punch arrives. The wake must pull the next cycle
        // to `now + divisor` and re-key the schedule to it.
        let mut net = Network::new(mesh_cfg());
        let i = 12;
        net.now = 360;
        net.routers[i].state = PowerState::Inactive;
        net.arm(i, 360 + 1_000);
        net.begin_wakeup(i);
        let pulled = 360 + net.routers[i].divisor().cycle_ticks();
        assert!(pulled < 360 + 1_000);
        assert_eq!(net.routers[i].next_cycle_at, pulled);
        assert_eq!(net.sched.tick(i), pulled);

        // When the cycle is already due sooner than the pull would
        // land, the wake must NOT re-arm (that would push the cycle
        // *later*).
        let mut soon = Network::new(mesh_cfg());
        let j = 30;
        soon.now = 360;
        soon.routers[j].state = PowerState::Inactive;
        soon.arm(j, 361);
        soon.begin_wakeup(j);
        assert_eq!(soon.routers[j].next_cycle_at, 361);
        assert_eq!(soon.sched.tick(j), 361);
    }

    /// Process every event up to and including `tick` the way the run
    /// loop does (fire, then settle), then set the clock to `tick`.
    fn advance_to(net: &mut Network, policy: &mut dyn PowerPolicy, tick: u64) {
        loop {
            let next = net.local_next_event();
            if next > tick {
                break;
            }
            net.now = next;
            net.fire(policy, None, &mut NullSink);
            net.settle();
        }
        net.now = tick;
    }

    /// A fresh mesh whose routers all fired their first cycle at tick 0.
    /// Idle and ungated, each sleeps until its first epoch boundary, the
    /// 500th M7 cycle at tick 499 · 8 = 3992.
    fn idle_mesh(policy: &mut dyn PowerPolicy) -> Network {
        let mut net = Network::new(mesh_cfg());
        net.gating = policy.gating_enabled();
        advance_to(&mut net, policy, 0);
        net
    }

    #[test]
    fn idle_routers_sleep_until_their_epoch_boundary() {
        let net = idle_mesh(&mut AlwaysMode::new(Mode::M7));
        for r in &net.routers {
            assert_eq!((r.cycle_origin, r.next_cycle_at), (0, 3992));
            assert_eq!(r.counters.cycles, 1);
        }
    }

    #[test]
    fn transfer_on_a_sleepers_grid_tick_counts_that_tick_first() {
        let mut policy = AlwaysMode::new(Mode::M7);
        let mut net = idle_mesh(&mut policy);
        let i = 9;
        // Tick 40 is on router 9's grid: firing every cycle, it would
        // have fired at 8, 16, 24, 32 and 40 before this tick settles.
        net.now = 40;
        let north = Port::Dir(dozznoc_topology::Direction::North).index();
        // The single-flit packet is its own tail: its transfer releases
        // the secure reference the upstream route compute took.
        net.outbox.push(Effect::Secure { router: 9 });
        net.outbox.push(Effect::Transfer {
            dst: 9,
            port: north,
            vc: 0,
            flit: head_flit(0, 1, 15),
            ready_at: 57,
        });
        net.settle();
        let r = &net.routers[i];
        assert_eq!(r.counters.cycles, 6);
        assert_eq!(r.counters.idle_cycles, 6);
        assert_eq!(r.idle_streak, 6);
        assert_eq!(r.cycles_into_epoch, 6);
        assert_eq!(r.counters.flits_in[port_class(north)], 1);
        assert_eq!(r.buffered_flits, 1);
        // Back on its grid at the next tick after 40, in the schedule too.
        assert_eq!((r.cycle_origin, r.next_cycle_at), (40, 48));
        assert_eq!(net.sched.tick(9), 48);
        // Holding a flit, it no longer sleeps after firing.
        advance_to(&mut net, &mut policy, 48);
        let r = &net.routers[i];
        assert_eq!(r.counters.cycles, 7);
        assert_eq!(r.counters.idle_cycles, 6);
        assert_eq!(r.next_cycle_at, 56);
    }

    #[test]
    fn admission_on_a_sleepers_grid_tick_fires_it_that_tick() {
        let mut policy = AlwaysMode::new(Mode::M7);
        let mut net = idle_mesh(&mut policy);
        let mut pkt = packet(9, 15, PacketKind::Request, 0.0);
        pkt.inject_time = SimTime::from_ticks(40);
        let packets = [pkt];
        net.net_entry = vec![u64::MAX; 1];
        net.now = 40;
        let mut next_pkt = 0;
        net.admit(&packets, &mut next_pkt);
        // Admission runs before firing: only 8, 16, 24 and 32 were
        // slept through, and the router re-arms at 40 itself.
        let r = &net.routers[9];
        assert_eq!(r.counters.cycles, 5);
        assert_eq!((r.cycle_origin, r.next_cycle_at), (32, 40));
        net.fire(&mut policy, None, &mut NullSink);
        let r = &net.routers[9];
        assert_eq!(r.counters.cycles, 6);
        assert_eq!(r.counters.flits_injected, 1);
        assert_eq!(r.buffered_flits, 1);
        assert_eq!(net.net_entry[0], 40);
        assert_eq!(r.next_cycle_at, 48);
    }

    #[test]
    fn secure_mid_sleep_counts_secured_cycles_from_that_tick() {
        let mut policy = AlwaysMode::new(Mode::M7);
        let mut net = idle_mesh(&mut policy);
        let i = 9;
        // A punch on an active sleeper changes nothing it sleeps on.
        net.now = 37;
        net.outbox.push(Effect::Punch { router: 9 });
        net.settle();
        assert_eq!(net.routers[i].next_cycle_at, 3992);
        assert_eq!(net.routers[i].counters.cycles, 1);
        // Tick 37 is between grid ticks 32 and 40: cycles 8..=32 were
        // unsecured; the secure lands before the cycle at 40.
        net.outbox.push(Effect::Secure { router: 9 });
        net.settle();
        let r = &net.routers[i];
        assert_eq!(r.counters.cycles, 5);
        assert_eq!(r.counters.secured_cycles, 0);
        assert_eq!((r.cycle_origin, r.next_cycle_at), (32, 40));
        // It fires secured at 40, then sleeps to the same boundary.
        advance_to(&mut net, &mut policy, 40);
        let r = &net.routers[i];
        assert_eq!(r.counters.secured_cycles, 1);
        assert_eq!(r.next_cycle_at, 3992);
        // Slept-through cycles 48..=96 count as secured too.
        net.now = 100;
        net.catch_up(i, 101);
        let r = &net.routers[i];
        assert_eq!(r.counters.cycles, 13);
        assert_eq!(r.counters.secured_cycles, 8);
        assert_eq!(r.cycle_origin, 96);
    }

    #[test]
    fn unsecure_that_frees_a_sleeper_gates_it_on_the_per_cycle_tick() {
        let mut policy = AlwaysMode::new(Mode::M7).with_gating();
        let mut net = Network::new(mesh_cfg());
        net.gating = true;
        let i = 9;
        // Secured from the start, router 9 cannot gate off: it sleeps
        // to its epoch boundary while its idle neighbours gate off at
        // tick 24 (T-Idle = 4 idle cycles).
        net.secured[i] = 1;
        advance_to(&mut net, &mut policy, 0);
        assert_eq!(net.routers[i].next_cycle_at, 3992);
        assert_eq!(net.routers[8].next_cycle_at, 24);
        advance_to(&mut net, &mut policy, 37);
        assert!(net.routers[8].state.is_inactive());
        assert!(!net.routers[i].state.is_inactive());
        // Released at 37 the way a tail's transfer releases it: cycles
        // 8..=32 were secured; the router's next cycle is 40, where every
        // gate-off condition holds.
        net.wake(i, net.now + 1);
        net.unsecure(i);
        let r = &net.routers[i];
        assert_eq!(r.counters.secured_cycles, 5);
        assert_eq!(r.idle_streak, 5);
        assert_eq!(r.next_cycle_at, 40);
        advance_to(&mut net, &mut policy, 40);
        let r = &net.routers[i];
        assert!(r.state.is_inactive());
        assert_eq!(r.state_since, SimTime::from_ticks(40));
        assert_eq!(r.lifetime_gate_offs, 1);
    }

    #[test]
    fn wakeup_pull_on_a_long_sleeper_lands_where_its_heartbeat_would() {
        let mut policy = AlwaysMode::new(Mode::M7).with_gating();
        let mut net = Network::new(mesh_cfg());
        net.gating = true;
        // Everyone gates off at tick 24 after T-Idle idle cycles and
        // sleeps on the 18-tick M3 grid until the epoch boundary: 4
        // cycles done, 496 to go.
        advance_to(&mut net, &mut policy, 24);
        let boundary = 24 + 496 * 18;
        assert_eq!(net.routers[12].next_cycle_at, boundary);
        // Punched at 929, 50 grid ticks (42..=924) later. Its next
        // gated cycle would be 942; the wake-up pulls it to 929 + 8.
        advance_to(&mut net, &mut policy, 929);
        net.outbox.push(Effect::Punch { router: 12 });
        net.settle();
        let r = &net.routers[12];
        assert_eq!(r.counters.cycles, 54);
        assert_eq!(r.counters.off_ticks, 900);
        assert_eq!(r.total_off_ticks, 900);
        assert!(matches!(r.state, PowerState::Wakeup { .. }));
        assert_eq!((r.cycle_origin, r.next_cycle_at), (929, 937));
        assert_eq!(net.sched.tick(12), 937);
        // Punched at 936 instead, the pull (944) would land after the
        // standing cycle at 942, which therefore stays.
        advance_to(&mut net, &mut policy, 936);
        net.outbox.push(Effect::Punch { router: 13 });
        net.settle();
        let r = &net.routers[13];
        assert_eq!(r.counters.cycles, 54);
        assert_eq!(r.next_cycle_at, 942);
        assert_eq!(r.cycle_origin, 942 - 8);
    }

    #[test]
    fn idle_run_fires_per_epoch_not_per_cycle() {
        // One request from core 0 to its east neighbour, injected at
        // tick 80 000 after 20 idle M7 epochs (boundaries at 3992 +
        // 4000·j). Firing every cycle would stop at every 8-tick grid
        // tick from 0 to the ejection at 80 048: 10 007 event ticks.
        // Sleeping, the run stops at tick 0, the 20 boundaries, and the
        // 7 grid ticks of the packet's 48-tick flight.
        let mut pkt = packet(0, 1, PacketKind::Request, 0.0);
        pkt.inject_time = SimTime::from_ticks(80_000);
        let trace = Trace::new("idle", 64, vec![pkt]);
        let mut san = SimSanitizer::default();
        let r = Network::new(mesh_cfg())
            .run_sanitized(&trace, &mut AlwaysMode::new(Mode::M7), &mut san)
            .expect("run completes");
        assert_eq!(san.violation_count(), 0);
        assert_eq!(san.sweeps(), 1 + 20 + 7);
        assert_eq!(r.finished_at.ticks(), 80_048);
        assert_eq!(r.stats.latency_max_ticks, 48);
        assert_eq!(r.stats.epochs, 64 * 20);
    }

    #[test]
    fn same_tick_deadlines_fire_in_router_index_order() {
        // The schedule breaks ties by router index, so a tick's firings
        // visit routers exactly like a linear index scan — this is what
        // keeps run reports bit-identical.
        let mut net = Network::new(mesh_cfg());
        let n = net.routers.len();
        // Re-arm router 3 as if it had already fired.
        net.arm(3, 7);
        let mut fired = Vec::new();
        loop {
            let (t, idx) = net.sched.peek();
            if t > 0 {
                break;
            }
            fired.push(idx);
            net.arm(idx, 8);
        }
        let expected: Vec<usize> = (0..n).filter(|&i| i != 3).collect();
        assert_eq!(fired, expected);
        assert_eq!(net.sched.peek(), (7, 3));
    }

    #[test]
    fn injection_exactly_at_max_ticks_is_admitted_before_livelock_abort() {
        // A packet landing on the very last permitted tick is the edge
        // the event loop has to get right: time jumps to exactly
        // `max_ticks` (the "time must advance" invariant still holds),
        // the packet is admitted, routers fire once, and only then does
        // the tick budget abort the run — reporting that flit in flight
        // rather than silently dropping it.
        let mut cfg = mesh_cfg();
        cfg.max_ticks = 180; // == ceil(10 ns × 18 ticks/ns)
        let t = Trace::new("edge", 64, vec![packet(0, 63, PacketKind::Request, 10.0)]);
        let err = Network::new(cfg)
            .run(&t, &mut AlwaysMode::new(Mode::M7))
            .expect_err("a cross-mesh packet cannot drain in zero remaining ticks");
        assert_eq!(err, SimError::Livelock { in_flight: 1 });
    }

    /// The bucket-and-`partition_point` rotation that the candidate
    /// masks replaced: the candidates ascending, rotated to start at the
    /// first one at or past `start`.
    fn bucket_order(mask: u64, start: usize) -> Vec<usize> {
        let bucket: Vec<usize> = (0..64).filter(|&s| (mask >> s) & 1 == 1).collect();
        let pivot = bucket.partition_point(|&s| s < start);
        (0..bucket.len())
            .map(|j| bucket[(pivot + j) % bucket.len()])
            .collect()
    }

    mod rr {
        use super::{bucket_order, rr_order};
        use proptest::prelude::*;

        proptest! {
            /// Round-robin over a candidate mask visits the candidates in
            /// the bucket rotation's order, so it grants the same slot
            /// whichever candidates are blocked downstream.
            #[test]
            fn rr_order_grants_like_the_bucket_rotation(
                n_slots in 1usize..65,
                mask in any::<u64>(),
                sparse in any::<bool>(),
                thin in any::<u64>(),
                blocked in any::<u64>(),
                start in any::<prop::sample::Index>(),
            ) {
                let live = if n_slots == 64 { u64::MAX } else { (1 << n_slots) - 1 };
                let mask = mask & live & if sparse { thin } else { u64::MAX };
                let start = start.index(n_slots);
                let order: Vec<usize> = rr_order(mask, start).collect();
                prop_assert_eq!(&order, &bucket_order(mask, start));
                let can_send = |&s: &usize| (blocked >> s) & 1 == 0;
                prop_assert_eq!(
                    rr_order(mask, start).find(can_send),
                    bucket_order(mask, start).into_iter().find(can_send)
                );
            }
        }
    }

    #[test]
    fn rr_order_starts_at_the_pointer_and_wraps() {
        let mask = 1 << 2 | 1 << 5 | 1 << 9 | 1 << 63;
        assert_eq!(rr_order(mask, 5).collect::<Vec<_>>(), [5, 9, 63, 2]);
        assert_eq!(rr_order(mask, 6).collect::<Vec<_>>(), [9, 63, 2, 5]);
        assert_eq!(rr_order(mask, 0).collect::<Vec<_>>(), [2, 5, 9, 63]);
        assert_eq!(rr_order(0, 7).count(), 0);
    }

    #[test]
    fn trace_core_count_must_match() {
        let t = Trace::new("small", 4, vec![packet(0, 1, PacketKind::Request, 0.0)]);
        let err = Network::new(mesh_cfg())
            .run(&t, &mut AlwaysMode::new(Mode::M7))
            .expect_err("a 4-core trace cannot run on the 64-core mesh");
        assert_eq!(
            err,
            SimError::TraceCoreMismatch {
                trace_cores: 4,
                topology_cores: 64,
            }
        );
    }
}
