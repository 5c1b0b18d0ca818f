//! The network: owns all routers and runs the simulation loop.
//!
//! ## Tick discipline
//!
//! The global clock advances in base ticks (18 GHz). Each router fires a
//! local cycle when the tick counter reaches its `next_cycle_at`, then
//! re-arms `divisor()` ticks later — so a router at 1 GHz fires every 18
//! ticks, one at 2.25 GHz every 8. All flit movement happens inside the
//! *upstream* router's cycle, which is what makes hop latency follow the
//! sender's frequency (§III-A). A flit that lands in a downstream buffer
//! carries `ready_at = tick + lookahead_ticks`, so it can never traverse
//! two routers within one base tick regardless of router iteration order.
//!
//! ## End-of-tick application
//!
//! Every event tick runs in two phases. During the **fire** phase a
//! router mutates only *its own* state; anything it does to another
//! router — handing over a flit, taking or releasing a downstream-secure
//! reference, punching a wake signal — is queued as a deferred
//! `Effect` instead of applied in place. Cross-router *reads* (is the
//! downstream router operational, which of its VCs accept a new packet)
//! go through per-router snapshots taken at the end of the previous
//! tick. The **settle** phase then applies the queued effects in
//! emission order (admissions in packet order, then firings in router
//! index order) and rebuilds the snapshots of every router that fired or
//! was targeted.
//!
//! The split is what the goldens pin: a router that fires later in a
//! tick sees the network as it stood at the start of the tick, never an
//! earlier router's same-tick effects, so the outcome does not depend on
//! router iteration order.
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
    ClockDivisor, DomainCycles, Flit, FlitKind, Mode, PowerState, RouterId, SimTime,
    TransitionEvent, TransitionKind,
};

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::buffer::VcRoute;
use crate::config::NocConfig;
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
/// order. `Punch` and `Secure` are emitted *unconditionally* (no "is the
/// target gated?" check at the emitter): the emitter only has the
/// start-of-tick snapshot of its neighbors, so the gate check happens at
/// apply time against the target's live state.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// Admission-time wake punch along a packet's XY path.
    Punch {
        /// Target router index.
        router: u32,
    },
    /// Downstream-secure reference taken at route compute (wakes a
    /// gated target).
    Secure {
        /// Target router index.
        router: u32,
    },
    /// Release of a downstream-secure reference (the tail departed).
    Unsecure {
        /// Target router index.
        router: u32,
    },
    /// A flit crossing a link into a downstream router's input VC.
    Transfer {
        /// Downstream router index.
        dst: u32,
        /// Input-port index at the downstream router.
        port: u8,
        /// VC index within that port.
        vc: u8,
        /// The flit itself.
        flit: Flit,
        /// Earliest tick the flit may move on downstream.
        ready_at: u64,
    },
}

/// Settled per-router metadata (state as of the end of the previous
/// tick), read by *other* routers during the fire phase.
#[derive(Debug, Clone, Copy)]
struct SnapMeta {
    /// `state.is_operational()` at settlement.
    operational: bool,
    /// T-Switch stall deadline at settlement.
    stall_until: u64,
    /// Clock divisor at settlement (downstream pipeline timing).
    divisor: ClockDivisor,
}

/// Snapshot VC flag: the VC can accept a new packet's head.
const SNAP_ACCEPTS_NEW: u8 = 1 << 0;
/// Snapshot VC flag: the VC has space for one more flit.
const SNAP_HAS_SPACE: u8 = 1 << 1;

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
    /// Next-event schedule: a min-heap of `(next_cycle_at, router
    /// index)` with lazy deletion. Invariants:
    ///
    /// * every router's current `next_cycle_at` has an entry in the
    ///   heap (entries are pushed on every assignment that could lower
    ///   or re-arm it);
    /// * an entry whose tick no longer matches the router's
    ///   `next_cycle_at` is stale and is discarded on pop;
    /// * ties pop in router-index order (`Reverse<(tick, idx)>`), which
    ///   keeps same-tick firing order identical to a linear index scan.
    ///
    /// This replaces an O(n) min-scan over all routers per event with
    /// O(log n) per firing, and stays correct when `begin_wakeup` pulls
    /// a router's `next_cycle_at` *earlier* than its scheduled entry.
    pub(crate) sched: BinaryHeap<Reverse<(u64, u32)>>,
    /// Switch-allocation scratch: candidate input slots bucketed by
    /// output port (flattened `n_ports × n_slots`), reused every cycle
    /// so the allocator never allocates.
    sa_cand: Vec<usize>,
    /// Number of live candidates per output-port bucket in `sa_cand`.
    sa_cand_len: Vec<usize>,
    /// Dump router state on livelock (the `DOZZNOC_DUMP_ON_LIVELOCK`
    /// env var, read once at construction: the engine region itself
    /// must stay free of ambient process state — determinism-taint
    /// pass). Deliberately not part of `NocConfig`: it changes only
    /// what is printed on an error path, never simulation output, so
    /// it must not perturb run-cache fingerprints.
    dump_on_livelock: bool,
    /// Deferred cross-router effects emitted during the current tick's
    /// fire phase, in emission order.
    outbox: Vec<Effect>,
    /// Settled per-router metadata, indexed by router.
    snap_meta: Vec<SnapMeta>,
    /// Settled per-VC flags ([`SNAP_ACCEPTS_NEW`] | [`SNAP_HAS_SPACE`]),
    /// flattened `(router · ports + port) · vcs + vc`.
    snap_vc: Vec<u8>,
    /// Routers whose snapshot is stale (fired or was a settle target).
    dirty: Vec<bool>,
    /// Dense list backing `dirty`.
    dirty_list: Vec<u32>,
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
        let mut net = Network {
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
            sched: (0..n as u32).map(|i| Reverse((0u64, i))).collect(),
            sa_cand: {
                let n_ports = topo.ports_per_router();
                let n_slots = n_ports * cfg.vcs_per_port;
                vec![0; n_ports * n_slots]
            },
            sa_cand_len: vec![0; topo.ports_per_router()],
            #[allow(
                clippy::disallowed_methods,
                reason = "read once at construction, before any simulation state exists; the flag \
                          only gates error-path printing, never simulation output"
            )]
            dump_on_livelock: std::env::var_os("DOZZNOC_DUMP_ON_LIVELOCK").is_some(),
            outbox: Vec::new(),
            snap_meta: vec![
                SnapMeta {
                    operational: false,
                    stall_until: 0,
                    divisor: Mode::M3.divisor(),
                };
                n
            ],
            snap_vc: vec![0; n * topo.ports_per_router() * cfg.vcs_per_port],
            dirty: vec![false; n],
            dirty_list: Vec::new(),
        };
        net.refresh_all_snaps();
        net
    }

    /// The configuration in force.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Borrow a router (tests, diagnostics).
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.idx()]
    }

    /// Dump per-router flow-control state to stderr (diagnostic aid for
    /// livelock reports).
    #[doc(hidden)]
    pub fn dump_state(&self) {
        eprintln!("tick {} in_flight {}", self.now, self.in_flight);
        for (i, r) in self.routers.iter().enumerate() {
            let occ = r.occupancy();
            let q: usize = self
                .topo
                .cores_of_router(r.id)
                .map(|c| self.inject[c.idx()].len())
                .sum();
            if occ == 0 && q == 0 {
                continue;
            }
            eprintln!(
                "  R{i}: state {:?} occ {occ} ni-q {q} secured {} stall_until {} next_cycle {}",
                r.state, self.secured[i], r.stall_until, r.next_cycle_at
            );
            for (p, port) in r.ports.iter().enumerate() {
                for (v, vc) in port.iter() {
                    if !vc.is_empty() {
                        eprintln!(
                            "    port {p} vc {v}: len {} owner {:?} route {:?} front {:?}",
                            vc.len(),
                            vc.owner(),
                            vc.route(),
                            vc.peek_ready(u64::MAX)
                                .map(|f| (f.packet, f.kind, f.seq, f.dst))
                        );
                    }
                }
            }
        }
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
                if self.dump_on_livelock {
                    self.dump_state();
                }
                return Err(SimError::Livelock {
                    in_flight: self.in_flight,
                });
            }

            // Jump straight to the next event: the earliest live router
            // cycle (draining stale heap tops on the way) or the next
            // packet injection.
            let mut next = self.local_next_event();
            if next_pkt < packets.len() {
                next = next.min(packets[next_pkt].inject_time.ticks());
            }
            debug_assert!(next > self.now, "time must advance");
            self.now = next;
        }

        // Flush residual residency into the ledger.
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
            // Power Punch-style wake punching: the packet's XY path is
            // fully determined at injection, so wake signals race ahead
            // of it and gated routers charge up while the packet is
            // still upstream — this is what makes the gating *partially
            // non-blocking* rather than adding a full T-Wakeup per hop.
            // (Routers are only *secured* one hop ahead, at route
            // compute.)
            if self.cfg.wake_punch {
                let path = self.xy.path(p.src, p.dst);
                self.outbox.extend(path.iter().map(|hop| Effect::Punch {
                    router: hop.idx() as u32,
                }));
            } else {
                // Ablation: only the home router wakes at injection;
                // downstream routers wait for the one-hop look-ahead.
                let home = self.topo.router_of_core(p.src).idx();
                self.outbox.push(Effect::Punch {
                    router: home as u32,
                });
            }
            *next_pkt += 1;
        }
    }

    /// Fire every router whose local cycle lands on this tick.
    ///
    /// Same-tick entries pop in router-index order; a popped entry that
    /// no longer matches the router's `next_cycle_at` is stale (the
    /// router re-armed, or a wake-up pulled it earlier) and is dropped.
    /// A firing router's re-arm lands strictly in the future, so this
    /// drain terminates.
    fn fire(
        &mut self,
        policy: &mut dyn PowerPolicy,
        ml_overhead: Option<&MlOverhead>,
        tel: &mut dyn Telemetry,
    ) {
        while let Some(&Reverse((t, idx))) = self.sched.peek() {
            let i = idx as usize;
            if self.routers[i].next_cycle_at != t {
                self.sched.pop();
                continue;
            }
            if t > self.now {
                break;
            }
            debug_assert_eq!(t, self.now, "router cycle slipped past the clock");
            self.sched.pop();
            self.mark_dirty(idx);
            self.step_router(i, policy, ml_overhead, tel);
            let r = &mut self.routers[i];
            r.next_cycle_at = self.now + r.divisor().cycle_ticks();
            self.sched.push(Reverse((r.next_cycle_at, idx)));
        }
    }

    /// Apply this tick's deferred effects in emission order, then
    /// refresh the snapshots they (or this tick's firings) staled.
    fn settle(&mut self) {
        let effects = std::mem::take(&mut self.outbox);
        for &e in &effects {
            self.apply(e);
        }
        self.outbox = effects; // keep the allocation for the next tick
        self.outbox.clear();
        self.rebuild_dirty_snaps();
    }

    /// Apply one deferred effect against live state.
    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::Punch { router } => {
                let r = router as usize;
                if self.routers[r].state.is_inactive() {
                    self.begin_wakeup(r);
                }
                self.mark_dirty(router);
            }
            Effect::Secure { router } => {
                self.secure(router as usize);
                self.mark_dirty(router);
            }
            // An unsecure flips no snapshotted field, but the dirty mark
            // keeps the rule simple: every apply target is re-snapped.
            Effect::Unsecure { router } => {
                self.unsecure(router as usize);
                self.mark_dirty(router);
            }
            Effect::Transfer {
                dst,
                port,
                vc,
                flit,
                ready_at,
            } => {
                let d = dst as usize;
                self.routers[d].ports[port as usize]
                    .vc_mut(vc as usize)
                    .push(flit, ready_at);
                self.routers[d].buffered_flits += 1;
                self.routers[d].counters.flits_in[port_class(port as usize)] += 1;
                self.mark_dirty(dst);
            }
        }
    }

    /// Record that router `r`'s snapshot no longer matches live state.
    fn mark_dirty(&mut self, r: u32) {
        if !self.dirty[r as usize] {
            self.dirty[r as usize] = true;
            self.dirty_list.push(r);
        }
    }

    /// Rebuild the snapshot of every dirty router. Only routers that
    /// fired or were settle targets can have changed, so this is the
    /// complete set.
    fn rebuild_dirty_snaps(&mut self) {
        while let Some(r) = self.dirty_list.pop() {
            self.dirty[r as usize] = false;
            self.rebuild_snap(r as usize);
        }
    }

    /// Recompute router `r`'s settled snapshot from its live state.
    fn rebuild_snap(&mut self, r: usize) {
        let router = &self.routers[r];
        self.snap_meta[r] = SnapMeta {
            operational: router.state.is_operational(),
            stall_until: router.stall_until,
            divisor: router.divisor(),
        };
        let n_vcs = self.cfg.vcs_per_port;
        let n_ports = router.ports.len();
        let base = r * n_ports * n_vcs;
        for (p, port) in router.ports.iter().enumerate() {
            for v in 0..n_vcs {
                let vcb = port.vc(v);
                self.snap_vc[base + p * n_vcs + v] = u8::from(vcb.can_accept_new_packet())
                    * SNAP_ACCEPTS_NEW
                    + u8::from(vcb.has_space()) * SNAP_HAS_SPACE;
            }
        }
    }

    /// Rebuild every router's snapshot (construction, and tests that
    /// plant router state by hand).
    fn refresh_all_snaps(&mut self) {
        for r in 0..self.routers.len() {
            self.rebuild_snap(r);
        }
    }

    /// Settled view of `free_vc` on a downstream router's input port.
    fn snap_free_vc(&self, d: usize, port: usize) -> Option<u8> {
        let n_vcs = self.cfg.vcs_per_port;
        let base = (d * self.topo.ports_per_router() + port) * n_vcs;
        (0..n_vcs)
            .find(|&v| self.snap_vc[base + v] & SNAP_ACCEPTS_NEW != 0)
            .map(|v| v as u8)
    }

    /// Settled view of `has_space` on a downstream VC.
    fn snap_has_space(&self, d: usize, port: usize, vc: usize) -> bool {
        let n_vcs = self.cfg.vcs_per_port;
        self.snap_vc[(d * self.topo.ports_per_router() + port) * n_vcs + vc] & SNAP_HAS_SPACE != 0
    }

    /// Earliest live router-cycle deadline, draining stale heap tops on
    /// the way. The heap is never empty (heartbeats are perpetual), so
    /// this is finite.
    fn local_next_event(&mut self) -> u64 {
        while let Some(&Reverse((t, idx))) = self.sched.peek() {
            if self.routers[idx as usize].next_cycle_at == t {
                return t;
            }
            self.sched.pop();
        }
        u64::MAX
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
                // Always-on heartbeat: account off time, advance epoch.
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
                    // Nothing buffered means both scans below are
                    // no-ops; most routers are empty most cycles.
                    if self.routers[i].buffered_flits > 0 {
                        self.route_compute(i);
                        self.switch_allocate(i);
                    }
                }
                self.maybe_gate_off(i, policy.gating_enabled());
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
            let port_idx = Port::Local(slot as u8).index();
            let r = &mut self.routers[i];
            let divisor = r.divisor();
            let port = &mut r.ports[port_idx];
            let target_vc = if flit.kind.is_head() {
                port.free_vc()
            } else {
                (0..port.num_vcs())
                    .find(|&v| port.vc(v).owner() == Some(flit.packet))
                    .map(|v| v as u8)
            };
            let Some(vc) = target_vc else { continue };
            if !port.vc(vc as usize).has_space() {
                continue;
            }
            // The flit spends the router pipeline (minus the ST cycle
            // the switch allocator itself models) before it may move on.
            let ready = self.now
                + 1
                + DomainCycles::new(self.cfg.pipeline_cycles - 1)
                    .to_ticks(divisor)
                    .ticks();
            port.vc_mut(vc as usize).push(flit, ready);
            r.buffered_flits += 1;
            if flit.kind.is_head() {
                self.net_entry[flit.packet.0 as usize] = self.now;
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

    /// Compute routes (and secure/wake downstream routers) for every VC
    /// holding an unrouted packet head.
    fn route_compute(&mut self, i: usize) {
        let router_id = self.routers[i].id;
        let n_ports = self.routers[i].ports.len();
        let n_vcs = self.cfg.vcs_per_port;
        for p in 0..n_ports {
            for v in 0..n_vcs {
                let vc = self.routers[i].ports[p].vc(v);
                if vc.owner().is_none() || vc.route().is_some() || vc.is_empty() {
                    continue;
                }
                let dst = vc
                    .peek_ready(u64::MAX)
                    .expect("non-empty VC has a front flit")
                    .dst;
                let out_port = self.xy.output_port(router_id, dst);
                let next_router = self.xy.next_hop(router_id, dst);
                self.routers[i].ports[p].vc_mut(v).set_route(VcRoute {
                    out_port,
                    next_router,
                    out_vc: None,
                });
                if let Some(d) = next_router {
                    self.outbox.push(Effect::Secure {
                        router: d.idx() as u32,
                    });
                }
            }
        }
    }

    /// Switch allocation: for every output port pick one ready input VC
    /// (round-robin) and move its head flit.
    ///
    /// One read-only pass over the input VCs buckets every ready routed
    /// head by output port into a scratch buffer owned by the network
    /// (no per-cycle allocation); each output then walks its bucket in
    /// rotation order from its round-robin pointer. Bucketing first is
    /// sound because a granted send only mutates the winning VC and the
    /// *downstream* router, never another input VC's candidacy on this
    /// router.
    fn switch_allocate(&mut self, i: usize) {
        let n_ports = self.routers[i].ports.len();
        let n_vcs = self.cfg.vcs_per_port;
        let n_slots = n_ports * n_vcs;
        // Gather: slot s = p·n_vcs + v, ascending per bucket.
        let mut total = 0usize;
        {
            let router = &self.routers[i];
            let cand = &mut self.sa_cand;
            let cand_len = &mut self.sa_cand_len;
            cand_len[..n_ports].fill(0);
            let mut slot = 0usize;
            for port in router.ports.iter() {
                for v in 0..n_vcs {
                    let vc = port.vc(v);
                    if let Some(route) = vc.route() {
                        if vc.peek_ready(self.now).is_some() {
                            let out = route.out_port.index();
                            cand[out * n_slots + cand_len[out]] = slot;
                            cand_len[out] += 1;
                            total += 1;
                        }
                    }
                    slot += 1;
                }
            }
        }
        if total == 0 {
            return;
        }
        // Stall gauges are per router *cycle*, not per output port: a
        // 5-port router must book at most one stall cycle per cycle.
        let mut credit_stalled = false;
        let mut contended = false;
        for out in 0..n_ports {
            let n_candidates = self.sa_cand_len[out];
            if n_candidates == 0 {
                continue;
            }
            // Round-robin among candidates, starting after the last
            // winner for this output: the bucket is ascending, so the
            // rotation order is everything at or past `start`, then the
            // wrap-around — no sort needed. A candidate that cannot
            // actually send (downstream gated, no free VC, no space)
            // must not hold the grant — skipping it is what keeps a
            // blocked head from starving every other packet on this
            // output.
            let start = self.routers[i].sa_rr[out];
            let base = out * n_slots;
            let bucket = &self.sa_cand[base..base + n_candidates];
            let pivot = bucket.partition_point(|&s| s < start);
            let mut sent = false;
            for j in 0..n_candidates {
                let k = pivot + j;
                let k = if k < n_candidates {
                    k
                } else {
                    k - n_candidates
                };
                let s = self.sa_cand[base + k];
                if self.try_send(i, s / n_vcs, s % n_vcs) {
                    self.routers[i].sa_rr[out] = if s + 1 == n_slots { 0 } else { s + 1 };
                    sent = true;
                    break;
                }
            }
            if !sent {
                // Every candidate was blocked downstream.
                credit_stalled = true;
            } else if n_candidates > 1 {
                // Losers of a granted output stalled this cycle.
                contended = true;
            }
        }
        let c = &mut self.routers[i].counters;
        c.credit_stall_cycles += credit_stalled as u64;
        c.stall_cycles += contended as u64;
    }

    /// Try to move the head flit of `(port, vc)` through the switch.
    /// Returns false when blocked on downstream state or space.
    fn try_send(&mut self, i: usize, port: usize, vc: usize) -> bool {
        let route = *self.routers[i].ports[port]
            .vc(vc)
            .route()
            .expect("routed VC");
        match route.out_port {
            Port::Local(_) => {
                self.eject(i, port, vc, route.out_port);
                true
            }
            Port::Dir(dir) => {
                let d = route
                    .next_router
                    .expect("direction routes have a downstream router")
                    .idx();
                // Every read of the downstream router goes through its
                // settled snapshot: identical whether or not it fired
                // earlier this tick. The checks
                // stay *exact* at apply time because each in-port has a
                // single upstream sender and each output port grants at
                // most once per tick — at most one flit lands per
                // (router, in-port) per settlement, so space seen at the
                // last settle cannot be stolen in between.
                let snap = self.snap_meta[d];
                if !snap.operational || self.now < snap.stall_until {
                    return false;
                }
                let down_port = Port::Dir(dir.opposite()).index();
                let flit_is_head = self.routers[i].ports[port]
                    .vc(vc)
                    .peek_ready(self.now)
                    .expect("caller checked readiness")
                    .kind
                    .is_head();
                // Pick / reuse the downstream VC.
                let down_vc = if flit_is_head {
                    match self.snap_free_vc(d, down_port) {
                        Some(v) => {
                            self.routers[i].ports[port].vc_mut(vc).set_out_vc(v);
                            v
                        }
                        None => return false,
                    }
                } else {
                    match route.out_vc {
                        Some(v) => v,
                        None => return false, // head not yet sent
                    }
                };
                if !self.snap_has_space(d, down_port, down_vc as usize) {
                    return false;
                }
                // Grant: pop here, hand the flit over as a transfer
                // applied at the end of the tick.
                let flit = self.routers[i].ports[port].vc_mut(vc).pop();
                let mode = match self.routers[i].state {
                    PowerState::Active(m) => m,
                    _ => unreachable!("only active routers allocate"),
                };
                let ready = self.now
                    + self.cfg.lookahead_ticks
                    + DomainCycles::new(self.cfg.pipeline_cycles - 1)
                        .to_ticks(snap.divisor)
                        .ticks();
                self.routers[i].buffered_flits -= 1;
                let out_class = port_class(route.out_port.index());
                {
                    let c = &mut self.routers[i].counters;
                    c.flits_out[out_class] += 1;
                    c.class_busy_cycles[out_class] += 1;
                    c.hops += 1;
                }
                self.ledger.bill_hop(self.routers[i].id, mode);
                self.outbox.push(Effect::Transfer {
                    dst: d as u32,
                    port: down_port as u8,
                    vc: down_vc,
                    flit,
                    ready_at: ready,
                });
                if flit.kind.is_tail() {
                    self.outbox.push(Effect::Unsecure { router: d as u32 });
                }
                true
            }
        }
    }

    /// Eject the head flit of `(port, vc)` to the attached core.
    fn eject(&mut self, i: usize, port: usize, vc: usize, out_port: Port) {
        let flit = self.routers[i].ports[port].vc_mut(vc).pop();
        self.routers[i].buffered_flits -= 1;
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
            let entered = self.net_entry[flit.packet.0 as usize];
            debug_assert_ne!(entered, u64::MAX, "delivered before entering?");
            let net_latency = self.now.saturating_sub(entered);
            self.stats.net_latency_sum_ticks += net_latency as u128;
            self.stats.net_latency_max_ticks = self.stats.net_latency_max_ticks.max(net_latency);
            self.stats.net_latency_hist.record(net_latency);
            self.stats.last_delivery = SimTime::from_ticks(self.now);
        }
    }

    /// Gate the router off when every Fig. 3(a) condition holds.
    fn maybe_gate_off(&mut self, i: usize, gating_enabled: bool) {
        if !gating_enabled {
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
        let has_pending = self
            .topo
            .cores_of_router(router_id)
            .any(|c| !self.inject[c.idx()].is_empty());
        if has_pending {
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
        // The heartbeat must check `until` promptly. Pulling the cycle
        // earlier strands the old heap entry (discarded as stale on
        // pop), so the new deadline needs its own entry.
        let r = &mut self.routers[i];
        let pulled = self.now + r.divisor().cycle_ticks();
        if pulled < r.next_cycle_at {
            r.next_cycle_at = pulled;
            self.sched.push(Reverse((pulled, i as u32)));
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
        net.refresh_all_snaps(); // try_send reads the settled snapshots
        let east = dozznoc_topology::Port::Dir(Direction::East);
        let west = dozznoc_topology::Port::Dir(Direction::West);
        // Local input VC 0 → east; north input VC 0 → west.
        let local = dozznoc_topology::Port::Local(0).index();
        net.routers[i].ports[local]
            .vc_mut(0)
            .push(head_flit(0, 9, 15), 0);
        net.routers[i].ports[local].vc_mut(0).set_route(VcRoute {
            out_port: east,
            next_router: Some(RouterId(10)),
            out_vc: None,
        });
        let north = dozznoc_topology::Port::Dir(Direction::North).index();
        net.routers[i].ports[north]
            .vc_mut(0)
            .push(head_flit(1, 9, 8), 0);
        net.routers[i].ports[north].vc_mut(0).set_route(VcRoute {
            out_port: west,
            next_router: Some(RouterId(8)),
            out_vc: None,
        });
        net.switch_allocate(i);
        assert_eq!(net.routers[i].counters.credit_stall_cycles, 1);
        assert_eq!(net.routers[i].counters.stall_cycles, 0);
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
    fn wakeup_pull_reschedules_earlier_than_standing_heap_entry() {
        // A gated router keeps a slow heartbeat; its standing heap entry
        // can sit far in the future when a wake punch arrives. The wake
        // must pull the next cycle to `now + divisor` and push a fresh
        // entry for it — the stranded entry is discarded as stale later.
        let mut net = Network::new(mesh_cfg());
        let i = 12;
        net.now = 360;
        net.routers[i].state = PowerState::Inactive;
        net.routers[i].next_cycle_at = 360 + 1_000;
        net.sched.push(Reverse((360 + 1_000, i as u32)));
        net.begin_wakeup(i);
        let pulled = 360 + net.routers[i].divisor().cycle_ticks();
        assert!(pulled < 360 + 1_000);
        assert_eq!(net.routers[i].next_cycle_at, pulled);
        assert!(
            net.sched
                .iter()
                .any(|&Reverse((t, idx))| idx == i as u32 && t == pulled),
            "pulled-up deadline must have its own heap entry"
        );
        // The stranded entry no longer matches `next_cycle_at`, which is
        // exactly the staleness test the fire loop applies on pop.
        assert_ne!(net.routers[i].next_cycle_at, 360 + 1_000);

        // When the heartbeat is already due sooner than the pull would
        // land, the wake must NOT re-arm (that would push the cycle
        // *later*) and needs no new entry.
        let mut soon = Network::new(mesh_cfg());
        let j = 30;
        soon.now = 360;
        soon.routers[j].state = PowerState::Inactive;
        soon.routers[j].next_cycle_at = 361;
        let before = soon.sched.len();
        soon.begin_wakeup(j);
        assert_eq!(soon.routers[j].next_cycle_at, 361);
        assert_eq!(soon.sched.len(), before);
    }

    #[test]
    fn same_tick_heap_entries_pop_in_router_index_order() {
        // `Reverse<(tick, index)>` orders same-tick entries by router
        // index, so the heap drain visits routers exactly like the old
        // linear scan did — this is what keeps run reports bit-identical.
        let mut net = Network::new(mesh_cfg());
        let n = net.routers.len() as u32;
        // Re-arm router 3 as if it had already fired: its tick-0 entry
        // is now stale and the fire loop's check must say so.
        net.routers[3].next_cycle_at = 7;
        let mut fired = Vec::new();
        while let Some(Reverse((t, idx))) = net.sched.pop() {
            if net.routers[idx as usize].next_cycle_at != t {
                assert_eq!(idx, 3, "only the re-armed router may be stale");
                continue;
            }
            assert_eq!(t, 0);
            fired.push(idx);
        }
        let expected: Vec<u32> = (0..n).filter(|&i| i != 3).collect();
        assert_eq!(fired, expected);
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
