//! Per-router state: power state machine, input buffers, clocking and
//! epoch counters.
//!
//! The router is a passive data structure; the cross-router pipeline
//! (switch allocation, hops, wake-ups) lives in [`crate::network`]
//! because it needs simultaneous access to both ends of every link.

use dozznoc_types::{ClockDivisor, DomainCycles, Flit, Mode, PowerState, RouterId, SimTime};

use crate::buffer::VcBuffer;
use crate::config::NocConfig;
use crate::observation::{EpochObservation, PortClassStats};

/// Number of port classes (N, S, E, W, local-aggregate).
pub const PORT_CLASSES: usize = 5;

/// Map a dense port index to its class (local ports collapse to class 4).
#[inline]
pub fn port_class(port_index: usize) -> usize {
    port_index.min(4)
}

/// Raw per-epoch event counters; normalized into an
/// [`EpochObservation`] at each epoch boundary.
#[derive(Debug, Clone, Default)]
pub struct EpochCounters {
    /// Local cycles elapsed this epoch.
    pub cycles: u64,
    /// Sum over cycles of total input occupancy (flits).
    pub occupancy_flit_cycles: u64,
    /// Peak single-cycle occupancy (flits).
    pub occupancy_peak: u64,
    /// Sum over cycles of per-class occupancy (flits).
    pub class_occupancy: [u64; PORT_CLASSES],
    /// Flits received per class.
    pub flits_in: [u64; PORT_CLASSES],
    /// Flits sent per class.
    pub flits_out: [u64; PORT_CLASSES],
    /// Cycles with at least one flit sent out of the class.
    pub class_busy_cycles: [u64; PORT_CLASSES],
    /// Request packets injected by attached cores.
    pub reqs_sent: u64,
    /// Request packets delivered to attached cores.
    pub reqs_recv: u64,
    /// Response packets injected by attached cores.
    pub resps_sent: u64,
    /// Response packets delivered to attached cores.
    pub resps_recv: u64,
    /// Flits injected by attached cores.
    pub flits_injected: u64,
    /// Flits delivered to attached cores.
    pub flits_ejected: u64,
    /// Flit-hops routed through the switch.
    pub hops: u64,
    /// Cycles at least one ready head flit lost switch allocation
    /// (at most one per local cycle, however many ports contended).
    pub stall_cycles: u64,
    /// Cycles at least one output had every candidate blocked on
    /// downstream state or space (at most one per local cycle).
    pub credit_stall_cycles: u64,
    /// Cycles with all input buffers empty.
    pub idle_cycles: u64,
    /// Cycles secured as a downstream router.
    pub secured_cycles: u64,
    /// Base ticks spent gated during this epoch.
    pub off_ticks: u64,
}

impl EpochCounters {
    fn reset(&mut self) {
        *self = EpochCounters::default();
    }
}

/// One router of the simulated network.
#[derive(Debug, Clone)]
pub struct Router {
    /// This router's id.
    pub id: RouterId,
    /// Current power state.
    pub state: PowerState,
    /// The policy's current active-mode choice (wake-up target while
    /// gated).
    pub selected_mode: Mode,
    /// Tick at which the next local cycle fires: the next tick of the
    /// divisor grid, or — while the router sleeps — the first grid tick
    /// at which it could do more than count an idle cycle.
    pub next_cycle_at: u64,
    /// Origin of the local-cycle grid: pending cycles fall on
    /// `cycle_origin + m · divisor()` for m ≥ 1, and every such tick
    /// before `next_cycle_at` is an idle cycle slept through and not yet
    /// accounted. Firing a cycle (or accounting skipped ones in closed
    /// form) moves it forward; a wake-up pull moves it to the pull tick.
    pub(crate) cycle_origin: u64,
    /// Router performs no flit movement before this tick (T-Switch /
    /// residual pipeline stall).
    pub stall_until: u64,
    /// When the current power state was entered (residency billing).
    pub state_since: SimTime,
    /// When the router gated off, if currently off or waking
    /// (T-Breakeven accounting).
    pub off_since: Option<SimTime>,
    /// Consecutive idle cycles (T-Idle counter).
    pub idle_streak: u64,
    /// Round-robin switch-allocation pointer per output port.
    pub sa_rr: Vec<usize>,
    /// Buffered-flit count, maintained incrementally by the router's one
    /// push and one pop path. Lets the pipeline skip route compute and
    /// switch allocation outright for routers with nothing buffered (the
    /// common case); asserted against the authoritative
    /// [`Router::occupancy`] scan in debug builds.
    pub buffered_flits: u32,
    /// Buffered flits per port class, maintained beside
    /// `buffered_flits`: occupancy sampling reads them instead of
    /// walking the buffers.
    class_flits: [u32; PORT_CLASSES],
    /// Input VCs holding at least one flit, one bit per VC slot
    /// `port · vcs_per_port + vc`. Route compute and switch allocation
    /// visit only these VCs, in ascending slot order, in one walk.
    pub(crate) occupied: u64,
    /// `(tick, operational(tick), divisor())` as the router stood when
    /// its firing at `tick` began ([`Router::view_at`]).
    view: (u64, bool, ClockDivisor),
    /// Local cycles into the current epoch.
    pub cycles_into_epoch: u64,
    /// Epochs completed.
    pub epochs: u64,
    /// Raw counters for the current epoch.
    pub counters: EpochCounters,
    /// Previous epoch's mean IBU.
    pub prev_ibu: f64,
    /// EWMA of epoch IBUs, α = 0.5.
    pub ewma_short: f64,
    /// EWMA of epoch IBUs, α = 0.1.
    pub ewma_long: f64,
    /// Lifetime base ticks spent gated.
    pub total_off_ticks: u64,
    /// Lifetime wake-up count.
    pub lifetime_wakeups: u64,
    /// Lifetime gate-off count.
    pub lifetime_gate_offs: u64,
    /// Input VC buffers, indexed by slot `port · vcs_per_port + vc`.
    /// Only [`Router::push_flit`] and [`Router::pop_flit`] change their
    /// lengths, which keeps the counts and the slot mask in step.
    pub(crate) buffers: Vec<VcBuffer>,
    buffer_capacity: usize,
    class_capacity: [usize; PORT_CLASSES],
    class_ports: [usize; PORT_CLASSES],
    vcs_per_port: usize,
    /// This layout's row of [`SLOT_DECODE`].
    decode: &'static [(u8, u8); MAX_SLOTS],
}

/// Most input VCs a router may have: the pipeline tracks them in a
/// 64-bit slot mask.
const MAX_SLOTS: usize = 64;

/// `SLOT_DECODE[n][slot]` is `(slot / n, slot % n)`, the `(port, vc)`
/// of a VC slot when every port has `n` VCs (row 0 is never read). Every
/// pop decodes its slot's port; a table lookup keeps the division by a
/// runtime VC count off that path.
static SLOT_DECODE: [[(u8, u8); MAX_SLOTS]; MAX_SLOTS + 1] = {
    let mut table = [[(0, 0); MAX_SLOTS]; MAX_SLOTS + 1];
    let mut n = 1;
    while n <= MAX_SLOTS {
        let mut slot = 0;
        while slot < MAX_SLOTS {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "both values are below MAX_SLOTS = 64"
            )]
            let entry = ((slot / n) as u8, (slot % n) as u8);
            table[n][slot] = entry;
            slot += 1;
        }
        n += 1;
    }
    table
};

impl Router {
    /// A fresh router in the baseline state (active at M7).
    pub fn new(id: RouterId, cfg: &NocConfig) -> Self {
        let n_ports = cfg.topology.ports_per_router();
        let n_slots = n_ports * cfg.vcs_per_port;
        assert!(
            n_slots <= MAX_SLOTS,
            "a router's input VCs must fit a 64-bit slot mask"
        );
        let per_port = cfg.vcs_per_port * cfg.vc_depth;
        let mut class_capacity = [0usize; PORT_CLASSES];
        let mut class_ports = [0usize; PORT_CLASSES];
        for p in 0..n_ports {
            class_capacity[port_class(p)] += per_port;
            class_ports[port_class(p)] += 1;
        }
        Router {
            id,
            state: PowerState::Active(Mode::M7),
            selected_mode: Mode::M7,
            next_cycle_at: 0,
            cycle_origin: 0,
            stall_until: 0,
            state_since: SimTime::ZERO,
            off_since: None,
            idle_streak: 0,
            sa_rr: vec![0; n_ports],
            buffered_flits: 0,
            class_flits: [0; PORT_CLASSES],
            occupied: 0,
            view: (u64::MAX, false, Mode::M7.divisor()),
            cycles_into_epoch: 0,
            epochs: 0,
            counters: EpochCounters::default(),
            prev_ibu: 0.0,
            ewma_short: 0.0,
            ewma_long: 0.0,
            total_off_ticks: 0,
            lifetime_wakeups: 0,
            lifetime_gate_offs: 0,
            buffers: (0..n_slots).map(|_| VcBuffer::new(cfg.vc_depth)).collect(),
            buffer_capacity: cfg.buffer_capacity(),
            class_capacity,
            class_ports,
            vcs_per_port: cfg.vcs_per_port,
            decode: &SLOT_DECODE[cfg.vcs_per_port],
        }
    }

    /// The `(port, vc)` of VC slot `slot`.
    #[inline]
    pub(crate) fn port_vc(&self, slot: usize) -> (usize, usize) {
        let (port, vc) = self.decode[slot];
        (usize::from(port), usize::from(vc))
    }

    /// Input VC `vc` of input port `port`.
    #[inline]
    pub fn vc(&self, port: usize, vc: usize) -> &VcBuffer {
        &self.buffers[port * self.vcs_per_port + vc]
    }

    /// Mutable access to input VC `vc` of input port `port`.
    #[cfg(test)]
    pub(crate) fn vc_mut(&mut self, port: usize, vc: usize) -> &mut VcBuffer {
        &mut self.buffers[port * self.vcs_per_port + vc]
    }

    /// Every input VC as `((port, vc), buffer)`, in slot order.
    pub(crate) fn vcs(&self) -> impl Iterator<Item = ((usize, usize), &VcBuffer)> {
        self.buffers
            .iter()
            .enumerate()
            .map(|(s, b)| (self.port_vc(s), b))
    }

    /// The VCs of input port `port`.
    fn port_vcs(&self, port: usize) -> &[VcBuffer] {
        let n = self.vcs_per_port;
        &self.buffers[port * n..(port + 1) * n]
    }

    /// Index of a VC of `port` that can accept a new packet's head.
    pub fn free_vc(&self, port: usize) -> Option<u8> {
        let v = self
            .port_vcs(port)
            .iter()
            .position(VcBuffer::can_accept_new_packet);
        v.and_then(|v| u8::try_from(v).ok())
    }

    /// [`Router::free_vc`] as the port stood at the start of tick `now`
    /// ([`VcBuffer::view_at`]).
    pub(crate) fn free_vc_at(&self, port: usize, now: u64) -> Option<u8> {
        let v = self.port_vcs(port).iter().position(|b| b.view_at(now).0);
        v.and_then(|v| u8::try_from(v).ok())
    }

    /// Save the view neighbours read during this tick's fire phase
    /// ([`Router::view_at`]); called as the router starts firing.
    #[inline]
    pub(crate) fn save_view(&mut self, now: u64) {
        self.view = (now, self.operational(now), self.divisor());
    }

    /// `(operational(now), divisor())` as the router stood at the start
    /// of tick `now`: the saved view if it has fired this tick, its live
    /// state otherwise. Only its own firing changes a router during the
    /// fire phase, so either way a neighbour reads the start of the tick.
    #[inline]
    pub(crate) fn view_at(&self, now: u64) -> (bool, ClockDivisor) {
        match self.view {
            (tick, operational, divisor) if tick == now => (operational, divisor),
            _ => (self.operational(now), self.divisor()),
        }
    }

    /// Buffer `flit` in input VC `(port, vc)`, keeping the occupancy
    /// counts and the VC-slot mask in step with the buffers.
    ///
    /// A push saves no start-of-tick view: a flit lands on a link port
    /// only in the settle phase, after every neighbour read of the tick,
    /// and a core injects only into a local port, which no neighbour
    /// reads.
    #[inline]
    pub(crate) fn push_flit(&mut self, port: usize, vc: usize, flit: Flit, ready_at: u64) {
        let slot = port * self.vcs_per_port + vc;
        self.buffers[slot].push(flit, ready_at);
        self.buffered_flits += 1;
        self.class_flits[port_class(port)] += 1;
        self.occupied |= 1u64 << slot;
    }

    /// Dequeue the head flit of input VC slot `slot` at tick `now`,
    /// saving the VC's start-of-tick view first and keeping the occupancy
    /// counts and the VC-slot mask in step with the buffers.
    #[inline]
    pub(crate) fn pop_flit(&mut self, slot: usize, now: u64) -> Flit {
        let buf = &mut self.buffers[slot];
        buf.save_view(now);
        let flit = buf.pop();
        if buf.is_empty() {
            self.occupied &= !(1u64 << slot);
        }
        self.buffered_flits -= 1;
        self.class_flits[port_class(self.port_vc(slot).0)] -= 1;
        flit
    }

    /// Total input occupancy (flits).
    pub fn occupancy(&self) -> usize {
        self.buffers.iter().map(VcBuffer::len).sum()
    }

    /// Input-buffer utilization right now (fraction of capacity).
    pub fn ibu_now(&self) -> f64 {
        self.occupancy() as f64 / self.buffer_capacity as f64
    }

    /// True when [`Router::occupied`](Router) has exactly the bits of
    /// the non-empty VCs and the per-class counts match the buffers
    /// (debug cross-check of the incremental bookkeeping).
    pub(crate) fn occupancy_matches_buffers(&self) -> bool {
        let mut mask = 0u64;
        let mut classes = [0usize; PORT_CLASSES];
        for (s, buf) in self.buffers.iter().enumerate() {
            if !buf.is_empty() {
                mask |= 1 << s;
            }
            classes[port_class(self.port_vc(s).0)] += buf.len();
        }
        mask == self.occupied
            && classes
                .iter()
                .zip(&self.class_flits)
                .all(|(&a, &b)| a == b as usize)
    }

    /// True when every input buffer is empty.
    pub fn buffers_empty(&self) -> bool {
        self.buffers.iter().all(VcBuffer::is_empty)
    }

    /// The clock divisor the router ticks at in its current state. A
    /// waking router counts cycles at its target mode's rate; a gated
    /// one at the M3 rate of the always-on power-management logic, which
    /// keeps its off-time and epoch accounting running.
    pub fn divisor(&self) -> ClockDivisor {
        match self.state {
            PowerState::Active(m) => m.divisor(),
            PowerState::Wakeup { target, .. } => target.divisor(),
            PowerState::Inactive => Mode::M3.divisor(),
        }
    }

    /// True when the router may move flits this tick.
    pub fn operational(&self, tick: u64) -> bool {
        self.state.is_operational() && tick >= self.stall_until
    }

    /// Sample per-cycle gauges into the epoch counters. `secured` is the
    /// network's downstream-secure count for this router.
    pub fn sample_cycle(&mut self, secured: bool) {
        let c = &mut self.counters;
        c.cycles += 1;
        for (sum, &n) in c.class_occupancy.iter_mut().zip(&self.class_flits) {
            *sum += u64::from(n);
        }
        let occ = u64::from(self.buffered_flits);
        c.occupancy_flit_cycles += occ;
        c.occupancy_peak = c.occupancy_peak.max(occ);
        if occ == 0 {
            c.idle_cycles += 1;
            self.idle_streak += 1;
        } else {
            self.idle_streak = 0;
        }
        if secured {
            c.secured_cycles += 1;
        }
    }

    /// Account `k` idle local cycles in closed form: exactly what `k`
    /// firings of a quiescent router add to its counters — no power
    /// state change, no epoch boundary, empty input buffers (so every
    /// occupancy sum grows by zero and the peak stays). Integers only.
    /// `secured` is the network's downstream-secure count for this
    /// router, constant across the skipped cycles.
    pub(crate) fn skip_idle_cycles(&mut self, k: u64, secured: bool) {
        debug_assert_eq!(self.buffered_flits, 0, "only empty routers sleep");
        let div = self.divisor().cycle_ticks();
        let c = &mut self.counters;
        c.cycles += k;
        c.idle_cycles += k;
        self.idle_streak += k;
        self.cycles_into_epoch += k;
        if self.state.is_inactive() {
            // A gated router samples as unsecured and books off time.
            let off = k * div;
            c.off_ticks += off;
            self.total_off_ticks += off;
        } else if secured {
            c.secured_cycles += k;
        }
    }

    /// True when the epoch boundary has been reached.
    pub fn at_epoch_boundary(&self, epoch_cycles: u64) -> bool {
        self.cycles_into_epoch >= epoch_cycles
    }

    /// Snapshot and reset the epoch counters, updating IBU histories.
    pub fn end_epoch(&mut self, total_elapsed_ticks: u64) -> EpochObservation {
        let c = &self.counters;
        let cycles = c.cycles.max(1);
        let cyc = cycles as f64;
        let cap = self.buffer_capacity as f64;
        let ibu = c.occupancy_flit_cycles as f64 / (cyc * cap);
        let ibu_peak = c.occupancy_peak as f64 / cap;

        let mut port_classes = [PortClassStats::default(); PORT_CLASSES];
        for (i, pc) in port_classes.iter_mut().enumerate() {
            let class_cap = self.class_capacity[i].max(1) as f64;
            let n_ports = self.class_ports[i].max(1) as f64;
            pc.occupancy = c.class_occupancy[i] as f64 / (cyc * class_cap);
            pc.flits_in = c.flits_in[i] as f64 / cyc;
            pc.flits_out = c.flits_out[i] as f64 / cyc;
            pc.link_utilization = (c.class_busy_cycles[i] as f64 / (cyc * n_ports)).min(1.0);
        }

        let epoch_ticks = DomainCycles::new(cycles)
            .to_ticks(self.divisor())
            .ticks()
            .max(1) as f64;
        let epochs_elapsed = (self.epochs + 1) as f64;
        let obs = EpochObservation {
            router: self.id,
            epoch: self.epochs,
            cycles,
            ibu,
            ibu_peak,
            prev_ibu: self.prev_ibu,
            ibu_ewma_short: self.ewma_short,
            ibu_ewma_long: self.ewma_long,
            reqs_sent: c.reqs_sent as f64 / cyc,
            reqs_recv: c.reqs_recv as f64 / cyc,
            resps_sent: c.resps_sent as f64 / cyc,
            resps_recv: c.resps_recv as f64 / cyc,
            total_off_fraction: self.total_off_ticks as f64 / total_elapsed_ticks.max(1) as f64,
            epoch_off_fraction: (c.off_ticks as f64 / epoch_ticks).min(1.0),
            wakeup_rate: (self.lifetime_wakeups as f64 / epochs_elapsed).min(1.0),
            gate_off_rate: (self.lifetime_gate_offs as f64 / epochs_elapsed).min(1.0),
            secured_fraction: c.secured_cycles as f64 / cyc,
            idle_fraction: c.idle_cycles as f64 / cyc,
            port_classes,
            flits_injected: c.flits_injected as f64 / cyc,
            flits_ejected: c.flits_ejected as f64 / cyc,
            hops_routed: c.hops as f64 / cyc,
            stall_fraction: (c.stall_cycles as f64 / cyc).min(1.0),
            credit_stall_fraction: (c.credit_stall_cycles as f64 / cyc).min(1.0),
            mode: self.selected_mode,
        };
        debug_assert!(obs.is_well_formed(), "malformed observation: {obs:?}");

        // Update histories for the next epoch's features.
        self.ewma_short = 0.5 * ibu + 0.5 * self.ewma_short;
        self.ewma_long = 0.1 * ibu + 0.9 * self.ewma_long;
        self.prev_ibu = ibu;
        self.epochs += 1;
        self.cycles_into_epoch = 0;
        self.counters.reset();
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_topology::Topology;

    fn router() -> Router {
        Router::new(RouterId(3), &NocConfig::paper(Topology::mesh8x8()))
    }

    #[test]
    fn starts_in_baseline_state() {
        let r = router();
        assert_eq!(r.state, PowerState::Active(Mode::M7));
        assert_eq!(r.selected_mode, Mode::M7);
        assert_eq!(r.divisor(), Mode::M7.divisor());
        assert!(r.buffers_empty());
        assert_eq!(r.ibu_now(), 0.0);
        assert_eq!(r.vcs().count(), 5 * 4);
    }

    #[test]
    fn heartbeat_divisors() {
        let mut r = router();
        r.state = PowerState::Inactive;
        assert_eq!(r.divisor(), Mode::M3.divisor());
        r.state = PowerState::Wakeup {
            target: Mode::M6,
            until: SimTime::ZERO,
        };
        assert_eq!(r.divisor(), Mode::M6.divisor());
    }

    #[test]
    fn operational_requires_active_and_unstalled() {
        let mut r = router();
        assert!(r.operational(0));
        r.stall_until = 100;
        assert!(!r.operational(99));
        assert!(r.operational(100));
        r.state = PowerState::Inactive;
        assert!(!r.operational(200));
    }

    #[test]
    fn saved_view_answers_only_for_its_tick() {
        let mut r = router();
        r.save_view(40);
        r.state = PowerState::Inactive;
        assert_eq!(r.view_at(40), (true, Mode::M7.divisor()));
        assert_eq!(r.view_at(41), (false, Mode::M3.divisor()));
    }

    #[test]
    fn slot_decode_matches_division_for_every_layout() {
        for (n, row) in SLOT_DECODE.iter().enumerate().skip(1) {
            for (slot, &(p, v)) in row.iter().enumerate() {
                assert_eq!((usize::from(p), usize::from(v)), (slot / n, slot % n));
            }
        }
        let r = router();
        assert_eq!([0, 7, 19].map(|s| r.port_vc(s)), [(0, 0), (1, 3), (4, 3)]);
    }

    #[test]
    fn free_vc_live_and_at_the_start_of_the_tick() {
        use dozznoc_types::{CoreId, Packet, PacketId, PacketKind};
        let head = |id| {
            let p = Packet {
                id: PacketId(id),
                src: CoreId(0),
                dst: CoreId(1),
                kind: PacketKind::Request,
                inject_time: SimTime::ZERO,
            };
            let head = p.flits().next().expect("packet has a head flit");
            head
        };
        let mut r = router();
        assert_eq!(r.free_vc(1), Some(0));
        r.push_flit(1, 0, head(1), 0);
        assert_eq!(r.free_vc(1), Some(1));
        assert_eq!(r.vc(1, 0).owner(), Some(PacketId(1)));
        assert_eq!(r.vcs().nth(4).map(|(pv, _)| pv), Some((1, 0)));
        assert_eq!(r.occupancy(), 1);
        // Pushes land after every neighbour read of their tick, so they
        // save no view: any later tick reads the live state.
        assert_eq!(r.free_vc_at(1, 6), Some(1));
        for v in 1..4 {
            r.push_flit(1, v, head(2), 0);
        }
        assert_eq!(r.free_vc(1), None);
        assert_eq!(r.free_vc_at(1, 6), None);
        // A pop at tick 7 saves the view first: a neighbour reading
        // during tick 7 still sees every VC owned.
        r.pop_flit(4, 7);
        assert_eq!(r.free_vc(1), Some(0));
        assert_eq!(r.free_vc_at(1, 7), None);
        assert_eq!(r.free_vc_at(1, 8), Some(0));
        assert!(r.occupancy_matches_buffers());
    }

    #[test]
    fn idle_streak_tracks_empty_cycles() {
        let mut r = router();
        for _ in 0..4 {
            r.sample_cycle(false);
        }
        assert_eq!(r.idle_streak, 4);
        assert_eq!(r.counters.idle_cycles, 4);
    }

    #[test]
    fn end_epoch_produces_well_formed_observation() {
        let mut r = router();
        for _ in 0..500 {
            r.sample_cycle(false);
            r.cycles_into_epoch += 1;
        }
        assert!(r.at_epoch_boundary(500));
        let obs = r.end_epoch(4000);
        assert!(obs.is_well_formed());
        assert_eq!(obs.epoch, 0);
        assert_eq!(obs.cycles, 500);
        assert_eq!(obs.ibu, 0.0);
        assert_eq!(obs.idle_fraction, 1.0);
        // Counters reset for the next epoch.
        assert_eq!(r.counters.cycles, 0);
        assert_eq!(r.epochs, 1);
        assert_eq!(r.cycles_into_epoch, 0);
    }

    #[test]
    fn ewma_histories_update() {
        let mut r = router();
        // First epoch with some synthetic occupancy.
        r.counters.cycles = 100;
        r.counters.occupancy_flit_cycles = 100 * 40; // half of the 80-flit capacity
        r.counters.occupancy_peak = 60;
        r.cycles_into_epoch = 100;
        let obs = r.end_epoch(1000);
        assert!((obs.ibu - 0.5).abs() < 1e-12);
        assert_eq!(obs.prev_ibu, 0.0);
        // Next epoch sees the histories.
        r.counters.cycles = 100;
        r.cycles_into_epoch = 100;
        let obs2 = r.end_epoch(2000);
        assert!((obs2.prev_ibu - 0.5).abs() < 1e-12);
        assert!((obs2.ibu_ewma_short - 0.25).abs() < 1e-12);
        assert!((obs2.ibu_ewma_long - 0.05).abs() < 1e-12);
    }

    #[test]
    fn port_class_mapping() {
        assert_eq!(port_class(0), 0);
        assert_eq!(port_class(3), 3);
        assert_eq!(port_class(4), 4);
        assert_eq!(port_class(7), 4);
    }

    #[test]
    fn cmesh_class_capacity_aggregates_locals() {
        let r = Router::new(RouterId(0), &NocConfig::paper(Topology::cmesh4x4()));
        // 8 ports: 4 dirs + 4 locals; class 4 holds 4 ports × 16 flits.
        assert_eq!(r.vcs().count(), 8 * 4);
        assert_eq!(r.class_capacity[4], 4 * 16);
        assert_eq!(r.class_ports[4], 4);
    }
}
