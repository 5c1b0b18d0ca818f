//! Virtual-channel input buffers.
//!
//! Wormhole flow control: a VC buffer is owned by at most one packet at a
//! time (from the cycle its head flit arrives until the cycle its tail
//! flit departs). The head's route — output port, look-ahead next router
//! and the downstream VC it was allocated — is stored with the buffer so
//! body/tail flits follow without re-computation.

use std::collections::VecDeque;

use dozznoc_topology::Port;
use dozznoc_types::{Flit, PacketId, RouterId};

/// Route state of the packet currently owning a VC buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcRoute {
    /// Output port at this router.
    pub out_port: Port,
    /// Look-ahead: the downstream router (None for ejection).
    pub next_router: Option<RouterId>,
    /// Downstream VC allocated for this packet (None until the head wins
    /// allocation; ejection never allocates one).
    pub out_vc: Option<u8>,
}

/// One virtual-channel FIFO with its wormhole state.
#[derive(Debug, Clone)]
pub struct VcBuffer {
    queue: VecDeque<(Flit, u64)>, // (flit, earliest tick it may leave)
    capacity: usize,
    owner: Option<PacketId>,
    route: Option<VcRoute>,
    /// `(tick, can_accept_new_packet, has_space)` as the buffer stood
    /// before its first pop at `tick` ([`VcBuffer::save_view`]).
    view: (u64, bool, bool),
}

impl VcBuffer {
    /// An empty buffer of `capacity` flits.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        VcBuffer {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            owner: None,
            route: None,
            view: (u64::MAX, true, true),
        }
    }

    /// Flits currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no flits are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when another flit fits.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Flit capacity of this buffer (the credit pool backing it).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffered `(flit, ready_at)` entries in FIFO order — read-only
    /// inspection for the invariant sanitizer; never perturbs state.
    #[inline]
    pub(crate) fn entries(&self) -> impl Iterator<Item = &(Flit, u64)> {
        self.queue.iter()
    }

    /// True when this VC can accept the *head* of a new packet: it must
    /// be unowned (wormhole) and have space.
    #[inline]
    pub fn can_accept_new_packet(&self) -> bool {
        self.owner.is_none() && self.has_space()
    }

    /// Save the flags neighbours read ([`VcBuffer::view_at`]) before
    /// the first pop at tick `now`; later ones that tick keep it. Pushes
    /// save none ([`Router::push_flit`](crate::router::Router)).
    #[inline]
    pub(crate) fn save_view(&mut self, now: u64) {
        if self.view.0 != now {
            self.view = (now, self.can_accept_new_packet(), self.has_space());
        }
    }

    /// `(can_accept_new_packet, has_space)` as the buffer stood at the
    /// start of tick `now`: the saved flags if it was popped this tick,
    /// its live ones otherwise.
    #[inline]
    pub(crate) fn view_at(&self, now: u64) -> (bool, bool) {
        match self.view {
            (tick, accepts_new, has_space) if tick == now => (accepts_new, has_space),
            _ => (self.can_accept_new_packet(), self.has_space()),
        }
    }

    /// The packet currently owning this VC.
    #[inline]
    pub fn owner(&self) -> Option<PacketId> {
        self.owner
    }

    /// Route of the owning packet, if computed.
    #[inline]
    pub fn route(&self) -> Option<&VcRoute> {
        self.route.as_ref()
    }

    /// Set the owning packet's route (route-compute stage).
    pub fn set_route(&mut self, route: VcRoute) {
        debug_assert!(self.owner.is_some(), "route without an owner");
        self.route = Some(route);
    }

    /// Record the downstream VC the head was allocated.
    pub fn set_out_vc(&mut self, vc: u8) {
        if let Some(r) = self.route.as_mut() {
            r.out_vc = Some(vc);
        }
    }

    /// Enqueue a flit. `ready_at` is the earliest tick the flit may be
    /// forwarded onward (one tick after arrival, so a flit can never
    /// cross two routers inside the same base tick).
    ///
    /// Panics (debug) if the buffer is full or the flit does not belong
    /// to the owning packet.
    pub fn push(&mut self, flit: Flit, ready_at: u64) {
        debug_assert!(self.has_space(), "buffer overflow");
        match self.owner {
            None => {
                debug_assert!(flit.kind.is_head(), "body flit into unowned VC");
                self.owner = Some(flit.packet);
            }
            Some(owner) => {
                debug_assert_eq!(owner, flit.packet, "interleaved packets in one VC");
            }
        }
        self.queue.push_back((flit, ready_at));
    }

    /// The flit at the head of the FIFO with the earliest tick it may
    /// leave.
    #[inline]
    pub(crate) fn front(&self) -> Option<&(Flit, u64)> {
        self.queue.front()
    }

    /// The flit at the head of the FIFO, if it is allowed to move at
    /// `tick`.
    pub fn peek_ready(&self, tick: u64) -> Option<&Flit> {
        match self.queue.front() {
            Some((flit, ready_at)) if *ready_at <= tick => Some(flit),
            _ => None,
        }
    }

    /// Dequeue the head flit. Clears ownership and route when the tail
    /// departs. Panics (debug) if empty.
    pub fn pop(&mut self) -> Flit {
        let (flit, _) = self.queue.pop_front().expect("pop from empty VC");
        if flit.kind.is_tail() {
            self.owner = None;
            self.route = None;
        }
        flit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_types::{CoreId, FlitKind, Packet, PacketKind, SimTime};

    fn flits(id: u64, kind: PacketKind) -> Vec<Flit> {
        Packet {
            id: PacketId(id),
            src: CoreId(0),
            dst: CoreId(1),
            kind,
            inject_time: SimTime::ZERO,
        }
        .flits()
        .collect()
    }

    #[test]
    fn ownership_lifecycle() {
        let mut b = VcBuffer::new(8);
        assert!(b.can_accept_new_packet());
        for f in flits(7, PacketKind::Response) {
            b.push(f, 0);
        }
        assert_eq!(b.owner(), Some(PacketId(7)));
        assert!(!b.can_accept_new_packet());
        assert_eq!(b.len(), 5);
        // Drain: ownership persists until the tail pops.
        for _ in 0..4 {
            b.pop();
            assert_eq!(b.owner(), Some(PacketId(7)));
        }
        let tail = b.pop();
        assert_eq!(tail.kind, FlitKind::Tail);
        assert_eq!(b.owner(), None);
        assert!(b.can_accept_new_packet());
        assert!(b.route().is_none());
    }

    #[test]
    fn single_flit_packet_releases_immediately() {
        let mut b = VcBuffer::new(4);
        b.push(flits(1, PacketKind::Request)[0], 0);
        assert_eq!(b.owner(), Some(PacketId(1)));
        b.pop();
        assert_eq!(b.owner(), None);
    }

    #[test]
    fn ready_at_gates_forwarding() {
        let mut b = VcBuffer::new(4);
        b.push(flits(1, PacketKind::Request)[0], 10);
        assert!(b.peek_ready(9).is_none());
        assert!(b.peek_ready(10).is_some());
    }

    #[test]
    fn space_accounting() {
        let mut b = VcBuffer::new(2);
        let fs = flits(3, PacketKind::Response);
        b.push(fs[0], 0);
        assert!(b.has_space());
        b.push(fs[1], 0);
        assert!(!b.has_space());
    }

    #[test]
    fn route_set_and_cleared() {
        use dozznoc_topology::Direction;
        let mut b = VcBuffer::new(4);
        b.push(flits(1, PacketKind::Request)[0], 0);
        b.set_route(VcRoute {
            out_port: Port::Dir(Direction::East),
            next_router: Some(RouterId(5)),
            out_vc: None,
        });
        b.set_out_vc(2);
        assert_eq!(b.route().expect("route is set").out_vc, Some(2));
        b.pop();
        assert!(b.route().is_none());
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn overflow_detected_in_debug() {
        let mut b = VcBuffer::new(1);
        let fs = flits(3, PacketKind::Response);
        b.push(fs[0], 0);
        b.push(fs[1], 0);
        if !cfg!(debug_assertions) {
            panic!("buffer overflow"); // the debug_assert is compiled out here
        }
    }
}
