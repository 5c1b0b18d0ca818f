//! XY dimension-order routing with one-hop look-ahead.
//!
//! The paper (§III-A) uses XY DOR to select output ports and exploits the
//! fact that XY makes the downstream router of every packet knowable one
//! hop in advance. DozzNoC uses that look-ahead both for route
//! pre-computation and to *secure* downstream routers against power-gating
//! (waking them if they are already off).

use dozznoc_types::{CoreId, RouterId};

use crate::direction::{Direction, Port};
use crate::grid::Topology;

/// Which dimension a DOR route corrects first. Both orders yield an
/// acyclic channel-dependency graph on a mesh (no packet ever turns from
/// the second dimension back into the first), so both are deadlock-free;
/// they differ in which links congest under asymmetric traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DimOrder {
    /// Correct x first (the paper's choice).
    Xy,
    /// Correct y first.
    Yx,
}

/// Dimension-order router for a grid topology, with every route step
/// precomputed at construction.
///
/// The paper uses XY DOR; YX is provided for routing-sensitivity
/// experiments. Look-ahead (knowing the next router one hop early) works
/// identically for both, which is what DozzNoC's downstream securing
/// needs.
///
/// DOR routes are static, so each (router, destination core)'s output
/// port and next router are tabulated once (24 KiB for the 8×8 mesh):
/// [`XyRouter::route`] is one table read, which is what route compute
/// looks up once per packet head, and [`XyRouter::path`] follows the
/// same table hop by hop, which is how wake punching walks the full
/// route of every admitted packet without allocating.
#[derive(Debug, Clone)]
pub struct XyRouter {
    topo: Topology,
    order: DimOrder,
    /// The [`XyRouter::route`] of router `r` toward core `c`, at
    /// `r · num_cores + c`.
    hops: Vec<(Port, Option<RouterId>)>,
}

impl XyRouter {
    /// Create an XY router function for `topo` (the paper's default).
    pub fn new(topo: Topology) -> Self {
        XyRouter::with_order(topo, DimOrder::Xy)
    }

    /// Create a router function with an explicit dimension order.
    #[must_use]
    pub fn with_order(topo: Topology, order: DimOrder) -> Self {
        let mut hops = Vec::with_capacity(topo.num_routers() * topo.num_cores());
        for cur in topo.routers() {
            for dst in topo.cores() {
                let dst_router = topo.router_of_core(dst);
                hops.push(match dir_toward(&topo, order, cur, dst_router) {
                    None => (Port::Local(topo.local_slot(dst)), None),
                    Some(d) => (
                        Port::Dir(d),
                        Some(
                            topo.neighbor(cur, d)
                                .expect("DOR never routes off the edge of the grid"),
                        ),
                    ),
                });
            }
        }
        XyRouter { topo, order, hops }
    }

    /// The topology this router function operates on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The dimension order in force.
    pub fn order(&self) -> DimOrder {
        self.order
    }

    /// Route compute at router `cur` for a packet destined to core
    /// `dst`: its output port there, and the look-ahead next router
    /// ([`XyRouter::next_hop`]). One table read.
    #[inline]
    pub fn route(&self, cur: RouterId, dst: CoreId) -> (Port, Option<RouterId>) {
        self.hops[cur.idx() * self.topo.num_cores() + dst.idx()]
    }

    /// Output port at router `cur` for a packet destined to core `dst`.
    pub fn output_port(&self, cur: RouterId, dst: CoreId) -> Port {
        self.route(cur, dst).0
    }

    /// Look-ahead: the *next router* a packet at `cur` destined to core
    /// `dst` will hop to, or `None` when `cur` is already the ejection
    /// router. This is the router DozzNoC secures/wakes.
    pub fn next_hop(&self, cur: RouterId, dst: CoreId) -> Option<RouterId> {
        self.route(cur, dst).1
    }

    /// Full router path from core `src` to core `dst`, inclusive of both
    /// endpoint routers: the home router, then each
    /// [`XyRouter::next_hop`] until the ejection router. No per-call
    /// allocation.
    pub fn path(&self, src: CoreId, dst: CoreId) -> impl Iterator<Item = RouterId> + '_ {
        core::iter::successors(Some(self.topo.router_of_core(src)), move |&cur| {
            self.next_hop(cur, dst)
        })
    }
}

/// The direction DOR moves next from `cur` toward router `dst`, or
/// `None` when already there.
fn dir_toward(topo: &Topology, order: DimOrder, cur: RouterId, dst: RouterId) -> Option<Direction> {
    let cc = topo.coord(cur);
    let dc = topo.coord(dst);
    let x_move = if dc.x > cc.x {
        Some(Direction::East)
    } else if dc.x < cc.x {
        Some(Direction::West)
    } else {
        None
    };
    let y_move = if dc.y > cc.y {
        Some(Direction::South)
    } else if dc.y < cc.y {
        Some(Direction::North)
    } else {
        None
    };
    match order {
        DimOrder::Xy => x_move.or(y_move),
        DimOrder::Yx => y_move.or(x_move),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_types::CoreId;

    fn all_pairs(topo: Topology) -> impl Iterator<Item = (CoreId, CoreId)> {
        topo.cores()
            .flat_map(move |a| topo.cores().map(move |b| (a, b)))
    }

    #[test]
    fn path_length_is_manhattan_distance() {
        for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
            let xy = XyRouter::new(topo);
            for (src, dst) in all_pairs(topo) {
                let hops = u32::try_from(xy.path(src, dst).count() - 1).expect("paths are short");
                let expect = topo.hop_distance(topo.router_of_core(src), topo.router_of_core(dst));
                assert_eq!(hops, expect, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn path_ends_at_destination_router() {
        for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
            let xy = XyRouter::new(topo);
            for (src, dst) in all_pairs(topo) {
                let last = xy.path(src, dst).last().expect("paths are non-empty");
                assert_eq!(last, topo.router_of_core(dst));
            }
        }
    }

    #[test]
    fn x_is_corrected_before_y() {
        let topo = Topology::mesh8x8();
        let xy = XyRouter::new(topo);
        // From (0,0) to (3,2): the first 3 hops must move east.
        let src = CoreId(0); // router (0,0)
        let dst = CoreId(2 * 8 + 3); // router (3,2)
        let path: Vec<_> = xy.path(src, dst).collect();
        for w in path.windows(2).take(3) {
            let a = topo.coord(w[0]);
            let b = topo.coord(w[1]);
            assert_eq!(b.x, a.x + 1, "expected eastward move first");
            assert_eq!(b.y, a.y);
        }
        // The remaining hops move south.
        for w in path.windows(2).skip(3) {
            let a = topo.coord(w[0]);
            let b = topo.coord(w[1]);
            assert_eq!(b.y, a.y + 1, "expected southward move after x fixed");
            assert_eq!(b.x, a.x);
        }
    }

    #[test]
    fn local_delivery_uses_destination_slot() {
        let topo = Topology::cmesh4x4();
        let xy = XyRouter::new(topo);
        for dst in topo.cores() {
            let r = topo.router_of_core(dst);
            match xy.output_port(r, dst) {
                Port::Local(slot) => assert_eq!(slot, topo.local_slot(dst)),
                p => panic!("expected local port, got {p:?}"),
            }
            assert_eq!(xy.next_hop(r, dst), None);
        }
    }

    #[test]
    fn route_table_matches_dor_on_both_paper_grids_and_orders() {
        for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
            for order in [DimOrder::Xy, DimOrder::Yx] {
                let table = XyRouter::with_order(topo, order);
                for cur in topo.routers() {
                    for dst in topo.cores() {
                        let expect = match dir_toward(&topo, order, cur, topo.router_of_core(dst)) {
                            None => (Port::Local(topo.local_slot(dst)), None),
                            Some(d) => (Port::Dir(d), topo.neighbor(cur, d)),
                        };
                        assert_eq!(table.route(cur, dst), expect, "{order:?} {cur}->{dst}");
                        assert_eq!(table.output_port(cur, dst), expect.0);
                        assert_eq!(table.next_hop(cur, dst), expect.1);
                    }
                }
            }
        }
    }

    #[test]
    fn next_hop_agrees_with_output_port() {
        let topo = Topology::mesh8x8();
        let xy = XyRouter::new(topo);
        for (src, dst) in all_pairs(topo) {
            let mut cur = topo.router_of_core(src);
            // Walk the route; next_hop must always match the port direction.
            while let Some(next) = xy.next_hop(cur, dst) {
                match xy.output_port(cur, dst) {
                    Port::Dir(d) => assert_eq!(topo.neighbor(cur, d), Some(next)),
                    Port::Local(_) => panic!("local port but next_hop was Some"),
                }
                cur = next;
            }
            assert_eq!(cur, topo.router_of_core(dst));
        }
    }

    /// XY routing is deadlock-free because its channel dependency graph is
    /// acyclic: a packet never turns from a y-channel into an x-channel.
    /// Verify that property over every route of the 8×8 mesh.
    #[test]
    fn no_y_to_x_turns() {
        let topo = Topology::mesh8x8();
        let xy = XyRouter::new(topo);
        for (src, dst) in all_pairs(topo) {
            let path: Vec<_> = xy.path(src, dst).collect();
            let mut seen_y_move = false;
            for w in path.windows(2) {
                let a = topo.coord(w[0]);
                let b = topo.coord(w[1]);
                let is_x_move = a.y == b.y;
                if is_x_move {
                    assert!(!seen_y_move, "illegal y→x turn in XY routing");
                } else {
                    seen_y_move = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod yx_tests {
    use super::*;
    use dozznoc_types::CoreId;

    #[test]
    fn yx_corrects_y_before_x() {
        let topo = Topology::mesh8x8();
        let yx = XyRouter::with_order(topo, DimOrder::Yx);
        // From (0,0) to (3,2): the first 2 hops must move south.
        let path: Vec<_> = yx.path(CoreId(0), CoreId(2 * 8 + 3)).collect();
        for w in path.windows(2).take(2) {
            let a = topo.coord(w[0]);
            let b = topo.coord(w[1]);
            assert_eq!(b.y, a.y + 1, "expected southward move first");
        }
        for w in path.windows(2).skip(2) {
            let a = topo.coord(w[0]);
            let b = topo.coord(w[1]);
            assert_eq!(b.x, a.x + 1, "expected eastward move after y fixed");
        }
    }

    #[test]
    fn yx_paths_are_minimal_and_reach_destination() {
        let topo = Topology::cmesh4x4();
        let yx = XyRouter::with_order(topo, DimOrder::Yx);
        for src in topo.cores() {
            for dst in topo.cores() {
                let hops = u32::try_from(yx.path(src, dst).count() - 1).expect("paths are short");
                let expect = topo.hop_distance(topo.router_of_core(src), topo.router_of_core(dst));
                assert_eq!(hops, expect);
                assert_eq!(
                    yx.path(src, dst).last().expect("paths are non-empty"),
                    topo.router_of_core(dst)
                );
            }
        }
    }

    #[test]
    fn yx_never_turns_x_to_y() {
        let topo = Topology::mesh8x8();
        let yx = XyRouter::with_order(topo, DimOrder::Yx);
        for s in 0..64u16 {
            for d in 0..64u16 {
                let path: Vec<_> = yx.path(CoreId(s), CoreId(d)).collect();
                let mut seen_x = false;
                for w in path.windows(2) {
                    let a = topo.coord(w[0]);
                    let b = topo.coord(w[1]);
                    if a.x != b.x {
                        seen_x = true;
                    } else {
                        assert!(!seen_x, "illegal x→y turn in YX routing");
                    }
                }
            }
        }
    }

    #[test]
    fn orders_agree_on_same_row_or_column() {
        let topo = Topology::mesh8x8();
        let xy = XyRouter::new(topo);
        let yx = XyRouter::with_order(topo, DimOrder::Yx);
        // Same row: both move east/west identically.
        assert_eq!(
            xy.output_port(RouterId(0), CoreId(5)),
            yx.output_port(RouterId(0), CoreId(5))
        );
        // Same column: both move north/south identically.
        assert_eq!(
            xy.output_port(RouterId(0), CoreId(40)),
            yx.output_port(RouterId(0), CoreId(40))
        );
        assert_eq!(xy.order(), DimOrder::Xy);
        assert_eq!(yx.order(), DimOrder::Yx);
    }
}
