//! Property tests for grids and XY routing on arbitrary shapes — the
//! unit suites cover the paper's two configurations exhaustively; these
//! cover the generalization the library promises.

use proptest::prelude::*;

use dozznoc_topology::{Direction, Port, Topology, XyRouter, DIR_PORTS};
use dozznoc_types::CoreId;

/// Strategy: a non-degenerate grid whose core count stays small enough
/// for exhaustive pair checks.
fn arb_grid() -> impl Strategy<Value = Topology> {
    (1u16..7, 1u16..7, 1u16..5).prop_map(|(w, h, c)| Topology::new(w, h, c))
}

proptest! {
    /// Coordinates round-trip on every grid.
    #[test]
    fn coord_round_trip(topo in arb_grid()) {
        for r in topo.routers() {
            prop_assert_eq!(topo.router_at(topo.coord(r)), r);
        }
    }

    /// Neighbour relations are symmetric and stay in bounds.
    #[test]
    fn neighbor_symmetry(topo in arb_grid()) {
        for r in topo.routers() {
            for d in DIR_PORTS {
                if let Some(n) = topo.neighbor(r, d) {
                    prop_assert!(n.idx() < topo.num_routers());
                    prop_assert_eq!(topo.neighbor(n, d.opposite()), Some(r));
                }
            }
        }
    }

    /// Every core belongs to exactly one router and one local slot.
    #[test]
    fn cores_partition(topo in arb_grid()) {
        let mut seen = vec![false; topo.num_cores()];
        for r in topo.routers() {
            for core in topo.cores_of_router(r) {
                prop_assert!(!seen[core.idx()]);
                seen[core.idx()] = true;
                prop_assert_eq!(topo.router_of_core(core), r);
                prop_assert!((topo.local_slot(core) as usize) < topo.concentration());
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// XY routes reach the destination in exactly Manhattan-distance
    /// hops, never leave the grid, and never turn from y back into x.
    #[test]
    fn xy_routes_are_minimal_and_legal(topo in arb_grid(), src_i in any::<prop::sample::Index>(), dst_i in any::<prop::sample::Index>()) {
        let n = topo.num_cores();
        let src = CoreId::from(src_i.index(n));
        let dst = CoreId::from(dst_i.index(n));
        let xy = XyRouter::new(topo);
        let path: Vec<_> = xy.path(src, dst).collect();
        let expect = topo.hop_distance(topo.router_of_core(src), topo.router_of_core(dst));
        prop_assert_eq!(u32::try_from(path.len() - 1).expect("paths are short"), expect);
        prop_assert_eq!(*path.last().expect("paths are non-empty"), topo.router_of_core(dst));
        let mut seen_y = false;
        for w in path.windows(2) {
            let a = topo.coord(w[0]);
            let b = topo.coord(w[1]);
            let x_move = a.y == b.y;
            if x_move {
                prop_assert!(!seen_y, "y→x turn breaks XY deadlock freedom");
            } else {
                seen_y = true;
            }
        }
    }

    /// The look-ahead function agrees with walking the path.
    #[test]
    fn lookahead_matches_path(topo in arb_grid(), src_i in any::<prop::sample::Index>(), dst_i in any::<prop::sample::Index>()) {
        let n = topo.num_cores();
        let src = CoreId::from(src_i.index(n));
        let dst = CoreId::from(dst_i.index(n));
        let xy = XyRouter::new(topo);
        let path: Vec<_> = xy.path(src, dst).collect();
        for w in path.windows(2) {
            prop_assert_eq!(xy.next_hop(w[0], dst), Some(w[1]));
        }
        prop_assert_eq!(xy.next_hop(*path.last().expect("paths are non-empty"), dst), None);
    }

    /// Port indices are dense and invertible for every concentration.
    #[test]
    fn port_index_bijection(c in 1usize..6) {
        for i in 0..4 + c {
            let p = Port::from_index(i, c).expect("index below 4 + concentration is valid");
            prop_assert_eq!(p.index(), i);
        }
        prop_assert_eq!(Port::from_index(4 + c, c), None);
        // Directions map onto the first four indices.
        for d in DIR_PORTS {
            prop_assert!(Port::Dir(d).index() < 4);
        }
        prop_assert_eq!(Port::Dir(Direction::North).index(), 0);
    }
}
