//! Concentration-`c` grid topology covering both paper configurations.

use serde::{Deserialize, Serialize};

use dozznoc_types::{CoreId, RouterId};

use crate::direction::Direction;

/// 2-D router coordinate. `(0, 0)` is the north-west corner; `x` grows
/// east, `y` grows south.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column (grows east).
    pub x: u16,
    /// Row (grows south).
    pub y: u16,
}

impl core::fmt::Display for Coord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The two topology families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// One core per router (paper Fig. 1(b): 8×8, 64 routers, 64 cores).
    Mesh,
    /// Four cores per router (paper Fig. 1(a): 4×4, 16 routers, 64 cores).
    CMesh,
}

impl core::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyKind::Mesh => f.write_str("mesh"),
            TopologyKind::CMesh => f.write_str("cmesh"),
        }
    }
}

/// A `width × height` grid of routers with `concentration` cores attached
/// to each router.
///
/// Core `i` is attached to router `i / concentration`, local slot
/// `i % concentration`; router ids are row-major (`id = y·width + x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    width: u16,
    height: u16,
    concentration: u16,
}

impl Topology {
    /// Build an arbitrary grid. Panics on a degenerate shape.
    pub fn new(width: u16, height: u16, concentration: u16) -> Self {
        assert!(width >= 1 && height >= 1, "grid must be at least 1×1");
        assert!(concentration >= 1, "each router needs at least one core");
        assert!(
            concentration <= 256,
            "local slots are u8: at most 256 cores per router"
        );
        assert!(
            (width as usize) * (height as usize) * (concentration as usize) <= u16::MAX as usize,
            "core id space overflows u16"
        );
        Topology {
            width,
            height,
            concentration,
        }
    }

    /// The paper's 8×8 mesh: 64 routers, 64 cores.
    pub fn mesh8x8() -> Self {
        Topology::new(8, 8, 1)
    }

    /// The paper's 4×4 concentrated mesh: 16 routers, 64 cores.
    pub fn cmesh4x4() -> Self {
        Topology::new(4, 4, 4)
    }

    /// Which paper configuration this grid is (by concentration).
    pub fn kind(&self) -> TopologyKind {
        if self.concentration == 1 {
            TopologyKind::Mesh
        } else {
            TopologyKind::CMesh
        }
    }

    /// Grid width in routers.
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height in routers.
    #[inline]
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Cores attached to each router.
    #[inline]
    pub fn concentration(&self) -> usize {
        self.concentration as usize
    }

    /// Total number of routers.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total number of cores.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.num_routers() * self.concentration()
    }

    /// Ports per router: four directions plus one per attached core.
    #[inline]
    pub fn ports_per_router(&self) -> usize {
        4 + self.concentration()
    }

    /// Coordinate of a router.
    #[inline]
    pub fn coord(&self, r: RouterId) -> Coord {
        debug_assert!(r.idx() < self.num_routers());
        Coord {
            x: r.0 % self.width,
            y: r.0 / self.width,
        }
    }

    /// Router at a coordinate.
    #[inline]
    pub fn router_at(&self, c: Coord) -> RouterId {
        debug_assert!(c.x < self.width && c.y < self.height);
        RouterId(c.y * self.width + c.x)
    }

    /// Router a core is attached to.
    #[inline]
    pub fn router_of_core(&self, core: CoreId) -> RouterId {
        debug_assert!(core.idx() < self.num_cores());
        RouterId(core.0 / self.concentration)
    }

    /// Local port slot (0-based) of a core at its router.
    #[inline]
    pub fn local_slot(&self, core: CoreId) -> u8 {
        u8::try_from(core.0 % self.concentration).expect("a router has at most 256 local slots")
    }

    /// Cores attached to a router, in slot order.
    pub fn cores_of_router(&self, r: RouterId) -> impl Iterator<Item = CoreId> {
        let base = r.0 * self.concentration;
        (base..base + self.concentration).map(CoreId)
    }

    /// Neighbouring router in a direction, if any (mesh edges have none).
    pub fn neighbor(&self, r: RouterId, d: Direction) -> Option<RouterId> {
        let c = self.coord(r);
        let (dx, dy) = d.step();
        let x = u16::try_from(i32::from(c.x) + dx)
            .ok()
            .filter(|&x| x < self.width)?;
        let y = u16::try_from(i32::from(c.y) + dy)
            .ok()
            .filter(|&y| y < self.height)?;
        Some(self.router_at(Coord { x, y }))
    }

    /// Manhattan hop distance between two routers.
    pub fn hop_distance(&self, a: RouterId, b: RouterId) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        u32::from(ca.x.abs_diff(cb.x)) + u32::from(ca.y.abs_diff(cb.y))
    }

    /// Iterate over every router id.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> {
        // `Topology::new` bounds width · height · concentration by u16.
        (0..self.width * self.height).map(RouterId)
    }

    /// Iterate over every core id.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.width * self.height * self.concentration).map(CoreId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::DIR_PORTS;

    #[test]
    fn paper_configurations() {
        let mesh = Topology::mesh8x8();
        assert_eq!(mesh.num_routers(), 64);
        assert_eq!(mesh.num_cores(), 64);
        assert_eq!(mesh.ports_per_router(), 5);
        assert_eq!(mesh.kind(), TopologyKind::Mesh);

        let cmesh = Topology::cmesh4x4();
        assert_eq!(cmesh.num_routers(), 16);
        assert_eq!(cmesh.num_cores(), 64);
        assert_eq!(cmesh.ports_per_router(), 8);
        assert_eq!(cmesh.kind(), TopologyKind::CMesh);
    }

    #[test]
    fn coord_round_trip() {
        let t = Topology::mesh8x8();
        for r in t.routers() {
            assert_eq!(t.router_at(t.coord(r)), r);
        }
    }

    #[test]
    fn core_router_mapping_partitions_cores() {
        let t = Topology::cmesh4x4();
        let mut seen = vec![false; t.num_cores()];
        for r in t.routers() {
            for core in t.cores_of_router(r) {
                assert_eq!(t.router_of_core(core), r);
                assert!(!seen[core.idx()], "core attached twice");
                seen[core.idx()] = true;
                assert!(usize::from(t.local_slot(core)) < t.concentration());
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn neighbor_symmetry() {
        for t in [Topology::mesh8x8(), Topology::cmesh4x4()] {
            for r in t.routers() {
                for d in DIR_PORTS {
                    if let Some(n) = t.neighbor(r, d) {
                        assert_eq!(t.neighbor(n, d.opposite()), Some(r));
                        assert_eq!(t.hop_distance(r, n), 1);
                    }
                }
            }
        }
    }

    #[test]
    fn corners_have_two_neighbors() {
        let t = Topology::mesh8x8();
        let corner = t.router_at(Coord { x: 0, y: 0 });
        let n: Vec<_> = DIR_PORTS
            .iter()
            .filter_map(|&d| t.neighbor(corner, d))
            .collect();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn hop_distance_is_a_metric() {
        let t = Topology::cmesh4x4();
        for a in t.routers() {
            assert_eq!(t.hop_distance(a, a), 0);
            for b in t.routers() {
                assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
            }
        }
        // Opposite corners of a 4×4 grid are 6 hops apart.
        assert_eq!(t.hop_distance(RouterId(0), RouterId(15)), 6);
    }

    #[test]
    #[should_panic(expected = "at least 1×1")]
    fn degenerate_grid_panics() {
        Topology::new(0, 4, 1);
    }
}
