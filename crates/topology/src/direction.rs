//! Mesh directions and router port numbering.

use serde::{Deserialize, Serialize};

/// The four mesh directions. `Local` injection/ejection ports are modelled
/// separately (see [`Port`]) because a concentrated mesh has several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Toward decreasing y.
    North,
    /// Toward increasing y.
    South,
    /// Toward increasing x.
    East,
    /// Toward decreasing x.
    West,
}

/// All four directions, in port-index order.
pub const DIR_PORTS: [Direction; 4] = [
    Direction::North,
    Direction::South,
    Direction::East,
    Direction::West,
];

impl Direction {
    /// The opposite direction (the input port a flit sent this way arrives
    /// on at the neighbour).
    #[inline]
    #[must_use]
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// (dx, dy) unit step of this direction.
    #[inline]
    pub const fn step(self) -> (i32, i32) {
        match self {
            Direction::North => (0, -1),
            Direction::South => (0, 1),
            Direction::East => (1, 0),
            Direction::West => (-1, 0),
        }
    }

    /// Stable port index (0–3) of this direction.
    #[inline]
    pub const fn port_index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
        }
    }

    /// Inverse of [`Direction::port_index`].
    #[inline]
    pub const fn from_port_index(i: usize) -> Option<Direction> {
        match i {
            0 => Some(Direction::North),
            1 => Some(Direction::South),
            2 => Some(Direction::East),
            3 => Some(Direction::West),
            _ => None,
        }
    }
}

impl core::fmt::Display for Direction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A router port: either one of the four mesh directions or a local
/// core-attachment slot (`0..concentration`).
///
/// Port indices are laid out `[N, S, E, W, Local0, Local1, …]` so a router
/// with concentration `c` has `4 + c` ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Port {
    /// Inter-router port in a mesh direction.
    Dir(Direction),
    /// Core-attachment slot.
    Local(u8),
}

impl Port {
    /// Dense index of this port for a router of any concentration.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Port::Dir(d) => d.port_index(),
            Port::Local(slot) => 4 + slot as usize,
        }
    }

    /// Inverse of [`Port::index`] for a router with `concentration` local
    /// slots.
    pub const fn from_index(i: usize, concentration: usize) -> Option<Port> {
        if i < 4 {
            match Direction::from_port_index(i) {
                Some(d) => Some(Port::Dir(d)),
                None => None,
            }
        } else if i < 4 + concentration && i - 4 <= u8::MAX as usize {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "checked against u8::MAX just above; `u8::try_from` is not const"
            )]
            let slot = (i - 4) as u8;
            Some(Port::Local(slot))
        } else {
            None
        }
    }

    /// True for core-attachment ports.
    #[inline]
    pub const fn is_local(self) -> bool {
        matches!(self, Port::Local(_))
    }
}

impl core::fmt::Display for Port {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Port::Dir(d) => write!(f, "{d}"),
            Port::Local(s) => write!(f, "L{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involution() {
        for d in DIR_PORTS {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn steps_cancel_with_opposite() {
        for d in DIR_PORTS {
            let (dx, dy) = d.step();
            let (ox, oy) = d.opposite().step();
            assert_eq!(dx + ox, 0);
            assert_eq!(dy + oy, 0);
        }
    }

    #[test]
    fn port_index_round_trip() {
        for c in [1usize, 4] {
            for i in 0..4 + c {
                let p = Port::from_index(i, c).expect("index below 4 + concentration is valid");
                assert_eq!(p.index(), i);
            }
            assert_eq!(Port::from_index(4 + c, c), None);
        }
    }

    #[test]
    fn port_layout_matches_doc() {
        assert_eq!(Port::Dir(Direction::North).index(), 0);
        assert_eq!(Port::Dir(Direction::West).index(), 3);
        assert_eq!(Port::Local(0).index(), 4);
        assert_eq!(Port::Local(3).index(), 7);
        assert!(Port::Local(0).is_local());
        assert!(!Port::Dir(Direction::East).is_local());
    }
}
