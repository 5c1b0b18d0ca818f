//! Strongly typed identifiers for routers, cores and virtual channels.
//!
//! Using newtypes instead of bare integers prevents mixing up the two id
//! spaces of a concentrated mesh, where 64 cores map onto 16 routers.

use serde::{Deserialize, Serialize};

/// Identifier of a router (dense, `0..num_routers`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct RouterId(pub u16);

/// Identifier of a processing core (dense, `0..num_cores`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct CoreId(pub u16);

/// Virtual-channel index within an input port.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct VcId(pub u8);

impl RouterId {
    /// Index into per-router arrays.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl CoreId {
    /// Index into per-core arrays.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl VcId {
    /// Index into per-VC arrays.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Panics if `v` exceeds `u16::MAX` (in every build: a wrapped id would
/// silently alias another router).
impl From<usize> for RouterId {
    #[inline]
    fn from(v: usize) -> Self {
        RouterId(u16::try_from(v).expect("router index fits a RouterId"))
    }
}

/// Panics if `v` exceeds `u16::MAX` (in every build: a wrapped id would
/// silently alias another core).
impl From<usize> for CoreId {
    #[inline]
    fn from(v: usize) -> Self {
        CoreId(u16::try_from(v).expect("core index fits a CoreId"))
    }
}

impl core::fmt::Display for RouterId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl core::fmt::Display for CoreId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl core::fmt::Display for VcId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VC{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_round_trip() {
        assert_eq!(RouterId::from(5usize).idx(), 5);
        assert_eq!(CoreId::from(63usize).idx(), 63);
        assert_eq!(RouterId::from(usize::from(u16::MAX)).0, u16::MAX);
        assert_eq!(VcId(3).idx(), 3);
    }

    #[test]
    #[should_panic(expected = "core index fits a CoreId")]
    fn out_of_range_index_panics_instead_of_wrapping() {
        let _ = CoreId::from(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(RouterId(7).to_string(), "R7");
        assert_eq!(CoreId(12).to_string(), "C12");
        assert_eq!(VcId(1).to_string(), "VC1");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(RouterId(2) < RouterId(10));
        assert!(CoreId(0) < CoreId(1));
    }
}
