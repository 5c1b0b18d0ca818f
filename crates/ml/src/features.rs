//! Feature-set definitions shared between the trainer and the simulator.
//!
//! The original LEAD work used 41 features; the paper's trade-off study
//! (Fig. 9 / Table IV) reduces this to five *local* features with almost
//! no loss: a bias, requests sent/received by the router's attached
//! cores, the router's cumulative off time, and the current input-buffer
//! utilization. The label is always the *next* epoch's input-buffer
//! utilization.
//!
//! This module fixes the identity and canonical ordering of every
//! feature; the simulator's feature-extract unit fills values in this
//! order, and trained weight vectors are only meaningful relative to it.

use serde::{Deserialize, Serialize};

/// Port class a per-port feature aggregates over. `Local` aggregates all
/// core-attachment slots, so the feature layout is identical for mesh and
/// cmesh routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortClass {
    /// North input/output port.
    North,
    /// South input/output port.
    South,
    /// East input/output port.
    East,
    /// West input/output port.
    West,
    /// All local (core) ports, aggregated.
    Local,
}

/// The five port classes in canonical order.
pub const PORT_CLASSES: [PortClass; 5] = [
    PortClass::North,
    PortClass::South,
    PortClass::East,
    PortClass::West,
    PortClass::Local,
];

/// Identity of a single feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureId {
    /// Constant 1 (Table IV feature 1, "array of 1's").
    Bias,
    /// Requests injected by cores attached to this router this epoch
    /// (Table IV feature 2).
    RequestsSentByLocalCores,
    /// Requests delivered to cores attached to this router this epoch
    /// (Table IV feature 3).
    RequestsReceivedByLocalCores,
    /// Responses injected by attached cores this epoch.
    ResponsesSentByLocalCores,
    /// Responses delivered to attached cores this epoch.
    ResponsesReceivedByLocalCores,
    /// Cumulative time this router has spent power-gated, normalized to
    /// elapsed time (Table IV feature 4).
    RouterTotalOffTime,
    /// Time spent power-gated during this epoch alone.
    EpochOffTime,
    /// Wake-up events so far.
    WakeupCount,
    /// Power-gate-off events so far.
    GateOffCount,
    /// Cycles this epoch the router was secured as a downstream router.
    SecuredCycles,
    /// Cycles this epoch the router was idle (empty buffers).
    IdleCycles,
    /// Mean input-buffer utilization this epoch (Table IV feature 5 —
    /// the single most predictive feature).
    CurrentIbu,
    /// Short-horizon EWMA of epoch IBU.
    IbuEwmaShort,
    /// Long-horizon EWMA of epoch IBU.
    IbuEwmaLong,
    /// Previous epoch's IBU.
    PrevEpochIbu,
    /// Peak per-cycle IBU observed this epoch.
    PeakIbu,
    /// Mean buffer occupancy of one input-port class this epoch.
    BufferOccupancy(PortClass),
    /// Flits received on one port class this epoch.
    FlitsIn(PortClass),
    /// Flits forwarded out of one port class this epoch.
    FlitsOut(PortClass),
    /// Output-link utilization of one port class this epoch.
    LinkUtilization(PortClass),
    /// Flits injected by attached cores this epoch.
    FlitsInjected,
    /// Flits ejected to attached cores this epoch.
    FlitsEjected,
    /// Total flit-hops routed this epoch.
    HopsRouted,
    /// Cycles this epoch some head flit was stalled in allocation.
    StallCycles,
    /// Cycles this epoch a send was blocked on downstream credits.
    CreditStalls,
}

impl FeatureId {
    /// Human-readable name (used in reports and Fig. 9 labels).
    pub fn name(&self) -> String {
        match self {
            FeatureId::Bias => "bias".into(),
            FeatureId::RequestsSentByLocalCores => "reqs-sent-by-local-cores".into(),
            FeatureId::RequestsReceivedByLocalCores => "reqs-recv-by-local-cores".into(),
            FeatureId::ResponsesSentByLocalCores => "resps-sent-by-local-cores".into(),
            FeatureId::ResponsesReceivedByLocalCores => "resps-recv-by-local-cores".into(),
            FeatureId::RouterTotalOffTime => "router-total-off-time".into(),
            FeatureId::EpochOffTime => "epoch-off-time".into(),
            FeatureId::WakeupCount => "wakeup-count".into(),
            FeatureId::GateOffCount => "gate-off-count".into(),
            FeatureId::SecuredCycles => "secured-cycles".into(),
            FeatureId::IdleCycles => "idle-cycles".into(),
            FeatureId::CurrentIbu => "current-ibu".into(),
            FeatureId::IbuEwmaShort => "ibu-ewma-short".into(),
            FeatureId::IbuEwmaLong => "ibu-ewma-long".into(),
            FeatureId::PrevEpochIbu => "prev-epoch-ibu".into(),
            FeatureId::PeakIbu => "peak-ibu".into(),
            FeatureId::BufferOccupancy(p) => format!("buf-occupancy-{p:?}").to_lowercase(),
            FeatureId::FlitsIn(p) => format!("flits-in-{p:?}").to_lowercase(),
            FeatureId::FlitsOut(p) => format!("flits-out-{p:?}").to_lowercase(),
            FeatureId::LinkUtilization(p) => format!("link-util-{p:?}").to_lowercase(),
            FeatureId::FlitsInjected => "flits-injected".into(),
            FeatureId::FlitsEjected => "flits-ejected".into(),
            FeatureId::HopsRouted => "hops-routed".into(),
            FeatureId::StallCycles => "stall-cycles".into(),
            FeatureId::CreditStalls => "credit-stalls".into(),
        }
    }
}

/// The two feature sets evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSet {
    /// Table IV: the five critical local features.
    Reduced5,
    /// The LEAD-style 41-feature set (DOZZNOC-41 in the ablation).
    Full41,
}

/// Canonical ordering of the full 41-feature set.
fn full41() -> Vec<FeatureId> {
    let mut v = vec![
        FeatureId::Bias,
        FeatureId::RequestsSentByLocalCores,
        FeatureId::RequestsReceivedByLocalCores,
        FeatureId::ResponsesSentByLocalCores,
        FeatureId::ResponsesReceivedByLocalCores,
        FeatureId::RouterTotalOffTime,
        FeatureId::EpochOffTime,
        FeatureId::WakeupCount,
        FeatureId::GateOffCount,
        FeatureId::SecuredCycles,
        FeatureId::IdleCycles,
        FeatureId::CurrentIbu,
        FeatureId::IbuEwmaShort,
        FeatureId::IbuEwmaLong,
        FeatureId::PrevEpochIbu,
        FeatureId::PeakIbu,
    ];
    for p in PORT_CLASSES {
        v.push(FeatureId::BufferOccupancy(p));
    }
    for p in PORT_CLASSES {
        v.push(FeatureId::FlitsIn(p));
    }
    for p in PORT_CLASSES {
        v.push(FeatureId::FlitsOut(p));
    }
    for p in PORT_CLASSES {
        v.push(FeatureId::LinkUtilization(p));
    }
    v.extend([
        FeatureId::FlitsInjected,
        FeatureId::FlitsEjected,
        FeatureId::HopsRouted,
        FeatureId::StallCycles,
        FeatureId::CreditStalls,
    ]);
    v
}

impl FeatureSet {
    /// The features of this set, in canonical order.
    pub fn ids(&self) -> Vec<FeatureId> {
        match self {
            FeatureSet::Reduced5 => vec![
                FeatureId::Bias,
                FeatureId::RequestsSentByLocalCores,
                FeatureId::RequestsReceivedByLocalCores,
                FeatureId::RouterTotalOffTime,
                FeatureId::CurrentIbu,
            ],
            FeatureSet::Full41 => full41(),
        }
    }

    /// Number of features in this set.
    pub fn len(&self) -> usize {
        match self {
            FeatureSet::Reduced5 => 5,
            FeatureSet::Full41 => 41,
        }
    }

    /// Never empty; provided for clippy's `len_without_is_empty`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Column indices of this set's features inside the Full-41 layout
    /// (used to project a 41-dimensional dataset down to this set).
    pub fn columns_in_full41(&self) -> Vec<usize> {
        let full = full41();
        self.ids()
            .iter()
            .map(|id| {
                full.iter()
                    .position(|f| f == id)
                    .expect("every set is a subset of Full41")
            })
            .collect()
    }
}

impl core::fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FeatureSet::Reduced5 => f.write_str("reduced-5"),
            FeatureSet::Full41 => f.write_str("full-41"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn full_set_has_exactly_41_distinct_features() {
        let ids = FeatureSet::Full41.ids();
        assert_eq!(ids.len(), 41);
        assert_eq!(ids.len(), FeatureSet::Full41.len());
        let distinct: BTreeSet<_> = ids.iter().map(FeatureId::name).collect();
        assert_eq!(distinct.len(), 41, "duplicate feature in Full41");
    }

    #[test]
    fn reduced_set_matches_table_iv() {
        let ids = FeatureSet::Reduced5.ids();
        assert_eq!(
            ids,
            vec![
                FeatureId::Bias,
                FeatureId::RequestsSentByLocalCores,
                FeatureId::RequestsReceivedByLocalCores,
                FeatureId::RouterTotalOffTime,
                FeatureId::CurrentIbu,
            ]
        );
        assert_eq!(ids.len(), FeatureSet::Reduced5.len());
    }

    #[test]
    fn reduced_is_subset_of_full() {
        let full: BTreeSet<_> = FeatureSet::Full41
            .ids()
            .iter()
            .map(FeatureId::name)
            .collect();
        for id in FeatureSet::Reduced5.ids() {
            assert!(full.contains(&id.name()), "{id:?} missing from Full41");
        }
    }

    #[test]
    fn columns_projection_is_consistent() {
        let cols = FeatureSet::Reduced5.columns_in_full41();
        let full = FeatureSet::Full41.ids();
        let reduced = FeatureSet::Reduced5.ids();
        for (i, &c) in cols.iter().enumerate() {
            assert_eq!(full[c], reduced[i]);
        }
        // Bias is the first column of both layouts.
        assert_eq!(cols[0], 0);
    }

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<_> = FeatureSet::Full41.ids().iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 41);
    }
}
