//! The output checks: a wrong digest or a dropped packet fails the cell
//! (and so raises the failed share of the run), and the blessed file
//! covers every cell of every workload.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use dozz_bench::check::{by_label, expected_seed0, failures, Against, CellOut};
use dozz_bench::metrics::result_line;
use dozz_bench::workload::WORKLOADS;
use dozznoc_bench::regimes::{regime_trace, Regime};
use dozznoc_core::{Campaign, EngineOptions, ModelKind, ModelSuite, PolicyRegistry, Trainer};
use dozznoc_ml::FeatureSet;
use dozznoc_noc::RunReport;
use dozznoc_topology::Topology;

fn one_cell() -> (RunReport, usize) {
    let topo = Topology::mesh8x8();
    let suite = ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(1_000),
        FeatureSet::Reduced5,
    );
    let trace = regime_trace(Regime::Light, &topo, 500, 4);
    let packets = trace.len();
    let opts = EngineOptions {
        jobs: Some(NonZeroUsize::MIN),
        ..Default::default()
    };
    let mut runs = Campaign::new(topo)
        .run_trace_cells(
            &[trace],
            &[ModelKind::DozzNoc.spec()],
            &suite,
            PolicyRegistry::global(),
            &opts,
        )
        .expect("dozznoc is registered");
    (runs.remove(0).result.report, packets)
}

#[test]
fn a_correct_cell_passes_every_check() {
    let (report, packets) = one_cell();
    let cell = CellOut::new("mesh/light/dozznoc".into(), &report, packets, false);
    let digests = by_label(std::slice::from_ref(&cell));
    let against = Against {
        reference: Some(&digests),
        expected: Some(&digests),
        all_hits: false,
    };
    assert!(failures(&[cell], against).is_empty());
}

#[test]
fn a_wrong_expected_digest_fails_the_cell() {
    let (report, packets) = one_cell();
    let cell = CellOut::new("mesh/light/dozznoc".into(), &report, packets, false);
    let wrong: BTreeMap<String, u64> = [(cell.label.clone(), cell.digest ^ 1)].into();
    let found = failures(
        &[cell],
        Against {
            expected: Some(&wrong),
            ..Default::default()
        },
    );
    assert_eq!(found.len(), 1);
    let line = result_line(1, found.len() as u64, &[]);
    assert_eq!(line["correct"].as_bool(), Some(false));
    assert_eq!(line["failed"].as_u64(), Some(1));
}

#[test]
fn a_dropped_packet_fails_the_cell() {
    let (mut report, packets) = one_cell();
    report.stats.packets_delivered -= 1;
    let cell = CellOut::new("mesh/light/dozznoc".into(), &report, packets, false);
    assert!(!cell.conserved);
    assert_eq!(failures(&[cell], Against::default()).len(), 1);
}

#[test]
fn a_warm_miss_fails_the_cell() {
    let (report, packets) = one_cell();
    let cell = CellOut::new("mesh/light/dozznoc".into(), &report, packets, false);
    let against = Against {
        all_hits: true,
        ..Default::default()
    };
    assert_eq!(failures(&[cell], against).len(), 1);
}

#[test]
fn the_blessed_file_covers_every_cell_of_every_workload() {
    let expected = expected_seed0();
    let cells: Vec<usize> = WORKLOADS
        .iter()
        .map(|w| expected.get(w.name()).map_or(0, BTreeMap::len))
        .collect();
    // 2 regime traces × 3 policies; 2 topologies × 5 traces × 5 models.
    assert_eq!(cells, [6, 6, 50, 50]);
    assert_eq!(expected["headline-cold"], expected["headline-warm"]);
}
