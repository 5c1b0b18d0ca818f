//! Golden file for non-paper virtual-channel layouts.
//!
//! The paper's 4 VCs × 4 flits is the only layout `run_reports.json` and
//! `idle_reports.jsonl` pin. A router numbers its input VCs by slot
//! (`port · vcs_per_port + vc`), and the switch allocator's round-robin
//! order, the first-free-VC choice and the buffer storage all follow
//! that numbering, so layouts with other VC counts and depths are the
//! runs where a change to slot bookkeeping shows. This file pins the
//! report (or livelock payload) of the baseline, PG and DozzNoC policies on both
//! topologies for `vcs_per_port` ∈ {1, 3} × `vc_depth` ∈ {1, 2, 5}.
//! Like the other golden files, the comparison is on serialized JSON
//! (one record per line), which is bit equality of every float.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! DOZZNOC_BLESS=1 cargo test --test vc_layout_goldens
//! ```

use dozznoc::noc::network::SimError;
use dozznoc::prelude::*;

use serde_json::{json, Value};

mod common;

/// Short horizon, as in `tests/determinism.rs`.
const DUR_NS: u64 = 2_000;

/// VCs per input port of the pinned layouts (the paper uses 4).
const VCS_PER_PORT: [usize; 2] = [1, 3];

/// Flit depth of one VC of the pinned layouts (the paper uses 4).
const VC_DEPTHS: [usize; 3] = [1, 2, 5];

/// Registry names of the three power-management regimes: always-on,
/// gating only, and gating plus ML-driven DVFS.
const POLICIES: [&str; 3] = ["baseline", "pg", "dozznoc"];

/// Build every golden record from the current simulator, one compact
/// JSON document per line so a divergence points at one record.
fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
        let suite = ModelSuite::train(
            &Trainer::new(topo).with_duration_ns(DUR_NS),
            FeatureSet::Reduced5,
        );
        let trace = Campaign::new(topo)
            .with_duration_ns(DUR_NS)
            .trace(Benchmark::X264);
        for vcs_per_port in VCS_PER_PORT {
            for vc_depth in VC_DEPTHS {
                let mut cfg = NocConfig::paper(topo);
                cfg.vcs_per_port = vcs_per_port;
                cfg.vc_depth = vc_depth;
                for name in POLICIES {
                    let mut policy = PolicyRegistry::global()
                        .build(&PolicySpec::new(name), &PolicyContext { suite: &suite })
                        .expect("paper models build");
                    let outcome = match Network::new(cfg).run(&trace, policy.as_mut()) {
                        Ok(report) => json!({ "report": report }),
                        Err(SimError::Livelock { in_flight }) => {
                            json!({ "livelock_in_flight": in_flight })
                        }
                        Err(e) => panic!("unexpected simulation error: {e}"),
                    };
                    let record: Value = json!({
                        "config": cfg,
                        "policy": name,
                        "outcome": outcome,
                    });
                    lines.push(serde_json::to_string(&record).expect("record serializes"));
                }
            }
        }
    }
    lines
}

#[test]
fn non_paper_vc_layouts_match_golden() {
    let mut actual = actual_lines().join("\n");
    actual.push('\n');
    common::assert_golden("vc_layout_reports.jsonl", &actual);
}
