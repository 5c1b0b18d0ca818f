//! Run-level statistics and the final report.

use serde::{Deserialize, Serialize};

use dozznoc_power::EnergyReport;
use dozznoc_types::SimTime;

use crate::histogram::LatencyHistogram;

/// Version stamp of the serialized [`RunReport`] format *and* of the
/// simulator behavior it records. Content-addressed stores of
/// serialized reports (the experiment engine's run cache) mix this into
/// their keys, so bump it whenever either changes:
///
/// * a field is added to / removed from / re-ordered in [`RunReport`],
///   [`RunStats`], [`RouterSummary`] or anything they embed, or
/// * an *intentional* behavioral change lands (one that re-blesses the
///   `tests/determinism.rs` goldens) — a stale cache entry from the
///   previous behavior would otherwise keep masquerading as current.
pub const REPORT_FORMAT_VERSION: u32 = 2;

/// Counters accumulated over one run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Packets handed to injection queues.
    pub packets_injected: u64,
    /// Packets fully delivered (tail ejected).
    pub packets_delivered: u64,
    /// Flits delivered.
    pub flits_delivered: u64,
    /// Sum of packet latencies in base ticks (injection to tail
    /// ejection, source queueing included).
    pub latency_sum_ticks: u128,
    /// Worst packet latency in base ticks.
    pub latency_max_ticks: u64,
    /// Sum of *network* latencies in base ticks (head flit entering the
    /// source router's buffer to tail ejection — the metric NoC papers
    /// usually plot, excluding NI source-queueing).
    pub net_latency_sum_ticks: u128,
    /// Worst network latency in base ticks.
    pub net_latency_max_ticks: u64,
    /// Log-bucketed distribution of network latencies (P50/P95/P99
    /// reporting; the DozzNoC costs live in the tail).
    pub net_latency_hist: LatencyHistogram,
    /// Time the last flit was delivered.
    pub last_delivery: SimTime,
    /// Per-active-mode epoch-decision counts (Fig. 7: the distribution
    /// of predicted DVFS modes). Indexed by `Mode::rank()`.
    pub mode_selections: [u64; 5],
    /// Epoch boundaries processed (denominator of the Fig. 7 shares).
    pub epochs: u64,
    /// Invariant violations: releases of a downstream-secure reference
    /// that no matching secure ever took. Always 0 in a correct
    /// simulator; nonzero means a flow-control accounting bug that
    /// would previously have been masked by a saturating subtraction.
    pub secure_underflows: u64,
}

impl RunStats {
    /// Fold another run's counters into this one.
    ///
    /// Every field is a sum, a max, or a mergeable distribution, so the
    /// merge is exact and order-independent: partitioning a run's
    /// deliveries arbitrarily and merging the partial `RunStats` yields
    /// the whole run's stats bit-for-bit. This is the aggregation
    /// primitive of campaign summaries (`dozz-repro latency`).
    pub fn merge(&mut self, other: &RunStats) {
        self.packets_injected += other.packets_injected;
        self.packets_delivered += other.packets_delivered;
        self.flits_delivered += other.flits_delivered;
        self.latency_sum_ticks += other.latency_sum_ticks;
        self.latency_max_ticks = self.latency_max_ticks.max(other.latency_max_ticks);
        self.net_latency_sum_ticks += other.net_latency_sum_ticks;
        self.net_latency_max_ticks = self.net_latency_max_ticks.max(other.net_latency_max_ticks);
        self.net_latency_hist.merge(&other.net_latency_hist);
        if other.last_delivery.ticks() > self.last_delivery.ticks() {
            self.last_delivery = other.last_delivery;
        }
        for (a, b) in self.mode_selections.iter_mut().zip(&other.mode_selections) {
            *a += b;
        }
        self.epochs += other.epochs;
        self.secure_underflows += other.secure_underflows;
    }

    /// Mean packet latency in nanoseconds.
    pub fn avg_latency_ns(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.latency_sum_ticks as f64
            / self.packets_delivered as f64
            / dozznoc_types::TICKS_PER_NS as f64
    }

    /// Worst packet latency in nanoseconds.
    pub fn max_latency_ns(&self) -> f64 {
        self.latency_max_ticks as f64 / dozznoc_types::TICKS_PER_NS as f64
    }

    /// Mean network latency (excluding NI source-queueing), nanoseconds.
    pub fn avg_net_latency_ns(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.net_latency_sum_ticks as f64
            / self.packets_delivered as f64
            / dozznoc_types::TICKS_PER_NS as f64
    }

    /// Network throughput: delivered flits per nanosecond of completion
    /// time.
    pub fn throughput_flits_per_ns(&self) -> f64 {
        let t = self.last_delivery.as_ns();
        if t <= 0.0 {
            0.0
        } else {
            self.flits_delivered as f64 / t
        }
    }

    /// Fig. 7 shares: fraction of epoch decisions per active mode.
    pub fn mode_distribution(&self) -> [f64; 5] {
        let total: u64 = self.mode_selections.iter().sum();
        let mut out = [0.0; 5];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(&self.mode_selections) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }
}

/// Per-router activity summary (spatial heatmaps, diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RouterSummary {
    /// Fraction of the run spent power-gated.
    pub off_fraction: f64,
    /// Flit-hops routed through this router.
    pub hops: u64,
    /// Leakage energy billed, joules.
    pub static_j: f64,
    /// Traffic energy billed, joules.
    pub dynamic_j: f64,
    /// Wake-up events.
    pub wakeups: u64,
}

/// Everything a finished run reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy that drove the run.
    pub policy: String,
    /// Trace that was injected.
    pub trace: String,
    /// Tick the simulation finished at (all flits drained).
    pub finished_at: SimTime,
    /// Network statistics.
    pub stats: RunStats,
    /// Energy totals.
    pub energy: EnergyReport,
    /// Per-router activity, indexed by `RouterId`.
    pub per_router: Vec<RouterSummary>,
}

impl RunReport {
    /// Static energy relative to another run (Fig. 8 normalization).
    pub fn static_energy_vs(&self, baseline: &RunReport) -> f64 {
        self.energy.static_j / baseline.energy.static_j.max(f64::MIN_POSITIVE)
    }

    /// Dynamic energy (incl. ML overhead) relative to another run.
    pub fn dynamic_energy_vs(&self, baseline: &RunReport) -> f64 {
        self.energy.dynamic_with_ml_j() / baseline.energy.dynamic_with_ml_j().max(f64::MIN_POSITIVE)
    }

    /// Throughput relative to another run.
    pub fn throughput_vs(&self, baseline: &RunReport) -> f64 {
        self.stats.throughput_flits_per_ns()
            / baseline
                .stats
                .throughput_flits_per_ns()
                .max(f64::MIN_POSITIVE)
    }

    /// Mean *network* latency relative to another run (the paper's
    /// latency metric).
    pub fn latency_vs(&self, baseline: &RunReport) -> f64 {
        self.stats.avg_net_latency_ns() / baseline.stats.avg_net_latency_ns().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_types::TICKS_PER_NS;

    #[test]
    fn latency_and_throughput_math() {
        let s = RunStats {
            packets_delivered: 2,
            flits_delivered: 10,
            latency_sum_ticks: (TICKS_PER_NS * 30) as u128, // 10 ns + 20 ns
            latency_max_ticks: TICKS_PER_NS * 20,
            last_delivery: SimTime::from_ticks(TICKS_PER_NS * 100),
            ..Default::default()
        };
        assert!((s.avg_latency_ns() - 15.0).abs() < 1e-9);
        assert!((s.max_latency_ns() - 20.0).abs() < 1e-9);
        assert!((s.throughput_flits_per_ns() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let s = RunStats::default();
        assert_eq!(s.avg_latency_ns(), 0.0);
        assert_eq!(s.throughput_flits_per_ns(), 0.0);
        assert_eq!(s.mode_distribution(), [0.0; 5]);
    }

    #[test]
    fn merge_of_parts_equals_whole() {
        // Split a synthetic run's deliveries into two partitions and
        // merge: every field must reassemble exactly.
        let mut whole = RunStats::default();
        let mut a = RunStats::default();
        let mut b = RunStats::default();
        for i in 0..100u64 {
            let lat = 17 + i * 13;
            let part = if i % 3 == 0 { &mut a } else { &mut b };
            for s in [&mut whole, part] {
                s.packets_injected += 1;
                s.packets_delivered += 1;
                s.flits_delivered += 5;
                s.latency_sum_ticks += lat as u128;
                s.latency_max_ticks = s.latency_max_ticks.max(lat);
                s.net_latency_sum_ticks += (lat - 7) as u128;
                s.net_latency_max_ticks = s.net_latency_max_ticks.max(lat - 7);
                s.net_latency_hist.record(lat - 7);
                s.last_delivery = SimTime::from_ticks(1000 + i);
                s.mode_selections[(i % 5) as usize] += 1;
                s.epochs += 1;
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Merge order must not matter either.
        let mut flipped = b;
        flipped.merge(&a);
        assert_eq!(flipped, whole);
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let mut s = RunStats {
            packets_delivered: 3,
            latency_max_ticks: 99,
            ..Default::default()
        };
        s.net_latency_hist.record(42);
        s.last_delivery = SimTime::from_ticks(7);
        let mut empty = RunStats::default();
        empty.merge(&s);
        assert_eq!(empty, s);
        let before = s.clone();
        s.merge(&RunStats::default());
        assert_eq!(s, before);
    }

    #[test]
    fn mode_distribution_normalizes() {
        let s = RunStats {
            mode_selections: [1, 0, 1, 0, 2],
            ..Default::default()
        };
        let d = s.mode_distribution();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((d[4] - 0.5).abs() < 1e-12);
    }
}
