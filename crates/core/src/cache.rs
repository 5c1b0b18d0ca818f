//! Content-addressed run cache: every simulation is a pure function of
//! its inputs, so its [`RunReport`] can be keyed by a fingerprint of
//! those inputs and replayed from disk instead of re-simulated.
//!
//! ## Key derivation
//!
//! A cell's [`Fingerprint`] is a stable 64-bit FNV-1a hash over
//! everything the report depends on:
//!
//! 1. [`REPORT_FORMAT_VERSION`] — bumped on schema *or* intentional
//!    behavior changes (the same events that re-bless the determinism
//!    goldens),
//! 2. this crate's version (belt and braces for refactors that forget
//!    the stamp),
//! 3. the serialized [`NocConfig`] (topology, VCs, epoch, T-Idle,
//!    pipeline depth, routing order, wake punching, tick limit),
//! 4. the serialized weights of all three trained models in the
//!    [`ModelSuite`] (λ, validation MSE and epoch size included),
//! 5. the [`dozznoc_traffic::Trace::digest`] of the exact (benchmark,
//!    seed, duration, load-scale) trace content, and
//! 6. the policy slug ([`crate::registry::PolicySpec::slug`]; for the
//!    paper models this equals `ModelKind::slug`, so fingerprints and
//!    warm caches survive the registry redesign byte-for-byte —
//!    parameterized specs render their sorted key/value pairs into the
//!    slug, so distinct parameterizations never collide).
//!
//! Items 1–4 are shared by every cell of a campaign, so the engine
//! hashes them once into a [`Fnv64`] base state and forks it per cell
//! (5–6). Anything *not* in the key must not influence reports: jobs
//! count, telemetry sinks and the sanitizer are all observational.
//!
//! ## Store format and invalidation
//!
//! Entries live as `<fingerprint>.json` under the store directory
//! (`results/.runcache/` for `dozz-repro`), each a `CachedRun`
//! envelope: the fingerprint and human-readable key fields are stored
//! alongside the report, and [`RunCache::get`] re-validates them on
//! every hit so a 64-bit collision (or a hand-copied file) degrades to
//! a miss instead of a wrong report. Unparseable entries are treated as
//! misses and rewritten. The store is append-only — invalidation is
//! purely by key change — so `rm -r results/.runcache` is the only
//! cleanup operation, and it is always safe.
//!
//! Reports round-trip bit-identically: floats serialize as their
//! shortest round-tripping decimal and parse back exactly, which the
//! warm-cache case of `tests/determinism.rs` asserts byte-for-byte.

use std::fs;
use std::path::{Path, PathBuf};

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use dozznoc_noc::{NocConfig, RunReport, REPORT_FORMAT_VERSION};

use crate::training::ModelSuite;

/// Incremental FNV-1a hasher with a stable, platform-independent
/// output. `Copy`, so a partially-fed state can be forked: the engine
/// feeds the campaign-wide inputs once and branches per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 {
            state: Self::OFFSET,
        }
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Feed a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feed a string, length-prefixed so adjacent fields cannot alias
    /// (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A cell's content address. Formats as 16 lowercase hex digits — the
/// on-disk file stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

impl core::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Hash the campaign-wide fingerprint inputs (format version, crate
/// version, simulator config, trained weights) into a forkable base
/// state. Per-cell inputs are added by [`cell_fingerprint`].
pub fn campaign_base(cfg: &NocConfig, suite: &ModelSuite) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(REPORT_FORMAT_VERSION));
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(&serde_json::to_string(cfg).expect("NocConfig always serializes"));
    h.write_str(&suite.dozznoc.to_json());
    h.write_str(&suite.lead.to_json());
    h.write_str(&suite.turbo.to_json());
    h
}

/// Fork a campaign base with one cell's trace digest and policy slug
/// (a `ModelKind::slug` or a `PolicySpec::slug` — for the paper models
/// the two are byte-identical).
pub fn cell_fingerprint(base: Fnv64, trace_digest: u64, policy: &str) -> Fingerprint {
    let mut h = base;
    h.write_u64(trace_digest);
    h.write_str(policy);
    Fingerprint(h.finish())
}

/// Hit/miss/store counters of one [`RunCache`], cheap to copy out for
/// logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that fell through to simulation.
    pub misses: u64,
    /// Reports written (persist failures are not counted — the cache is
    /// strictly best-effort).
    pub stores: u64,
}

/// On-disk envelope of one cached report. The key fields double as the
/// collision check and as human-readable provenance for anyone poking
/// at the store with `jq`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CachedRun {
    /// [`REPORT_FORMAT_VERSION`] at store time.
    format: u32,
    /// The full fingerprint, re-checked against the file's key on load.
    fingerprint: String,
    /// Policy slug of the cached cell (field name `model` is frozen:
    /// it is the on-disk envelope schema).
    model: String,
    /// Trace name of the cached cell.
    trace: String,
    /// The report itself.
    report: RunReport,
}

/// A content-addressed store of [`RunReport`]s in one directory.
///
/// All methods take `&self` and the counters are atomic: one cache is
/// shared by every worker of a scheduled campaign, and distinct
/// fingerprints map to distinct files so concurrent writers never
/// contend on an entry. Same-fingerprint races (two processes warming
/// the same cell) are harmless: both write identical bytes via a
/// temp-file rename.
#[derive(Debug)]
pub struct RunCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl RunCache {
    /// A cache over `dir`. The directory is created lazily on the first
    /// store, so opening a cache that will only ever miss touches
    /// nothing.
    pub fn open(dir: impl Into<PathBuf>) -> RunCache {
        RunCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        // Monotonic telemetry counters: a stale read only skews the
        // reported hit rate, never control flow.
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fp}.json"))
    }

    /// Look up a cell. A hit must match the fingerprint, format
    /// version, policy slug and trace name recorded in the envelope;
    /// anything else — missing file, parse failure, collision — is a
    /// miss.
    pub fn get(&self, fp: Fingerprint, policy: &str, trace_name: &str) -> Option<RunReport> {
        let hit = self.load(fp, policy, trace_name);
        // Counters order nothing; the cache payload is synchronized by
        // the filesystem.
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn load(&self, fp: Fingerprint, policy: &str, trace_name: &str) -> Option<RunReport> {
        let raw = fs::read_to_string(self.entry_path(fp)).ok()?;
        let entry: CachedRun = serde_json::from_str(&raw).ok()?;
        let valid = entry.format == REPORT_FORMAT_VERSION
            && entry.fingerprint == fp.to_string()
            && entry.model == policy
            && entry.trace == trace_name;
        valid.then_some(entry.report)
    }

    /// Persist a freshly simulated cell. Best-effort: any I/O failure
    /// leaves the cache cold for this cell and the campaign result
    /// untouched.
    pub fn put(&self, fp: Fingerprint, policy: &str, report: &RunReport) {
        let entry = CachedRun {
            format: REPORT_FORMAT_VERSION,
            fingerprint: fp.to_string(),
            model: policy.to_string(),
            trace: report.trace.clone(),
            report: report.clone(),
        };
        let Ok(json) = serde_json::to_string_pretty(&entry) else {
            return;
        };
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        // Write-then-rename so a concurrent reader never sees a torn
        // entry (it would shrug it off as a miss, but why make it). The
        // temp name must be unique per *call*, not just per process:
        // two threads warming the same fingerprint would otherwise
        // share one temp file, and the first rename could publish the
        // second writer's half-written bytes (tests/stress_schedule.rs
        // reproduces exactly that).
        static TMP_SALT: AtomicU64 = AtomicU64::new(0);
        // The counter only feeds a unique file name; no data is
        // published through it.
        let salt = TMP_SALT.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{fp}.{}.{salt}.tmp", std::process::id()));
        if fs::write(&tmp, json).is_ok() && fs::rename(&tmp, self.entry_path(fp)).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::training::Trainer;
    use dozznoc_ml::FeatureSet;
    use dozznoc_topology::Topology;
    use dozznoc_traffic::{Benchmark, Trace, TraceGenerator};

    fn tiny_suite(topo: Topology) -> ModelSuite {
        ModelSuite::train(
            &Trainer::new(topo).with_duration_ns(2_000),
            FeatureSet::Reduced5,
        )
    }

    fn tiny_trace(topo: Topology) -> Trace {
        TraceGenerator::new(topo)
            .with_duration_ns(2_000)
            .generate(Benchmark::Fft)
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dozznoc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_is_stable_and_prefix_safe() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(
            a.finish(),
            b.finish(),
            "length prefix must prevent aliasing"
        );
        // Known-answer: FNV-1a of "a" (offset ^ 'a') * prime, after the
        // 8-byte length prefix — just assert determinism across calls.
        let mut c = Fnv64::new();
        c.write_str("ab");
        c.write_str("c");
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn fingerprint_formats_as_16_hex_digits() {
        assert_eq!(Fingerprint(0xdead_beef).to_string(), "00000000deadbeef");
        assert_eq!(Fingerprint(u64::MAX).to_string(), "ffffffffffffffff");
    }

    #[test]
    fn fingerprints_separate_every_key_field() {
        let topo = Topology::mesh8x8();
        let suite = tiny_suite(topo);
        let cfg = NocConfig::paper(topo);
        let trace = tiny_trace(topo);
        let base = campaign_base(&cfg, &suite);

        let fp = cell_fingerprint(base, trace.digest(), "dozznoc");
        // Same inputs → same fingerprint.
        assert_eq!(
            fp,
            cell_fingerprint(campaign_base(&cfg, &suite), trace.digest(), "dozznoc")
        );
        // Policy, trace, and config all separate.
        assert_ne!(fp, cell_fingerprint(base, trace.digest(), "baseline"));
        // Parameterized specs of one policy separate from the defaults.
        assert_ne!(
            fp,
            cell_fingerprint(base, trace.digest(), "dozznoc?epoch=250")
        );
        assert_ne!(
            fp,
            cell_fingerprint(base, trace.compress(2).digest(), "dozznoc")
        );
        let other_cfg = cfg.with_t_idle(16);
        assert_ne!(
            fp,
            cell_fingerprint(campaign_base(&other_cfg, &suite), trace.digest(), "dozznoc")
        );
    }

    #[test]
    fn round_trips_a_report_and_counts() {
        let topo = Topology::mesh8x8();
        let suite = tiny_suite(topo);
        let trace = tiny_trace(topo);
        let report = crate::experiment::run_model(
            NocConfig::paper(topo),
            &trace,
            ModelKind::Baseline,
            &suite,
        );

        let dir = temp_store("roundtrip");
        let cache = RunCache::open(&dir);
        let fp = cell_fingerprint(
            campaign_base(&NocConfig::paper(topo), &suite),
            trace.digest(),
            ModelKind::Baseline.slug(),
        );
        assert!(cache.get(fp, "baseline", &trace.name).is_none());
        cache.put(fp, "baseline", &report);
        let back = cache
            .get(fp, "baseline", &trace.name)
            .expect("stored entry hits");
        // Byte-identical round trip, floats included.
        assert_eq!(
            serde_json::to_string(&back).expect("report serializes"),
            serde_json::to_string(&report).expect("report serializes"),
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_envelope_is_a_miss() {
        let topo = Topology::mesh8x8();
        let suite = tiny_suite(topo);
        let trace = tiny_trace(topo);
        let report = crate::experiment::run_model(
            NocConfig::paper(topo),
            &trace,
            ModelKind::Baseline,
            &suite,
        );
        let dir = temp_store("mismatch");
        let cache = RunCache::open(&dir);
        let fp = Fingerprint(42);
        cache.put(fp, "baseline", &report);
        // Wrong policy or wrong trace name → miss, not a wrong report.
        assert!(cache.get(fp, "dozznoc", &trace.name).is_none());
        assert!(cache.get(fp, "baseline", "not-fft").is_none());
        // A parameterized slug of the same policy is a different key.
        assert!(cache.get(fp, "baseline?x=1", &trace.name).is_none());
        // Corrupt entry → miss.
        fs::write(cache.entry_path(fp), "{torn").expect("test write");
        assert!(cache.get(fp, "baseline", &trace.name).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
