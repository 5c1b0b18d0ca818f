//! Tracing for the traced run: layer spans around the benchmark's calls
//! into the library, and a policy registry whose factories time the
//! policies they build.
//!
//! Everything is kept in thread-local memory. The benchmark runs every
//! workload at `jobs = 1`, where the engine executes cells inline on the
//! calling thread, so the policies' drop-time tallies land in the same
//! thread's accumulator as the spans. A plain run never enables spans
//! and uses [`PolicyRegistry::global`], so it records nothing.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use dozznoc_core::{PolicyContext, PolicyError, PolicyFactory, PolicyRegistry, PolicySpec};
use dozznoc_noc::{DecisionTrace, EpochObservation, PowerPolicy};
use dozznoc_types::{Mode, RouterId};

/// The layer a span belongs to; also the span's name in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One untimed preparation of a workload.
    Setup,
    /// One traced pass (the root of its layer spans).
    Pass,
    /// Trace generation (`crates/traffic`, `dozznoc_bench::regimes`).
    Traffic,
    /// Suite training, and the suite file the headline reuses.
    Training,
    /// One `Campaign::run_trace_cells` call.
    Engine,
    /// Summaries and CSV rendering.
    Report,
}

impl Layer {
    /// Span name in the log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Pass => "pass",
            Layer::Traffic => "traffic",
            Layer::Training => "training",
            Layer::Engine => "engine",
            Layer::Report => "report",
        }
    }
}

/// One recorded span. Times are nanoseconds since tracing was enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the log.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// What the span covers.
    pub layer: Layer,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the timed policies reported when they were dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyTally {
    /// Policies built.
    pub builds: u64,
    /// Time inside the wrapped factories' `build`, ns.
    pub build_ns: u64,
    /// Build time of policies the network never called (the engine's
    /// up-front spec validation), ns; part of `build_ns`.
    pub idle_build_ns: u64,
    /// Policies the network called, i.e. simulations run.
    pub runs: u64,
    /// `select_mode` calls.
    pub decisions: u64,
    /// Time inside `select_mode`, ns.
    pub decide_ns: u64,
    /// From the end of `build` to the policy's last call by the network
    /// (the end of the simulation), ns. Includes `decide_ns`.
    pub live_ns: u64,
    /// From the last call to the drop: the cell's remaining engine work
    /// after the simulation (the cache store, when a cache is used), ns.
    pub tail_ns: u64,
}

impl PolicyTally {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &PolicyTally) -> PolicyTally {
        PolicyTally {
            builds: self.builds - earlier.builds,
            build_ns: self.build_ns - earlier.build_ns,
            idle_build_ns: self.idle_build_ns - earlier.idle_build_ns,
            runs: self.runs - earlier.runs,
            decisions: self.decisions - earlier.decisions,
            decide_ns: self.decide_ns - earlier.decide_ns,
            live_ns: self.live_ns - earlier.live_ns,
            tail_ns: self.tail_ns - earlier.tail_ns,
        }
    }
}

struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    tally: PolicyTally,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        enabled: false,
        spans: Vec::new(),
        open: Vec::new(),
        tally: PolicyTally::default(),
    });
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(enabled: bool) {
    RECORDER.with_borrow_mut(|r| r.enabled = enabled);
}

/// Run `f` inside a span of `layer` (a plain call when recording is
/// off).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with_borrow_mut(|r| {
        r.enabled.then(|| {
            let id = r.spans.len();
            let start_ns = nanos(r.origin.elapsed());
            r.spans.push(Span {
                id,
                parent: r.open.last().copied(),
                layer,
                start_ns,
                end_ns: start_ns,
            });
            r.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with_borrow_mut(|r| {
            r.spans[id].end_ns = nanos(r.origin.elapsed());
            r.open.pop();
        });
    }
    out
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    RECORDER.with_borrow(|r| r.spans.clone())
}

/// Total duration of the spans of `layer` recorded after index `from`.
pub fn layer_ns(layer: Layer, from: usize) -> u64 {
    RECORDER.with_borrow(|r| {
        r.spans[from.min(r.spans.len())..]
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ns)
            .sum()
    })
}

/// Number of spans recorded so far (a mark for [`layer_ns`]).
pub fn span_count() -> usize {
    RECORDER.with_borrow(|r| r.spans.len())
}

/// The policy tally so far.
pub fn tally() -> PolicyTally {
    RECORDER.with_borrow(|r| r.tally)
}

/// A registry holding every built-in policy under its own name and
/// aliases, each wrapped so the policies it builds are timed. Specs,
/// slugs and therefore run-cache fingerprints are those of
/// [`PolicyRegistry::global`].
pub fn timing_registry() -> PolicyRegistry {
    let mut registry = PolicyRegistry::empty();
    for factory in PolicyRegistry::global().factories() {
        registry
            .register(Box::new(TimedFactory(factory)))
            .expect("built-in policy names are distinct");
    }
    registry
}

struct TimedFactory(&'static dyn PolicyFactory);

impl PolicyFactory for TimedFactory {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.0.aliases()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn description(&self) -> &'static str {
        self.0.description()
    }

    fn uses_ml(&self) -> bool {
        self.0.uses_ml()
    }

    fn build(
        &self,
        spec: &PolicySpec,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn PowerPolicy>, PolicyError> {
        let start = Instant::now();
        let inner = self.0.build(spec, ctx)?;
        let built = Instant::now();
        Ok(Box::new(TimedPolicy {
            inner,
            build_ns: nanos(built - start),
            built,
            decisions: 0,
            decide_ns: 0,
            last_call: Cell::new(None),
        }))
    }
}

struct TimedPolicy {
    inner: Box<dyn PowerPolicy>,
    build_ns: u64,
    built: Instant,
    decisions: u64,
    decide_ns: u64,
    /// The network calls `name` once, when it assembles the report, so
    /// the later of that and the last `select_mode` marks the end of
    /// the simulation.
    last_call: Cell<Option<Instant>>,
}

impl PowerPolicy for TimedPolicy {
    fn select_mode(&mut self, router: RouterId, obs: &EpochObservation) -> Mode {
        let start = Instant::now();
        let mode = self.inner.select_mode(router, obs);
        let end = Instant::now();
        self.decisions += 1;
        self.decide_ns += nanos(end - start);
        self.last_call.set(Some(end));
        mode
    }

    fn gating_enabled(&self) -> bool {
        self.inner.gating_enabled()
    }

    fn ml_features(&self) -> Option<usize> {
        self.inner.ml_features()
    }

    fn decision_trace(&self) -> Option<&DecisionTrace> {
        self.inner.decision_trace()
    }

    fn name(&self) -> &str {
        self.last_call.set(Some(Instant::now()));
        self.inner.name()
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let dropped = Instant::now();
        RECORDER.with_borrow_mut(|r| {
            let t = &mut r.tally;
            t.builds += 1;
            t.build_ns += self.build_ns;
            match self.last_call.get() {
                Some(last) => {
                    t.runs += 1;
                    t.decisions += self.decisions;
                    t.decide_ns += self.decide_ns;
                    t.live_ns += nanos(last - self.built);
                    t.tail_ns += nanos(dropped - last);
                }
                None => t.idle_build_ns += self.build_ns,
            }
        });
    }
}
