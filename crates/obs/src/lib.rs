//! Unified tracing + metrics for the simulation and campaign engines.
//!
//! Like `criterion-shim`, this crate is hand-rolled in-tree (the build
//! environment vendors no registry crates): a deliberately small subset of
//! the tracing-library surface, shaped around what the campaign driver,
//! the pipeline and the enumeration engine actually need.
//!
//! # Design
//!
//! Collection is scoped to a [`Recorder`] — one per campaign (or bench
//! pass) — never to the process: two campaigns running side by side in one
//! process each see exactly their own counters and spans. A thread reports
//! to the recorder its span context carries. [`Recorder::begin`] installs a
//! fresh recorder on the calling thread, and work crossing a thread
//! boundary (campaign workers, enumeration workers, stolen DFS tasks)
//! carries a [`SpanRef`] — which holds the recorder — and re-parents itself
//! with [`adopt`]. [`Recorder::finish`] uninstalls the recorder and returns
//! an [`ObsReport`] snapshot.
//!
//! A thread with no recorder is a true no-op: every entry point starts with
//! one thread-local check, no clock is read, no key string is formatted
//! ([`span_with`] takes the key lazily), and nothing allocates.
//!
//! **Spans** form a hierarchy — campaign → work item → leg → simulate →
//! combo → DFS shard — threaded through the stack by a thread-local span
//! stack. Span ids are *stable*: `id = fnv1a64(parent, name, key)`, so the
//! id of "the source-sim leg of test X" is the same in every run at every
//! thread count; completed spans are buffered thread-locally and flushed to
//! the recorder's capped sink, and the report normalises their order
//! (depth, name, key, id, start) so the JSONL trace is diffable even though
//! the OS scheduled the threads differently.
//!
//! **Counters** form a fixed registry ([`Counter`]), each tagged with a
//! determinism [`Class`]:
//!
//! * [`Class::Deterministic`] — byte-identical across thread counts,
//!   cache on/off and store warm/cold; the set CI gates on.
//! * [`Class::Scheduling`] — honest about depending on scheduling (gate
//!   waits, stolen tasks, deadline kills).
//! * [`Class::Process`] — process-scoped monotone state (model-registry
//!   traffic, fault firings) that earlier work in the same process can
//!   have absorbed already.
//!
//! A few hot counters that existing pin tests read *per thread* (the
//! full-traversal counter of `telechat_exec::rel`) are promoted here as
//! [`LocalMetric`]s: thread-local cells, always counted, never gated.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telechat_common::fnv1a64;

// ---------------------------------------------------------------------------
// Recorders.
// ---------------------------------------------------------------------------

/// One recording window's sink: counters, attribution rows, histograms and
/// completed spans. Cloning shares the sink.
#[derive(Clone)]
pub struct Recorder(Arc<Sink>);

struct Sink {
    counters: [AtomicU64; Counter::ALL.len()],
    /// The labelled attribution rows (see [`add_labelled`]).
    labelled: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<Vec<(String, Class, Histogram)>>,
    /// Completed spans flushed by all threads, capped at [`EVENT_CAP`].
    events: Mutex<Vec<SpanEvent>>,
    /// Spans dropped because the sink was full.
    dropped: AtomicU64,
    /// The window's time origin.
    epoch: Instant,
}

/// Whether the calling thread is recording. One thread-local check; the
/// hot-path guard of every other entry point.
#[inline]
pub fn enabled() -> bool {
    TRACE.with(|t| t.borrow().rec.is_some())
}

/// Runs `f` on the calling thread's recorder, if it has one.
#[inline]
fn with_recorder(f: impl FnOnce(&Sink)) {
    TRACE.with(|t| {
        if let Some(rec) = &t.borrow().rec {
            f(&rec.0);
        }
    });
}

impl Recorder {
    /// Opens a recording window: a fresh recorder, installed on the calling
    /// thread (and every thread that adopts a span from it) until
    /// [`Recorder::finish`]. Opening another replaces it.
    pub fn begin() -> Recorder {
        let rec = Recorder(Arc::new(Sink {
            counters: [const { AtomicU64::new(0) }; Counter::ALL.len()],
            labelled: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }));
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            t.stack.clear();
            switch(&mut t, Some(rec.clone()));
        });
        rec
    }

    /// The calling thread's recorder, if it is recording.
    pub fn active() -> Option<Recorder> {
        TRACE.with(|t| t.borrow().rec.clone())
    }

    /// Closes the window: uninstalls the recorder from the calling thread
    /// and snapshots everything recorded. The calling thread's spans must
    /// all be closed (dropped) by now.
    pub fn finish(self) -> ObsReport {
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            if t.rec.as_ref().is_some_and(|r| Arc::ptr_eq(&r.0, &self.0)) {
                t.stack.clear();
                switch(&mut t, None);
            }
        });
        self.0.report()
    }

    /// Current value of a registry counter (live progress, diagnostics).
    pub fn get(&self, c: Counter) -> u64 {
        self.0.counters[c as usize].load(Ordering::Relaxed)
    }
}

impl Sink {
    /// Snapshots the window, taking the completed spans out of the sink.
    fn report(&self) -> ObsReport {
        let mut spans = std::mem::take(&mut *lock(&self.events));
        // Normalise: start times relative to the earliest span, order by the
        // stable key — scheduling decides none of the output.
        let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        for s in &mut spans {
            s.start_ns -= origin;
        }
        spans.sort_by(|a, b| {
            (a.depth, a.name, &a.key, a.id, a.start_ns).cmp(&(b.depth, b.name, &b.key, b.id, b.start_ns))
        });

        let mut phases: Vec<PhaseRow> = Vec::new();
        for s in &spans {
            match phases.iter_mut().find(|p| p.name == s.name) {
                Some(p) => {
                    p.count += 1;
                    p.total_ns += u128::from(s.dur_ns);
                }
                None => phases.push(PhaseRow {
                    name: s.name.to_string(),
                    count: 1,
                    total_ns: u128::from(s.dur_ns),
                }),
            }
        }

        let mut counters: Vec<CounterRow> = Counter::ALL
            .iter()
            .map(|&c| CounterRow {
                name: c.name().to_string(),
                class: c.class(),
                value: self.counters[c as usize].load(Ordering::Relaxed),
            })
            .collect();

        // Labelled attribution rows, sorted by name.
        counters.extend(lock(&self.labelled).iter().map(|(name, &value)| CounterRow {
            name: name.clone(),
            class: Class::Deterministic,
            value,
        }));

        // Histograms: the merged engine distributions fed through
        // [`merge_hist`]/[`record_hist`], plus per-phase latency distributions
        // derived from the spans already collected (no extra hot-path cost).
        let mut hists: Vec<HistRow> = lock(&self.hists)
            .iter()
            .map(|(name, class, h)| HistRow {
                name: name.clone(),
                class: *class,
                hist: h.clone(),
            })
            .collect();
        for s in &spans {
            match hists
                .iter_mut()
                .find(|h| h.name.strip_prefix("phase.") == Some(s.name))
            {
                Some(row) => row.hist.record(s.dur_ns),
                None => {
                    let mut h = Histogram::new();
                    h.record(s.dur_ns);
                    hists.push(HistRow {
                        name: format!("phase.{}", s.name),
                        class: Class::Scheduling,
                        hist: h,
                    });
                }
            }
        }
        hists.sort_by(|a, b| a.name.cmp(&b.name));

        ObsReport {
            counters,
            phases,
            hists,
            spans,
            dropped_events: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Moves a thread's buffered spans into the sink.
    fn flush(&self, buf: &mut Vec<SpanEvent>) {
        if buf.is_empty() {
            return;
        }
        let mut sink = lock(&self.events);
        let room = EVENT_CAP.saturating_sub(sink.len());
        if buf.len() > room {
            self.dropped.fetch_add((buf.len() - room) as u64, Ordering::Relaxed);
            buf.truncate(room);
        }
        sink.append(buf);
    }
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// Determinism class of a counter (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Byte-identical across thread counts, cache on/off, store warm/cold.
    Deterministic,
    /// Depends on scheduling or configuration knobs that never change
    /// results (thread count, cache state).
    Scheduling,
    /// Process-scoped monotone state a previous window may have absorbed.
    Process,
}

impl Class {
    /// The row tag the table renderer and the JSONL sink print.
    pub fn tag(self) -> &'static str {
        match self {
            Class::Deterministic => "count",
            Class::Scheduling => "sched",
            Class::Process => "proc",
        }
    }
}

macro_rules! counters {
    ($($variant:ident => ($name:literal, $class:ident),)*) => {
        /// The counter registry (fixed set; see module docs).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $(#[doc = $name] $variant,)*
        }

        impl Counter {
            /// Every counter, in registry (and render) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The dotted metric name.
            pub fn name(self) -> &'static str {
                match self { $(Counter::$variant => $name,)* }
            }

            /// The determinism class.
            pub fn class(self) -> Class {
                match self { $(Counter::$variant => Class::$class,)* }
            }
        }
    };
}

counters! {
    CampaignTests => ("campaign.tests", Deterministic),
    CampaignWorkItems => ("campaign.work_items", Deterministic),
    CampaignPositives => ("campaign.positives", Deterministic),
    CampaignResumed => ("campaign.resumed", Deterministic),
    SimCandidates => ("sim.candidates", Deterministic),
    SimAllowed => ("sim.allowed", Deterministic),
    SimPruned => ("sim.pruned_candidates", Deterministic),
    SimFullTraversals => ("sim.full_traversals", Deterministic),
    SimStealTasks => ("sim.steal_tasks", Scheduling),
    CacheGateWaits => ("cache.gate_waits", Scheduling),
    CatSessions => ("cat.combo_sessions", Scheduling),
    CampaignRetries => ("campaign.retries", Scheduling),
    CampaignDeadlineKills => ("campaign.deadline_kills", Scheduling),
    CampaignPanics => ("campaign.panics", Scheduling),
    CampaignParked => ("campaign.parked", Scheduling),
    RegistryLoads => ("registry.loads", Process),
    RegistryCompiles => ("registry.compiles", Process),
    FaultFirings => ("fault.firings", Process),
}

/// Adds `n` to a registry counter of the calling thread's recorder. No-op
/// (one thread-local check) while off.
#[inline]
pub fn add(c: Counter, n: u64) {
    with_recorder(|r| {
        r.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    });
}

// ---------------------------------------------------------------------------
// Labelled counters (dynamic attribution registry).
// ---------------------------------------------------------------------------

/// Adds `n` to the labelled counter `name` — an attribution row whose label
/// set is only known at run time (`.cat` rule names, prune sites, coverage
/// classes) — interning the label on first use. No-op (one thread-local
/// check) while off. Labelled totals are rendered `count`-class: callers
/// only feed them deterministic charges (rule tallies, prune-site charge
/// sums, coverage tallies), never scheduling artefacts.
pub fn add_labelled(name: &str, n: u64) {
    with_recorder(|r| {
        let mut rows = lock(&r.labelled);
        match rows.get_mut(name) {
            Some(v) => *v += n,
            None => {
                rows.insert(name.to_string(), n);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// A mergeable log2-bucketed histogram. A value lands in the bucket of its
/// bit length (`0` → bucket 0, otherwise `64 - v.leading_zeros()`), so the
/// merge of per-thread histograms is an elementwise sum — commutative and
/// associative, hence byte-identical regardless of which worker recorded
/// which sample. Quantiles are answered from the cumulative bucket counts
/// (the bucket's inclusive upper bound, clamped to the observed min/max):
/// deterministic approximations, not order-dependent estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` in (elementwise; merge order never shows).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts (index = bit length), for codecs.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Rebuilds a histogram from its persisted parts (codec use). The
    /// caller is trusted to pass a consistent snapshot — the parts came
    /// from [`Histogram::buckets`] and the scalar accessors.
    pub fn from_parts(buckets: [u64; 65], count: u64, sum: u64, min: u64, max: u64) -> Histogram {
        Histogram {
            buckets,
            count,
            sum,
            // `min()` reads 0 for an empty histogram; restore the sentinel.
            min: if count == 0 { u64::MAX } else { min },
            max,
        }
    }

    /// Deterministic approximate quantile (`0.0 ..= 1.0`): the inclusive
    /// upper bound of the first bucket whose cumulative count reaches the
    /// rank, clamped to the observed `[min, max]`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let hi = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return hi.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// The one-line rendering the metrics table prints.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "empty".into();
        }
        format!(
            "n={} min={} p50={} p90={} p99={} max={}",
            self.count,
            self.min(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.max
        )
    }
}

/// Records one sample into the named histogram. No-op while off.
pub fn record_hist(name: &str, class: Class, v: u64) {
    if !enabled() {
        return;
    }
    let mut h = Histogram::new();
    h.record(v);
    merge_hist(name, class, &h);
}

/// Merges a pre-aggregated histogram (e.g. a `SimResult`'s per-combo DFS
/// sizes) into the named entry. No-op while off or when `h` is empty.
pub fn merge_hist(name: &str, class: Class, h: &Histogram) {
    if h.is_empty() {
        return;
    }
    with_recorder(|r| {
        let mut reg = lock(&r.hists);
        match reg.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, existing)) => existing.merge(h),
            None => reg.push((name.to_string(), class, h.clone())),
        }
    });
}

// ---------------------------------------------------------------------------
// Thread-local metrics (always counted, never gated).
// ---------------------------------------------------------------------------

/// Metrics kept per thread because existing pin tests read per-thread
/// deltas (spawned enumeration workers report their own contribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalMetric {
    /// Full-graph acyclicity/topological traversals — the counter the
    /// zero-full-traversal pins in `telechat_exec` assert stays flat.
    FullTraversals,
}

thread_local! {
    static LOCAL_FULL_TRAVERSALS: Cell<u64> = const { Cell::new(0) };
}

/// Adds to this thread's cell. Unconditional: local metrics back
/// invariants (pinned-zero accounting), not just telemetry.
#[inline]
pub fn local_add(m: LocalMetric, n: u64) {
    match m {
        LocalMetric::FullTraversals => LOCAL_FULL_TRAVERSALS.with(|c| c.set(c.get() + n)),
    }
}

/// This thread's current cell value (monotone).
pub fn local_get(m: LocalMetric) -> u64 {
    match m {
        LocalMetric::FullTraversals => LOCAL_FULL_TRAVERSALS.with(Cell::get),
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One completed span, as flushed to the sink and emitted to JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stable id: `fnv1a64(parent, name, key)` (never 0).
    pub id: u64,
    /// Parent span id, 0 at the root.
    pub parent: u64,
    /// Phase name (`campaign`, `work-item`, `source-sim`, `combo`, …).
    pub name: &'static str,
    /// Instance key (test:profile, combo index, …); empty when the parent
    /// already identifies the instance.
    pub key: String,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// Start, nanoseconds relative to the window origin.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// A handle for re-parenting work that hops threads: the innermost open
/// span, if any, and the recorder it reports to.
#[derive(Clone)]
pub struct SpanRef {
    parent: Option<(u64, u32)>,
    rec: Recorder,
}

struct TlTrace {
    /// Open spans on this thread: (id, depth). Adopted parents count.
    stack: Vec<(u64, u32)>,
    /// Completed spans awaiting a flush to `rec`.
    buf: Vec<SpanEvent>,
    /// The recorder this thread reports to; `None` while off.
    rec: Option<Recorder>,
}

thread_local! {
    static TRACE: RefCell<TlTrace> = const {
        RefCell::new(TlTrace {
            stack: Vec::new(),
            buf: Vec::new(),
            rec: None,
        })
    };
}

/// Sink cap: a campaign-scale trace is thousands of spans; a runaway
/// producer degrades to counting drops instead of exhausting memory.
const EVENT_CAP: usize = 1 << 20;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The stable id of a span (exposed so tests can predict ids).
pub fn span_id(parent: u64, name: &str, key: &str) -> u64 {
    let mut h = fnv1a64(0, &parent.to_le_bytes());
    h = fnv1a64(h, name.as_bytes());
    h = fnv1a64(h, key.as_bytes());
    h.max(1) // 0 means "no parent"
}

/// An open span; records itself into the thread's recorder when dropped.
/// The no-op variant (subsystem off) is a `None` and costs nothing to drop.
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    key: String,
    depth: u32,
    start: Instant,
}

/// Opens a span with an empty key.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    enter(name, String::new())
}

/// Opens a span whose key is built lazily — the closure never runs while
/// the subsystem is off, so hot paths pay no formatting.
#[inline]
pub fn span_with(name: &'static str, key: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span(None);
    }
    enter(name, key())
}

/// Opens a span keyed by an index (combo number, task id).
#[inline]
pub fn span_idx(name: &'static str, idx: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    enter(name, idx.to_string())
}

fn enter(name: &'static str, key: String) -> Span {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let (parent, parent_depth) = t.stack.last().copied().map_or((0, None), |(id, d)| (id, Some(d)));
        let depth = parent_depth.map_or(0, |d| d + 1);
        let id = span_id(parent, name, &key);
        t.stack.push((id, depth));
        Span(Some(ActiveSpan {
            id,
            parent,
            name,
            key,
            depth,
            start: Instant::now(),
        }))
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = u64::try_from(a.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            let t = &mut *t;
            // Spans close LIFO on one thread; tolerate (and self-heal
            // from) a leaked guard rather than corrupting the stack.
            if let Some(pos) = t.stack.iter().rposition(|&(id, _)| id == a.id) {
                t.stack.truncate(pos);
            }
            let Some(rec) = &t.rec else { return };
            let start_ns =
                u64::try_from(a.start.duration_since(rec.0.epoch).as_nanos()).unwrap_or(u64::MAX);
            t.buf.push(SpanEvent {
                id: a.id,
                parent: a.parent,
                name: a.name,
                key: a.key,
                depth: a.depth,
                start_ns,
                dur_ns,
            });
            if t.stack.is_empty() {
                rec.0.flush(&mut t.buf);
            }
        });
    }
}

/// The current span context — the innermost open span and the recorder —
/// for handing to another thread; `None` while off.
pub fn current() -> Option<SpanRef> {
    TRACE.with(|t| {
        let t = t.borrow();
        Some(SpanRef {
            parent: t.stack.last().copied(),
            rec: t.rec.clone()?,
        })
    })
}

/// Guard that re-parents this thread under a [`SpanRef`] — and points it
/// at that span's recorder — until dropped; spans opened meanwhile nest
/// below it. `None` (subsystem off on the spawning thread) adopts nothing.
pub struct Adopt(Option<Adopted>);

/// What an [`Adopt`] guard restores.
struct Adopted {
    depth: usize,
    rec: Option<Recorder>,
}

/// Adopts a [`SpanRef`] on the current thread (see [`Adopt`]).
pub fn adopt(parent: Option<SpanRef>) -> Adopt {
    let Some(p) = parent else { return Adopt(None) };
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let saved = Adopted {
            depth: t.stack.len(),
            rec: switch(&mut t, Some(p.rec)),
        };
        t.stack.extend(p.parent);
        Adopt(Some(saved))
    })
}

impl Drop for Adopt {
    fn drop(&mut self) {
        let Some(saved) = self.0.take() else { return };
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            t.stack.truncate(saved.depth);
            switch(&mut t, saved.rec);
        });
    }
}

/// Points the calling thread at `rec`, first flushing its buffered spans to
/// the recorder it leaves, which it returns.
fn switch(t: &mut TlTrace, rec: Option<Recorder>) -> Option<Recorder> {
    if let Some(old) = &t.rec {
        old.0.flush(&mut t.buf);
    }
    std::mem::replace(&mut t.rec, rec)
}

// ---------------------------------------------------------------------------
// Report and sinks.
// ---------------------------------------------------------------------------

/// One counter row of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Dotted metric name.
    pub name: String,
    /// Determinism class.
    pub class: Class,
    /// Total over the window.
    pub value: u64,
}

/// Per-phase wall-time aggregate (spans summed by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Total wall time, nanoseconds (phases overlap across threads; the
    /// sum is *work* time, not elapsed time).
    pub total_ns: u128,
}

/// One named histogram of a report, carrying its determinism class
/// ([`Class::Deterministic`] for value-domain distributions like per-combo
/// DFS sizes, [`Class::Scheduling`] for wall-clock latency distributions).
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    /// Dotted metric name (`sim.combo_candidates`, `phase.compile`, …).
    pub name: String,
    /// Determinism class: only bucket *counts* of `Deterministic` rows are
    /// gate-comparable across thread counts.
    pub class: Class,
    /// The merged distribution.
    pub hist: Histogram,
}

/// The programmatic snapshot [`Recorder::finish`] returns: counters, per-phase time
/// and the normalised span list. Embedded by `bench_relops` into
/// `BENCH_relops.json` and rendered by `CampaignResult`'s `--metrics`
/// table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Registry counters (every registered counter, zero or not), then the
    /// labelled attribution rows sorted by name, plus any rows absorbed
    /// afterwards ([`ObsReport::push_counter`]).
    pub counters: Vec<CounterRow>,
    /// Wall-time per span name.
    pub phases: Vec<PhaseRow>,
    /// Named distributions: engine histograms merged through
    /// [`merge_hist`]/[`record_hist`] and per-phase latency histograms
    /// derived from the spans, sorted by name.
    pub hists: Vec<HistRow>,
    /// Every completed span, normalised (relative starts, stable order).
    pub spans: Vec<SpanEvent>,
    /// Spans dropped at the sink cap (0 in any sane run).
    pub dropped_events: u64,
}

impl ObsReport {
    /// Appends a counter row (used to absorb `CacheStats`/`StoreStats`
    /// totals that are collected outside the registry).
    pub fn push_counter(&mut self, name: impl Into<String>, class: Class, value: u64) {
        self.counters.push(CounterRow {
            name: name.into(),
            class,
            value,
        });
    }

    /// The value of a counter row, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The deterministic-class counters — the invariance-gate subset that
    /// must be byte-identical across thread counts.
    pub fn deterministic_counters(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|c| c.class == Class::Deterministic)
            .map(|c| (c.name.clone(), c.value))
            .collect()
    }

    /// Total nanoseconds of the named phase, 0 if absent.
    pub fn phase_ns(&self, name: &str) -> u128 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.total_ns)
    }

    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|h| h.name == name).map(|h| &h.hist)
    }

    /// The deterministic-class histograms — like
    /// [`ObsReport::deterministic_counters`], the subset whose full bucket
    /// contents must be byte-identical across thread counts and cache/store
    /// configurations.
    pub fn deterministic_hists(&self) -> Vec<(String, Histogram)> {
        self.hists
            .iter()
            .filter(|h| h.class == Class::Deterministic)
            .map(|h| (h.name.clone(), h.hist.clone()))
            .collect()
    }

    /// The metric rows of this report (counters first, then phase times),
    /// for [`render_metrics`].
    pub fn rows(&self) -> Vec<MetricRow> {
        let mut rows: Vec<MetricRow> = self
            .counters
            .iter()
            .map(|c| MetricRow {
                kind: c.class.tag(),
                name: c.name.clone(),
                value: c.value.to_string(),
            })
            .collect();
        for h in &self.hists {
            rows.push(MetricRow {
                kind: "hist",
                name: h.name.clone(),
                value: h.hist.summary(),
            });
        }
        for p in &self.phases {
            rows.push(MetricRow {
                kind: "time",
                name: p.name.clone(),
                value: format!("{} ×{}", fmt_ms(p.total_ns), p.count),
            });
        }
        if self.dropped_events > 0 {
            rows.push(MetricRow {
                kind: "sched",
                name: "obs.dropped_events".into(),
                value: self.dropped_events.to_string(),
            });
        }
        rows
    }

    /// Writes the machine-readable JSONL trace: one `meta` line, one line
    /// per span, one line per counter. Every line is a complete JSON
    /// object (`python3 -m json.tool` validates each).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(
            w,
            "{{\"type\":\"meta\",\"format\":1,\"spans\":{},\"counters\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.counters.len(),
            self.dropped_events
        )?;
        for s in &self.spans {
            writeln!(
                w,
                "{{\"type\":\"span\",\"id\":\"{:016x}\",\"parent\":\"{:016x}\",\"name\":{},\"key\":{},\"depth\":{},\"start_us\":{},\"dur_us\":{}}}",
                s.id,
                s.parent,
                json_str(s.name),
                json_str(&s.key),
                s.depth,
                s.start_ns / 1_000,
                s.dur_ns / 1_000
            )?;
        }
        for c in &self.counters {
            writeln!(
                w,
                "{{\"type\":\"metric\",\"name\":{},\"class\":\"{}\",\"value\":{}}}",
                json_str(&c.name),
                c.class.tag(),
                c.value
            )?;
        }
        for h in &self.hists {
            writeln!(
                w,
                "{{\"type\":\"hist\",\"name\":{},\"class\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                json_str(&h.name),
                h.class.tag(),
                h.hist.count(),
                h.hist.sum(),
                h.hist.min(),
                h.hist.quantile(0.5),
                h.hist.quantile(0.9),
                h.hist.quantile(0.99),
                h.hist.max()
            )?;
        }
        Ok(())
    }

    /// A compact JSON object (counters + phase times) for embedding in
    /// bench reports.
    pub fn to_json(&self, indent: &str) -> String {
        let mut out = String::new();
        let pad = format!("{indent}  ");
        out.push_str("{\n");
        let _ = writeln!(out, "{pad}\"counters\": {{");
        for (i, c) in self.counters.iter().enumerate() {
            let comma = if i + 1 == self.counters.len() { "" } else { "," };
            let _ = writeln!(out, "{pad}  {}: {}{comma}", json_str(&c.name), c.value);
        }
        let _ = writeln!(out, "{pad}}},");
        let _ = writeln!(out, "{pad}\"phases\": {{");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 == self.phases.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{pad}  {}: {{\"count\": {}, \"total_ms\": {:.3}}}{comma}",
                json_str(&p.name),
                p.count,
                p.total_ns as f64 / 1e6
            );
        }
        let _ = writeln!(out, "{pad}}},");
        let _ = writeln!(out, "{pad}\"hists\": {{");
        for (i, h) in self.hists.iter().enumerate() {
            let comma = if i + 1 == self.hists.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{pad}  {}: {{\"class\": \"{}\", \"count\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}{comma}",
                json_str(&h.name),
                h.class.tag(),
                h.hist.count(),
                h.hist.min(),
                h.hist.quantile(0.5),
                h.hist.quantile(0.9),
                h.hist.quantile(0.99),
                h.hist.max()
            );
        }
        let _ = writeln!(out, "{pad}}},");
        let _ = writeln!(out, "{pad}\"dropped_events\": {}", self.dropped_events);
        let _ = write!(out, "{indent}}}");
        out
    }
}

/// Parses one `"type":"span"` JSONL line back into a [`SpanEvent`] (the
/// schema-check half of the trace round-trip; keys are read in the order
/// [`ObsReport::write_jsonl`] writes them). `None` for non-span lines or
/// malformed input.
///
/// Fields are consumed left to right through a cursor, and string values
/// are scanned with full escape handling (`\"`, `\\`, `\n`, `\uXXXX`, …),
/// so a span key or attribution label containing quotes, backslashes or a
/// text fragment that *looks* like a later field tag can never truncate or
/// misalign the parse.
pub fn span_from_jsonl(line: &str) -> Option<SpanEvent> {
    /// Advances past `"key":"` and unescapes the string value.
    fn str_field(cur: &mut &str, key: &str) -> Option<String> {
        let tag = format!("\"{key}\":\"");
        let at = cur.find(&tag)? + tag.len();
        let rest = &cur[at..];
        let mut out = String::new();
        let mut it = rest.char_indices();
        loop {
            let (i, c) = it.next()?;
            match c {
                '"' => {
                    *cur = &rest[i + 1..];
                    return Some(out);
                }
                '\\' => match it.next()?.1 {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = (&mut it).take(4).map(|(_, c)| c).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }
    /// Advances past `"key":` and returns the bare numeric token.
    fn num_field(cur: &mut &str, key: &str) -> Option<u64> {
        let tag = format!("\"{key}\":");
        let at = cur.find(&tag)? + tag.len();
        let rest = &cur[at..];
        let end = rest.find([',', '}'])?;
        let v = rest[..end].parse().ok()?;
        *cur = &rest[end..];
        Some(v)
    }
    let mut cur = line;
    if str_field(&mut cur, "type")? != "span" {
        return None;
    }
    Some(SpanEvent {
        id: u64::from_str_radix(&str_field(&mut cur, "id")?, 16).ok()?,
        parent: u64::from_str_radix(&str_field(&mut cur, "parent")?, 16).ok()?,
        // Leaked so the borrowed-name field round-trips; schema checks
        // parse a bounded number of lines.
        name: Box::leak(str_field(&mut cur, "name")?.into_boxed_str()),
        key: str_field(&mut cur, "key")?,
        depth: u32::try_from(num_field(&mut cur, "depth")?).ok()?,
        start_ns: num_field(&mut cur, "start_us")?.saturating_mul(1_000),
        dur_ns: num_field(&mut cur, "dur_us")?.saturating_mul(1_000),
    })
}

/// One row of the human metrics table: a kind tag (`count`/`sched`/
/// `proc`/`time`/`rate`), a dotted name and a preformatted value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Row tag; deterministic rows are tagged `count`.
    pub kind: &'static str,
    /// Dotted metric name.
    pub name: String,
    /// Preformatted value.
    pub value: String,
}

/// Renders metric rows as the aligned two-space-indented table every sink
/// shares (`CampaignResult`'s `metrics:` block, `--metrics`).
pub fn render_metrics(rows: &[MetricRow]) -> String {
    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(0).max(24);
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(out, "  {:5}  {:name_w$}  {:>14}", r.kind, r.name, r.value);
    }
    out
}

/// Milliseconds with three decimals from a nanosecond total.
fn fmt_ms(ns: u128) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Minimal JSON string quoting (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let rec = Recorder::begin();
        // A thread that adopted no span context records nothing, not even
        // into a window open elsewhere in the process.
        std::thread::spawn(|| {
            assert!(!enabled());
            add(Counter::SimCandidates, 5);
            let ran = Cell::new(false);
            let s = span_with("x", || {
                ran.set(true);
                "k".into()
            });
            drop(s);
            assert!(!ran.get(), "key closures never run while off");
            assert!(current().is_none());
        })
        .join()
        .unwrap();
        assert_eq!(rec.get(Counter::SimCandidates), 0);
        assert!(rec.finish().spans.is_empty());
        assert!(!enabled(), "finish uninstalls the recorder");
    }

    #[test]
    fn labelled_adds_are_gated_off() {
        let rec = Recorder::begin();
        std::thread::spawn(|| {
            add_labelled("rule.leaf.off", 7);
            record_hist("off.hist", Class::Deterministic, 1);
        })
        .join()
        .unwrap();
        let report = rec.finish();
        assert_eq!(report.counter("rule.leaf.off"), None);
        assert!(report.hist("off.hist").is_none());
    }

    #[test]
    fn counters_and_spans_round_trip_through_a_window() {
        let rec = Recorder::begin();
        add(Counter::SimCandidates, 3);
        add(Counter::SimCandidates, 4);
        add(Counter::SimStealTasks, 2);
        {
            let _root = span("campaign");
            let _leg = span_with("work-item", || "SB:clang".into());
        }
        let report = rec.finish();
        assert_eq!(report.counter("sim.candidates"), Some(7));
        assert_eq!(report.counter("sim.steal_tasks"), Some(2));
        assert_eq!(report.spans.len(), 2);
        let root = &report.spans[0];
        let item = &report.spans[1];
        assert_eq!((root.name, root.depth, root.parent), ("campaign", 0, 0));
        assert_eq!((item.name, item.depth, item.parent), ("work-item", 1, root.id));
        assert_eq!(item.id, span_id(root.id, "work-item", "SB:clang"));
        assert!(report.phase_ns("campaign") >= report.phase_ns("work-item"));
        // Deterministic subset excludes the scheduling-class counter.
        assert!(report
            .deterministic_counters()
            .iter()
            .all(|(n, _)| n != "sim.steal_tasks"));
    }

    #[test]
    fn span_ids_are_stable_across_windows_and_threads() {
        let run = || {
            let rec = Recorder::begin();
            let parent = {
                let _root = span("campaign");
                let parent = current();
                let id = parent.as_ref().unwrap().parent.unwrap().0;
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let _a = adopt(parent);
                        let _w = span_with("work-item", || "T:p".into());
                    });
                });
                id
            };
            (rec.finish(), parent)
        };
        let (a, root_a) = run();
        let (b, root_b) = run();
        assert_eq!(root_a, root_b);
        let ids = |r: &ObsReport| r.spans.iter().map(|s| (s.id, s.parent, s.depth)).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b), "normalised span lists are diffable");
        // The adopted child nests under the root even though it ran on
        // another thread.
        assert_eq!(a.spans[1].parent, root_a);
        assert_eq!(a.spans[1].depth, 1);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let rec = Recorder::begin();
        {
            let _root = span("campaign");
            let _child = span_with("work-item", || "a\"b:c".into());
        }
        let report = rec.finish();
        let mut buf = Vec::new();
        report.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut spans = Vec::new();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            if let Some(s) = span_from_jsonl(line) {
                spans.push(s);
            }
        }
        assert_eq!(spans.len(), report.spans.len());
        for (parsed, orig) in spans.iter().zip(&report.spans) {
            assert_eq!(parsed.id, orig.id);
            assert_eq!(parsed.parent, orig.parent);
            assert_eq!(parsed.depth, orig.depth);
            assert_eq!(parsed.name, orig.name);
            assert_eq!(parsed.key, orig.key, "escaped keys round-trip exactly");
        }
        assert!(text.contains("\"type\":\"metric\""));
    }

    #[test]
    fn hostile_span_keys_round_trip_exactly() {
        // Keys engineered to break naive parsers: embedded field tags,
        // backslashes, control characters, non-ASCII — the shapes a rule
        // label from an arbitrary `.cat` file could take.
        let keys = [
            "plain",
            "a\"b:c",
            "x\"depth\":9,\"y",
            "back\\slash\\",
            "nl\ntab\tcr\r",
            "ctrl\u{1}\u{1f}",
            "unicode-éλ∀",
            "\"}{\"",
        ];
        let rec = Recorder::begin();
        {
            let _root = span("campaign");
            for k in keys {
                let _s = span_with("work-item", || k.to_string());
            }
        }
        let report = rec.finish();
        let mut buf = Vec::new();
        report.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed: Vec<SpanEvent> = text.lines().filter_map(span_from_jsonl).collect();
        assert_eq!(parsed.len(), report.spans.len());
        for (p, o) in parsed.iter().zip(&report.spans) {
            assert_eq!((p.id, p.parent, p.depth, p.name, &p.key), (o.id, o.parent, o.depth, o.name, &o.key));
            assert_eq!((p.start_ns, p.dur_ns), (o.start_ns / 1_000 * 1_000, o.dur_ns / 1_000 * 1_000));
        }
    }

    #[test]
    fn histogram_buckets_merge_commutatively() {
        let samples = [0u64, 1, 1, 2, 3, 7, 8, 200, 5_000, u64::MAX];
        let mut whole = Histogram::new();
        for s in samples {
            whole.record(s);
        }
        // Any split into shards, merged in any order, is byte-identical.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, s) in samples.iter().enumerate() {
            if i % 2 == 0 { a.record(*s) } else { b.record(*s) }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(whole.count(), samples.len() as u64);
        assert_eq!(whole.min(), 0);
        assert_eq!(whole.max(), u64::MAX);
        // Quantiles are deterministic bucket bounds within [min, max].
        assert!(whole.quantile(0.5) >= 3 && whole.quantile(0.5) <= 7);
        assert_eq!(whole.quantile(1.0), u64::MAX);
        let empty = Histogram::new();
        assert_eq!((empty.min(), empty.max(), empty.quantile(0.5)), (0, 0, 0));
        assert_eq!(empty.summary(), "empty");
        // Codec round trip through the persisted parts.
        let back = Histogram::from_parts(*whole.buckets(), whole.count(), whole.sum(), whole.min(), whole.max());
        assert_eq!(back, whole);
        let back_empty = Histogram::from_parts(*empty.buckets(), 0, 0, empty.min(), empty.max());
        assert_eq!(back_empty, empty);
    }

    #[test]
    fn labelled_counters_reset_per_window_and_sort_in_reports() {
        let rec = Recorder::begin();
        add_labelled("rule.leaf.zz", 2);
        add_labelled("rule.leaf.aa", 1);
        add_labelled("rule.leaf.zz", 3);
        let mut h = Histogram::new();
        h.record(4);
        h.record(9);
        merge_hist("sim.combo_candidates", Class::Deterministic, &h);
        record_hist("sim.combo_candidates", Class::Deterministic, 1);
        let report = rec.finish();
        assert_eq!(report.counter("rule.leaf.zz"), Some(5));
        assert_eq!(report.counter("rule.leaf.aa"), Some(1));
        let det = report.deterministic_counters();
        let aa = det.iter().position(|(n, _)| n == "rule.leaf.aa").unwrap();
        let zz = det.iter().position(|(n, _)| n == "rule.leaf.zz").unwrap();
        assert!(aa < zz, "labelled rows sort by name: {det:?}");
        let combo = report.hist("sim.combo_candidates").unwrap();
        assert_eq!((combo.count(), combo.min(), combo.max()), (3, 1, 9));
        assert_eq!(report.deterministic_hists().len(), 1);

        // The next window starts clean.
        let fresh = Recorder::begin().finish();
        assert_eq!(fresh.counter("rule.leaf.zz"), None);
        assert!(fresh.hist("sim.combo_candidates").is_none());
    }

    #[test]
    fn concurrent_windows_are_isolated() {
        // Two windows open at once on two threads, each fanning out to a
        // worker of its own: each report holds exactly its own rows.
        let both_open = Arc::new(std::sync::Barrier::new(2));
        let run = |n: u64| {
            let both_open = both_open.clone();
            std::thread::spawn(move || {
                let rec = Recorder::begin();
                both_open.wait();
                {
                    let _root = span("campaign");
                    let ctx = current();
                    std::thread::scope(|s| {
                        s.spawn(|| {
                            let _a = adopt(ctx);
                            let _w = span_idx("work-item", n);
                            add(Counter::SimCandidates, n);
                            add_labelled("rule.leaf.x", n);
                        });
                    });
                }
                rec.finish()
            })
        };
        let (a, b) = (run(3), run(5));
        for (report, n) in [(a.join().unwrap(), 3), (b.join().unwrap(), 5)] {
            assert_eq!(report.counter("sim.candidates"), Some(n));
            assert_eq!(report.counter("rule.leaf.x"), Some(n));
            assert_eq!(report.spans.len(), 2, "{:?}", report.spans);
            assert_eq!(report.spans[1].key, n.to_string());
        }
    }

    #[test]
    fn finish_derives_phase_latency_histograms_from_spans() {
        let rec = Recorder::begin();
        {
            let _root = span("campaign");
            let _a = span_idx("combo", 0);
        }
        {
            let _root2 = span("campaign");
        }
        let report = rec.finish();
        let camp = report.hist("phase.campaign").unwrap();
        assert_eq!(camp.count(), 2);
        assert_eq!(report.hist("phase.combo").unwrap().count(), 1);
        // Latency distributions are wall-clock: scheduling class, never in
        // the deterministic gate set.
        assert!(report
            .deterministic_hists()
            .iter()
            .all(|(n, _)| !n.starts_with("phase.")));
        // And they render as `hist` rows.
        assert!(report
            .rows()
            .iter()
            .any(|r| r.kind == "hist" && r.name == "phase.campaign"));
    }

    #[test]
    fn local_metrics_are_per_thread_and_ungated() {
        let base = local_get(LocalMetric::FullTraversals);
        local_add(LocalMetric::FullTraversals, 2);
        assert_eq!(local_get(LocalMetric::FullTraversals), base + 2);
        let other = std::thread::spawn(|| local_get(LocalMetric::FullTraversals))
            .join()
            .unwrap();
        assert_eq!(other, 0, "fresh threads start at zero");
    }

    #[test]
    fn render_is_aligned_and_tagged() {
        let rows = vec![
            MetricRow { kind: "count", name: "sim.candidates".into(), value: "7".into() },
            MetricRow { kind: "time", name: "campaign".into(), value: "1.250ms ×1".into() },
            MetricRow { kind: "rate", name: "throughput".into(), value: "3.1 tests/s".into() },
        ];
        let table = render_metrics(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("  count  sim.candidates"));
        assert!(lines[1].starts_with("  time   campaign"));
        let width = lines[0].chars().count();
        assert!(
            lines.iter().all(|l| l.chars().count() == width),
            "{table}"
        );
    }
}
