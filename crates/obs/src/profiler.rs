//! Phase-attributed wall-clock profiler — the one instrumentation primitive.
//!
//! The profiler answers "where does local time go" with the phase
//! vocabulary of the paper's breakdown figures. Every instrumented site
//! holds exactly one [`profile`] guard (collective sites: [`profile_edge`]),
//! and that guard feeds both observability sinks from one clock pair:
//!
//! * **One level knob**, `KRYST_PROF` ([`Level`]): `1` for aggregates,
//!   `trace` for aggregates plus distributed trace spans, off otherwise.
//!   When off, entering a guard is one relaxed load — no clock read, no
//!   thread-local access — and golden traces are bit-identical at every
//!   level because solver results never read profiler state.
//! * **Exclusive time.** A guard records its elapsed time *minus* the guards
//!   nested inside it on the same thread, so phase totals partition the
//!   instrumented wall time (an AMG level excludes the coarser levels; a
//!   GCRO-DR eigensolve under `recycle_setup` excludes its LU/QR/eig
//!   kernels, which land in `small_dense`). Guards close in LIFO order on
//!   their thread, as RAII scoping gives.
//! * **Spans from the same clocks.** At the trace level the closing guard
//!   also pushes a [`crate::span::TraceSpan`] into the thread's span ring.
//! * **Lock-free aggregates** — each slot is a handful of relaxed atomics.
//!
//! Use [`profile`] for the global instance, or carry an explicit
//! [`Profiler`] for isolated measurements:
//!
//! ```
//! use kryst_obs::profiler::{Phase, Profiler};
//! let prof = Profiler::new(true);
//! {
//!     let _t = prof.timed(Phase::Spmv);
//!     // ... kernel work ...
//! }
//! assert_eq!(prof.snapshot().phase(Phase::Spmv).unwrap().count, 1);
//! ```

use crate::span::{self, NO_SEQ};
use crate::wire::WireStats;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of log2 latency buckets per phase (bucket `i` holds samples with
/// `ilog2(ns) == i`, the last bucket is a catch-all for >= 2^31 ns).
pub const HIST_BUCKETS: usize = 32;

/// Maximum number of distinct AMG levels tracked individually; deeper levels
/// fold into the last per-level slot.
pub const MAX_PRECOND_LEVELS: usize = 8;

/// Slots before the per-level ones (one per named [`Phase`] variant).
const NAMED_SLOTS: usize = 16;

/// Total number of phase slots (and span kind codes).
pub const NUM_SLOTS: usize = NAMED_SLOTS + MAX_PRECOND_LEVELS;

/// A solver phase the profiler attributes time to — also the kind of every
/// distributed trace span.
///
/// The named variants match the paper-style breakdown table; AMG V-cycle
/// work is additionally attributed per level via [`Phase::PrecondLevel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Sparse matrix-(block-)vector products.
    Spmv,
    /// Halo exchange accounting and boundary-row compute; on a transport,
    /// one exchange (span `detail` = scalar entries received).
    Halo,
    /// Block orthogonalization Gram products and updates.
    OrthGram,
    /// Global reduction work: all-reduce bodies (span `detail` = butterfly
    /// stage count) and projected-op dots.
    Reduction,
    /// Preconditioner application (whole apply).
    Precond,
    /// Small dense kernels: eigensolves, QR/LU factorizations.
    SmallDense,
    /// Recycle-space construction/refresh in GCRO-DR: solve setup, the
    /// recycle refresh, and the deflation eigensolve.
    RecycleSetup,
    /// Matrix-free (stencil) operator applies — the zero-index-streaming
    /// alternative to [`Phase::Spmv`].
    SpmvMf,
    /// Low-precision (f32-storage) preconditioner applies, in place of
    /// [`Phase::Precond`].
    PrecondLp,
    /// Split-phase reduction: the whole `ireduce_start`→`finish` window,
    /// less the work nested inside it (span `detail` = stage count). The
    /// portion of reduction latency a pipelined iteration *hides*; exposed
    /// latency stays under [`Phase::Reduction`].
    ReductionOverlap,
    /// Agglomerated AMG coarse solve: the coarse-grid direct solve of an
    /// apply whose agglomeration policy fired (its transport round trip is
    /// the three `Coarse*` stages below).
    CoarseAgglom,
    /// One solver (block) iteration's Krylov-layer work not claimed by a
    /// nested phase (span `detail` = iteration index).
    Iteration,
    /// A layout redistribution (the coarse-agglomeration gather/scatter
    /// primitive; span `detail` = rows received).
    Redistribute,
    /// Agglomerated coarse solve: gather onto the subset.
    CoarseGather,
    /// Agglomerated coarse solve: the subset direct solve.
    CoarseSolve,
    /// Agglomerated coarse solve: scatter back to all ranks.
    CoarseScatter,
    /// Per-level AMG cycle work (smoother + residual/transfer at level `l`).
    PrecondLevel(usize),
}

impl Phase {
    /// Stable slot code: the profiler slot index and the span kind code of
    /// the flat/JSON trace encodings.
    pub fn code(self) -> u8 {
        (match self {
            Phase::Spmv => 0,
            Phase::Halo => 1,
            Phase::OrthGram => 2,
            Phase::Reduction => 3,
            Phase::Precond => 4,
            Phase::SmallDense => 5,
            Phase::RecycleSetup => 6,
            Phase::SpmvMf => 7,
            Phase::PrecondLp => 8,
            Phase::ReductionOverlap => 9,
            Phase::CoarseAgglom => 10,
            Phase::Iteration => 11,
            Phase::Redistribute => 12,
            Phase::CoarseGather => 13,
            Phase::CoarseSolve => 14,
            Phase::CoarseScatter => 15,
            Phase::PrecondLevel(l) => NAMED_SLOTS + l.min(MAX_PRECOND_LEVELS - 1),
        }) as u8
    }

    /// Inverse of [`Phase::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Phase> {
        Some(match code {
            0 => Phase::Spmv,
            1 => Phase::Halo,
            2 => Phase::OrthGram,
            3 => Phase::Reduction,
            4 => Phase::Precond,
            5 => Phase::SmallDense,
            6 => Phase::RecycleSetup,
            7 => Phase::SpmvMf,
            8 => Phase::PrecondLp,
            9 => Phase::ReductionOverlap,
            10 => Phase::CoarseAgglom,
            11 => Phase::Iteration,
            12 => Phase::Redistribute,
            13 => Phase::CoarseGather,
            14 => Phase::CoarseSolve,
            15 => Phase::CoarseScatter,
            c if (c as usize) < NUM_SLOTS => Phase::PrecondLevel(c as usize - NAMED_SLOTS),
            _ => return None,
        })
    }

    /// Every phase, in code order (for per-phase report tables).
    pub fn all() -> impl Iterator<Item = Phase> {
        (0..NUM_SLOTS as u8).filter_map(Phase::from_code)
    }

    /// Stable display name used in snapshots, reports, traces, and JSON
    /// dumps.
    pub fn name(self) -> String {
        match self {
            Phase::Spmv => "spmv".to_string(),
            Phase::Halo => "halo".to_string(),
            Phase::OrthGram => "orth/gram".to_string(),
            Phase::Reduction => "reduction".to_string(),
            Phase::Precond => "precond".to_string(),
            Phase::SmallDense => "small_dense".to_string(),
            Phase::RecycleSetup => "recycle_setup".to_string(),
            Phase::SpmvMf => "spmv_mf".to_string(),
            Phase::PrecondLp => "precond_lp".to_string(),
            Phase::ReductionOverlap => "reduction_overlap".to_string(),
            Phase::CoarseAgglom => "coarse_agglom".to_string(),
            Phase::Iteration => "iteration".to_string(),
            Phase::Redistribute => "redistribute".to_string(),
            Phase::CoarseGather => "coarse_gather".to_string(),
            Phase::CoarseSolve => "coarse_solve".to_string(),
            Phase::CoarseScatter => "coarse_scatter".to_string(),
            Phase::PrecondLevel(l) => format!("precond/l{}", l.min(MAX_PRECOND_LEVELS - 1)),
        }
    }
}

/// How much the instrumentation records (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Guards are one relaxed load; nothing is recorded.
    Off = 0,
    /// Per-phase aggregates.
    Prof = 1,
    /// Aggregates plus per-thread trace spans.
    Trace = 2,
}

impl Level {
    /// Parse a `KRYST_PROF` value: `1`/`true` → [`Level::Prof`], `trace` →
    /// [`Level::Trace`], anything else → [`Level::Off`].
    pub fn parse(v: &str) -> Level {
        match v.to_ascii_lowercase().as_str() {
            "1" | "true" => Level::Prof,
            "trace" => Level::Trace,
            _ => Level::Off,
        }
    }

    /// The `KRYST_PROF` value selecting this level.
    pub fn env_value(self) -> &'static str {
        ["0", "1", "trace"][self as usize]
    }
}

struct Slot {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
}

impl Slot {
    const fn new() -> Slot {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Slot {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            hist: [Z; HIST_BUCKETS],
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        // Plain loads first: a new extreme is rare, so the common sample
        // pays no read-modify-write for either bound.
        if ns < self.min_ns.load(Ordering::Relaxed) {
            self.min_ns.fetch_min(ns, Ordering::Relaxed);
        }
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        let bucket = (63 - (ns.max(1)).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.hist {
            b.store(0, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// Elapsed time of the guards closed since the innermost open guard on
    /// this thread was entered — what that guard subtracts on exit.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Thread-safe phase-attributed profiler with fixed per-phase slots.
pub struct Profiler {
    level: AtomicU8,
    slots: [Slot; NUM_SLOTS],
}

impl Profiler {
    /// Create a profiler, initially at [`Level::Prof`] or [`Level::Off`].
    pub fn new(enabled: bool) -> Profiler {
        span::epoch();
        Profiler {
            level: AtomicU8::new(if enabled { Level::Prof } else { Level::Off } as u8),
            slots: std::array::from_fn(|_| Slot::new()),
        }
    }

    /// The process-global profiler behind [`profile`]. Its level starts
    /// from the `KRYST_PROF` environment variable (see [`Level::parse`]);
    /// change it at runtime with [`Profiler::set_level`] or
    /// [`Profiler::set_enabled`].
    pub fn global() -> &'static Profiler {
        static GLOBAL: OnceLock<Profiler> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let prof = Profiler::new(false);
            let level = std::env::var("KRYST_PROF").map_or(Level::Off, |v| Level::parse(&v));
            prof.set_level(level);
            prof
        })
    }

    /// The current recording level (one relaxed load).
    #[inline]
    pub fn level(&self) -> Level {
        [Level::Off, Level::Prof, Level::Trace][self.level.load(Ordering::Relaxed) as usize]
    }

    /// Set the recording level at runtime.
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Whether anything is being recorded (level above [`Level::Off`]).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) != Level::Off as u8
    }

    /// Switch recording off, or on at (at least) [`Level::Prof`]; turning
    /// on keeps an already active [`Level::Trace`].
    pub fn set_enabled(&self, on: bool) {
        if !on {
            self.set_level(Level::Off);
        } else if !self.enabled() {
            self.set_level(Level::Prof);
        }
    }

    /// Start a timed region attributed to `phase`; the returned guard
    /// records on drop. When the level is off this is one relaxed load and
    /// no clock read.
    #[inline]
    pub fn timed(&self, phase: Phase) -> PhaseTimer<'_> {
        match self.level.load(Ordering::Relaxed) {
            0 => PhaseTimer::OFF,
            level => self.open(level, phase, None),
        }
    }

    /// [`Profiler::timed`] for a collective call site: at the trace level
    /// the span also takes the next value of this thread's collective-edge
    /// logical clock and carries the payload bytes and messages `wire`
    /// counted between entry and exit.
    #[inline]
    pub fn timed_edge<'a>(&'a self, phase: Phase, wire: &'a WireStats) -> PhaseTimer<'a> {
        match self.level.load(Ordering::Relaxed) {
            0 => PhaseTimer::OFF,
            level => self.open(level, phase, Some(wire)),
        }
    }

    // Out of line, so the inlined off path stays one load and a branch.
    #[inline(never)]
    fn open<'a>(&'a self, level: u8, phase: Phase, wire: Option<&'a WireStats>) -> PhaseTimer<'a> {
        let outer_ns = NESTED_NS.with(|c| c.replace(0));
        let span = (level == Level::Trace as u8).then(|| SpanOpen {
            seq: wire.map_or(NO_SEQ, |_| span::next_seq()),
            wire: wire.map(|w| {
                let s = w.snapshot();
                (w, s.bytes_sent, s.msgs_sent)
            }),
            detail: 0,
        });
        PhaseTimer {
            open: Some(Open {
                prof: self,
                phase,
                outer_ns,
                span,
                t0: Instant::now(),
            }),
            _thread: PhantomData,
        }
    }

    /// Record an externally measured duration (in nanoseconds) for `phase`.
    #[inline]
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        if self.enabled() {
            self.slots[phase.code() as usize].record(ns);
        }
    }

    /// Clear all accumulated samples (the level is untouched).
    pub fn reset(&self) {
        for s in &self.slots {
            s.reset();
        }
    }

    /// Capture a consistent-enough copy of all per-phase aggregates.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut phases = Vec::new();
        for (phase, s) in Phase::all().zip(&self.slots) {
            let count = s.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut hist = [0u64; HIST_BUCKETS];
            for (h, b) in hist.iter_mut().zip(s.hist.iter()) {
                *h = b.load(Ordering::Relaxed);
            }
            phases.push(PhaseStats {
                name: phase.name(),
                count,
                total_ns: s.total_ns.load(Ordering::Relaxed),
                min_ns: s.min_ns.load(Ordering::Relaxed),
                max_ns: s.max_ns.load(Ordering::Relaxed),
                hist,
            });
        }
        ProfileSnapshot { phases }
    }
}

struct SpanOpen<'a> {
    seq: u64,
    wire: Option<(&'a WireStats, u64, u64)>,
    detail: u64,
}

struct Open<'a> {
    prof: &'a Profiler,
    phase: Phase,
    outer_ns: u64,
    span: Option<SpanOpen<'a>>,
    t0: Instant,
}

/// RAII guard returned by [`profile`]/[`Profiler::timed`]: records the
/// region's exclusive time (and, at the trace level, its span) on drop.
///
/// Bound to the thread that opened it, because exclusive accounting is per
/// thread.
#[must_use = "the region is timed until the guard drops"]
pub struct PhaseTimer<'a> {
    open: Option<Open<'a>>,
    _thread: PhantomData<*const ()>,
}

impl PhaseTimer<'_> {
    const OFF: Self = PhaseTimer {
        open: None,
        _thread: PhantomData,
    };

    /// The entry instant, when recording.
    pub fn started(&self) -> Option<Instant> {
        self.open.as_ref().map(|o| o.t0)
    }

    /// Set the span's kind-specific `detail` (see the [`Phase`] variants);
    /// a no-op below the trace level.
    #[inline]
    pub fn set_detail(&mut self, detail: u64) {
        if let Some(span) = self.open.as_mut().and_then(|o| o.span.as_mut()) {
            span.detail = detail;
        }
    }

    /// Close the region without recording it. Time of the guards nested
    /// inside still counts as nested for the enclosing guard; this guard's
    /// own time falls to that enclosing guard.
    pub fn discard(mut self) {
        if let Some(o) = self.open.take() {
            NESTED_NS.with(|c| c.set(o.outer_ns.wrapping_add(c.get())));
        }
    }
}

impl Drop for PhaseTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            o.close();
        }
    }
}

impl Open<'_> {
    #[inline(never)]
    fn close(self) {
        let t1 = Instant::now();
        let elapsed = t1.duration_since(self.t0).as_nanos().min(u64::MAX as u128) as u64;
        let nested = NESTED_NS.with(|c| c.replace(self.outer_ns.wrapping_add(elapsed)));
        self.prof.slots[self.phase.code() as usize].record(elapsed.saturating_sub(nested));
        if let Some(sp) = self.span {
            let (bytes, msgs) = sp.wire.map_or((0, 0), |(w, b0, m0)| {
                let s = w.snapshot();
                (s.bytes_sent - b0, s.msgs_sent - m0)
            });
            span::push(self.phase, sp.seq, self.t0, t1, bytes, msgs, sp.detail);
        }
    }
}

/// Time a region on the global profiler (see [`Profiler::global`]).
#[inline]
pub fn profile(phase: Phase) -> PhaseTimer<'static> {
    Profiler::global().timed(phase)
}

/// Time a collective call site on the global profiler (see
/// [`Profiler::timed_edge`]).
#[inline]
pub fn profile_edge(phase: Phase, wire: &WireStats) -> PhaseTimer<'_> {
    Profiler::global().timed_edge(phase, wire)
}

/// Aggregated statistics for one phase.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Phase display name (see [`Phase::name`]).
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all sample durations in nanoseconds.
    pub total_ns: u64,
    /// Smallest sample in nanoseconds (`u64::MAX` if empty).
    pub min_ns: u64,
    /// Largest sample in nanoseconds.
    pub max_ns: u64,
    /// Log2-bucketed latency histogram: bucket `i` counts samples with
    /// `ilog2(ns) == i` (clamped to the last bucket).
    pub hist: [u64; HIST_BUCKETS],
}

impl PhaseStats {
    /// Mean sample duration in nanoseconds (0 if empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every non-empty phase's aggregates.
#[derive(Clone, Debug, Default)]
pub struct ProfileSnapshot {
    /// Per-phase aggregates, in slot order; empty phases are omitted.
    pub phases: Vec<PhaseStats>,
}

impl ProfileSnapshot {
    /// Look up the stats recorded for `phase`, if any.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStats> {
        let name = phase.name();
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of `total_ns` over every phase.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// Serialize to a single JSON object:
    /// `{"phases":[{"name":...,"count":...,"total_ns":...,...,"hist":[...]}]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"hist\":[",
                p.name, p.count, p.total_ns, p.min_ns, p.max_ns
            ));
            // Trailing zero buckets are elided to keep dumps compact.
            let last = p.hist.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
            for (j, c) in p.hist[..last].iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&c.to_string());
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Parse a snapshot serialized by [`ProfileSnapshot::to_json`].
    pub fn from_json(text: &str) -> Option<ProfileSnapshot> {
        let v = crate::json::JsonValue::parse(text).ok()?;
        let phases = v.get("phases")?.as_array()?;
        let mut out = Vec::new();
        for p in phases {
            let mut hist = [0u64; HIST_BUCKETS];
            if let Some(h) = p.get("hist").and_then(|h| h.as_array()) {
                for (dst, src) in hist.iter_mut().zip(h.iter()) {
                    *dst = src.as_f64()? as u64;
                }
            }
            out.push(PhaseStats {
                name: p.get("name")?.as_str()?.to_string(),
                count: p.get("count")?.as_f64()? as u64,
                total_ns: p.get("total_ns")?.as_f64()? as u64,
                min_ns: p.get("min_ns")?.as_f64()? as u64,
                max_ns: p.get("max_ns")?.as_f64()? as u64,
                hist,
            });
        }
        Some(ProfileSnapshot { phases: out })
    }

    /// Render a human-readable per-phase table.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            "phase", "count", "total_ms", "mean_us", "min_us", "max_us"
        ));
        for p in &self.phases {
            s.push_str(&format!(
                "{:<14} {:>10} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                p.name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.mean_ns() / 1e3,
                if p.min_ns == u64::MAX {
                    0.0
                } else {
                    p.min_ns as f64 / 1e3
                },
                p.max_ns as f64 / 1e3,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let prof = Profiler::new(false);
        {
            let _t = prof.timed(Phase::Spmv);
        }
        prof.record_ns(Phase::Halo, 100);
        assert!(prof.snapshot().phases.is_empty());
    }

    #[test]
    fn enabled_records_counts_and_bounds() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::Spmv, 100);
        prof.record_ns(Phase::Spmv, 300);
        prof.record_ns(Phase::PrecondLevel(2), 50);
        let snap = prof.snapshot();
        let spmv = snap.phase(Phase::Spmv).unwrap();
        assert_eq!(spmv.count, 2);
        assert_eq!(spmv.total_ns, 400);
        assert_eq!(spmv.min_ns, 100);
        assert_eq!(spmv.max_ns, 300);
        // 100ns -> bucket ilog2(100)=6, 300ns -> bucket 8.
        assert_eq!(spmv.hist[6], 1);
        assert_eq!(spmv.hist[8], 1);
        assert!(snap.phase(Phase::PrecondLevel(2)).is_some());
        assert_eq!(
            snap.phase(Phase::PrecondLevel(2)).unwrap().name,
            "precond/l2"
        );
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let prof = Profiler::new(true);
        {
            let _t = prof.timed(Phase::OrthGram);
            std::hint::black_box(3 + 4);
        }
        let snap = prof.snapshot();
        assert_eq!(snap.phase(Phase::OrthGram).unwrap().count, 1);
    }

    #[test]
    fn nested_guard_time_is_excluded_from_parent() {
        let prof = Profiler::new(true);
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let t = Instant::now();
        {
            let _outer = prof.timed(Phase::RecycleSetup);
            sleep(2);
            let _inner = prof.timed(Phase::SmallDense);
            sleep(5);
        }
        let wall = t.elapsed().as_nanos() as u64;
        let snap = prof.snapshot();
        let (outer, inner) = (&snap.phases[1], &snap.phases[0]);
        assert_eq!(
            (outer.name.as_str(), inner.name.as_str()),
            ("recycle_setup", "small_dense")
        );
        // One sample per guard; the child's time is not the parent's.
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= 2_000_000 && inner.total_ns >= 5_000_000);
        // Exclusive totals partition the wall time (an inclusive parent
        // plus its child would exceed it).
        assert!(snap.total_ns() <= wall, "{} > {wall}", snap.total_ns());
    }

    #[test]
    fn levels_parse_and_gate_recording() {
        for l in [Level::Off, Level::Prof, Level::Trace] {
            assert_eq!(Level::parse(l.env_value()), l);
        }
        assert_eq!(Level::parse("TRUE"), Level::Prof);
        let prof = Profiler::new(false);
        assert!(prof.timed(Phase::Spmv).started().is_none());
        prof.set_level(Level::Trace);
        prof.set_enabled(true); // keeps the trace level
        assert_eq!(prof.level(), Level::Trace);
        prof.set_enabled(false);
        assert!(!prof.enabled());
    }

    #[test]
    fn discarded_guard_records_nothing_but_keeps_nesting() {
        let prof = Profiler::new(true);
        let t = Instant::now();
        {
            let _outer = prof.timed(Phase::Precond);
            let skipped = prof.timed(Phase::Iteration);
            drop(prof.timed(Phase::Spmv));
            skipped.discard();
        }
        let snap = prof.snapshot();
        assert!(snap.phase(Phase::Iteration).is_none());
        assert_eq!(snap.phase(Phase::Spmv).unwrap().count, 1);
        assert!(snap.total_ns() <= t.elapsed().as_nanos() as u64);
    }

    #[test]
    fn deep_levels_fold_into_last_slot() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::PrecondLevel(MAX_PRECOND_LEVELS + 3), 10);
        let snap = prof.snapshot();
        let p = snap
            .phase(Phase::PrecondLevel(MAX_PRECOND_LEVELS - 1))
            .unwrap();
        assert_eq!(p.count, 1);
    }

    #[test]
    fn mixed_precision_and_matrix_free_phases_have_own_slots() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::SpmvMf, 11);
        prof.record_ns(Phase::PrecondLp, 22);
        prof.record_ns(Phase::PrecondLevel(0), 33);
        let snap = prof.snapshot();
        assert_eq!(snap.phase(Phase::SpmvMf).unwrap().name, "spmv_mf");
        assert_eq!(snap.phase(Phase::PrecondLp).unwrap().name, "precond_lp");
        // The new named slots must not alias the per-level slots.
        assert_eq!(snap.phase(Phase::PrecondLevel(0)).unwrap().total_ns, 33);
        assert_eq!(snap.phase(Phase::SpmvMf).unwrap().total_ns, 11);
        assert_eq!(snap.phase(Phase::PrecondLp).unwrap().total_ns, 22);
    }

    #[test]
    fn reset_clears() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::Reduction, 7);
        prof.reset();
        assert!(prof.snapshot().phases.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let prof = Profiler::new(true);
        prof.record_ns(Phase::Spmv, 123);
        prof.record_ns(Phase::SmallDense, 456_789);
        let snap = prof.snapshot();
        let text = snap.to_json();
        let back = ProfileSnapshot::from_json(&text).unwrap();
        assert_eq!(back.phases.len(), snap.phases.len());
        for (a, b) in snap.phases.iter().zip(back.phases.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.count, b.count);
            assert_eq!(a.total_ns, b.total_ns);
            assert_eq!(a.min_ns, b.min_ns);
            assert_eq!(a.max_ns, b.max_ns);
            assert_eq!(a.hist, b.hist);
        }
    }

    #[test]
    fn concurrent_recording_sums() {
        let prof = std::sync::Arc::new(Profiler::new(true));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = prof.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    p.record_ns(Phase::Reduction, 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = prof.snapshot();
        let r = snap.phase(Phase::Reduction).unwrap();
        assert_eq!(r.count, 4000);
        assert_eq!(r.total_ns, 40_000);
    }
}
