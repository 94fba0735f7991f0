//! Outside-timed layer split: wrappers around the workload's operator and
//! preconditioner that time and count every apply, plus the read-out of the
//! program's own profiler and communication counters.
//!
//! Nothing here reaches inside the library. The wrappers sit between the
//! solver and the `LinOp`/`PrecondOp` it was handed; the solver's own
//! phases come from the public [`Profiler`] snapshot. While a wrapped apply
//! runs, the global profiler is switched off, so the phases it reports are
//! the ones recorded in the Krylov layer, not inside the operator or the
//! preconditioner.

use kryst_dense::DMat;
use kryst_obs::{Phase, ProfileSnapshot, Profiler};
use kryst_par::{LinOp, PrecondOp, PrecondPrecision};
use kryst_scalar::Scalar;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls, columns and busy time of one wrapped layer.
#[derive(Debug, Default)]
pub struct LayerCounter {
    calls: AtomicU64,
    cols: AtomicU64,
    ns: AtomicU64,
}

/// A copy of a [`LayerCounter`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Applies made.
    pub calls: u64,
    /// Multivector columns applied to, summed over calls.
    pub cols: u64,
    /// Wall time inside the applies, in seconds.
    pub seconds: f64,
}

impl LayerCounter {
    fn time<R>(&self, cols: usize, f: impl FnOnce() -> R) -> R {
        let prof = Profiler::global();
        let profiling = prof.enabled();
        prof.set_enabled(false);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        prof.set_enabled(profiling);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.cols.fetch_add(cols as u64, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Current totals.
    pub fn totals(&self) -> LayerTotals {
        LayerTotals {
            calls: self.calls.load(Ordering::Relaxed),
            cols: self.cols.load(Ordering::Relaxed),
            seconds: self.ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// A `LinOp` that times and counts every apply of the operator it wraps.
pub struct TimedOp<'a, S: Scalar> {
    /// The wrapped operator.
    pub inner: &'a dyn LinOp<S>,
    /// Where the applies are counted.
    pub counter: &'a LayerCounter,
}

impl<S: Scalar> LinOp<S> for TimedOp<'_, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        self.counter.time(x.ncols(), || self.inner.apply(x, y));
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        self.inner.bytes_per_apply()
    }
}

/// A `PrecondOp` that times and counts every apply of the preconditioner it
/// wraps, forwarding every property the solver reads.
pub struct TimedPrecond<'a, S: Scalar> {
    /// The wrapped preconditioner.
    pub inner: &'a dyn PrecondOp<S>,
    /// Where the applies are counted.
    pub counter: &'a LayerCounter,
}

impl<S: Scalar> PrecondOp<S> for TimedPrecond<'_, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        self.counter.time(r.ncols(), || self.inner.apply(r, z));
    }
    fn is_variable(&self) -> bool {
        self.inner.is_variable()
    }
    fn precision(&self) -> PrecondPrecision {
        self.inner.precision()
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        self.inner.bytes_per_apply()
    }
}

/// Seconds the profiler attributes to `phase` (0 when never entered).
pub fn phase_seconds(snap: &ProfileSnapshot, phase: Phase) -> f64 {
    snap.phase(phase).map_or(0.0, |p| p.total_ns as f64 * 1e-9)
}
