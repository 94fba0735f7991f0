//! Per-rank distributed trace spans.
//!
//! At the trace level (`KRYST_PROF=trace`) every closing [`crate::profile`]
//! guard also records a [`TraceSpan`] — its phase, its entry/exit instants,
//! and for collective edges the wire counters — into a **bounded per-thread
//! ring** of [`DEFAULT_RING_CAP`] spans (overflow is dropped and counted).
//! A rank is one thread (channel backend) or one process (socket backend),
//! so thread-local storage *is* per-rank storage. Spans recorded on
//! kernel-pool worker threads stay in those threads' rings.
//!
//! Two clocks ride on every span: a **monotonic local clock**
//! (`start_ns`/`end_ns`, nanoseconds since the process's trace epoch —
//! honest durations, arbitrary per-process origin) and a **collective-edge
//! logical clock** (`seq`), bumped once per [`crate::profile_edge`] guard.
//! Every rank executes the identical collective schedule, so equal `seq`
//! values identify the *same* collective across ranks even when wall clocks
//! are skewed. Local spans carry [`NO_SEQ`].

use crate::profiler::Phase;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Sentinel `seq` for spans that are not collective edges.
pub const NO_SEQ: u64 = u64::MAX;

/// Flat-encoding width of one span, in `f64` slots (see
/// [`TraceSpan::encode_into`]).
pub const SPAN_FIELDS: usize = 7;

/// Ring capacity (spans per thread).
pub const DEFAULT_RING_CAP: usize = 1 << 16;

/// One recorded span. All integer payloads stay below 2⁵³ in practice, so
/// the flat `f64` encoding used to ship rings across the transport is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The phase whose guard recorded the span.
    pub kind: Phase,
    /// Collective-edge logical clock value, or [`NO_SEQ`] for local spans.
    pub seq: u64,
    /// Start, nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Payload bytes this rank put on the wire inside the span.
    pub bytes: u64,
    /// Messages this rank put on the wire inside the span.
    pub msgs: u64,
    /// Phase-specific detail (see the [`Phase`] variants).
    pub detail: u64,
}

impl TraceSpan {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Append the [`SPAN_FIELDS`]-slot flat encoding ([`NO_SEQ`] → `-1`).
    pub fn encode_into(&self, out: &mut Vec<f64>) {
        out.push(f64::from(self.kind.code()));
        out.push(if self.seq == NO_SEQ {
            -1.0
        } else {
            self.seq as f64
        });
        out.push(self.start_ns as f64);
        out.push(self.end_ns as f64);
        out.push(self.bytes as f64);
        out.push(self.msgs as f64);
        out.push(self.detail as f64);
    }

    /// Decode one span from a [`SPAN_FIELDS`]-slot frame slice.
    pub fn decode(v: &[f64]) -> Option<TraceSpan> {
        if v.len() != SPAN_FIELDS {
            return None;
        }
        Some(TraceSpan {
            kind: Phase::from_code(v[0] as u8)?,
            seq: if v[1] < 0.0 { NO_SEQ } else { v[1] as u64 },
            start_ns: v[2] as u64,
            end_ns: v[3] as u64,
            bytes: v[4] as u64,
            msgs: v[5] as u64,
            detail: v[6] as u64,
        })
    }
}

/// The process's trace epoch, fixed on first use. Every profiler touches it
/// when created, before any of its guards can open, so span timestamps
/// never precede it.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Default)]
struct ThreadRing {
    ring: Vec<TraceSpan>,
    dropped: u64,
    seq: u64,
}

thread_local! {
    static RING: RefCell<ThreadRing> = RefCell::new(ThreadRing::default());
}

/// Take this thread's next collective-edge logical clock value.
pub(crate) fn next_seq() -> u64 {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.seq += 1;
        r.seq - 1
    })
}

/// Record one closed guard's span; a full ring drops it and counts it.
pub(crate) fn push(
    kind: Phase,
    seq: u64,
    t0: Instant,
    t1: Instant,
    bytes: u64,
    msgs: u64,
    detail: u64,
) {
    let ns = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
    RING.with(|r| {
        let mut r = r.borrow_mut();
        if r.ring.len() >= DEFAULT_RING_CAP {
            r.dropped += 1;
            return;
        }
        r.ring.push(TraceSpan {
            kind,
            seq,
            start_ns: ns(t0),
            end_ns: ns(t1),
            bytes,
            msgs,
            detail,
        });
    });
}

/// Take every span recorded on this thread plus the overflow count, and
/// reset the ring, the drop counter, and the logical clock — so each traced
/// region (one SPMD closure, one solve) drains independently.
pub fn drain() -> (Vec<TraceSpan>, u64) {
    RING.with(|r| {
        let r = std::mem::take(&mut *r.borrow_mut());
        (r.ring, r.dropped)
    })
}

/// Clear this thread's ring, drop counter, and logical clock without
/// returning anything. SPMD runners call this at every rank's entry so a
/// traced closure starts from a clean, rank-aligned state (rank 0 may be a
/// long-lived thread; workers replay earlier calls before the real one).
pub fn reset_thread() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Level, Profiler};
    use crate::wire::WireStats;

    /// A private profiler at the trace level: spans land in this test
    /// thread's ring without touching the process-global level.
    fn tracing() -> Profiler {
        reset_thread();
        let prof = Profiler::new(false);
        prof.set_level(Level::Trace);
        prof
    }

    #[test]
    fn disabled_records_nothing_and_returns_none() {
        reset_thread();
        let prof = Profiler::new(false);
        let wire = WireStats::default();
        assert!(prof.timed(Phase::Halo).started().is_none());
        assert!(prof.timed_edge(Phase::Reduction, &wire).started().is_none());
        prof.set_level(Level::Prof);
        {
            let _g = prof.timed(Phase::Precond);
        }
        let (spans, dropped) = drain();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
        assert_eq!(prof.snapshot().phase(Phase::Precond).unwrap().count, 1);
    }

    #[test]
    fn edges_advance_the_logical_clock_and_locals_do_not() {
        let prof = tracing();
        let wire = WireStats::default();
        {
            let mut a = prof.timed_edge(Phase::Reduction, &wire);
            wire.record_send(8, 1);
            wire.record_send(8, 1);
            a.set_detail(3);
        }
        drop(prof.timed(Phase::Precond));
        {
            let _c = prof.timed_edge(Phase::Redistribute, &wire);
            wire.record_send(8, 1);
        }
        let (spans, dropped) = drain();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, NO_SEQ);
        assert_eq!(spans[2].seq, 1);
        assert_eq!(spans[0].bytes, 16);
        assert_eq!(spans[0].msgs, 2);
        assert_eq!(spans[0].detail, 3);
        assert_eq!(spans[2].bytes, 8);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        // drain() reset the logical clock.
        drop(prof.timed_edge(Phase::Reduction, &wire));
        assert_eq!(drain().0[0].seq, 0);
    }

    #[test]
    fn guard_records_on_drop() {
        let prof = tracing();
        {
            let _g = prof.timed(Phase::Halo);
            std::hint::black_box(1 + 1);
        }
        let (spans, _) = drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, Phase::Halo);
        // The same guard fed the aggregates from the same clock pair.
        let snap = prof.snapshot();
        assert_eq!(snap.phase(Phase::Halo).unwrap().total_ns, spans[0].dur_ns());
    }

    #[test]
    fn span_flat_encoding_round_trips() {
        let s = TraceSpan {
            kind: Phase::CoarseGather,
            seq: NO_SEQ,
            start_ns: 123,
            end_ns: 456,
            bytes: 7890,
            msgs: 12,
            detail: 34,
        };
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        assert_eq!(buf.len(), SPAN_FIELDS);
        assert_eq!(TraceSpan::decode(&buf), Some(s));
        assert_eq!(TraceSpan::decode(&buf[1..]), None);
        let mut bad = buf.clone();
        bad[0] = 99.0;
        assert_eq!(TraceSpan::decode(&bad), None);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let prof = tracing();
        // Fill past capacity.
        let cap = DEFAULT_RING_CAP;
        for i in 0..(cap + 5) {
            let mut g = prof.timed(Phase::Iteration);
            g.set_detail(i as u64);
        }
        let (spans, dropped) = drain();
        assert_eq!(spans.len(), cap);
        assert_eq!(dropped, 5);
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in Phase::all() {
            assert_eq!(Phase::from_code(k.code()), Some(k));
        }
        assert_eq!(Phase::all().count(), crate::profiler::NUM_SLOTS);
        assert_eq!(Phase::from_code(200), None);
    }
}
