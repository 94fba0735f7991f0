#![warn(missing_docs)]
//! `kryst-obs` — the solver observability layer.
//!
//! The paper's scalability argument (§III-D) is a *counting* argument:
//! reductions, messages, and bytes per iteration. This crate makes those
//! counts first-class, machine-readable artifacts instead of end-of-run
//! totals:
//!
//! * [`event::Event`] — typed events: one [`event::IterationEvent`] per
//!   (block) iteration carrying exact communication **deltas**, solve-level
//!   spans (setup / restart / recycle-refresh / eigensolve), convergence
//!   diagnostics, and solve begin/end markers;
//! * [`recorder::Recorder`] — the pluggable sink trait, attached per solve
//!   through `SolveOpts::recorder` (`None` is the one "off"). The
//!   [`recorder::RingRecorder`] buffers events in memory for tests; the
//!   [`recorder::JsonlRecorder`] streams JSON-lines traces for the bench
//!   binaries;
//! * [`json`] — a dependency-free JSON writer/parser (the registry is
//!   offline, so no serde) used for traces and the golden-trace snapshots;
//! * [`view`] — read-side helpers turning an event stream back into the
//!   per-RHS convergence histories and cumulative communication totals the
//!   conformance tests assert on.
//!
//! The invariant the conformance suite leans on: for a single solve, the
//! sum of `IterationEvent` communication deltas equals the solve's total
//! [`CommDelta`] — deltas are *measured* between consecutive events, and
//! the trailing work after the last iteration is folded into that last
//! event by the emitting solver.
//!
//! On top of the event stream sit the observability subsystems:
//!
//! * [`profiler`] — the one instrumentation primitive. Every instrumented
//!   kernel holds a single [`profile`] guard (collective sites use
//!   [`profile_edge`]) under one process-global level knob, `KRYST_PROF`:
//!   off (one relaxed load, no clock read), `1` (per-phase aggregates of
//!   **exclusive** wall time — nested guards are subtracted from their
//!   parent, so phase totals add up), or `trace` (aggregates plus
//!   distributed trace spans fed from the same clock pair);
//! * [`metrics`] — a named counter/gauge/histogram registry with JSON
//!   snapshots and plain-text exposition, the aggregation point for
//!   per-rank communication imbalance and report glue;
//! * [`diag`] — convergence diagnostics: [`event::DiagEvent`]s for
//!   orthogonality loss, rank collapse, and Ritz quality, plus the
//!   [`StagnationDetector`] over the residual history;
//! * [`wire`] — wire-level transport counters ([`WireStats`]): messages,
//!   payload bytes, and per-rank send/recv time as a backend actually put
//!   them on the wire, the measurement side of the cost-model calibration;
//! * [`span`] / [`timeline`] / [`export`] — distributed tracing: the bounded
//!   per-rank span rings the trace level fills (monotonic local clock plus
//!   a collective-edge logical clock), the rank-0 merge into one rank×time
//!   [`Timeline`] with straggler attribution and reduction-skew
//!   decomposition, and the Chrome-trace/Perfetto JSON exporter.

pub mod diag;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profiler;
pub mod recorder;
pub mod span;
pub mod timeline;
pub mod view;
pub mod wire;

pub use diag::StagnationDetector;
pub use event::{
    CommDelta, DiagEvent, DiagKind, Event, IterationEvent, SolveEndEvent, SpanEvent, SpanKind,
};
pub use export::chrome_trace;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profiler::{
    profile, profile_edge, Level, Phase, PhaseStats, PhaseTimer, ProfileSnapshot, Profiler,
};
pub use recorder::{JsonlRecorder, Recorder, RingRecorder};
pub use span::TraceSpan;
pub use timeline::{ImbalanceReport, RankStream, Timeline};
pub use view::{cumulative_comm, diags_of, history, iteration_events, spans_of};
pub use wire::{WireSnapshot, WireStats};
