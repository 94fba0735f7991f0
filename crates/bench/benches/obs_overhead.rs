//! Profiler / metrics overhead benchmarks.
//!
//! The one instrumentation guard sits on every hot kernel in the workspace
//! (SpMM, orthogonalization, preconditioner applies, reductions), so its
//! *off* cost is the one that matters: a single relaxed atomic load and no
//! clock read. These legs pin that down at two granularities — the raw
//! guard in a tight loop at each level (off, aggregates, trace), and an
//! end-to-end GMRES(30) solve run with the profiler off vs on. The solve pair must stay within run-to-run noise
//! of each other; `bench_compare` gates each leg against the checked-in
//! record in `BENCH_obs.json`.

use kryst_bench::harness::{black_box, Criterion};
use kryst_bench::{criterion_group, criterion_main};
use kryst_core::{gmres, SolveOpts};
use kryst_dense::DMat;
use kryst_obs::{profile, Level, Phase, Profiler};
use kryst_par::IdentityPrecond;
use kryst_sparse::{Coo, Csr};

fn convdiff2d(nx: usize, eps: f64, bx: f64, by: f64) -> Csr<f64> {
    let n = nx * nx;
    let h = 1.0 / (nx as f64 + 1.0);
    let mut c = Coo::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let row = idx(i, j);
            c.push(row, row, 4.0 * eps / (h * h) + (bx.abs() + by.abs()) / h);
            if i > 0 {
                c.push(row, idx(i - 1, j), -eps / (h * h) - bx.max(0.0) / h);
            }
            if i + 1 < nx {
                c.push(row, idx(i + 1, j), -eps / (h * h) + bx.min(0.0) / h);
            }
            if j > 0 {
                c.push(row, idx(i, j - 1), -eps / (h * h) - by.max(0.0) / h);
            }
            if j + 1 < nx {
                c.push(row, idx(i, j + 1), -eps / (h * h) + by.min(0.0) / h);
            }
        }
    }
    c.to_csr()
}

fn bench_obs_overhead(c: &mut Criterion) {
    // Raw guard cost: 1000 enter/exit pairs per iteration, so the per-pair
    // cost reads directly in nanoseconds from the reported microseconds.
    Profiler::global().set_enabled(false);
    c.bench_function("prof_timer_disabled_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                drop(black_box(profile(Phase::Spmv)));
            }
        });
    });
    Profiler::global().set_enabled(true);
    c.bench_function("prof_timer_enabled_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                drop(black_box(profile(Phase::Spmv)));
            }
        });
    });
    Profiler::global().set_enabled(false);

    // End-to-end: the same GMRES(30) solve the comm-fusion benches use,
    // profiler off vs on. The two legs must be within noise of each other —
    // every instrumented kernel call costs one atomic load when disabled,
    // two clock reads + one histogram update when enabled.
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let b0 = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let solve = |a: &Csr<f64>, id: &IdentityPrecond, b0: &DMat<f64>| {
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 1000,
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        gmres::solve(a, id, b0, &mut x, &opts)
    };
    c.bench_function("gmres30_convdiff32_prof_off", |b| {
        Profiler::global().set_enabled(false);
        b.iter(|| solve(&a, &id, &b0));
    });
    c.bench_function("gmres30_convdiff32_prof_on", |b| {
        Profiler::global().set_enabled(true);
        b.iter(|| solve(&a, &id, &b0));
    });
    Profiler::global().set_enabled(false);

    // Metrics handles share atomic cells: an increment through the handle is
    // one relaxed fetch_add, fetched once from the registry outside the loop.
    let reg = kryst_obs::MetricsRegistry::new();
    let counter = reg.counter("bench_events");
    c.bench_function("metrics_counter_inc_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                counter.inc();
            }
        });
    });

    // The same guard at the trace level: off = one relaxed load and no
    // clock read; trace = the aggregates above plus a bounded-ring push from
    // the same two clock reads. The trace leg drains the thread ring each
    // iteration so it measures steady-state pushes, not the full-ring drop
    // path.
    Profiler::global().set_level(Level::Off);
    c.bench_function("trace_span_disabled_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                drop(black_box(profile(Phase::Precond)));
            }
        });
    });
    Profiler::global().set_level(Level::Trace);
    c.bench_function("trace_span_enabled_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                drop(black_box(profile(Phase::Precond)));
            }
            black_box(kryst_obs::span::drain());
        });
    });
    Profiler::global().set_level(Level::Off);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_obs_overhead
}
criterion_main!(benches);
