//! Profiler determinism and convergence-diagnostics integration tests.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Determinism** — enabling the phase profiler must not perturb a solve
//!    in any observable way: the full iteration trace (residuals bit for
//!    bit, communication deltas, orthogonalization backend, breakdown
//!    ranks) and the solution vector are compared between a profiler-off
//!    and a profiler-on run. `SolveOpts::default()` picks the
//!    orthogonalization path from `KRYST_FUSE`, and CI runs this file under
//!    `KRYST_THREADS` ∈ {1, 4} × `KRYST_FUSE` ∈ {0, 1}, so all four
//!    configurations are covered without in-process env juggling.
//! 2. **Diagnostics** — the stagnation detector fires exactly once on the
//!    golden stagnating case (GMRES(30) on the 1-D Laplacian) and stays
//!    silent on a converging run longer than its window; CholQR rank
//!    collapse is reported on a duplicate-column block RHS.
//! 3. **Per-rank reconciliation** — splitting the global communication
//!    counters over ranks via the halo plan reproduces the totals exactly
//!    at P ∈ {2, 4, 8}, and the published imbalance gauges match.
//! 4. **Attribution** — a GCRO-DR solve's deflation eigensolves are charged
//!    to `recycle_setup` (their dense kernels nested as `small_dense`), and
//!    the exclusive phase totals add up to no more than the solve's wall
//!    time.
//!
//! The profiler is process-global, so every test here takes [`serial`]: a
//! solve on another test thread would otherwise record into the phase
//! totals one test asserts on.

use kryst_core::{gcrodr, gmres, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::{
    diags_of, iteration_events, spans_of, DiagKind, Event, MetricsRegistry, Phase, Profiler,
    Recorder, RingRecorder, SpanKind,
};
use kryst_par::{per_rank_comm, publish_imbalance, CommStats, DistOp, IdentityPrecond};
use kryst_rt::rng::Rng64;
use kryst_sparse::{Coo, Csr};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Serializes the tests of this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn laplace1d(n: usize) -> Csr<f64> {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        c.push(i, i, 2.0);
        if i > 0 {
            c.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            c.push(i, i + 1, -1.0);
        }
    }
    c.to_csr()
}

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

fn pinned_rhs(n: usize, seed: u64) -> DMat<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    DMat::from_fn(n, 1, |_, _| rng.gen_range(-1.0, 1.0))
}

fn ring_opts(base: SolveOpts, ring: &Arc<RingRecorder>) -> SolveOpts {
    SolveOpts {
        stats: Some(CommStats::new_shared()),
        recorder: Some(Arc::clone(ring) as Arc<dyn Recorder>),
        ..base
    }
}

/// Everything observable about a solve except wall-clock times.
fn trace_fingerprint(events: &[Event], x: &DMat<f64>) -> Vec<u64> {
    let mut fp = Vec::new();
    for ev in iteration_events(events) {
        fp.push(ev.cycle as u64);
        fp.push(ev.iter as u64);
        for &r in &ev.per_rhs_residuals {
            fp.push(r.to_bits());
        }
        fp.push(ev.comm.reductions);
        fp.push(ev.comm.reduction_bytes);
        fp.push(ev.comm.fused_parts);
        fp.push(ev.comm.p2p_messages);
        fp.push(ev.comm.flops);
        fp.push(ev.breakdown_rank.map(|r| r as u64 + 1).unwrap_or(0));
        fp.push(ev.orth_backend.len() as u64);
    }
    for j in 0..x.ncols() {
        for &v in x.col(j) {
            fp.push(v.to_bits());
        }
    }
    fp
}

/// The golden GMRES(30) and GCRO-DR(30,10) traces must be bit-identical
/// with the profiler off and on: the profiler only ever reads the clock.
#[test]
fn profiler_on_off_traces_bit_identical() {
    let _serial = serial();
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    let id = IdentityPrecond::new(n);
    let prof = Profiler::global();

    let run_gmres = || {
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let opts = ring_opts(
            SolveOpts {
                rtol: 1e-8,
                restart: 30,
                max_iters: 600,
                ..Default::default()
            },
            &ring,
        );
        let mut x = DMat::zeros(n, 1);
        gmres::solve(&a, &id, &b, &mut x, &opts);
        trace_fingerprint(&ring.events(), &x)
    };
    let run_gcrodr = || {
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let opts = ring_opts(
            SolveOpts {
                rtol: 1e-8,
                restart: 30,
                recycle: 10,
                max_iters: 5000,
                ..Default::default()
            },
            &ring,
        );
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged);
        trace_fingerprint(&ring.events(), &x)
    };

    prof.set_enabled(false);
    let gmres_off = run_gmres();
    let gcrodr_off = run_gcrodr();
    prof.set_enabled(true);
    prof.reset();
    let gmres_on = run_gmres();
    let gcrodr_on = run_gcrodr();
    prof.set_enabled(false);

    assert_eq!(
        gmres_off, gmres_on,
        "profiler perturbed the GMRES iteration trace"
    );
    assert_eq!(
        gcrodr_off, gcrodr_on,
        "profiler perturbed the GCRO-DR iteration trace"
    );
    // And the enabled run actually measured the instrumented kernels.
    let snap = prof.snapshot();
    for phase in ["spmv", "orth/gram", "small_dense", "recycle_setup"] {
        assert!(
            snap.phases.iter().any(|p| p.name == phase && p.count > 0),
            "phase {phase} not measured"
        );
    }
}

/// The stagnation detector fires exactly once (latched) on the golden
/// stagnating case: unpreconditioned GMRES(30) on the 1-D Laplacian.
#[test]
fn stagnation_diag_fires_on_gmres30_laplace400() {
    let _serial = serial();
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    let id = IdentityPrecond::new(n);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = ring_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 1500,
            ..Default::default()
        },
        &ring,
    );
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert!(!res.converged, "this case is the stagnation golden");
    let events = ring.events();
    let stag = diags_of(&events, DiagKind::Stagnation);
    assert_eq!(
        stag.len(),
        1,
        "stagnation diagnostic must fire once (latched)"
    );
    assert!(
        stag[0].value > 0.95,
        "reported ratio {} should show a residual plateau",
        stag[0].value
    );
    assert!(stag[0].detail >= 1, "window size is carried in detail");
    assert!(
        stag[0].iter + stag[0].cycle * 30 >= stag[0].detail,
        "cannot fire before one full window of history"
    );
}

/// No stagnation diagnostic on a converging solve longer than the detector
/// window: unpreconditioned GMRES(30) on convection–diffusion converges in
/// ~144 iterations with a monotone-enough residual.
#[test]
fn no_stagnation_diag_on_converging_convdiff() {
    let _serial = serial();
    let a = convdiff2d(32, 0.001, 1.0, 0.3);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = ring_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 1000,
            ..Default::default()
        },
        &ring,
    );
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert!(res.converged);
    assert!(
        res.iterations > 60,
        "the case must outlast the detector window to be meaningful"
    );
    let events = ring.events();
    assert!(
        diags_of(&events, DiagKind::Stagnation).is_empty(),
        "no stagnation on a converging trajectory"
    );
}

/// A duplicate-column block RHS collapses the initial CholQR rank; GCRO-DR
/// must report the rank-collapse diagnostic on the first iteration of the
/// affected cycle and still converge via the pseudo-block fallback.
#[test]
fn rank_collapse_diag_fires_on_duplicate_rhs_gcrodr() {
    let _serial = serial();
    let n = 200;
    let a = laplace1d(n);
    let id = IdentityPrecond::new(n);
    let b1 = pinned_rhs(n, 7);
    let mut b = DMat::zeros(n, 2);
    for i in 0..n {
        let v = b1[(i, 0)];
        b[(i, 0)] = v;
        b[(i, 1)] = v; // identical column → block rank 1
    }
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = ring_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            max_iters: 5000,
            ..Default::default()
        },
        &ring,
    );
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 2);
    let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
    assert!(res.iterations > 0);
    let events = ring.events();
    let collapses = diags_of(&events, DiagKind::RankCollapse);
    assert!(
        !collapses.is_empty(),
        "duplicate columns must trigger a rank-collapse diagnostic"
    );
    let first = collapses[0];
    assert_eq!(first.value, 1.0, "detected rank should be 1 of 2");
    assert_eq!(first.detail, 2, "block width is carried in detail");
}

/// Per-rank attribution of a real solve's counters reconciles exactly with
/// the global snapshot at P ∈ {2, 4, 8}, and the published imbalance gauges
/// agree with the per-rank extrema.
#[test]
fn per_rank_imbalance_reconciles_with_comm_snapshot() {
    let _serial = serial();
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    for nranks in [2usize, 4, 8] {
        let stats = CommStats::new_shared();
        let dist = DistOp::new(a.clone(), nranks, Arc::clone(&stats));
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            max_iters: 120,
            stats: Some(Arc::clone(&stats)),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        gmres::solve(&dist, &id, &b, &mut x, &opts);
        let global = stats.snapshot();
        assert!(global.p2p_messages > 0, "P = {nranks}: no halo traffic?");

        let ranks = per_rank_comm(dist.plan(), &global, nranks);
        assert_eq!(ranks.len(), nranks);
        let msg: u64 = ranks.iter().map(|s| s.p2p_messages).sum();
        let bytes: u64 = ranks.iter().map(|s| s.p2p_bytes).sum();
        let flops: u64 = ranks.iter().map(|s| s.flops).sum();
        assert_eq!(msg, global.p2p_messages, "P = {nranks}: message total");
        assert_eq!(bytes, global.p2p_bytes, "P = {nranks}: byte total");
        assert_eq!(flops, global.flops, "P = {nranks}: flop total");
        for s in &ranks {
            assert_eq!(s.reductions, global.reductions, "collectives are copied");
            assert_eq!(s.fused_parts, global.fused_parts);
        }

        let reg = MetricsRegistry::new();
        publish_imbalance(&reg, "solve", &ranks);
        let max = ranks.iter().map(|s| s.p2p_messages).max().unwrap() as f64;
        let min = ranks.iter().map(|s| s.p2p_messages).min().unwrap() as f64;
        let avg = global.p2p_messages as f64 / nranks as f64;
        assert_eq!(reg.gauge("solve_p2p_messages_max").get(), max);
        assert_eq!(reg.gauge("solve_p2p_messages_min").get(), min);
        assert!((reg.gauge("solve_p2p_messages_avg").get() - avg).abs() < 1e-9);
        let text = reg.expose_text();
        assert!(text.contains("solve_p2p_bytes_max"));
        assert!(text.contains("solve_reductions_avg"));
    }
}

/// One GCRO-DR(30,10) solve with the profiler on: every setup, refresh, and
/// eigensolve span holds exactly one `recycle_setup` sample, the
/// eigensolves' time is covered by `recycle_setup` plus the `small_dense`
/// kernels nested inside them, and the exclusive phase totals never exceed
/// the measured wall time of the solve.
#[test]
fn gcrodr_eigensolve_charged_to_recycle_setup_and_phases_add_up() {
    let _serial = serial();
    let n = 400;
    let a = laplace1d(n);
    let b = pinned_rhs(n, 42);
    let id = IdentityPrecond::new(n);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let opts = ring_opts(
        SolveOpts {
            rtol: 1e-8,
            restart: 30,
            recycle: 10,
            max_iters: 5000,
            ..Default::default()
        },
        &ring,
    );
    let prof = Profiler::global();
    prof.set_enabled(true);
    prof.reset();
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 1);
    let t = Instant::now();
    let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
    let wall_ns = t.elapsed().as_nanos() as u64;
    prof.set_enabled(false);
    assert!(res.converged);

    let snap = prof.snapshot();
    let events = ring.events();
    let eig = spans_of(&events, SpanKind::Eigensolve);
    assert!(!eig.is_empty(), "the solve ran a deflation eigensolve");
    let recycle = snap
        .phase(Phase::RecycleSetup)
        .expect("recycle_setup measured");
    let spans = spans_of(&events, SpanKind::Setup).len()
        + spans_of(&events, SpanKind::RecycleRefresh).len()
        + eig.len();
    assert_eq!(
        recycle.count as usize, spans,
        "one recycle_setup sample per setup/refresh/eigensolve span"
    );
    let small_dense = snap.phase(Phase::SmallDense).map_or(0, |p| p.total_ns);
    let eig_ns: u64 = eig.iter().map(|s| s.wall_ns).sum();
    assert!(
        recycle.total_ns + small_dense >= eig_ns,
        "recycle_setup {} + small_dense {small_dense} < eigensolve spans {eig_ns}",
        recycle.total_ns
    );
    assert!(
        snap.total_ns() <= wall_ns,
        "exclusive phase totals {} exceed the solve's wall time {wall_ns}",
        snap.total_ns()
    );
}
