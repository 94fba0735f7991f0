//! §III-D conformance suite: the communication cost of every scheme,
//! asserted **exactly** against the typed event stream (`kryst-obs`).
//!
//! Each test runs a solver with both the instrumented counters and a
//! [`RingRecorder`] attached, then checks that the per-iteration
//! `comm.reductions` deltas tile the solve and reproduce the paper's
//! closed-form counts:
//!
//! * GMRES(m) with CholQR: **3 reductions per iteration** (two fused CGS
//!   projection passes + one Gram product) plus **1 per cycle start** (the
//!   CholQR of the restart residual),
//! * a GCRO-DR deflated cycle adds exactly **one** more per iteration (the
//!   `(I − C·Cᴴ)` projection) and one per-cycle `CᴴR` update,
//! * a recycle-space refresh costs 1 reduction (the column norms of `D`)
//!   plus **one extra for strategy A** (eq. (3a) needs `[C V]ᴴ·U`; eq. (3b)
//!   assumes orthogonality and skips it),
//! * `same_system` drops the `A·U` re-orthonormalization from the setup, so
//!   the setup span records 1 reduction instead of 2.

use kryst_core::{gcrodr, gmres, OrthPath, OrthScheme, RecycleStrategy, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_obs::{
    cumulative_comm, iteration_events, spans_of, Event, Recorder, RingRecorder, SpanKind,
};
use kryst_par::{CommStats, DistOp, IdentityPrecond};
use kryst_pde::poisson::poisson2d;
use std::sync::Arc;

fn poisson_setup(nx: usize) -> (kryst_sparse::Csr<f64>, DMat<f64>) {
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    let b = DMat::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    (prob.a, b)
}

fn solve_end(events: &[Event]) -> kryst_obs::SolveEndEvent {
    events
        .iter()
        .find_map(|e| match e {
            Event::SolveEnd(e) => Some(e.clone()),
            _ => None,
        })
        .expect("SolveEnd emitted")
}

/// Number of distinct cycles seen in the iteration events.
fn cycle_count(events: &[Event]) -> usize {
    iteration_events(events)
        .iter()
        .map(|e| e.cycle)
        .max()
        .map(|c| c + 1)
        .unwrap_or(0)
}

/// GMRES(m) with CholQR: exactly `3·iterations + cycles` fused reductions —
/// and the deltas land on the right events (the cycle-start CholQR is
/// absorbed by the first iteration of its cycle).
#[test]
fn gmres_cholqr_reduction_count_is_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let stats = CommStats::new_shared();
    let ring = Arc::new(RingRecorder::new(8192));
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        orth: OrthScheme::CholQr,
        ortho: OrthPath::Classic,
        stats: Some(Arc::clone(&stats)),
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..Default::default()
    };
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert!(res.converged);

    let events = ring.events();
    let iters = iteration_events(&events);
    assert_eq!(iters.len(), res.iterations);
    let cycles = cycle_count(&events);
    assert!(
        res.iterations > opts.restart,
        "need multiple cycles for the formula"
    );

    // Exact §III-D total.
    let expected = 3 * res.iterations as u64 + cycles as u64;
    assert_eq!(cumulative_comm(&events).reductions, expected);
    assert_eq!(stats.snapshot().reductions, expected);
    assert_eq!(solve_end(&events).comm_total.reductions, expected);

    // Exact per-event attribution: 4 on a cycle's first iteration (3 + the
    // restart-residual CholQR), 3 on every other.
    for w in iters.windows(2) {
        let (prev, ev) = (&w[0], &w[1]);
        let first_of_cycle = ev.cycle != prev.cycle;
        let want = if first_of_cycle { 4 } else { 3 };
        assert_eq!(
            ev.comm.reductions, want,
            "cycle {} iter {}: delta {}",
            ev.cycle, ev.iter, ev.comm.reductions
        );
    }
    assert_eq!(
        iters[0].comm.reductions, 4,
        "solve-start CholQR rides on iteration 0"
    );
}

/// Second GCRO-DR solve on the same operator (`same_system`, pure deflated
/// cycles): exactly `4·iterations + 2·cycles + 1` reductions — the paper's
/// "one extra reduction per iteration" claim at fused granularity, plus the
/// per-cycle `CᴴR` update and the one-off setup projection.
#[test]
fn gcrodr_deflated_cycle_count_is_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let stats = CommStats::new_shared();
    let opts_warm = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        recycle: 8,
        orth: OrthScheme::CholQr,
        ortho: OrthPath::Classic,
        same_system: true,
        stats: Some(Arc::clone(&stats)),
        ..Default::default()
    };
    let mut ctx = SolverContext::new();
    let mut x = DMat::zeros(n, 1);
    assert!(gcrodr::solve(&a, &id, &b, &mut x, &opts_warm, &mut ctx).converged);

    stats.reset();
    let ring = Arc::new(RingRecorder::new(8192));
    let opts = SolveOpts {
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..opts_warm.clone()
    };
    let b2 = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
    let mut x = DMat::zeros(n, 1);
    let second = gcrodr::solve(&a, &id, &b2, &mut x, &opts, &mut ctx);
    assert!(second.converged);
    assert!(second.iterations > 0);

    let events = ring.events();
    let iters = iteration_events(&events);
    assert_eq!(iters.len(), second.iterations);
    let cycles = cycle_count(&events);

    // Setup projection (CᴴR) + per cycle (restart CholQR + CᴴR update)
    // + per iteration (3 CholQR orth + 1 C-projection).
    let expected = 1 + 2 * cycles as u64 + 4 * second.iterations as u64;
    assert_eq!(cumulative_comm(&events).reductions, expected);
    assert_eq!(stats.snapshot().reductions, expected);
    assert_eq!(solve_end(&events).comm_total.reductions, expected);

    // Interior iterations of a deflated cycle cost exactly 4 — one more
    // than GMRES's 3 (§III-D). The final event is excluded: it absorbs the
    // trailing `CᴴR` update by the tracer's tiling construction.
    for w in iters[..iters.len() - 1].windows(2) {
        let (prev, ev) = (&w[0], &w[1]);
        if ev.cycle == prev.cycle {
            assert_eq!(ev.comm.reductions, 4, "cycle {} iter {}", ev.cycle, ev.iter);
        }
    }
    // The recycle space never refreshes on the same_system fast path.
    assert!(spans_of(&events, SpanKind::RecycleRefresh).is_empty());
}

/// Refresh cost: strategy A's eq. (3a) refresh records exactly 2 reductions
/// (column norms of `D` + the fused `[C V]ᴴ·U` Gram), strategy B's eq. (3b)
/// exactly 1 — measured on the `RecycleRefresh` spans themselves.
#[test]
fn refresh_spans_show_strategy_a_extra_reduction() {
    let (a, b) = poisson_setup(28);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    for (strat, want) in [(RecycleStrategy::A, 2u64), (RecycleStrategy::B, 1u64)] {
        let ring = Arc::new(RingRecorder::new(16384));
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 8,
            recycle: 3,
            recycle_strategy: strat,
            stats: Some(CommStats::new_shared()),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            max_iters: 600,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(&a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged, "{strat:?}");
        let events = ring.events();
        let refreshes = spans_of(&events, SpanKind::RecycleRefresh);
        assert!(!refreshes.is_empty(), "{strat:?}: no refresh happened");
        for sp in refreshes {
            assert_eq!(
                sp.comm.reductions, want,
                "{strat:?} refresh at cycle {} recorded {} reductions",
                sp.cycle, sp.comm.reductions
            );
        }
    }
}

/// `same_system` skips the `A·U` CholQR on reuse: the setup span of a warm
/// solve records exactly 1 reduction (the `CᴴR` projection) on the fast
/// path and exactly 2 when the operator changed.
#[test]
fn same_system_setup_span_skips_au_qr() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    for (same, want) in [(true, 1u64), (false, 2u64)] {
        let opts_warm = SolveOpts {
            rtol: 1e-9,
            restart: 10,
            recycle: 4,
            same_system: same,
            stats: Some(CommStats::new_shared()),
            max_iters: 600,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        assert!(gcrodr::solve(&a, &id, &b, &mut x, &opts_warm, &mut ctx).converged);
        let ring = Arc::new(RingRecorder::new(16384));
        let opts = SolveOpts {
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..opts_warm
        };
        let b2 = DMat::from_fn(n, 1, |i, _| ((i % 4) as f64) - 1.5);
        let mut x = DMat::zeros(n, 1);
        assert!(gcrodr::solve(&a, &id, &b2, &mut x, &opts, &mut ctx).converged);
        let events = ring.events();
        let setups = spans_of(&events, SpanKind::Setup);
        assert_eq!(setups.len(), 1);
        assert_eq!(
            setups[0].comm.reductions, want,
            "same_system={same}: setup recorded {} reductions",
            setups[0].comm.reductions
        );
    }
}

/// MGS costs one reduction per basis column (growing with the cycle); CholQR
/// stays flat at 3 — the §III-A case for CholQR, read off the event deltas.
#[test]
fn mgs_deltas_grow_with_basis_cholqr_stays_flat() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let mut per_iter = Vec::new();
    for orth in [OrthScheme::CholQr, OrthScheme::Mgs] {
        let ring = Arc::new(RingRecorder::new(8192));
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 30,
            orth,
            ortho: OrthPath::Classic,
            stats: Some(CommStats::new_shared()),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        let res = gmres::solve(&a, &id, &b, &mut x, &opts);
        assert!(res.converged);
        let events = ring.events();
        per_iter.push(cumulative_comm(&events).reductions as f64 / res.iterations as f64);
        // Flat vs growing deltas within one cycle.
        let iters = iteration_events(&events);
        let deltas: Vec<u64> = iters
            .iter()
            .filter(|e| e.cycle == 0 && e.iter > 0 && e.iter < 10)
            .map(|e| e.comm.reductions)
            .collect();
        match orth {
            OrthScheme::CholQr => assert!(deltas.iter().all(|&d| d == 3), "{deltas:?}"),
            OrthScheme::Mgs => assert!(deltas.windows(2).all(|w| w[1] > w[0]), "{deltas:?}"),
            _ => unreachable!(),
        }
    }
    assert!(
        per_iter[1] > 2.0 * per_iter[0],
        "MGS ({:.1}/it) must dwarf CholQR ({:.1}/it) in synchronizations",
        per_iter[1],
        per_iter[0]
    );
}

/// The distributed operator's halo traffic: message COUNT is independent of
/// the number of RHS columns (pseudo-block/block fusion), while the byte
/// volume scales linearly with p — §V-B2's "MPI buffers are p times bigger".
/// Asserted on the counters one apply records against the halo plan.
#[test]
fn spmm_messages_independent_of_p_bytes_linear_in_p() {
    let prob = poisson2d::<f64>(32, 32);
    let stats = CommStats::new_shared();
    let op = DistOp::new(prob.a, 8, Arc::clone(&stats));
    let n = 32 * 32;
    let mut runs = Vec::new();
    for p in [1usize, 4, 16] {
        stats.reset();
        let x = DMat::from_fn(n, p, |i, j| (i + j) as f64);
        let _ = kryst_par::LinOp::apply_new(&op, &x);
        let snap = stats.snapshot();
        // One exchange per apply, exactly the plan's pattern.
        assert!(snap.p2p_messages > 0);
        assert_eq!(snap.p2p_messages, op.plan().messages_per_exchange as u64);
        assert_eq!(
            snap.p2p_bytes,
            op.plan().bytes_per_exchange(p, std::mem::size_of::<f64>()) as u64
        );
        runs.push((p, snap.p2p_messages, snap.p2p_bytes));
    }
    assert_eq!(runs[0].1, runs[1].1);
    assert_eq!(runs[1].1, runs[2].1);
    assert_eq!(runs[1].2, 4 * runs[0].2);
    assert_eq!(runs[2].2, 16 * runs[0].2);
}

/// Within-cycle Arnoldi step index of each iteration event (0-based): the
/// `j` in the §III-D per-iteration formulas.
fn within_cycle_steps(iters: &[&kryst_obs::IterationEvent]) -> Vec<usize> {
    let mut steps = Vec::with_capacity(iters.len());
    let mut cur = usize::MAX;
    let mut j = 0;
    for ev in iters {
        if ev.cycle != cur {
            cur = ev.cycle;
            j = 0;
        }
        steps.push(j);
        j += 1;
    }
    steps
}

/// §III-D byte audit, classic path: iteration `j` of a GMRES(m)/CholQR
/// cycle reduces exactly `(2j + 3)·8` bytes in its 3 reductions — the two
/// CGS projection passes carry `(j+1)` coefficients each, the Gram product
/// one scalar — and the cycle-start CholQR adds its own 8-byte Gram. Locks
/// the accounting to the message sizes §III-D argues about, not a
/// `(j+2)·p·p` over-approximation.
#[test]
fn classic_reduction_bytes_are_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let stats = CommStats::new_shared();
    let ring = Arc::new(RingRecorder::new(8192));
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 20,
        orth: OrthScheme::CholQr,
        ortho: OrthPath::Classic,
        stats: Some(Arc::clone(&stats)),
        recorder: Some(ring.clone() as Arc<dyn Recorder>),
        ..Default::default()
    };
    let mut x = DMat::zeros(n, 1);
    let res = gmres::solve(&a, &id, &b, &mut x, &opts);
    assert!(res.converged);
    let events = ring.events();
    let iters = iteration_events(&events);
    let steps = within_cycle_steps(&iters);
    let w = std::mem::size_of::<f64>() as u64;
    for (ev, &j) in iters.iter().zip(&steps) {
        let first_of_cycle = j == 0;
        let want = (2 * j as u64 + 3) * w + u64::from(first_of_cycle) * w;
        assert_eq!(
            ev.comm.reduction_bytes, want,
            "cycle {} step {j}: {} bytes",
            ev.cycle, ev.comm.reduction_bytes
        );
    }
    // The classic path never fuses: no batched parts anywhere in the solve.
    assert_eq!(stats.snapshot().fused_parts, 0);
}

/// Fused-path conformance: the same solve runs the same iteration
/// trajectory, but iteration `j` reduces once (twice under the adaptive
/// re-orthogonalization budget) with the projection coefficients and the
/// Gram batched into one `(j+2)·8`-byte message of 2 fused parts.
#[test]
fn fused_reduction_bytes_and_parts_are_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);

    let run = |path: OrthPath| {
        let stats = CommStats::new_shared();
        let ring = Arc::new(RingRecorder::new(8192));
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            orth: OrthScheme::CholQr,
            ortho: path,
            stats: Some(Arc::clone(&stats)),
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            ..Default::default()
        };
        let mut x = DMat::zeros(n, 1);
        let res = gmres::solve(&a, &id, &b, &mut x, &opts);
        assert!(res.converged, "{path:?}");
        (res, stats.snapshot(), ring.events())
    };
    let (classic, csnap, _) = run(OrthPath::Classic);
    let (fused, fsnap, events) = run(OrthPath::Fused);

    // Same Krylov trajectory, strictly fewer synchronizations.
    assert_eq!(fused.iterations, classic.iterations);
    assert!(
        fsnap.reductions < csnap.reductions,
        "fused {} !< classic {}",
        fsnap.reductions,
        csnap.reductions
    );

    let iters = iteration_events(&events);
    let steps = within_cycle_steps(&iters);
    let w = std::mem::size_of::<f64>() as u64;
    for (ev, &j) in iters.iter().zip(&steps) {
        // The cycle-start CholQR is a plain (unfused) reduction riding on
        // the cycle's first iteration.
        let extra = u64::from(j == 0);
        let passes = ev.comm.reductions - extra;
        assert!(
            passes == 1 || passes == 2,
            "cycle {} step {j}: {} fused passes",
            ev.cycle,
            passes
        );
        assert_eq!(
            ev.comm.fused_parts,
            2 * passes,
            "cycle {} step {j}",
            ev.cycle
        );
        assert_eq!(
            ev.comm.reduction_bytes,
            passes * (j as u64 + 2) * w + extra * w,
            "cycle {} step {j}",
            ev.cycle
        );
    }
}

/// Fused deflated GCRO-DR cycles: the recycled-block projection `CᴴW` is a
/// third part of the *same* fused reduction — a deflated iteration `j`
/// synchronizes once (`k + j + 2` coefficients, 3 parts) instead of the
/// classic four times. §III-D's "one extra reduction per iteration" price
/// of deflation disappears into the batch.
#[test]
fn fused_deflated_cycle_parts_are_exact() {
    let (a, b) = poisson_setup(24);
    let n = a.nrows();
    let id = IdentityPrecond::new(n);
    let k = 8usize;
    let mk = |path: OrthPath| SolveOpts {
        rtol: 1e-8,
        restart: 20,
        recycle: k,
        orth: OrthScheme::CholQr,
        ortho: path,
        same_system: true,
        ..Default::default()
    };

    let run = |path: OrthPath| {
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        assert!(gcrodr::solve(&a, &id, &b, &mut x, &mk(path), &mut ctx).converged);
        let ring = Arc::new(RingRecorder::new(8192));
        let opts = SolveOpts {
            recorder: Some(ring.clone() as Arc<dyn Recorder>),
            stats: Some(CommStats::new_shared()),
            ..mk(path)
        };
        let b2 = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
        let mut x = DMat::zeros(n, 1);
        let res = gcrodr::solve(&a, &id, &b2, &mut x, &opts, &mut ctx);
        assert!(res.converged, "{path:?}");
        (res, ring.events())
    };
    let (classic, _) = run(OrthPath::Classic);
    let (fused, events) = run(OrthPath::Fused);
    assert_eq!(fused.iterations, classic.iterations);

    let iters = iteration_events(&events);
    let steps = within_cycle_steps(&iters);
    let w = std::mem::size_of::<f64>() as u64;
    // Interior iterations only: cycle boundaries additionally carry the
    // restart CholQR and the CᴴR update, and the trailing event absorbs the
    // end-of-cycle update by the tracer's tiling construction.
    let mut interior = 0;
    for (win, &j) in iters.windows(2).zip(&steps[1..]) {
        let ev = &win[1];
        if j == 0 || ev.iter == iters.last().unwrap().iter {
            continue;
        }
        let passes = ev.comm.reductions;
        assert!(
            passes == 1 || passes == 2,
            "cycle {} step {j}: {} fused passes",
            ev.cycle,
            passes
        );
        assert_eq!(
            ev.comm.fused_parts,
            3 * passes,
            "cycle {} step {j}",
            ev.cycle
        );
        assert_eq!(
            ev.comm.reduction_bytes,
            passes * (k as u64 + j as u64 + 2) * w,
            "cycle {} step {j}",
            ev.cycle
        );
        interior += 1;
    }
    assert!(interior > 0, "no interior deflated iterations observed");
}
