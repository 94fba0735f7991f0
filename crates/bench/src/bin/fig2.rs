//! Fig. 2 — Poisson's equation, FGCRO-DR(30,10) vs FGMRES(30).
//!
//! Paper setting (§IV-B): 2-D Poisson, four successive right-hand sides
//! (ν = 0.1, 10, 0.001, 100), GAMG preconditioner with an inner GMRES
//! smoother (which makes the cycle nonlinear ⇒ flexible solvers), operator
//! and preconditioner assembled once (`same_system`). Two settings:
//!
//! * (a/b) robust: strength threshold 0.0, GMRES(3) smoother,
//! * (c/d) cheaper: higher threshold, GMRES(1) smoother.
//!
//! The paper ran 283M unknowns on 8,192 cores; this binary runs the same
//! algorithm on a laptop-scale grid — the comparison (recycling gains per
//! RHS, cumulative gain, convergence curves) is what the figure shows.

use kryst_bench::{print_curve, report_profile, rhs_row, rule, time, traced_opts};
use kryst_core::{gcrodr, gmres, PrecondSide, SolveOpts, SolverContext};
use kryst_dense::DMat;
use kryst_pde::poisson::{paper_rhs_sequence, poisson2d, PAPER_NUS};
use kryst_precond::{Amg, AmgOpts, SmootherKind};

fn run_setting(title: &str, tag: &str, nx: usize, threshold: f64, smoother_iters: usize) {
    rule();
    println!("{title}");
    rule();
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    let rhss = paper_rhs_sequence::<f64>(nx, nx);
    let (amg, setup) = time(|| {
        Amg::new(
            &prob.a,
            prob.near_nullspace.as_ref(),
            &AmgOpts {
                threshold,
                smoother: SmootherKind::Gmres {
                    iters: smoother_iters,
                },
                ..Default::default()
            },
        )
    });
    println!(
        "n = {n}, AMG setup {setup:.3}s, {} levels, operator complexity {:.2}",
        amg.nlevels(),
        amg.operator_complexity()
    );
    let opts = SolveOpts {
        rtol: 1e-8,
        restart: 30,
        recycle: 10,
        side: PrecondSide::Flexible,
        same_system: true,
        ..Default::default()
    };

    // FGMRES(30) baseline.
    let fg_opts = traced_opts(&opts, &format!("{tag}_fgmres"));
    println!("\nFGMRES(30):");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "RHS", "iters", "seconds", "gain"
    );
    let mut fg_times = Vec::new();
    let mut fg_total_iters = 0;
    let mut fg_hist = Vec::new();
    for (i, rhs) in rhss.iter().enumerate() {
        let b = DMat::from_col_major(n, 1, rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) = time(|| gmres::solve(&prob.a, &amg, &b, &mut x, &fg_opts));
        assert!(
            res.converged,
            "FGMRES diverged on RHS {i} (ν = {})",
            PAPER_NUS[i]
        );
        rhs_row(i + 1, res.iterations, secs, None);
        fg_times.push(secs);
        fg_total_iters += res.iterations;
        fg_hist.extend(res.history);
    }

    // FGCRO-DR(30,10) with recycling across the sequence.
    let gc_opts = traced_opts(&opts, &format!("{tag}_fgcrodr"));
    println!("\nFGCRO-DR(30,10), -hpddm_recycle_same_system:");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "RHS", "iters", "seconds", "gain"
    );
    let mut ctx = SolverContext::new();
    let mut gc_times = Vec::new();
    let mut gc_total_iters = 0;
    let mut gc_hist = Vec::new();
    for (i, rhs) in rhss.iter().enumerate() {
        let b = DMat::from_col_major(n, 1, rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) = time(|| gcrodr::solve(&prob.a, &amg, &b, &mut x, &gc_opts, &mut ctx));
        assert!(res.converged, "FGCRO-DR diverged on RHS {i}");
        rhs_row(i + 1, res.iterations, secs, Some(fg_times[i]));
        gc_times.push(secs);
        gc_total_iters += res.iterations;
        gc_hist.extend(res.history);
    }
    let cum_fg: f64 = fg_times.iter().sum();
    let cum_gc: f64 = gc_times.iter().sum();
    println!(
        "\ntotal iterations: FGMRES {fg_total_iters}, FGCRO-DR {gc_total_iters} \
         (paper: 124 vs 90 / 172 vs 137)"
    );
    println!(
        "cumulative time: FGMRES {cum_fg:.3}s, FGCRO-DR {cum_gc:.3}s, \
         cumulative gain {:+.1}% (paper: +30.5% / +18.5%)",
        (cum_fg / cum_gc - 1.0) * 100.0
    );
    print_curve("FGMRES", &fg_hist);
    print_curve("FGCRO-DR", &gc_hist);
}

/// The artifact-description smoke test regime: a weak (Jacobi)
/// preconditioner, where the preconditioned spectrum retains the slow
/// modes recycling deflates — the regime of the artifact's expected output
/// (288 GMRES vs 147 GCRO-DR iterations).
fn run_relaxed(nx: usize) {
    rule();
    println!("Artifact smoke-test regime — relaxed (Jacobi) preconditioner, rtol 1e-6");
    rule();
    let prob = poisson2d::<f64>(nx, nx);
    let n = prob.a.nrows();
    let rhss = paper_rhs_sequence::<f64>(nx, nx);
    let jac = kryst_precond::Jacobi::new(&prob.a, 1.0);
    let opts = SolveOpts {
        rtol: 1e-6,
        restart: 30,
        recycle: 10,
        same_system: true,
        max_iters: 20000,
        ..Default::default()
    };
    let g_opts = traced_opts(&opts, "fig2_relaxed_gmres");
    println!("\nGMRES(30):");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "RHS", "iters", "seconds", "gain"
    );
    let mut g_times = Vec::new();
    let mut g_iters = 0;
    for (i, rhs) in rhss.iter().enumerate() {
        let b = DMat::from_col_major(n, 1, rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) = time(|| gmres::solve(&prob.a, &jac, &b, &mut x, &g_opts));
        assert!(res.converged);
        rhs_row(i + 1, res.iterations, secs, None);
        g_times.push(secs);
        g_iters += res.iterations;
    }
    let r_opts = traced_opts(&opts, "fig2_relaxed_gcrodr");
    println!("\nGCRO-DR(30,10), -hpddm_recycle_same_system:");
    println!(
        "{:>4} {:>8} {:>12} {:>10}",
        "RHS", "iters", "seconds", "gain"
    );
    let mut ctx = SolverContext::new();
    let mut r_times = Vec::new();
    let mut r_iters = 0;
    for (i, rhs) in rhss.iter().enumerate() {
        let b = DMat::from_col_major(n, 1, rhs.clone());
        let mut x = DMat::zeros(n, 1);
        let (res, secs) = time(|| gcrodr::solve(&prob.a, &jac, &b, &mut x, &r_opts, &mut ctx));
        assert!(res.converged);
        rhs_row(i + 1, res.iterations, secs, Some(g_times[i]));
        r_times.push(secs);
        r_iters += res.iterations;
    }
    let cg: f64 = g_times.iter().sum();
    let cr: f64 = r_times.iter().sum();
    println!("\ntotal iterations: GMRES {g_iters}, GCRO-DR {r_iters} (artifact: 288 vs 147)");
    println!("cumulative gain {:+.1}%", (cg / cr - 1.0) * 100.0);
}

fn main() {
    let nx = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    println!("Fig. 2 — Poisson, FGCRO-DR(30,10) vs FGMRES(30), grid {nx}×{nx}");
    run_setting(
        "Fig. 2a/2b — robust GAMG (threshold 0.0, GMRES(3) smoother)",
        "fig2_robust",
        nx,
        0.0,
        3,
    );
    run_setting(
        "Fig. 2c/2d — cheaper GAMG (threshold 0.08, GMRES(1) smoother)",
        "fig2_cheap",
        nx,
        0.08,
        1,
    );
    run_relaxed(nx / 2);
    report_profile();
}
