//! (Block) GCRO-DR — Generalized Conjugate Residual with inner
//! Orthogonalization and Deflated Restarting (paper Fig. 1).
//!
//! The solver keeps a recycled pair `(U_k, C_k)` with `A·U_k = C_k` and
//! `C_kᴴ·C_k = I` inside a [`SolverContext`] that persists across `solve`
//! calls (the paper's "singleton class"). Per Fig. 1:
//!
//! * **lines 2–9** — on a new system the pair is refreshed with a
//!   distributed QR of `A·U_k` (skipped with
//!   [`crate::SolveOpts::same_system`], §III-B), then the initial guess is
//!   corrected and the residual projected off `C_k`;
//! * **lines 10–21** — without a recycle space the first cycle is plain
//!   (block) GMRES followed by the harmonic-Ritz eigenproblem in the cheap
//!   formulation of eq. (2);
//! * **lines 22–39** — subsequent cycles run Arnoldi with the projected
//!   operator `(I − C_k·C_kᴴ)·A` (one extra reduction per iteration,
//!   §III-D) and refresh the recycle space from the generalized
//!   eigenproblem eq. (3) with strategy **A** (3a, one extra fused
//!   reduction) or **B** (3b, communication-free);
//! * `U_k` lives in the *solution* space (`Z`-side), which is what makes the
//!   same code handle right, left, and **flexible** preconditioning
//!   (FGCRO-DR) uniformly.

use crate::cycle::{any_above, rhs_norms, BlockArnoldi, PrecondMode};
use crate::opts::{RecycleStrategy, SolveOpts, SolveResult};
use crate::trace::SolveTracer;
use kryst_dense::eig::{self, EigDecomp};
use kryst_dense::qr::HouseholderQr;
use kryst_dense::{blas, chol, tri, DMat};
use kryst_obs::{DiagKind, SpanKind};
use kryst_par::{LinOp, PrecondOp};
use kryst_scalar::{Real, Scalar};

/// The recycled subspace pair.
pub struct RecycleSpace<S: Scalar> {
    /// Solution-space block (`n × k·p`).
    pub u: DMat<S>,
    /// Iteration-space orthonormal block with `A·U = C`.
    pub c: DMat<S>,
}

/// Persistent solver state across a sequence of linear systems — the
/// paper's singleton holding `U_k`/`C_k` between solves.
#[derive(Default)]
pub struct SolverContext<S: Scalar> {
    /// Recycled subspace from previous solves, if any.
    pub recycle: Option<RecycleSpace<S>>,
    /// Number of completed `solve` calls.
    pub solves: usize,
}

impl<S: Scalar> SolverContext<S> {
    /// Fresh, empty context.
    pub fn new() -> Self {
        Self {
            recycle: None,
            solves: 0,
        }
    }

    /// Drop any recycled information.
    pub fn reset(&mut self) {
        self.recycle = None;
    }

    /// Columns currently recycled.
    pub fn recycled_cols(&self) -> usize {
        self.recycle.as_ref().map(|r| r.u.ncols()).unwrap_or(0)
    }
}

/// Solve `A·X = B` with (block) GCRO-DR, recycling through `ctx`.
pub fn solve<S: Scalar>(
    a: &dyn LinOp<S>,
    pc: &dyn PrecondOp<S>,
    b: &DMat<S>,
    x: &mut DMat<S>,
    opts: &SolveOpts,
    ctx: &mut SolverContext<S>,
) -> SolveResult {
    let n = a.nrows();
    let p = b.ncols();
    let m = opts.restart.max(2);
    let k_blocks_target = opts.recycle.clamp(1, m - 1);
    let kc_target = k_blocks_target * p;
    let mode = PrecondMode::new(pc, opts.side);
    let bnorms = rhs_norms(b);
    let stats = opts.stats.as_deref();
    let mut tracer = SolveTracer::begin(opts, "gcrodr", ctx.solves, n, p);
    let orth_name = opts.orth.name();
    let mut cycle = 0usize;
    let mut iters = 0usize;
    // Buffer pool shared by every Arnoldi cycle of this solve.
    let mut ws = kryst_sparse::SpmmWorkspace::new();

    // The paper's Fig. 1 guards the refresh work with `A_i ≠ A_{i−1}`: for
    // the very first system in a sequence that condition is vacuously true,
    // so the recycle space matures during the first solve even when the
    // caller declares a non-variable sequence.
    let first_solve = ctx.solves == 0;
    let refresh_allowed = !opts.same_system || first_solve;
    let mut r = mode.residual_ws(a, b, x, &mut ws);
    {
        let r0: Vec<f64> = r.col_norms().iter().map(|v| v.to_f64()).collect();
        if !any_above(&r0, &bnorms, opts.rtol) {
            ctx.solves += 1;
            let final_relres: Vec<f64> = r0.iter().zip(&bnorms).map(|(r, b)| r / b).collect();
            let history = tracer.finish(true, &final_relres);
            return SolveResult {
                iterations: 0,
                converged: true,
                history,
                final_relres,
            };
        }
    }

    // ---- Lines 2–9: reuse a previous recycle space. --------------------
    let setup_probe = tracer.span_start(SpanKind::Setup);
    let mut space: Option<RecycleSpace<S>> = None;
    if let Some(mut rec) = ctx.recycle.take() {
        if rec.u.nrows() == n && rec.u.ncols() >= 1 {
            if !opts.same_system {
                // Lines 4–6: [Q,R] = distributed_qr(A·U); C ⟵ Q; U ⟵ U·R⁻¹.
                let mut w = mode.apply_op_ws(a, &rec.u, &mut ws);
                let out = chol::cholqr(&mut w);
                if let Some(st) = stats {
                    st.record_reduction(std::mem::size_of_val(out.r.as_slice()));
                }
                safe_right_solve(&mut rec.u, &out.r);
                rec.c = w;
            }
            // Lines 8–9: X ⟵ X + U·CᴴR; R ⟵ R − C·CᴴR.
            let coef = blas::adjoint_times(&rec.c, &r);
            if let Some(st) = stats {
                st.record_reduction(std::mem::size_of_val(coef.as_slice()));
            }
            blas::gemm(
                S::one(),
                &rec.u,
                blas::Op::None,
                &coef,
                blas::Op::None,
                S::one(),
                x,
            );
            blas::gemm(
                -S::one(),
                &rec.c,
                blas::Op::None,
                &coef,
                blas::Op::None,
                S::one(),
                &mut r,
            );
            space = Some(rec);
        }
    }
    tracer.span_end(setup_probe, 0);

    // ---- Lines 10–21: first cycle is plain (block) GMRES. ---------------
    if space.is_none() {
        let cyc_probe = tracer.span_start(SpanKind::Cycle);
        let mut arn = BlockArnoldi::new(a, &mode, m, p, opts.orth, None, stats)
            .with_path(opts.ortho)
            .with_workspace(std::mem::take(&mut ws));
        arn.start(&r);
        let mut done = false;
        let mut first = true;
        while arn.can_step() && iters < opts.max_iters {
            let res = arn.step();
            iters += 1;
            let rel: Vec<f64> = res.iter().zip(&bnorms).map(|(rr, bb)| rr / bb).collect();
            tracer.iteration(cycle, iters - 1, rel, orth_name, arn.breakdown_rank(first));
            if arn.last_orth_passes() > 1 || arn.last_orth_refreshed() {
                tracer.diag(
                    cycle,
                    iters - 1,
                    DiagKind::OrthLoss,
                    arn.fused_loss(),
                    arn.last_orth_passes(),
                );
            }
            first = false;
            if !any_above(&res, &bnorms, opts.rtol) {
                done = true;
                break;
            }
        }
        tracer.span_end(cyc_probe, cycle);
        let y = arn.solve_y();
        arn.update_solution(&y, x);
        ws.put(r);
        r = mode.residual_ws(a, b, x, &mut ws);
        // Lines 16–20: harmonic Ritz via eq. (2), then C/U extraction.
        let eig_probe = tracer.span_start(SpanKind::Eigensolve);
        let j = arn.iterations();
        if j >= 1 {
            let kc = kc_target.min(j * p.max(1)).max(1);
            let jp = j * p;
            let hm = arn.hraw.block(0, 0, jp, jp);
            // M = [0; h̄ᴴ·h̄] — only the last p columns are nonzero, so the
            // harmonic-Ritz left-hand side H = H_m + H_m⁻ᴴ·M (equivalent to
            // the paper's eq. (2) formulation) needs one p-column solve with
            // H_mᴴ.
            let hlast = arn.hraw.block(jp, (j - 1) * p, p, p);
            let mut mcols = DMat::zeros(jp, p);
            let hh = blas::matmul(&hlast, blas::Op::ConjTrans, &hlast, blas::Op::None);
            mcols.set_block(jp - p, 0, &hh);
            let hm_h = hm.adjoint();
            let fac = kryst_dense::lu::Lu::factor(hm_h);
            let mut hmod = hm.clone();
            if !fac.is_singular() {
                fac.solve_in_place(&mut mcols);
                for c in 0..p {
                    for i in 0..jp {
                        hmod[(i, jp - p + c)] += mcols[(i, c)];
                    }
                }
            }
            let decomp = eig::eig(&hmod);
            let pk = select_smallest::<S>(&decomp, kc);
            let kc = pk.ncols();
            if kc >= 1 {
                tracer.diag(
                    cycle,
                    iters.saturating_sub(1),
                    DiagKind::RitzQuality,
                    min_ritz_magnitude(&decomp),
                    kc,
                );
                // [Q,R] = qr(H̄·P); C = V·Q; U = Z·P·R⁻¹.
                let hp = blas::matmul(&arn.hraw_active(), blas::Op::None, &pk, blas::Op::None);
                let f = HouseholderQr::factor(hp);
                let q = f.q_thin();
                let rfac = f.r();
                let c = blas::matmul(&arn.v_active(), blas::Op::None, &q, blas::Op::None);
                let mut u = blas::matmul(&arn.z_active(), blas::Op::None, &pk, blas::Op::None);
                safe_right_solve(&mut u, &rfac);
                space = Some(RecycleSpace { u, c });
            }
        }
        tracer.span_end(eig_probe, cycle);
        ws = arn.into_workspace();
        cycle += 1;
        let _ = done;
        if !any_above(
            &r.col_norms().iter().map(|v| v.to_f64()).collect::<Vec<_>>(),
            &bnorms,
            opts.rtol,
        ) {
            ctx.recycle = space;
            ctx.solves += 1;
            let final_relres: Vec<f64> = r
                .col_norms()
                .iter()
                .zip(&bnorms)
                .map(|(rr, bb)| rr.to_f64() / bb)
                .collect();
            let converged = final_relres.iter().all(|&v| v <= opts.rtol * 10.0);
            let history = tracer.finish(converged, &final_relres);
            return SolveResult {
                iterations: iters,
                converged,
                history,
                final_relres,
            };
        }
    }

    // ---- Lines 22–39: deflated cycles with the projected operator. ------
    let mut converged = false;
    while iters < opts.max_iters && space.is_some() {
        let rec = space.take().unwrap();
        let kc = rec.u.ncols();
        let k_blocks = kc.div_ceil(p);
        let m_inner = (m - k_blocks.min(m - 1)).max(1);
        let cyc_probe = tracer.span_start(SpanKind::Cycle);
        let mut arn = BlockArnoldi::new(a, &mode, m_inner, p, opts.orth, Some(&rec.c), stats)
            .with_path(opts.ortho)
            .with_workspace(std::mem::take(&mut ws));
        arn.start(&r);
        let mut done = false;
        let mut first = true;
        while arn.can_step() && iters < opts.max_iters {
            let res = arn.step();
            iters += 1;
            let rel: Vec<f64> = res.iter().zip(&bnorms).map(|(rr, bb)| rr / bb).collect();
            tracer.iteration(cycle, iters - 1, rel, orth_name, arn.breakdown_rank(first));
            if arn.last_orth_passes() > 1 || arn.last_orth_refreshed() {
                tracer.diag(
                    cycle,
                    iters - 1,
                    DiagKind::OrthLoss,
                    arn.fused_loss(),
                    arn.last_orth_passes(),
                );
            }
            first = false;
            if !any_above(&res, &bnorms, opts.rtol) {
                done = true;
                break;
            }
        }
        tracer.span_end(cyc_probe, cycle);
        // Lines 27–29: solution update with both U and Z contributions.
        let restart_probe = tracer.span_start(SpanKind::Restart);
        let y = arn.solve_y();
        let cr = blas::adjoint_times(&rec.c, &r);
        if let Some(st) = stats {
            st.record_reduction(std::mem::size_of_val(cr.as_slice()));
        }
        let mut yk = cr;
        blas::gemm(
            -S::one(),
            &arn.e_active(),
            blas::Op::None,
            &y,
            blas::Op::None,
            S::one(),
            &mut yk,
        );
        blas::gemm(
            S::one(),
            &rec.u,
            blas::Op::None,
            &yk,
            blas::Op::None,
            S::one(),
            x,
        );
        arn.update_solution(&y, x);
        ws.put(r);
        r = mode.residual_ws(a, b, x, &mut ws);
        tracer.span_end(restart_probe, cycle);
        let rn: Vec<f64> = r.col_norms().iter().map(|v| v.to_f64()).collect();
        // Convergence is decided on the TRUE residual; the in-cycle estimate
        // (`done`) only ends the cycle early.
        let _ = done;
        if !any_above(&rn, &bnorms, opts.rtol) {
            converged = true;
        }

        // Lines 31–38: refresh the recycle space (skipped for non-variable
        // sequences after the first solve — §III-B — and once converged).
        if refresh_allowed && !converged && arn.iterations() > 0 {
            let parts = CycleParts {
                e: arn.e_active(),
                h: arn.hraw_active(),
                v: arn.v_active(),
                z: arn.z_active(),
                j: arn.iterations(),
                p,
            };
            ws = arn.into_workspace();
            let refresh_probe = tracer.span_start(SpanKind::RecycleRefresh);
            space = Some(refresh_recycle_space(
                rec, parts, kc, opts, stats, &tracer, cycle,
            ));
            tracer.span_end(refresh_probe, cycle);
        } else {
            ws = arn.into_workspace();
            space = Some(rec);
        }
        cycle += 1;
        if converged {
            break;
        }
    }

    ctx.recycle = space;
    ctx.solves += 1;
    ws.put(r);
    let rfin = mode.residual_ws(a, b, x, &mut ws);
    let final_relres: Vec<f64> = rfin
        .col_norms()
        .iter()
        .zip(&bnorms)
        .map(|(rr, bb)| rr.to_f64() / bb)
        .collect();
    let converged = converged && final_relres.iter().all(|&v| v <= opts.rtol * 10.0);
    let history = tracer.finish(converged, &final_relres);
    SolveResult {
        iterations: iters,
        converged,
        history,
        final_relres,
    }
}

/// The cycle data the recycle-space refresh consumes (extracted from the
/// Arnoldi driver so the borrow of `C` can end first).
struct CycleParts<S> {
    e: DMat<S>,
    h: DMat<S>,
    v: DMat<S>,
    z: DMat<S>,
    j: usize,
    p: usize,
}

/// Lines 31–38 of Fig. 1: generalized harmonic-Ritz refresh of `(U, C)`.
fn refresh_recycle_space<S: Scalar>(
    mut rec: RecycleSpace<S>,
    parts: CycleParts<S>,
    kc: usize,
    opts: &SolveOpts,
    stats: Option<&kryst_par::CommStats>,
    tracer: &SolveTracer,
    cycle: usize,
) -> RecycleSpace<S> {
    let p = parts.p;
    let j = parts.j;
    let jp = j * p;
    // Line 32: scale the columns of U to unit norm; D holds the scalings.
    let mut d = DMat::<S>::zeros(kc, kc);
    for i in 0..kc {
        let nrm = rec.u.col_norm(i);
        let inv = if nrm.to_f64() > 0.0 {
            S::one() / S::from_real(nrm)
        } else {
            S::one()
        };
        rec.u.scale_col(i, inv);
        d[(i, i)] = inv;
    }
    if let Some(st) = stats {
        // The column norms are one fused reduction in a distributed run.
        st.record_reduction(kc * std::mem::size_of::<S>());
    }
    // G = [[D, E], [0, H̄]] of size (kc + (j+1)p) × (kc + jp).
    let rows = kc + (j + 1) * p;
    let cols = kc + jp;
    let mut g = DMat::<S>::zeros(rows, cols);
    g.set_block(0, 0, &d);
    g.set_block(0, kc, &parts.e);
    g.set_block(kc, kc, &parts.h);
    let t = blas::matmul(&g, blas::Op::ConjTrans, &g, blas::Op::None);
    // Right-hand side W per eq. (3a)/(3b).
    let w = match opts.recycle_strategy {
        RecycleStrategy::A => {
            // J = [[CᴴU, 0], [VᴴU, I]] — one extra fused reduction.
            let cu = blas::adjoint_times(&rec.c, &rec.u);
            let vu = blas::adjoint_times(&parts.v, &rec.u);
            if let Some(st) = stats {
                st.record_reduction(
                    (cu.as_slice().len() + vu.as_slice().len()) * std::mem::size_of::<S>(),
                );
            }
            let mut jmat = DMat::<S>::zeros(rows, cols);
            jmat.set_block(0, 0, &cu);
            jmat.set_block(kc, 0, &vu);
            for i in 0..jp {
                jmat[(kc + i, kc + i)] = S::one();
            }
            blas::matmul(&g, blas::Op::ConjTrans, &jmat, blas::Op::None)
        }
        RecycleStrategy::B => {
            // W = Gᴴ·[I; 0]: the adjoint of G's leading square block —
            // no communication.
            let gtop = g.block(0, 0, cols, cols);
            gtop.adjoint()
        }
    };
    let eig_probe = tracer.span_start(SpanKind::Eigensolve);
    let decomp = eig::eig_generalized(&t, &w);
    let pk = select_smallest::<S>(&decomp, kc);
    tracer.span_end(eig_probe, cycle);
    if pk.ncols() == 0 {
        return rec;
    }
    tracer.diag(
        cycle,
        tracer.iterations().saturating_sub(1),
        DiagKind::RitzQuality,
        min_ritz_magnitude(&decomp),
        pk.ncols(),
    );
    // Lines 35–37: [Q,R] = qr(G·P); C ⟵ [C V]·Q; U ⟵ [U Z]·P·R⁻¹.
    let gp = blas::matmul(&g, blas::Op::None, &pk, blas::Op::None);
    let f = HouseholderQr::factor(gp);
    let q = f.q_thin();
    let rfac = f.r();
    let cv = rec.c.hcat(&parts.v);
    let c_new = blas::matmul(&cv, blas::Op::None, &q, blas::Op::None);
    let uz = rec.u.hcat(&parts.z);
    let mut u_new = blas::matmul(&uz, blas::Op::None, &pk, blas::Op::None);
    safe_right_solve(&mut u_new, &rfac);
    RecycleSpace { u: u_new, c: c_new }
}

/// Smallest harmonic-Ritz magnitude of a deflation eigenproblem — the
/// quality signal carried on [`DiagKind::RitzQuality`] events (a kept value
/// near zero flags a nearly singular recycle candidate).
fn min_ritz_magnitude<R: Real>(decomp: &EigDecomp<R>) -> f64 {
    decomp.values.iter().fold(f64::INFINITY, |acc, l| {
        let re = l.re.to_f64();
        let im = l.im.to_f64();
        acc.min(re.hypot(im))
    })
}

/// `X ⟵ X·R⁻¹` with tiny-pivot protection (deflation eigenvectors can be
/// nearly dependent; a clamped pivot keeps the basis finite and the next
/// CholQR/QR pass cleans it up).
fn safe_right_solve<S: Scalar>(x: &mut DMat<S>, r: &DMat<S>) {
    let k = x.ncols();
    let mut rmax = S::Real::zero();
    for i in 0..k {
        rmax = rmax.max(r[(i, i)].abs());
    }
    let floor = rmax.max(S::Real::epsilon()) * S::Real::epsilon() * S::Real::from_f64(1e3);
    let mut rsafe = r.clone();
    for i in 0..k {
        if rsafe[(i, i)].abs() < floor {
            rsafe[(i, i)] = S::from_real(floor);
        }
    }
    tri::right_solve_upper(x, &rsafe);
}

/// Select the eigenvectors of the `k` smallest-magnitude eigenvalues as a
/// matrix in the working scalar type. For real scalars, complex-conjugate
/// pairs contribute their real and imaginary parts (both are needed to span
/// the invariant subspace); for complex scalars the vectors embed directly.
fn select_smallest<S: Scalar>(decomp: &EigDecomp<S::Real>, k: usize) -> DMat<S> {
    let n = decomp.vectors.nrows();
    let idx = decomp.smallest_indices(n);
    let mut cols: Vec<Vec<S>> = Vec::with_capacity(k);
    if S::is_complex() {
        for &i in idx.iter().take(k) {
            let col: Vec<S> = (0..n)
                .map(|r| {
                    let v = decomp.vectors[(r, i)];
                    S::from_parts(v.re.to_f64(), v.im.to_f64())
                })
                .collect();
            cols.push(col);
        }
    } else {
        let tol = S::Real::epsilon().to_f64().sqrt();
        let mut used = vec![false; decomp.values.len()];
        for &i in idx.iter() {
            if cols.len() >= k {
                break;
            }
            if used[i] {
                continue;
            }
            used[i] = true;
            let lam = decomp.values[i];
            let scale = 1.0 + lam.abs().to_f64();
            if lam.im.to_f64().abs() <= tol * scale {
                // Real eigenvalue: real part of the vector.
                cols.push(
                    (0..n)
                        .map(|r| S::from_f64(decomp.vectors[(r, i)].re.to_f64()))
                        .collect(),
                );
            } else {
                // Complex pair: real and imaginary parts; mark the partner.
                cols.push(
                    (0..n)
                        .map(|r| S::from_f64(decomp.vectors[(r, i)].re.to_f64()))
                        .collect(),
                );
                if cols.len() < k {
                    cols.push(
                        (0..n)
                            .map(|r| S::from_f64(decomp.vectors[(r, i)].im.to_f64()))
                            .collect(),
                    );
                }
                for (j, &lj) in decomp.values.iter().enumerate() {
                    if !used[j]
                        && (lj.re - lam.re).abs().to_f64() <= tol * scale
                        && (lj.im + lam.im).abs().to_f64() <= tol * scale
                    {
                        used[j] = true;
                        break;
                    }
                }
            }
        }
    }
    // Drop numerically zero columns.
    let mut out_cols: Vec<Vec<S>> = Vec::new();
    for col in cols {
        let nrm: f64 = col.iter().map(|v| v.abs_sqr().to_f64()).sum();
        if nrm.sqrt() > 1e-14 {
            out_cols.push(col);
        }
    }
    let kk = out_cols.len();
    DMat::from_fn(n, kk, |i, j| out_cols[j][i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres;
    use crate::opts::PrecondSide;
    use kryst_par::IdentityPrecond;
    use kryst_pde::poisson::{paper_rhs_sequence, poisson2d};
    use kryst_sparse::Csr;

    fn check_true_residual<S: Scalar>(a: &Csr<S>, b: &DMat<S>, x: &DMat<S>, rtol: f64) {
        let mut r = a.apply(x);
        r.axpy(-S::one(), b);
        for l in 0..b.ncols() {
            let rel = r.col_norm(l).to_f64() / b.col_norm(l).to_f64();
            assert!(rel <= rtol * 50.0, "column {l}: true rel residual {rel}");
        }
    }

    #[test]
    fn single_solve_matches_gmres_quality() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| ((i % 6) as f64) - 2.5);
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 20,
            recycle: 5,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, 1);
        let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged, "GCRO-DR: {:?}", res.final_relres);
        check_true_residual(&prob.a, &b, &x, 1e-9);
        assert!(ctx.recycle.is_some(), "recycle space must persist");
        assert_eq!(ctx.recycled_cols(), 5);
    }

    #[test]
    fn recycling_reduces_iterations_on_same_system() {
        // The §III-B scenario: identical operator, varying RHS.
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let rhss = paper_rhs_sequence::<f64>(20, 20);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 25,
            recycle: 8,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut counts = Vec::new();
        for rhs in &rhss {
            let b = DMat::from_col_major(n, 1, rhs.clone());
            let mut x = DMat::zeros(n, 1);
            let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged);
            check_true_residual(&prob.a, &b, &x, 1e-8);
            counts.push(res.iterations);
        }
        assert!(
            counts[1..].iter().all(|&c| c < counts[0]),
            "recycling must cut iterations: {counts:?}"
        );
    }

    #[test]
    fn gcrodr_beats_gmres_on_rhs_sequence() {
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let rhss = paper_rhs_sequence::<f64>(20, 20);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 25,
            recycle: 8,
            ..Default::default()
        };

        let mut total_gmres = 0;
        let mut total_gcrodr = 0;
        let mut ctx = SolverContext::new();
        for rhs in &rhss {
            let b = DMat::from_col_major(n, 1, rhs.clone());
            let mut xg = DMat::zeros(n, 1);
            total_gmres += gmres::solve(&prob.a, &id, &b, &mut xg, &opts).iterations;
            let mut xr = DMat::zeros(n, 1);
            total_gcrodr += solve(&prob.a, &id, &b, &mut xr, &opts, &mut ctx).iterations;
        }
        assert!(
            total_gcrodr < total_gmres,
            "GCRO-DR {total_gcrodr} !< GMRES {total_gmres}"
        );
    }

    #[test]
    fn recycling_survives_operator_change() {
        // §IV-C scenario: slowly varying operators (diagonal perturbation).
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            recycle: 6,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let b = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
        let mut iters = Vec::new();
        for step in 0..3 {
            let shift = 1.0 + 0.01 * step as f64;
            let a = prob.a.shift_diag(shift);
            let mut x = DMat::zeros(n, 1);
            let res = solve(&a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "step {step}: {:?}", res.final_relres);
            check_true_residual(&a, &b, &x, 1e-8);
            iters.push(res.iterations);
        }
        assert!(iters[2] < iters[0], "sequence iterations {iters:?}");
    }

    #[test]
    fn block_gcrodr_with_multiple_rhs() {
        let prob = poisson2d::<f64>(14, 14);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let p = 3;
        let b = DMat::from_fn(n, p, |i, j| (((i + 2 * j) % 9) as f64) - 4.0);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 15,
            recycle: 4,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x = DMat::zeros(n, p);
        let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
        assert!(res.converged, "BGCRO-DR: {:?}", res.final_relres);
        check_true_residual(&prob.a, &b, &x, 1e-8);
        // Recycle space width is k·p.
        assert_eq!(ctx.recycled_cols(), 4 * p);
        // Second block solve benefits.
        let mut x2 = DMat::zeros(n, p);
        let opts2 = SolveOpts {
            same_system: true,
            ..opts.clone()
        };
        let res2 = solve(&prob.a, &id, &b, &mut x2, &opts2, &mut ctx);
        assert!(res2.converged);
        assert!(
            res2.iterations < res.iterations,
            "{} !< {}",
            res2.iterations,
            res.iterations
        );
    }

    #[test]
    fn strategies_a_and_b_both_converge() {
        let prob = poisson2d::<f64>(16, 16);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b = DMat::from_fn(n, 1, |i, _| 1.0 + ((i % 3) as f64));
        for strat in [RecycleStrategy::A, RecycleStrategy::B] {
            let opts = SolveOpts {
                rtol: 1e-8,
                restart: 12,
                recycle: 4,
                recycle_strategy: strat,
                ..Default::default()
            };
            let mut ctx = SolverContext::new();
            let mut x = DMat::zeros(n, 1);
            let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "{strat:?}: {:?}", res.final_relres);
            check_true_residual(&prob.a, &b, &x, 1e-8);
        }
    }

    #[test]
    fn flexible_gcrodr_with_variable_preconditioner() {
        use kryst_precond::{Amg, AmgOpts, SmootherKind};
        let prob = poisson2d::<f64>(20, 20);
        let n = prob.a.nrows();
        let amg = Amg::new(
            &prob.a,
            prob.near_nullspace.as_ref(),
            &AmgOpts {
                smoother: SmootherKind::Gmres { iters: 2 },
                ..Default::default()
            },
        );
        let rhss = paper_rhs_sequence::<f64>(20, 20);
        let opts = SolveOpts {
            rtol: 1e-8,
            restart: 20,
            recycle: 6,
            side: PrecondSide::Flexible,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut iters = Vec::new();
        for rhs in &rhss {
            let b = DMat::from_col_major(n, 1, rhs.clone());
            let mut x = DMat::zeros(n, 1);
            let res = solve(&prob.a, &amg, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "FGCRO-DR: {:?}", res.final_relres);
            check_true_residual(&prob.a, &b, &x, 1e-7);
            iters.push(res.iterations);
        }
        assert!(iters[1] <= iters[0], "FGCRO-DR recycling: {iters:?}");
    }

    #[test]
    fn complex_gcrodr_on_maxwell() {
        use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellParams};
        use kryst_scalar::C64;
        let params = MaxwellParams::matching_solution(4);
        let (prob, geom) = maxwell3d(&params);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let rhs = antenna_ring_rhs(&geom, &params, 4, 0.3, 0.5);
        let opts = SolveOpts {
            rtol: 1e-7,
            restart: 40,
            recycle: 10,
            max_iters: 4000,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::<C64>::new();
        let mut iters = Vec::new();
        for l in 0..4 {
            let b = DMat::from_col_major(n, 1, rhs.col(l).to_vec());
            let mut x = DMat::<C64>::zeros(n, 1);
            let res = solve(&prob.a, &id, &b, &mut x, &opts, &mut ctx);
            assert!(res.converged, "antenna {l}: {:?}", res.final_relres);
            check_true_residual(&prob.a, &b, &x, 1e-6);
            iters.push(res.iterations);
        }
        assert!(
            iters[1..].iter().all(|&c| c <= iters[0]),
            "complex recycling: {iters:?}"
        );
    }

    #[test]
    fn same_system_skips_refresh_but_stays_correct() {
        let prob = poisson2d::<f64>(12, 12);
        let n = prob.a.nrows();
        let id = IdentityPrecond::new(n);
        let b1 = DMat::from_fn(n, 1, |i, _| (i % 4) as f64);
        let b2 = DMat::from_fn(n, 1, |i, _| ((i + 2) % 5) as f64);
        let opts = SolveOpts {
            rtol: 1e-9,
            restart: 15,
            recycle: 5,
            same_system: true,
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut x1 = DMat::zeros(n, 1);
        solve(&prob.a, &id, &b1, &mut x1, &opts, &mut ctx);
        let mut x2 = DMat::zeros(n, 1);
        let res2 = solve(&prob.a, &id, &b2, &mut x2, &opts, &mut ctx);
        assert!(res2.converged);
        check_true_residual(&prob.a, &b2, &x2, 1e-9);
    }
}
