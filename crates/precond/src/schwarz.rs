//! One-level overlapping Schwarz preconditioners: ASM, RAS, ORAS.
//!
//! Implements the paper's eq. (6),
//! `M⁻¹ = Σ_i R_iᵀ·D_i·B_i⁻¹·R_i`, where the overlapping decomposition comes
//! from [`kryst_sparse::partition`] and each local operator is factored once
//! with the sparse direct solver (multi-RHS solves then amortize the factor
//! — the §V-B3 observation that motivates block methods).
//!
//! Variants:
//! * **ASM** — `B_i = R_i·A·R_iᵀ`, `D_i = I` (additive Schwarz),
//! * **RAS** — same `B_i`, restricted partition of unity (Cai & Sarkis),
//! * **ORAS** — restricted + *optimized transmission conditions*: the local
//!   operators get an impedance (Robin) modification `+i·η` on interface
//!   rows, the algebraic emulation of the optimized boundary conditions the
//!   paper uses for Maxwell (see DESIGN.md).

use kryst_dense::DMat;
use kryst_par::{CommStats, PrecondOp, PrecondPrecision};
use kryst_rt::par::{for_each_range, map_vec};
use kryst_scalar::{Demote, Scalar};
use kryst_sparse::partition::{
    grow_overlap, partition_of_unity, restricted_partition_of_unity, Partition,
};
use kryst_sparse::{Csr, SparseDirect};
use std::sync::{Arc, Mutex};

/// Schwarz flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchwarzVariant {
    /// Additive Schwarz (symmetric, no partition of unity).
    Asm,
    /// Restricted additive Schwarz.
    Ras,
    /// Optimized restricted additive Schwarz (impedance interface
    /// conditions; intended for complex/indefinite problems).
    Oras,
}

/// Construction options.
#[derive(Debug, Clone, Copy)]
pub struct SchwarzOpts {
    /// Variant.
    pub variant: SchwarzVariant,
    /// Overlap width δ (graph layers).
    pub overlap: usize,
    /// Impedance coefficient η for ORAS interface conditions (ignored by
    /// ASM/RAS; for real scalars the imaginary part vanishes and ORAS
    /// degenerates to RAS).
    pub impedance: f64,
}

impl Default for SchwarzOpts {
    fn default() -> Self {
        Self {
            variant: SchwarzVariant::Ras,
            overlap: 1,
            impedance: 0.0,
        }
    }
}

struct Subdomain<S: Demote> {
    /// Global indices of the overlapping set.
    set: Vec<usize>,
    /// Partition-of-unity weights aligned with `set`.
    weights: Vec<f64>,
    solver: SubSolver<S>,
}

/// A factored subdomain operator at the chosen storage precision. Each
/// variant carries its persistent `(local, permuted-scratch)` buffers for
/// the gathered RHS and the in-place banded solve; they are allocated
/// lazily on the first apply (and again only if the block width changes),
/// so steady-state applies are allocation-free. One mutex per subdomain:
/// the parallel sweep assigns each subdomain to exactly one worker, so
/// locks never contend.
#[allow(clippy::type_complexity)]
enum SubSolver<S: Demote> {
    Full(SparseDirect<S>, Mutex<(DMat<S>, DMat<S>)>),
    /// Banded factors in `S::Lo`: the gather demotes, the triangular solve
    /// runs entirely in low precision, the weighted scatter promotes.
    Low(SparseDirect<S::Lo>, Mutex<(DMat<S::Lo>, DMat<S::Lo>)>),
}

impl<S: Demote> SubSolver<S> {
    fn n(&self) -> usize {
        match self {
            SubSolver::Full(s, _) => s.n(),
            SubSolver::Low(s, _) => s.n(),
        }
    }
    fn bandwidth(&self) -> usize {
        match self {
            SubSolver::Full(s, _) => s.bandwidth(),
            SubSolver::Low(s, _) => s.bandwidth(),
        }
    }
    /// Bytes of banded factor streamed by one single-RHS local solve.
    fn factor_bytes(&self) -> usize {
        let elems = self.n() * (2 * self.bandwidth() + 1);
        match self {
            SubSolver::Full(..) => elems * std::mem::size_of::<S>(),
            SubSolver::Low(..) => elems * std::mem::size_of::<S::Lo>(),
        }
    }
}

/// Reshape `m` to `nr × nc`, reusing its backing allocation when the
/// capacity already fits. Contents are unspecified afterwards (callers
/// overwrite every entry).
fn reshape<S: Scalar>(m: &mut DMat<S>, nr: usize, nc: usize) {
    if m.nrows() == nr && m.ncols() == nc {
        return;
    }
    let old = std::mem::replace(m, DMat::zeros(0, 0));
    let mut v = old.into_vec();
    v.clear();
    v.resize(nr * nc, S::zero());
    *m = DMat::from_col_major(nr, nc, v);
}

/// The assembled Schwarz preconditioner.
pub struct Schwarz<S: Demote> {
    subs: Vec<Subdomain<S>>,
    n: usize,
    precision: PrecondPrecision,
    stats: Option<Arc<CommStats>>,
    /// Total triangular-solve flops per single-RHS application (for the cost
    /// model).
    flops_per_rhs: usize,
}

impl<S: Demote> Schwarz<S> {
    /// Build from a non-overlapping partition: grows overlap, extracts and
    /// factors the local operators (in parallel). Factors are stored in `S`.
    pub fn new(a: &Csr<S>, partition: &Partition, opts: &SchwarzOpts) -> Self {
        Self::with_precision(a, partition, opts, PrecondPrecision::Full)
    }

    /// [`Schwarz::new`] with a storage-precision choice for the subdomain
    /// factorizations. With [`PrecondPrecision::Single`] each local operator
    /// is demoted to `S::Lo` *before* factoring — half the factor bytes per
    /// local solve — and the apply demotes on gather / promotes on scatter.
    /// Non-lossy scalars fall back to full precision.
    pub fn with_precision(
        a: &Csr<S>,
        partition: &Partition,
        opts: &SchwarzOpts,
        precision: PrecondPrecision,
    ) -> Self {
        let n = a.nrows();
        let low = precision == PrecondPrecision::Single && S::LOSSY;
        let overlapping = grow_overlap(a, partition, opts.overlap);
        let weights = match opts.variant {
            SchwarzVariant::Asm => overlapping.iter().map(|s| vec![1.0; s.len()]).collect(),
            SchwarzVariant::Ras => restricted_partition_of_unity(partition, &overlapping),
            SchwarzVariant::Oras => {
                // ORAS uses the continuous partition of unity (multiplicity
                // weights) which pairs better with impedance conditions.
                partition_of_unity(n, &overlapping)
            }
        };
        let pieces: Vec<(Vec<usize>, Vec<f64>)> = overlapping.into_iter().zip(weights).collect();
        let subs: Vec<Subdomain<S>> = map_vec(pieces, |(set, w)| {
            let mut local = a.principal_submatrix(&set);
            if opts.variant == SchwarzVariant::Oras && opts.impedance != 0.0 {
                // Impedance (Robin) interface condition: shift the
                // diagonal of interface rows by +i·η.
                let shift = S::from_parts(0.0, opts.impedance);
                let interface = interface_rows(a, &set);
                for (li, is_if) in interface.iter().enumerate() {
                    if *is_if {
                        // Add to the stored diagonal entry.
                        let pos = local
                            .row_indices(li)
                            .binary_search(&li)
                            .expect("diagonal entry present");
                        local.row_values_mut(li)[pos] += shift;
                    }
                }
            }
            let solver = if low {
                // Demote the assembled local operator (impedance shift
                // included), then factor in `S::Lo`.
                let local_lo = local.demote_values();
                let f = SparseDirect::factor(&local_lo).unwrap_or_else(|| {
                    let shift = <S::Lo as Scalar>::from_f64(1e-12)
                        * <S::Lo as Scalar>::from_real(local_lo.inf_norm());
                    SparseDirect::factor(&local_lo.shift_diag(shift))
                        .expect("regularized local factor")
                });
                SubSolver::Low(f, Mutex::new((DMat::zeros(0, 0), DMat::zeros(0, 0))))
            } else {
                let f = SparseDirect::factor(&local).unwrap_or_else(|| {
                    // Local singular operator (can happen for ASM on pure
                    // Neumann pieces): tiny diagonal regularization.
                    let shift = S::from_f64(1e-12) * S::from_real(local.inf_norm());
                    SparseDirect::factor(&local.shift_diag(shift))
                        .expect("regularized local factor")
                });
                SubSolver::Full(f, Mutex::new((DMat::zeros(0, 0), DMat::zeros(0, 0))))
            };
            Subdomain {
                set,
                weights: w,
                solver,
            }
        });
        let flops_per_rhs = subs
            .iter()
            .map(|s| {
                let bw = s.solver.bandwidth();
                let scale = if S::is_complex() { 4 } else { 1 };
                2 * (2 * bw + 1) * s.solver.n() * scale
            })
            .sum();
        Self {
            subs,
            n,
            precision: if low {
                PrecondPrecision::Single
            } else {
                PrecondPrecision::Full
            },
            stats: None,
            flops_per_rhs,
        }
    }

    /// Report communication/flop counts of every application to `stats`.
    pub fn with_stats(mut self, stats: Arc<CommStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Number of subdomains.
    pub fn nsubdomains(&self) -> usize {
        self.subs.len()
    }

    /// Size of the largest overlapping subdomain.
    pub fn max_local_size(&self) -> usize {
        self.subs.iter().map(|s| s.set.len()).max().unwrap_or(0)
    }
}

/// For each local index: does its global row couple outside the subdomain?
fn interface_rows<S: Scalar>(a: &Csr<S>, set: &[usize]) -> Vec<bool> {
    let mut inset = vec![false; a.nrows()];
    for &g in set {
        inset[g] = true;
    }
    set.iter()
        .map(|&g| a.row_indices(g).iter().any(|&j| !inset[j]))
        .collect()
}

impl<S: Demote> PrecondOp<S> for Schwarz<S> {
    fn nrows(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        let _t = kryst_obs::profile(match self.precision {
            PrecondPrecision::Single => kryst_obs::Phase::PrecondLp,
            PrecondPrecision::Full => kryst_obs::Phase::Precond,
        });
        let p = r.ncols();
        if let Some(stats) = &self.stats {
            // Each subdomain exchanges its overlap with neighbors before and
            // after the local solve; charge 2 messages per subdomain as a
            // conservative aggregate plus the solve flops.
            stats.record_p2p(
                2 * self.subs.len(),
                2 * self.subs.iter().map(|s| s.set.len()).sum::<usize>()
                    * p
                    * S::real_words()
                    * std::mem::size_of::<f64>(),
            );
            stats.record_flops(self.flops_per_rhs * p);
        }
        // Solve every subdomain in parallel (gather → in-place banded solve
        // in the subdomain's persistent buffers), then apply the weighted
        // scatter-adds serially in subdomain order — the accumulation order
        // is fixed regardless of thread count, so traces stay deterministic.
        for_each_range(self.subs.len(), 0, |lo, hi| {
            for sub in &self.subs[lo..hi] {
                let ni = sub.set.len();
                match &sub.solver {
                    SubSolver::Full(solver, bufs) => {
                        let mut guard = bufs.lock().unwrap();
                        let (local, scratch) = &mut *guard;
                        reshape(local, ni, p);
                        reshape(scratch, ni, p);
                        for c in 0..p {
                            let rc = r.col(c);
                            let lc = local.col_mut(c);
                            for (li, &g) in sub.set.iter().enumerate() {
                                lc[li] = rc[g];
                            }
                        }
                        solver.solve_in_place_ws(local, scratch, 8, 1);
                    }
                    SubSolver::Low(solver, bufs) => {
                        let mut guard = bufs.lock().unwrap();
                        let (local, scratch) = &mut *guard;
                        reshape(local, ni, p);
                        reshape(scratch, ni, p);
                        for c in 0..p {
                            let rc = r.col(c);
                            let lc = local.col_mut(c);
                            for (li, &g) in sub.set.iter().enumerate() {
                                lc[li] = rc[g].demote();
                            }
                        }
                        solver.solve_in_place_ws(local, scratch, 8, 1);
                    }
                }
            }
        });
        z.set_zero();
        for sub in &self.subs {
            match &sub.solver {
                SubSolver::Full(_, bufs) => {
                    let guard = bufs.lock().unwrap();
                    let sol = &guard.0;
                    for c in 0..p {
                        let ac = z.col_mut(c);
                        let sc = sol.col(c);
                        for (li, &g) in sub.set.iter().enumerate() {
                            ac[g] += S::from_f64(sub.weights[li]) * sc[li];
                        }
                    }
                }
                SubSolver::Low(_, bufs) => {
                    let guard = bufs.lock().unwrap();
                    let sol = &guard.0;
                    for c in 0..p {
                        let ac = z.col_mut(c);
                        let sc = sol.col(c);
                        for (li, &g) in sub.set.iter().enumerate() {
                            ac[g] += S::from_f64(sub.weights[li]) * S::promote_lo(sc[li]);
                        }
                    }
                }
            }
        }
    }

    fn precision(&self) -> PrecondPrecision {
        self.precision
    }

    /// Banded-factor bytes streamed by one single-column application (sum
    /// over subdomains); excludes gather/scatter vector traffic.
    fn bytes_per_apply(&self) -> Option<usize> {
        Some(self.subs.iter().map(|s| s.solver.factor_bytes()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_pde::poisson::poisson2d;
    use kryst_sparse::partition::partition_rcb;

    fn setup(nx: usize, nparts: usize, opts: &SchwarzOpts) -> (Csr<f64>, Schwarz<f64>) {
        let p = poisson2d::<f64>(nx, nx);
        let part = partition_rcb(&p.coords, nparts);
        let m = Schwarz::new(&p.a, &part, opts);
        (p.a, m)
    }

    fn richardson_converges(a: &Csr<f64>, m: &Schwarz<f64>, iters: usize) -> f64 {
        let n = a.nrows();
        let b = DMat::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
        let mut x = DMat::<f64>::zeros(n, 1);
        for _ in 0..iters {
            let mut r = a.apply(&x);
            r.scale(-1.0);
            r.axpy(1.0, &b);
            let z = m.apply_new(&r);
            x.axpy(1.0, &z);
        }
        let mut r = a.apply(&x);
        r.axpy(-1.0, &b);
        r.fro_norm() / b.fro_norm()
    }

    #[test]
    fn ras_richardson_converges_on_poisson() {
        let (a, m) = setup(
            16,
            4,
            &SchwarzOpts {
                overlap: 2,
                ..Default::default()
            },
        );
        assert_eq!(m.nsubdomains(), 4);
        let rel = richardson_converges(&a, &m, 30);
        assert!(rel < 1e-3, "RAS Richardson: rel residual {rel}");
    }

    #[test]
    fn asm_is_symmetric_operator() {
        // ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩ for ASM on a symmetric matrix.
        let (_, m) = setup(
            10,
            3,
            &SchwarzOpts {
                variant: SchwarzVariant::Asm,
                overlap: 1,
                impedance: 0.0,
            },
        );
        let n = 100;
        let u = DMat::from_fn(n, 1, |i, _| (i as f64 * 0.37).sin());
        let v = DMat::from_fn(n, 1, |i, _| (i as f64 * 0.11).cos());
        let mu = m.apply_new(&u);
        let mv = m.apply_new(&v);
        let a1: f64 = (0..n).map(|i| mu[(i, 0)] * v[(i, 0)]).sum();
        let a2: f64 = (0..n).map(|i| u[(i, 0)] * mv[(i, 0)]).sum();
        assert!((a1 - a2).abs() < 1e-10 * (a1.abs() + 1.0), "{a1} vs {a2}");
    }

    #[test]
    fn multi_rhs_consistent_with_single() {
        let (_, m) = setup(12, 4, &SchwarzOpts::default());
        let n = 144;
        let r = DMat::from_fn(n, 3, |i, j| ((i * (j + 2)) % 11) as f64 - 5.0);
        let z = m.apply_new(&r);
        for c in 0..3 {
            let rc = DMat::from_col_major(n, 1, r.col(c).to_vec());
            let zc = m.apply_new(&rc);
            for i in 0..n {
                assert!((z[(i, c)] - zc[(i, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn oras_on_complex_maxwell_beats_asm() {
        use kryst_pde::maxwell::{maxwell3d, MaxwellParams};
        use kryst_scalar::C64;
        let params = MaxwellParams::matching_solution(6);
        let (prob, _geom) = maxwell3d(&params);
        let part = partition_rcb(&prob.coords, 4);
        let asm = Schwarz::<C64>::new(
            &prob.a,
            &part,
            &SchwarzOpts {
                variant: SchwarzVariant::Asm,
                overlap: 1,
                impedance: 0.0,
            },
        );
        let oras = Schwarz::<C64>::new(
            &prob.a,
            &part,
            &SchwarzOpts {
                variant: SchwarzVariant::Oras,
                overlap: 2,
                impedance: params.omega,
            },
        );
        let n = prob.a.nrows();
        let b = DMat::<C64>::from_fn(n, 1, |i, _| {
            C64::from_parts(((i % 7) as f64) - 3.0, ((i % 3) as f64) - 1.0)
        });
        let rel = |m: &Schwarz<C64>| {
            let mut x = DMat::<C64>::zeros(n, 1);
            for _ in 0..20 {
                let mut r = prob.a.apply(&x);
                r.scale(-C64::one());
                r.axpy(C64::one(), &b);
                let z = m.apply_new(&r);
                // Damped Richardson keeps ASM from diverging outright.
                x.axpy(C64::from_f64(0.5), &z);
            }
            let mut r = prob.a.apply(&x);
            r.axpy(-C64::one(), &b);
            r.fro_norm() / b.fro_norm()
        };
        let rel_asm = rel(&asm);
        let rel_oras = rel(&oras);
        assert!(
            rel_oras < rel_asm,
            "ORAS ({rel_oras:.3e}) must beat ASM ({rel_asm:.3e}) on indefinite Maxwell"
        );
    }

    #[test]
    fn single_precision_tracks_full() {
        let p = poisson2d::<f64>(16, 16);
        let part = partition_rcb(&p.coords, 4);
        let opts = SchwarzOpts {
            overlap: 2,
            ..Default::default()
        };
        let full = Schwarz::new(&p.a, &part, &opts);
        let lo = Schwarz::with_precision(&p.a, &part, &opts, PrecondPrecision::Single);
        assert_eq!(full.precision(), PrecondPrecision::Full);
        assert_eq!(lo.precision(), PrecondPrecision::Single);
        let n = p.a.nrows();
        let r = DMat::from_fn(n, 3, |i, j| ((i * 2 + j) % 9) as f64 - 4.0);
        let zf = full.apply_new(&r);
        let zl = lo.apply_new(&r);
        let mut diff = zl.clone();
        diff.axpy(-1.0, &zf);
        let rel = diff.fro_norm() / zf.fro_norm();
        assert!(rel < 1e-5, "f32 subdomain solves drifted: rel {rel:.3e}");
        // Factor bytes exactly halve: same bands, f32 vs f64 entries.
        let bf = full.bytes_per_apply().unwrap();
        let bl = lo.bytes_per_apply().unwrap();
        assert_eq!(bl * 2, bf, "factor bytes {bl} vs {bf}");
        // Richardson with the low factors still converges on SPD Poisson.
        let rel_final = richardson_converges(&p.a, &lo, 30);
        assert!(rel_final < 1e-3, "lo RAS Richardson: {rel_final:.3e}");
    }

    #[test]
    fn stats_recorded_per_application() {
        let p = poisson2d::<f64>(10, 10);
        let part = partition_rcb(&p.coords, 2);
        let stats = CommStats::new_shared();
        let m = Schwarz::new(&p.a, &part, &SchwarzOpts::default()).with_stats(Arc::clone(&stats));
        let r = DMat::from_fn(100, 2, |i, _| i as f64);
        let _ = m.apply_new(&r);
        let snap = stats.snapshot();
        assert_eq!(snap.p2p_messages, 4); // 2 per subdomain
        assert!(snap.flops > 0);
    }
}
