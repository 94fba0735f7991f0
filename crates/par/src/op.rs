//! Operator and preconditioner abstractions.
//!
//! The solvers in `kryst-core` are written against [`LinOp`] and
//! [`PrecondOp`] so the same GCRO-DR code runs on a plain [`Csr`] (tests),
//! an instrumented [`DistOp`] (scaling experiments), or a shell/composite
//! operator (the projected operator `(I − C_k·C_kᴴ)·A` of Fig. 1 line 26).

use crate::halo::HaloPlan;
use crate::{CommStats, Layout};
use kryst_dense::DMat;
use kryst_obs::{profile, Phase};
use kryst_scalar::Scalar;
use kryst_sparse::{Csr, RowSplit};
use std::sync::Arc;

/// Storage/arithmetic precision of a preconditioner's internal data.
///
/// [`Full`](PrecondPrecision::Full) keeps factors, hierarchy operators, and
/// smoother data in the working scalar `S`. [`Single`](PrecondPrecision::Single)
/// stores them in the low-precision partner (`f32` for `f64`, `C32` for
/// `C64`) and promotes on the fly inside the apply — roughly halving the
/// bytes streamed per iteration while the outer Krylov iteration stays in
/// full precision. Flexible solver variants (FGMRES/LGMRES/GCRO-DR) absorb
/// the resulting iteration-to-iteration rounding variation; plain GMRES
/// warns via the tracer when paired with a `Single` preconditioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecondPrecision {
    /// Working-precision storage (default).
    #[default]
    Full,
    /// Low-precision (`f32`-component) storage with on-the-fly promotion.
    Single,
}

impl PrecondPrecision {
    /// Resolve from the environment: `KRYST_PRECOND_F32=1` (or `true`)
    /// selects [`PrecondPrecision::Single`], anything else
    /// [`PrecondPrecision::Full`].
    pub fn from_env() -> Self {
        match std::env::var("KRYST_PRECOND_F32") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => PrecondPrecision::Single,
            _ => PrecondPrecision::Full,
        }
    }

    /// Stable lowercase name (`"full"` / `"single"`).
    pub fn name(self) -> &'static str {
        match self {
            PrecondPrecision::Full => "full",
            PrecondPrecision::Single => "single",
        }
    }
}

/// A linear operator `y = A·x` acting on multivectors.
pub trait LinOp<S: Scalar>: Send + Sync {
    /// Number of rows (= columns; operators here are square).
    fn nrows(&self) -> usize;
    /// `y ⟵ A·x` where `x` and `y` are `n × p`.
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>);
    /// Allocating convenience wrapper.
    fn apply_new(&self, x: &DMat<S>) -> DMat<S> {
        let mut y = DMat::zeros(self.nrows(), x.ncols());
        self.apply(x, &mut y);
        y
    }
    /// Bytes of *operator data* (values, indices, row pointers — not the
    /// multivectors) streamed by one apply, when the operator can account
    /// for it. Matrix-free operators report their constant geometric
    /// footprint; `None` means unknown.
    fn bytes_per_apply(&self) -> Option<usize> {
        None
    }
}

/// A preconditioner `z = M⁻¹·r`.
pub trait PrecondOp<S: Scalar>: Send + Sync {
    /// Problem size.
    fn nrows(&self) -> usize;
    /// `z ⟵ M⁻¹·r`.
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>);
    /// True when the preconditioner is nonlinear / nondeterministic (e.g. an
    /// inner Krylov smoother), which forces the flexible solver variants —
    /// exactly the situation of the paper's §III-C.
    fn is_variable(&self) -> bool {
        false
    }
    /// Storage precision of the preconditioner's internal data. Solvers use
    /// this to warn when a non-flexible method is paired with a
    /// [`PrecondPrecision::Single`] preconditioner.
    fn precision(&self) -> PrecondPrecision {
        PrecondPrecision::Full
    }
    /// Bytes of preconditioner data streamed by one apply (estimate;
    /// `None` means unknown). See [`LinOp::bytes_per_apply`].
    fn bytes_per_apply(&self) -> Option<usize> {
        None
    }
    /// Allocating convenience wrapper.
    fn apply_new(&self, r: &DMat<S>) -> DMat<S> {
        let mut z = DMat::zeros(self.nrows(), r.ncols());
        self.apply(r, &mut z);
        z
    }
}

/// Row-subset operator application — the contract the overlapped [`DistOp`]
/// schedule needs from a matrix-free operator: `Y(rows,:) ⟵ A(rows,:)·X`
/// with rows outside the set untouched, plus a full-range apply. Implemented
/// by assembled [`Csr`] (delegating to the SpMM kernels) and by the stencil
/// operators in `kryst-pde`, so interior/boundary halo-compute overlap works
/// identically for both.
pub trait ApplyRows<S: Scalar>: Send + Sync {
    /// Operator dimension (square).
    fn nrows(&self) -> usize;
    /// `Y ⟵ A·X` over all rows.
    fn apply_all(&self, x: &DMat<S>, y: &mut DMat<S>);
    /// `Y(rows,:) ⟵ A(rows,:)·X`; rows outside `rows` are left untouched.
    fn apply_rows(&self, x: &DMat<S>, y: &mut DMat<S>, rows: &[usize]);
    /// Bytes of operator data streamed by one full apply (see
    /// [`LinOp::bytes_per_apply`]).
    fn bytes_streamed(&self) -> usize;
}

impl<S: Scalar> ApplyRows<S> for Csr<S> {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }
    fn apply_all(&self, x: &DMat<S>, y: &mut DMat<S>) {
        self.spmm(x, y);
    }
    fn apply_rows(&self, x: &DMat<S>, y: &mut DMat<S>, rows: &[usize]) {
        self.spmm_rows(x, y, rows);
    }
    fn bytes_streamed(&self) -> usize {
        self.nnz() * (std::mem::size_of::<S>() + std::mem::size_of::<usize>())
            + (Csr::nrows(self) + 1) * std::mem::size_of::<usize>()
    }
}

impl<S: Scalar> LinOp<S> for Csr<S> {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        let _t = profile(Phase::Spmv);
        self.spmm(x, y);
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        Some(ApplyRows::<S>::bytes_streamed(self))
    }
}

/// The identity preconditioner (unpreconditioned solves).
#[derive(Debug, Clone)]
pub struct IdentityPrecond {
    n: usize,
}

impl IdentityPrecond {
    /// Identity of dimension `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl<S: Scalar> PrecondOp<S> for IdentityPrecond {
    fn nrows(&self) -> usize {
        self.n
    }
    fn apply(&self, r: &DMat<S>, z: &mut DMat<S>) {
        z.copy_from(r);
    }
}

/// An instrumented, "distributed" sparse operator.
///
/// Arithmetic is performed on the full matrix with thread-parallel kernels
/// (bit-identical to the sharded SPMD execution); every `apply` additionally
/// records the halo-exchange messages and the local flops that a real
/// distributed run over [`Layout`] would incur.
///
/// The SpMM is **overlapped**: rows whose couplings stay inside their
/// owner's range (the [`RowSplit`] interior) are computed first — in a real
/// run they proceed while the halo exchange is on the wire — and the
/// boundary rows finish after the exchange. The interior flops are reported
/// via `record_overlap_flops`, which lets the cost model charge
/// `max(interior_compute, halo_message)` instead of their sum. Both halves
/// use the same per-row kernel, so the result stays bit-identical to the
/// unsplit product.
pub struct DistOp<S> {
    a: Csr<S>,
    layout: Layout,
    plan: HaloPlan,
    split: RowSplit,
    stats: Arc<CommStats>,
    mf: Option<Arc<dyn ApplyRows<S>>>,
}

impl<S: Scalar> DistOp<S> {
    /// Wrap `a`, distributed block-row over `nranks` ranks, reporting to
    /// `stats`.
    pub fn new(a: Csr<S>, nranks: usize, stats: Arc<CommStats>) -> Self {
        let layout = Layout::even(a.nrows(), nranks);
        let plan = HaloPlan::build(&a, &layout);
        let ranges: Vec<std::ops::Range<usize>> =
            (0..layout.nranks()).map(|r| layout.range(r)).collect();
        let split = RowSplit::build(&a, &ranges);
        Self {
            a,
            layout,
            plan,
            split,
            stats,
            mf: None,
        }
    }

    /// Swap the SpMM kernel for a matrix-free applier (e.g. a geometric
    /// stencil from `kryst-pde`): the assembled matrix is kept for the halo
    /// plan and interior/boundary split, but `apply` streams zero index data
    /// and is attributed to the `spmv_mf` profiler phase. The overlapped
    /// interior/boundary schedule is unchanged.
    pub fn with_matrix_free(mut self, op: Arc<dyn ApplyRows<S>>) -> Self {
        assert_eq!(
            op.nrows(),
            self.a.nrows(),
            "matrix-free applier dimension must match the assembled operator"
        );
        self.mf = Some(op);
        self
    }

    /// Whether a matrix-free applier is installed.
    pub fn is_matrix_free(&self) -> bool {
        self.mf.is_some()
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Csr<S> {
        &self.a
    }

    /// The rank layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The halo plan (message pattern per SpMM).
    pub fn plan(&self) -> &HaloPlan {
        &self.plan
    }

    /// The interior/boundary row split driving the overlapped apply.
    pub fn split(&self) -> &RowSplit {
        &self.split
    }

    /// The counters this operator reports to.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// Execute this operator's halo exchange over a real [`Transport`]
    /// (`cols`-wide multivector payloads): the wire-level counterpart of the
    /// counted exchange the instrumented `apply` reports. Returns the scalar
    /// entries received by the calling rank. The transport world must match
    /// the operator's layout.
    pub fn wire_exchange<T: crate::transport::Transport + ?Sized>(
        &self,
        t: &T,
        cols: usize,
    ) -> Result<usize, crate::transport::TransportError> {
        self.plan.execute(t, cols, 1.0)
    }

    fn bytes_per_scalar() -> usize {
        S::real_words() * std::mem::size_of::<f64>()
    }
}

impl<S: Scalar> LinOp<S> for DistOp<S> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        let p = x.ncols();
        let bytes = self.plan.bytes_per_exchange(p, Self::bytes_per_scalar());
        // 2 flops per stored nonzero per RHS column (multiply–add); complex
        // scalars cost 4× the real multiply–add.
        let flop_scale = if S::is_complex() { 4 } else { 1 };
        self.stats.record_flops(2 * self.a.nnz() * p * flop_scale);
        // The matrix-free applier (when installed) replaces the assembled
        // SpMM in both branches and is attributed to its own phase.
        let (kernel, phase): (&dyn ApplyRows<S>, Phase) = match &self.mf {
            Some(mf) => (mf.as_ref(), Phase::SpmvMf),
            None => (&self.a, Phase::Spmv),
        };
        if self.split.all_interior() {
            self.stats
                .record_p2p(self.plan.messages_per_exchange, bytes);
            let _t = profile(phase);
            kernel.apply_all(x, y);
        } else {
            // Overlapped schedule: interior rows proceed while the halo
            // exchange is in flight, boundary rows finish afterwards. The
            // interior product is attributed to `spmv` (or `spmv_mf`); the
            // exchange accounting plus the post-exchange boundary rows to
            // `halo`.
            {
                let _t = profile(phase);
                kernel.apply_rows(x, y, &self.split.interior);
            }
            self.stats
                .record_overlap_flops(2 * self.split.interior_nnz * p * flop_scale);
            let _h = profile(Phase::Halo);
            self.stats
                .record_p2p(self.plan.messages_per_exchange, bytes);
            kernel.apply_rows(x, y, &self.split.boundary);
        }
    }
    fn bytes_per_apply(&self) -> Option<usize> {
        match &self.mf {
            Some(mf) => Some(mf.bytes_streamed()),
            None => Some(ApplyRows::<S>::bytes_streamed(&self.a)),
        }
    }
}

/// Composite operator `(I − C·Cᴴ)·A` — the projected operator GCRO-DR runs
/// its inner Arnoldi with (Fig. 1 line 26). Applying it costs one `A·x` and
/// one block dot + update, i.e. **one extra global reduction per iteration**,
/// which is precisely the overhead §III-D attributes to recycling.
pub struct ProjectedOp<'a, S: Scalar> {
    /// Inner operator `A`.
    pub inner: &'a dyn LinOp<S>,
    /// Orthonormal block `C` (n × k·p).
    pub c: &'a DMat<S>,
    /// Counters for the projection reduction (optional).
    pub stats: Option<&'a CommStats>,
}

impl<S: Scalar> LinOp<S> for ProjectedOp<'_, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn apply(&self, x: &DMat<S>, y: &mut DMat<S>) {
        self.inner.apply(x, y);
        // y ⟵ y − C·(Cᴴ·y): one fused reduction for the Gram product.
        let coeff = {
            let _t = profile(Phase::Reduction);
            kryst_dense::blas::adjoint_times(self.c, y)
        };
        if let Some(st) = self.stats {
            st.record_reduction(std::mem::size_of_val(coeff.as_slice()));
        }
        kryst_dense::blas::gemm(
            -S::one(),
            self.c,
            kryst_dense::Op::None,
            &coeff,
            kryst_dense::Op::None,
            S::one(),
            y,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kryst_sparse::Coo;

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

    #[test]
    fn dist_op_counts_messages_and_flops() {
        let a = laplace1d(64);
        let nnz = a.nnz();
        let stats = CommStats::new_shared();
        let op = DistOp::new(a, 4, Arc::clone(&stats));
        let x = DMat::from_fn(64, 3, |i, j| (i + j) as f64);
        let _y = op.apply_new(&x);
        let snap = stats.snapshot();
        assert_eq!(snap.p2p_messages as usize, op.plan().messages_per_exchange);
        assert_eq!(snap.flops as usize, 2 * nnz * 3);
        // Result equals the plain SpMM.
        let y2 = op.matrix().apply(&x);
        let y1 = op.apply_new(&x);
        for i in 0..64 {
            for j in 0..3 {
                assert_eq!(y1[(i, j)], y2[(i, j)]);
            }
        }
    }

    #[test]
    fn overlapped_apply_records_interior_flops_and_stays_bit_identical() {
        let a = laplace1d(64);
        let stats = CommStats::new_shared();
        let op = DistOp::new(a.clone(), 4, Arc::clone(&stats));
        assert!(!op.split().all_interior());
        let x = DMat::from_fn(64, 5, |i, j| ((i * 3 + j) % 11) as f64 - 5.0);
        let y = op.apply_new(&x);
        // Bit-identical to the unsplit SpMM.
        let y_plain = a.apply(&x);
        for i in 0..64 {
            for j in 0..5 {
                assert_eq!(y[(i, j)].to_bits(), y_plain[(i, j)].to_bits());
            }
        }
        let snap = stats.snapshot();
        // Total flops unchanged; interior portion flagged overlappable.
        assert_eq!(snap.flops as usize, 2 * a.nnz() * 5);
        assert_eq!(snap.overlap_flops as usize, 2 * op.split().interior_nnz * 5);
        assert!(snap.overlap_flops > 0 && snap.overlap_flops < snap.flops);
        // Single rank: no halo, nothing to overlap.
        let stats1 = CommStats::new_shared();
        let op1 = DistOp::new(a, 1, Arc::clone(&stats1));
        assert!(op1.split().all_interior());
        let _ = op1.apply_new(&x);
        assert_eq!(stats1.snapshot().overlap_flops, 0);
    }

    #[test]
    fn projected_op_annihilates_c_components() {
        let a = laplace1d(30);
        // C = first 2 canonical directions, orthonormal.
        let mut c = DMat::<f64>::zeros(30, 2);
        c[(0, 0)] = 1.0;
        c[(5, 1)] = 1.0;
        let stats = CommStats::default();
        let op = ProjectedOp {
            inner: &a,
            c: &c,
            stats: Some(&stats),
        };
        let x = DMat::from_fn(30, 1, |i, _| 1.0 + i as f64);
        let y = op.apply_new(&x);
        // Cᴴ y = 0.
        let g = kryst_dense::blas::adjoint_times(&c, &y);
        assert!(g.max_abs() < 1e-12);
        assert_eq!(stats.snapshot().reductions, 1);
    }

    #[test]
    fn matrix_free_dist_op_matches_assembled() {
        let a = laplace1d(64);
        let stats = CommStats::new_shared();
        // Use a second copy of the matrix as the "matrix-free" applier: the
        // overlapped schedule must route through it and stay bit-identical.
        let mf: Arc<dyn ApplyRows<f64>> = Arc::new(a.clone());
        let op = DistOp::new(a.clone(), 4, Arc::clone(&stats)).with_matrix_free(mf);
        assert!(op.is_matrix_free());
        let x = DMat::from_fn(64, 5, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
        let y = op.apply_new(&x);
        let y_plain = a.apply(&x);
        for i in 0..64 {
            for j in 0..5 {
                assert_eq!(y[(i, j)].to_bits(), y_plain[(i, j)].to_bits());
            }
        }
        assert_eq!(op.bytes_per_apply(), a.bytes_per_apply());
    }

    #[test]
    fn precond_precision_env_and_names() {
        assert_eq!(PrecondPrecision::default(), PrecondPrecision::Full);
        assert_eq!(PrecondPrecision::Full.name(), "full");
        assert_eq!(PrecondPrecision::Single.name(), "single");
        let m = IdentityPrecond::new(3);
        assert_eq!(
            PrecondOp::<f64>::precision(&m),
            PrecondPrecision::Full,
            "default precision is full"
        );
    }

    #[test]
    fn identity_precond_copies() {
        let m = IdentityPrecond::new(5);
        let r = DMat::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let z = PrecondOp::<f64>::apply_new(&m, &r);
        assert_eq!(z, r);
        assert!(!PrecondOp::<f64>::is_variable(&m));
    }
}
