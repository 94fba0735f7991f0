//! The two seeded paper workloads and one timed repetition of each.
//!
//! Input generation (`kryst-pde`, the RCB partition) happens once per run
//! and sits outside every timed region. A repetition builds the
//! preconditioners (timed as set-up), solves the whole sequence through
//! `kryst_core::gcrodr::solve` (timed as solve), and checks every solve
//! against its true residual, recomputed here from the unwrapped matrix.

use crate::layers::{phase_seconds, LayerCounter, LayerTotals, TimedOp, TimedPrecond};
use kryst_core::{gcrodr, OrthPath, OrthScheme, PrecondSide, RecycleStrategy, SolveOpts};
use kryst_core::{SolveResult, SolverContext};
use kryst_dense::DMat;
use kryst_obs::{Phase, Profiler};
use kryst_par::{CommSnapshot, CommStats, LinOp, PrecondOp, PrecondPrecision, TransportKind};
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts, Inclusion, PAPER_INCLUSIONS};
use kryst_pde::maxwell::{antenna_ring_rhs, maxwell3d, MaxwellParams};
use kryst_precond::{Amg, AmgOpts, Schwarz, SchwarzOpts, SchwarzVariant, SmootherKind};
use kryst_rt::rng::Rng64;
use kryst_scalar::{Demote, Real, Scalar, C64};
use kryst_sparse::partition::{partition_rcb, Partition};
use kryst_sparse::Csr;
use std::time::Instant;

/// Allowance, relative to `rtol`, for the gap between the residual the
/// solver's recurrence stops on and the true residual recomputed here.
pub const RESIDUAL_GAP: f64 = 0.1;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["maxwell_bgcrodr_p8x4", "elasticity_fgcrodr_amg"];

/// Problem sizes: the benchmark's own, or a tiny one for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale inputs with the same structure, for tests.
    Smoke,
}

/// How a system's preconditioner is built (the timed set-up).
enum PcSpec<S: Scalar> {
    Oras(Partition, SchwarzOpts),
    Amg(Option<DMat<S>>, AmgOpts),
}

impl<S: Demote> PcSpec<S> {
    fn build(&self, a: &Csr<S>) -> Box<dyn PrecondOp<S>> {
        match self {
            PcSpec::Oras(part, opts) => Box::new(Schwarz::new(a, part, opts)),
            PcSpec::Amg(ns, opts) => Box::new(Amg::new(a, ns.as_ref(), opts)),
        }
    }
}

/// A sequence of solves sharing one recycling context.
pub struct Sequence<S: Scalar> {
    systems: Vec<(Csr<S>, PcSpec<S>)>,
    /// `(system index, right-hand-side block)` per solve, in order.
    steps: Vec<(usize, DMat<S>)>,
    opts: SolveOpts,
}

/// A generated workload; the scalar type is fixed by the PDE.
pub enum Workload {
    /// Real-valued (elasticity).
    Real(Sequence<f64>),
    /// Complex-valued (Maxwell).
    Complex(Sequence<C64>),
}

/// Every option that changes solver behaviour, pinned instead of read from
/// the environment.
fn pinned(rtol: f64, restart: usize, side: PrecondSide, same_system: bool) -> SolveOpts {
    SolveOpts {
        rtol,
        max_iters: 20_000,
        restart,
        recycle: 10,
        side,
        orth: OrthScheme::CholQr,
        ortho: OrthPath::Fused,
        recycle_strategy: RecycleStrategy::A,
        same_system,
        precond_precision: PrecondPrecision::Full,
        transport: TransportKind::Channel,
        stats: None,
        recorder: None,
    }
}

impl Workload {
    /// Generate the inputs of workload `name` from `seed`.
    ///
    /// The full sizes are small on purpose: on a machine shared with other
    /// tenants, inputs whose data outgrows the per-core caches, and solves
    /// longer than about 0.1 s, spread twice as much from run to run.
    pub fn generate(name: &str, seed: u64, size: Size) -> Option<Workload> {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x6b72_7973_745f_6532);
        let smoke = size == Size::Smoke;
        Some(match name {
            "maxwell_bgcrodr_p8x4" => Workload::Complex(maxwell(&mut rng, smoke)),
            "elasticity_fgcrodr_amg" => {
                Workload::Real(elasticity(&mut rng, if smoke { 4 } else { 6 }))
            }
            _ => return None,
        })
    }

    /// Run the whole sequence once; `traced` wraps the layers.
    pub fn run(&self, traced: bool) -> Rep {
        match self {
            Workload::Real(s) => s.run(traced),
            Workload::Complex(s) => s.run(traced),
        }
    }

    /// Build every preconditioner once and return the elapsed seconds.
    pub fn setup_only(&self) -> f64 {
        match self {
            Workload::Real(s) => s.setup().1,
            Workload::Complex(s) => s.setup().1,
        }
    }

    /// One line: systems, unknowns per system, solves and right-hand sides.
    pub fn summary(&self) -> String {
        match self {
            Workload::Real(s) => s.summary(),
            Workload::Complex(s) => s.summary(),
        }
    }

    /// Relative true-residual bound each solve must meet.
    pub fn residual_bound(&self) -> f64 {
        match self {
            Workload::Real(s) => s.residual_bound(),
            Workload::Complex(s) => s.residual_bound(),
        }
    }
}

/// Maxwell with the plastic cylinder (Fig. 8): ORAS, 32 antennas on a ring
/// of seeded radius and height, BGCRO-DR(50,10) solved as four
/// consecutive block solves of a quarter of the antennas each.
fn maxwell(rng: &mut Rng64, smoke: bool) -> Sequence<C64> {
    let (nc, nsub, overlap, nrhs) = if smoke { (4, 2, 1, 8) } else { (5, 4, 2, 32) };
    let params = MaxwellParams::with_cylinder(nc);
    let (problem, geom) = maxwell3d(&params);
    let partition = partition_rcb(&problem.coords, nsub);
    let ring_r = rng.gen_range(0.28, 0.32);
    let ring_z = rng.gen_range(0.5, 0.6);
    let rhs = antenna_ring_rhs(&geom, &params, nrhs, ring_r, ring_z);
    let p = nrhs / 4;
    let steps = (0..4).map(|k| (0, rhs.cols(k * p, p))).collect();
    let oras = SchwarzOpts {
        variant: SchwarzVariant::Oras,
        overlap,
        impedance: params.omega,
    };
    Sequence {
        systems: vec![(problem.a, PcSpec::Oras(partition, oras))],
        steps,
        opts: pinned(1e-8, 50, PrecondSide::Right, true),
    }
}

/// 3-D elasticity (Fig. 3a/b): four systems whose inclusions are seeded
/// jitters of the paper's, AMG with a CG(4) smoother rebuilt per system,
/// FGCRO-DR(30,10) with strategy A and the full recycle refresh.
fn elasticity(rng: &mut Rng64, ne: usize) -> Sequence<f64> {
    let amg = AmgOpts {
        smoother: SmootherKind::Cg { iters: 4 },
        ..Default::default()
    };
    let mut systems = Vec::new();
    let mut steps = Vec::new();
    for (i, inc) in PAPER_INCLUSIONS.iter().enumerate() {
        let mut jitter = |v: f64, rel: f64| v * rng.gen_range(1.0 - rel, 1.0 + rel);
        let inclusion = Inclusion {
            stiffness_ratio: jitter(inc.stiffness_ratio, 0.05),
            r: jitter(inc.r, 0.02),
            center: inc.center.map(|c| jitter(c, 0.02)),
        };
        let sys = elasticity3d::<f64>(&ElasticityOpts {
            ne,
            inclusion: Some(inclusion),
            ..Default::default()
        });
        let n = sys.problem.a.nrows();
        steps.push((i, DMat::from_col_major(n, 1, sys.rhs)));
        let spec = PcSpec::Amg(sys.problem.near_nullspace, amg);
        systems.push((sys.problem.a, spec));
    }
    Sequence {
        systems,
        steps,
        opts: pinned(1e-8, 30, PrecondSide::Flexible, false),
    }
}

/// One solve of a repetition.
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// Wall time of the `solve` call.
    pub seconds: f64,
    /// Block iterations.
    pub iterations: usize,
    /// The solver's own verdict.
    pub converged: bool,
    /// Final relative residuals the solver reported, per column.
    pub solver_relres: Vec<f64>,
    /// `‖b − A·x‖ / ‖b‖` per column, recomputed by the benchmark.
    pub true_relres: Vec<f64>,
}

/// What the traced repetition adds: wrapped-layer totals, the profiler
/// snapshot of the Krylov layer, and the communication counters.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Operator applies.
    pub sparse: LayerTotals,
    /// Operator bytes streamed: `bytes_per_apply` × calls, summed.
    pub sparse_bytes: f64,
    /// Preconditioner applies.
    pub precond: LayerTotals,
    /// Preconditioner bytes streamed; `None` when it does not report them.
    pub precond_bytes: Option<f64>,
    /// `orth/gram` phase seconds.
    pub orth_s: f64,
    /// `small_dense` phase seconds.
    pub small_dense_s: f64,
    /// `recycle_setup` phase seconds.
    pub recycle_setup_s: f64,
    /// `reduction` phase seconds.
    pub reduction_s: f64,
    /// Communication counters over the whole sequence.
    pub comm: CommSnapshot,
}

/// One run of a workload's whole sequence.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Preconditioner construction, summed over systems.
    pub setup_s: f64,
    /// Per solve, in sequence order.
    pub solves: Vec<SolveRecord>,
    /// Present on traced repetitions.
    pub layers: Option<LayerSample>,
}

impl Rep {
    /// Sum of the solve-call wall times.
    pub fn solve_s(&self) -> f64 {
        self.solves.iter().map(|s| s.seconds).sum()
    }

    /// Total block iterations.
    pub fn iterations(&self) -> usize {
        self.solves.iter().map(|s| s.iterations).sum()
    }
}

impl<S: Demote> Sequence<S> {
    fn setup(&self) -> (Vec<Box<dyn PrecondOp<S>>>, f64) {
        let mut secs = 0.0;
        let pcs = self
            .systems
            .iter()
            .map(|(a, spec)| {
                let t0 = Instant::now();
                let pc = spec.build(a);
                secs += t0.elapsed().as_secs_f64();
                pc
            })
            .collect();
        (pcs, secs)
    }

    fn residual_bound(&self) -> f64 {
        self.opts.rtol * (1.0 + RESIDUAL_GAP)
    }

    fn summary(&self) -> String {
        format!(
            "systems={} n={} solves={} rhs={} scalar={}",
            self.systems.len(),
            self.systems[0].0.nrows(),
            self.steps.len(),
            self.steps.iter().map(|(_, b)| b.ncols()).sum::<usize>(),
            if S::is_complex() { "complex" } else { "real" }
        )
    }

    fn run(&self, traced: bool) -> Rep {
        let (pcs, setup_s) = self.setup();
        let sparse = LayerCounter::default();
        let precond = LayerCounter::default();
        let stats = CommStats::new_shared();
        let mut opts = self.opts.clone();
        let prof = Profiler::global();
        if traced {
            opts.stats = Some(stats.clone());
            prof.reset();
            prof.set_enabled(true);
        }
        let mut sample = LayerSample {
            precond_bytes: Some(0.0),
            ..Default::default()
        };
        let mut ctx = SolverContext::new();
        let mut solves = Vec::with_capacity(self.steps.len());
        for (sys, b) in &self.steps {
            let a = &self.systems[*sys].0;
            let pc = pcs[*sys].as_ref();
            let mut x = DMat::zeros(a.nrows(), b.ncols());
            let (s0, p0) = (sparse.totals(), precond.totals());
            let t0 = Instant::now();
            let res = if traced {
                let op = TimedOp {
                    inner: a,
                    counter: &sparse,
                };
                let pc = TimedPrecond {
                    inner: pc,
                    counter: &precond,
                };
                gcrodr::solve(&op, &pc, b, &mut x, &opts, &mut ctx)
            } else {
                gcrodr::solve(a, pc, b, &mut x, &opts, &mut ctx)
            };
            let seconds = t0.elapsed().as_secs_f64();
            let (s1, p1) = (sparse.totals(), precond.totals());
            let op_bytes = LinOp::bytes_per_apply(a).unwrap_or(0) as f64;
            sample.sparse_bytes += op_bytes * (s1.calls - s0.calls) as f64;
            sample.precond_bytes = match (sample.precond_bytes, pc.bytes_per_apply()) {
                (Some(acc), Some(b)) => Some(acc + b as f64 * (p1.calls - p0.calls) as f64),
                _ => None,
            };
            solves.push(record(a, b, &x, res, seconds));
        }
        let layers = traced.then(|| {
            prof.set_enabled(false);
            let snap = prof.snapshot();
            LayerSample {
                sparse: sparse.totals(),
                precond: precond.totals(),
                orth_s: phase_seconds(&snap, Phase::OrthGram),
                small_dense_s: phase_seconds(&snap, Phase::SmallDense),
                recycle_setup_s: phase_seconds(&snap, Phase::RecycleSetup),
                reduction_s: phase_seconds(&snap, Phase::Reduction),
                comm: stats.snapshot(),
                ..sample
            }
        });
        Rep {
            setup_s,
            solves,
            layers,
        }
    }
}

fn record<S: Scalar>(
    a: &Csr<S>,
    b: &DMat<S>,
    x: &DMat<S>,
    res: SolveResult,
    seconds: f64,
) -> SolveRecord {
    SolveRecord {
        seconds,
        iterations: res.iterations,
        converged: res.converged,
        solver_relres: res.final_relres,
        true_relres: true_relres(a, b, x),
    }
}

/// `‖b − A·x‖₂ / ‖b‖₂` per column, with a plain row loop over the CSR
/// arrays rather than the library's SpMM kernels.
pub fn true_relres<S: Scalar>(a: &Csr<S>, b: &DMat<S>, x: &DMat<S>) -> Vec<f64> {
    (0..b.ncols())
        .map(|j| {
            let (xj, bj) = (x.col(j), b.col(j));
            let (mut rr, mut bb) = (0.0f64, 0.0f64);
            for (i, &bi) in bj.iter().enumerate() {
                let mut ax = S::zero();
                for (&c, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
                    ax += v * xj[c];
                }
                rr += (bi - ax).abs_sqr().to_f64();
                bb += bi.abs_sqr().to_f64();
            }
            (rr / bb).sqrt()
        })
        .collect()
}
