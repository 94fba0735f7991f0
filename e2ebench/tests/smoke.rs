//! Self-tests of the benchmark at smoke size: the wrappers are transparent
//! to the solver, the traced run reproduces the untraced one bit for bit,
//! the check catches bad solves, and the emitted names are the ones
//! `BENCHMARK.json` declares.

use kryst_dense::DMat;
use kryst_e2ebench::layers::{LayerCounter, TimedOp, TimedPrecond};
use kryst_e2ebench::report::{self, END_TO_END, PER_LAYER};
use kryst_e2ebench::workload::{Rep, Size, SolveRecord, Workload, WORKLOADS};
use kryst_obs::json::JsonValue;
use kryst_par::{LinOp, PrecondOp, PrecondPrecision};
use kryst_pde::elasticity::{elasticity3d, ElasticityOpts};
use kryst_precond::{Amg, AmgOpts, Ilu0, Jacobi, SmootherKind};

#[test]
fn wrappers_forward_what_the_solver_reads() {
    let counter = LayerCounter::default();
    let e = elasticity3d::<f64>(&ElasticityOpts {
        ne: 3,
        ..Default::default()
    });
    let a = &e.problem.a;
    let amg = Amg::new(
        a,
        e.problem.near_nullspace.as_ref(),
        &AmgOpts {
            smoother: SmootherKind::Cg { iters: 4 },
            ..Default::default()
        },
    );
    let ilu = Ilu0::with_precision(a, PrecondPrecision::Single).expect("ILU(0) factors");
    let jac = Jacobi::new(a, 1.0);
    let pcs: [&dyn PrecondOp<f64>; 3] = [&amg, &ilu, &jac];
    for pc in pcs {
        let w = TimedPrecond {
            inner: pc,
            counter: &counter,
        };
        assert_eq!(w.is_variable(), pc.is_variable());
        assert_eq!(w.precision(), pc.precision());
        assert_eq!(w.bytes_per_apply(), pc.bytes_per_apply());
        assert_eq!(w.nrows(), pc.nrows());
    }
    assert!(amg.is_variable(), "the CG(4) smoother makes AMG variable");
    assert_eq!(ilu.precision(), PrecondPrecision::Single);

    let op = TimedOp {
        inner: a,
        counter: &counter,
    };
    assert_eq!(op.bytes_per_apply(), LinOp::bytes_per_apply(a));
    let x = DMat::from_fn(a.nrows(), 3, |i, j| (i + 2 * j) as f64);
    let y = op.apply_new(&x);
    assert_eq!(y.as_slice(), a.apply(&x).as_slice());
    let t = counter.totals();
    assert_eq!((t.calls, t.cols), (1, 3));
}

#[test]
fn traced_runs_reproduce_untraced_runs_on_every_workload_and_seed() {
    for name in WORKLOADS {
        for seed in [1, 2, 3] {
            let w = Workload::generate(name, seed, Size::Smoke).expect("known workload");
            let plain = w.run(false);
            let traced = w.run(true);
            assert!(plain.layers.is_none());
            let l = traced
                .layers
                .as_ref()
                .expect("traced repetition has layers");
            assert!(
                l.sparse.calls > 0 && l.precond.calls > 0,
                "{name}: layers seen"
            );
            assert!(l.comm.reductions > 0, "{name}: reductions counted");
            for (p, t) in plain.solves.iter().zip(&traced.solves) {
                assert_eq!(p.iterations, t.iterations, "{name} seed {seed}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&p.solver_relres), bits(&t.solver_relres));
                assert_eq!(bits(&p.true_relres), bits(&t.true_relres));
            }
            let reps = [plain, traced];
            let (attempted, failed) = report::check(&reps, w.residual_bound());
            assert_eq!(failed, 0, "{name} seed {seed}: every smoke solve passes");
            assert_eq!(attempted, 2 * reps[0].solves.len());

            // The traced split adds up to the traced solve time.
            let m = report::per_layer(&reps[1..], reps[0].solve_s());
            let get = |n: &str| m.iter().find(|m| m.name == n).expect(n).value;
            let sum = get("sparse.apply_s") + get("precond.apply_s") + get("core.self_s");
            assert!((sum - get("obs.traced_solve_s")).abs() <= 1e-12 * sum.max(1.0));
        }
    }
}

fn rep_with(record: SolveRecord) -> Rep {
    Rep {
        setup_s: 0.0,
        solves: vec![record],
        layers: None,
    }
}

#[test]
fn check_counts_unconverged_out_of_bound_and_irreproducible_solves() {
    let good = SolveRecord {
        seconds: 1.0,
        iterations: 10,
        converged: true,
        solver_relres: vec![1e-9],
        true_relres: vec![1e-9],
    };
    let bound = 1e-8;
    let ok = rep_with(good.clone());
    assert_eq!(report::check(&[ok.clone(), ok.clone()], bound), (2, 0));
    let not_converged = rep_with(SolveRecord {
        converged: false,
        ..good.clone()
    });
    assert_eq!(report::check(&[ok.clone(), not_converged], bound), (2, 1));
    let above = rep_with(SolveRecord {
        true_relres: vec![2e-8],
        ..good.clone()
    });
    assert_eq!(report::check(&[ok.clone(), above], bound), (2, 1));
    let nan = rep_with(SolveRecord {
        true_relres: vec![f64::NAN],
        ..good.clone()
    });
    assert_eq!(report::check(&[ok.clone(), nan], bound), (2, 1));
    let drifted = rep_with(SolveRecord {
        iterations: 11,
        ..good
    });
    assert_eq!(report::check(&[ok, drifted], bound), (2, 1));
}

fn names(v: &JsonValue) -> Vec<(String, Option<String>)> {
    v.as_array()
        .expect("array")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            (s("name").expect("name"), s("unit"))
        })
        .collect()
}

#[test]
fn emitted_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec = JsonValue::parse(&text).expect("valid JSON");
    let declared = |key: &str| names(spec.get(key).expect(key));
    let ours = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(declared("end_to_end"), ours(&END_TO_END));
    assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);

    // Every declared metric appears in what a run prints, in both modes.
    let w = Workload::generate("maxwell_bgcrodr_p8x4", 7, Size::Smoke).expect("known workload");
    let reps = [w.run(false), w.run(true)];
    let e2e = report::end_to_end(&reps[..1], &[reps[0].setup_s], 1.0);
    let layer = report::per_layer(&reps[1..], reps[0].solve_s());
    for (emitted, table) in [(e2e, &END_TO_END[..]), (layer, &PER_LAYER[..])] {
        let line = report::json_line(2, 0, &emitted);
        let parsed = JsonValue::parse(&line).expect("result line is JSON");
        assert_eq!(
            parsed.get("correct").and_then(JsonValue::as_bool),
            Some(true)
        );
        let metrics = parsed.get("metrics").expect("metrics");
        for (name, unit) in table {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
            assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
        }
    }
}
