//! Metrics computed from the repetitions of one run, and the check of
//! every solve.

use crate::workload::{LayerSample, Rep};

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("iterations", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("sparse.apply_s", "s"),
    ("sparse.apply_cols", "count"),
    ("sparse.gbs_computed", "GB/s"),
    ("precond.apply_s", "s"),
    ("precond.apply_cols", "count"),
    ("precond.us_per_col", "us"),
    ("precond.gbs_computed", "GB/s"),
    ("core.self_s", "s"),
    ("core.first_solve_s", "s"),
    ("core.later_solve_s", "s"),
    ("core.first_solve_iters", "count"),
    ("core.later_solve_iters", "count"),
    ("core.recycle_setup_s", "s"),
    ("core.unattributed_s", "s"),
    ("dense.orth_s", "s"),
    ("dense.small_dense_s", "s"),
    ("par.reductions", "count"),
    ("par.reduction_bytes", "B"),
    ("par.reductions_per_iter", "count"),
    ("obs.traced_solve_s", "s"),
    ("obs.trace_overhead", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metrics(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect()
}

/// Smallest value.
pub fn minimum(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Solves attempted and failed over all repetitions.
///
/// A solve fails when the solver reports no convergence, when a recomputed
/// true relative residual is not finite or exceeds `bound`, or when it does
/// not reproduce the first repetition's iteration count and final residuals
/// bit for bit (traced and untraced repetitions alike).
pub fn check(reps: &[Rep], bound: f64) -> (usize, usize) {
    let reference = &reps[0].solves;
    let mut attempted = 0;
    let mut failed = 0;
    for rep in reps {
        for (i, s) in rep.solves.iter().enumerate() {
            attempted += 1;
            let within = s.true_relres.iter().all(|r| r.is_finite() && *r <= bound);
            let same = reference.get(i).is_some_and(|r| {
                r.iterations == s.iterations
                    && r.solver_relres.len() == s.solver_relres.len()
                    && r.solver_relres
                        .iter()
                        .zip(&s.solver_relres)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if !(s.converged && within && same) {
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

/// Solve time of a sequence: for each solve in it, the fastest of the
/// repetitions, summed. Load from outside the process slows whole
/// stretches of a run on a shared machine, often most of it, so that the
/// median follows the load; the fastest repetition is the least disturbed
/// one and still moves with every change to the program.
pub fn best_solve_s(reps: &[Rep]) -> f64 {
    (0..reps[0].solves.len())
        .map(|i| minimum(&reps.iter().map(|r| r.solves[i].seconds).collect::<Vec<_>>()))
        .sum()
}

/// End-to-end metrics from untraced repetitions and set-up samples.
pub fn end_to_end(reps: &[Rep], setup_samples: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    metrics(
        &END_TO_END,
        &[
            best_solve_s(reps),
            minimum(setup_samples),
            reps[0].iterations() as f64,
            peak_rss_mb,
        ],
    )
}

/// Per-layer metrics from the fastest traced repetition;
/// `untraced_solve_s` is [`best_solve_s`] of the untraced ones.
///
/// `core.self_s` is the traced solve time minus the two wrapped layers, so
/// `sparse.apply_s + precond.apply_s + core.self_s` equals
/// `obs.traced_solve_s`. `core.unattributed_s` subtracts from it the
/// profiler's `orth/gram`, `small_dense`, `recycle_setup` and `reduction`
/// totals. Those totals are inclusive: a `small_dense` sample nested in a
/// `recycle_setup` one (the refresh eigensolve) counts in both, so the
/// remainder can be negative where nesting dominates.
pub fn per_layer(traced: &[Rep], untraced_solve_s: f64) -> Vec<Metric> {
    let rep = traced
        .iter()
        .min_by(|a, b| a.solve_s().total_cmp(&b.solve_s()))
        .expect("a traced repetition");
    let l: &LayerSample = rep.layers.as_ref().expect("traced repetition");
    let solve_s = rep.solve_s();
    let self_s = solve_s - l.sparse.seconds - l.precond.seconds;
    let phases = l.orth_s + l.small_dense_s + l.recycle_setup_s + l.reduction_s;
    let first = &rep.solves[0];
    let later = &rep.solves[1..];
    let mean_later = |f: &dyn Fn(usize) -> f64| {
        if later.is_empty() {
            0.0
        } else {
            (0..later.len()).map(f).sum::<f64>() / later.len() as f64
        }
    };
    let gbs = |bytes: f64, secs: f64| if secs > 0.0 { bytes / secs * 1e-9 } else { 0.0 };
    let iterations = rep.iterations().max(1) as f64;
    let reductions = (l.comm.reductions + l.comm.overlapped_reductions) as f64;
    let reduction_bytes = (l.comm.reduction_bytes + l.comm.overlapped_reduction_bytes) as f64;
    metrics(
        &PER_LAYER,
        &[
            l.sparse.seconds,
            l.sparse.cols as f64,
            gbs(l.sparse_bytes, l.sparse.seconds),
            l.precond.seconds,
            l.precond.cols as f64,
            l.precond.seconds / l.precond.cols.max(1) as f64 * 1e6,
            gbs(l.precond_bytes.unwrap_or(0.0), l.precond.seconds),
            self_s,
            first.seconds,
            mean_later(&|i| later[i].seconds),
            first.iterations as f64,
            mean_later(&|i| later[i].iterations as f64),
            l.recycle_setup_s,
            self_s - phases,
            l.orth_s,
            l.small_dense_s,
            reductions,
            reduction_bytes,
            reductions / iterations,
            solve_s,
            solve_s / untraced_solve_s,
        ],
    )
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. A metric that is not a finite number makes the run incorrect and is
/// written as 0, since JSON has no NaN.
pub fn json_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
