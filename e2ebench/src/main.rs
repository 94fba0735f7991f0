//! Runs one workload of the end-to-end benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload maxwell_bgcrodr_p8x4 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The workload's sequence is repeated as often as fits in `--seconds` (at
//! least once; with `--trace 1` at least one untraced and one traced
//! repetition, alternating). Untraced repetitions are each followed by a
//! few set-up-only samples. Every line but the last is a `#` comment or a
//! `name value unit` metric row; the last line is the JSON result. The
//! exit code is 0 when every solve passed its check, 1 when one failed and
//! 2 on a usage error or a refused environment.

use kryst_e2ebench::report::{self, Metric};
use kryst_e2ebench::workload::{Rep, Size, Workload, WORKLOADS};
use std::time::{Duration, Instant};

/// Environment variables that change what the library does. The benchmark
/// pins those options itself and refuses to run with any of them set.
const REFUSED_ENV: [&str; 7] = [
    "KRYST_FUSE",
    "KRYST_PIPELINE",
    "KRYST_PRECOND_F32",
    "KRYST_TRANSPORT",
    "KRYST_PROF",
    "KRYST_TRACE",
    "KRYST_TRACE_DIR",
];

/// Share of each untraced repetition's time spent right after it on extra
/// set-up-only samples, so that a cheap set-up is sampled many times across
/// the whole run. A set-up longer than that window gets no extra sample.
const SETUP_SHARE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .map_or("unknown".to_string(), |s| s.trim().to_string()),
    }
}

fn print_rows(metrics: &[Metric], traced_solve_s: Option<f64>) {
    for m in metrics {
        let share = match traced_solve_s {
            Some(t) if m.unit == "s" && m.name != "obs.traced_solve_s" => {
                format!("  ({:5.1}% of traced solve)", 100.0 * m.value / t)
            }
            _ => String::new(),
        };
        println!("{:<26} {:>16.6} {:<6}{share}", m.name, m.value, m.unit);
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    if let Some(v) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{v} is set; the benchmark pins that option itself, unset it"
        ));
    }
    let w = Workload::generate(&args.workload, args.seed, Size::Full)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# {}", w.summary());
    println!(
        "# threads={} nproc={nproc} commit={}",
        kryst_rt::par::max_threads(),
        commit()
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let t_rep = Instant::now();
        let rep = w.run(traced);
        if !args.trace {
            let window = t_rep.elapsed().as_secs_f64() * SETUP_SHARE;
            let t0 = Instant::now();
            let mut last = rep.setup_s;
            setup.push(last);
            while t0.elapsed().as_secs_f64() + last <= window {
                last = w.setup_only();
                setup.push(last);
            }
        }
        reps.push(rep);
        // Stop before a repetition that would end past the budget.
        let next_end = start.elapsed().mul_f64(1.0 + 1.0 / reps.len() as f64);
        if next_end > budget && (!args.trace || reps.len() >= 2) {
            break;
        }
    }
    let (attempted, failed) = report::check(&reps, w.residual_bound());
    for (k, r) in reps.iter().enumerate() {
        println!(
            "# repetition {k}: traced={} setup_s={:.6} solve_s={:.6}",
            r.layers.is_some() as u8,
            r.setup_s,
            r.solve_s()
        );
    }
    for (i, s) in reps[0].solves.iter().enumerate() {
        let worst = s.true_relres.iter().copied().fold(0.0, f64::max);
        println!(
            "# solve {i}: iterations={} seconds={:.4} true_relres_max={worst:.3e}",
            s.iterations, s.seconds
        );
    }
    let (untraced, traced): (Vec<Rep>, Vec<Rep>) =
        reps.into_iter().partition(|r| r.layers.is_none());
    println!(
        "# repetitions: {} untraced, {} traced; solves attempted={attempted} failed={failed} \
         (true-residual bound {:e})",
        untraced.len(),
        traced.len(),
        w.residual_bound()
    );

    let metrics = if args.trace {
        let m = report::per_layer(&traced, report::best_solve_s(&untraced));
        let traced_solve = m.iter().find(|m| m.name == "obs.traced_solve_s");
        print_rows(&m, traced_solve.map(|m| m.value));
        m
    } else {
        println!("# setup samples: {}", setup.len());
        let m = report::end_to_end(&untraced, &setup, peak_rss_mb());
        print_rows(&m, None);
        m
    };
    println!("{}", report::json_line(attempted, failed, &metrics));
    Ok(if failed == 0 { 0 } else { 1 })
}

fn main() {
    let code = run().unwrap_or_else(|msg| {
        eprintln!("kryst-e2ebench: {msg}");
        2
    });
    std::process::exit(code);
}
