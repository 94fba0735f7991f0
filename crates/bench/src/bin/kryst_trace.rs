//! kryst-trace — cross-rank trace timelines: record, replay, validate.
//!
//! Three subcommands:
//!
//! * `kryst_trace run [--ranks N] [--backend channel|socket] [--steps S]
//!   [--out <timeline.json>]` — run the skewed demo workload (rank-
//!   proportional busy work in front of every halo exchange, butterfly
//!   all-reduce, and agglomerated coarse round trip) with tracing enabled,
//!   gather the per-rank span streams onto rank 0 over the transport's
//!   control plane, and print the merged-timeline report. With `--out` the
//!   timeline is also written as JSON for later `report` runs; with
//!   `KRYST_TRACE_TIMELINE=<path>` a Chrome-trace/Perfetto view is exported
//!   as a side effect of the gather.
//! * `kryst_trace report <timeline.json> [--calibration <cal.json>]` —
//!   replay a gathered timeline: the paper-style per-phase table per rank,
//!   the wait-behind-slowest imbalance summary, and the skew table
//!   decomposing each exposed reduction into "slowest rank compute" vs
//!   "wire" (using the measured α/β constants when a `kryst_calibrate
//!   --json` line is given, Curie-like defaults otherwise).
//! * `kryst_trace validate <chrome.json> --ranks N` — structural check of an
//!   exported Chrome trace: parses, has exactly one thread-name track per
//!   rank, and contains flow links between matching collective spans. Exits
//!   non-zero on any violation (the CI trace-smoke leg).

use kryst_bench::tracedemo::skewed_workload;
use kryst_obs::json::JsonValue;
use kryst_obs::timeline::{phase_table, skew_table, Timeline};
use kryst_par::{run_spmd, Calibration, CostModel, TransportKind};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: kryst_trace run [--ranks N] [--backend channel|socket] [--steps S] [--out <path>]\n\
         \u{20}      kryst_trace report <timeline.json> [--calibration <cal.json>]\n\
         \u{20}      kryst_trace validate <chrome.json> --ranks N"
    );
    ExitCode::from(2)
}

/// The merged-timeline report shared by `run` and `report`.
fn print_timeline(tl: &Timeline, cal: Option<&Calibration>) {
    let spans: usize = tl.streams.iter().map(|s| s.spans.len()).sum();
    println!(
        "merged timeline: {} ranks, {} streams, {} spans",
        tl.nranks,
        tl.streams.len(),
        spans
    );
    if !tl.missing.is_empty() {
        println!("partial timeline — missing ranks: {:?}", tl.missing);
    }
    println!("\nper-rank phase totals:");
    print!("{}", phase_table(&tl.phase_totals()));
    println!("\nimbalance (wait behind slowest):");
    print!("{}", tl.imbalance().to_text());
    let (alpha_reduce, beta, origin) = match cal {
        Some(c) => (c.alpha_reduce, c.beta, format!("measured on {}", c.backend)),
        None => {
            let m = CostModel::curie_like();
            (m.alpha_reduce, m.beta, "assumed Curie-like".to_string())
        }
    };
    let rows = tl.skew(alpha_reduce, beta);
    if !rows.is_empty() {
        println!("\nexposed-reduction skew ({origin} constants):");
        print!("{}", skew_table(&rows));
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut nranks = 4usize;
    let mut steps = 20usize;
    let mut kind = TransportKind::Channel;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ranks" => {
                i += 1;
                nranks = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(p) if p >= 1 => p,
                    _ => return usage(),
                };
            }
            "--steps" => {
                i += 1;
                steps = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) if s >= 1 => s,
                    _ => return usage(),
                };
            }
            "--backend" => {
                i += 1;
                kind = match args.get(i).map(String::as_str) {
                    Some("channel") => TransportKind::Channel,
                    Some("socket") => TransportKind::Socket,
                    _ => return usage(),
                };
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(p.clone()),
                    None => return usage(),
                }
            }
            _ => return usage(),
        }
        i += 1;
    }
    kryst_obs::Profiler::global().set_level(kryst_obs::Level::Trace);
    let res = run_spmd(kind, nranks, |t| {
        let tl = skewed_workload(t, steps)?;
        Ok(tl.map(|tl| tl.encode()).unwrap_or_default())
    });
    let run = match res {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kryst_trace: workload failed: {e}");
            return ExitCode::from(1);
        }
    };
    let Some(tl) = Timeline::decode(&run.results[0]) else {
        eprintln!("kryst_trace: rank 0 returned a malformed timeline frame");
        return ExitCode::from(1);
    };
    println!(
        "workload: {} backend, P = {nranks}, {steps} steps, {} wire messages",
        kind.name(),
        run.messages
    );
    print_timeline(&tl, None);
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, tl.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut cal = None;
    if args.get(1).map(String::as_str) == Some("--calibration") {
        let Some(cpath) = args.get(2) else {
            return usage();
        };
        let Ok(text) = std::fs::read_to_string(cpath) else {
            eprintln!("cannot read {cpath}");
            return ExitCode::from(1);
        };
        // `kryst_calibrate --json` writes one calibration per line; use the
        // first that parses.
        cal = text.lines().find_map(Calibration::from_json);
        if cal.is_none() {
            eprintln!("no parseable calibration in {cpath}");
            return ExitCode::from(1);
        }
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::from(1);
    };
    let Some(tl) = Timeline::from_json(&text) else {
        eprintln!("{path}: not a gathered-timeline JSON document");
        return ExitCode::from(1);
    };
    print_timeline(&tl, cal.as_ref());
    ExitCode::SUCCESS
}

fn validate(args: &[String]) -> ExitCode {
    let (Some(path), Some(flag), Some(n)) = (args.first(), args.get(1), args.get(2)) else {
        return usage();
    };
    if flag != "--ranks" {
        return usage();
    }
    let Ok(nranks): Result<usize, _> = n.parse() else {
        return usage();
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::from(1);
    };
    let v = match JsonValue::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::from(1);
        }
    };
    let Some(events) = v.get("traceEvents").and_then(JsonValue::as_array) else {
        eprintln!("{path}: no traceEvents array");
        return ExitCode::from(1);
    };
    let ph = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).map(str::to_string);
    let tracks = events
        .iter()
        .filter(|e| {
            ph(e).as_deref() == Some("M")
                && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        })
        .count();
    let slices = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("X"))
        .count();
    let flows = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("s"))
        .count();
    let binds = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("f"))
        .count();
    println!("{path}: {tracks} tracks, {slices} slices, {flows} flow starts, {binds} flow binds");
    if tracks != nranks {
        eprintln!("expected one thread-name track per rank ({nranks}), found {tracks}");
        return ExitCode::from(1);
    }
    if slices == 0 {
        eprintln!("no complete ('X') span events");
        return ExitCode::from(1);
    }
    if flows == 0 || binds == 0 {
        eprintln!("no flow links between collective spans");
        return ExitCode::from(1);
    }
    println!("ok");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Socket worlds re-exec this binary as workers; hand those invocations
    // to the primitive loop before any argument parsing.
    kryst_par::maybe_primitive_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("report") => report(&args[1..]),
        Some("validate") => validate(&args[1..]),
        _ => usage(),
    }
}
