//! SPMD execution over a pluggable [`Transport`].
//!
//! Two execution modes, both driving the backend-generic collectives in
//! [`crate::collective`]:
//!
//! * **Closure mode** ([`run_spmd`]) — run the same closure on every rank and
//!   gather per-rank results, message totals, and wire counters. On the
//!   [`TransportKind::Channel`] backend ranks are scoped threads; on
//!   [`TransportKind::Socket`] ranks 1..P are *real OS processes* obtained by
//!   re-executing the current binary with `KRYST_RANK`/`KRYST_WORLD` in the
//!   environment. Worker processes re-enter the very same call site: under
//!   `cargo test` the spawning test's thread name doubles as the libtest
//!   filter (`binary <name> --exact`), and a per-thread call counter replays
//!   earlier `run_spmd` calls through the in-process backend (valid because
//!   the backends are bit-identical) until the targeted call is reached.
//! * **Primitive mode** ([`SpmdWorld`]) — a persistent world of workers
//!   executing small framed commands (all-reduce, ping-pong, halo exchange,
//!   coarse gather/scatter). This is what the microbenchmarks and the
//!   cost-model calibration drive: no re-exec per measurement, workers stay
//!   hot between timed repetitions. Binaries that want to *host* socket
//!   primitive workers must call [`maybe_primitive_worker`] first thing in
//!   `main`.
//!
//! Closure contract: `f` must consume every message addressed to it (our
//! collectives do) — the socket backend carries result/stats frames on the
//! same ordered streams as data, relying on protocol position, not tags.

use crate::collective;
use crate::transport::{
    channel_mesh, child_mesh, kill_children, spawn_world, Transport, TransportError, TransportKind,
};
use crate::{HaloPlan, Layout};
use kryst_obs::WireSnapshot;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Message stages of one butterfly all-reduce on `p` ranks: `log₂ p` for a
/// power of two, `⌊log₂ p⌋ + 2` otherwise (one fold-in stage collapsing the
/// excess ranks onto the power-of-two core, the butterfly, one unfold stage).
/// This is what [`collective::all_reduce_sum`] actually executes and what the
/// cost model charges per reduction — always ≤ the `2·⌈log₂ P⌉` of the
/// reduce-then-broadcast tree it replaced.
pub fn reduce_stages(p: usize) -> u32 {
    if p <= 1 {
        return 0;
    }
    let log = p.ilog2();
    if p.is_power_of_two() {
        log
    } else {
        log + 2
    }
}

/// Outcome of a [`run_spmd`] closure run.
#[derive(Debug, Clone)]
pub struct SpmdRun {
    /// Each rank's closure result, in rank order.
    pub results: Vec<Vec<f64>>,
    /// Total data-plane messages put on the wire across all ranks.
    pub messages: u64,
    /// Per-rank wire counters (data plane only; orchestration frames are
    /// control plane and excluded).
    pub wire: Vec<WireSnapshot>,
}

fn encode_wire(w: &WireSnapshot) -> [f64; 6] {
    [
        w.msgs_sent as f64,
        w.bytes_sent as f64,
        w.msgs_recv as f64,
        w.bytes_recv as f64,
        w.send_ns as f64,
        w.recv_ns as f64,
    ]
}

fn decode_wire(v: &[f64]) -> Option<WireSnapshot> {
    if v.len() != 6 {
        return None;
    }
    Some(WireSnapshot {
        msgs_sent: v[0] as u64,
        bytes_sent: v[1] as u64,
        msgs_recv: v[2] as u64,
        bytes_recv: v[3] as u64,
        send_ns: v[4] as u64,
        recv_ns: v[5] as u64,
    })
}

/// Per-thread-name `run_spmd` call counter. Worker processes replay the
/// spawning thread's earlier calls, so the count must be deterministic per
/// call site sequence — keying by thread name isolates concurrently running
/// libtest threads from each other.
fn bump_call_index() -> (String, u64) {
    static CALLS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    let name = std::thread::current().name().unwrap_or("main").to_string();
    let mut map = CALLS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let slot = map.entry(name.clone()).or_insert(0);
    let idx = *slot;
    *slot += 1;
    (name, idx)
}

/// Run `f` as one closure per rank over the chosen backend and gather every
/// rank's result (encoded as `Vec<f64>` so it can cross a process boundary),
/// total message count, and per-rank wire counters.
///
/// On [`TransportKind::Socket`] this spawns `nranks - 1` worker *processes*
/// by re-executing the current binary; inside a worker the same call site is
/// reached again and executes `f` against its socket endpoint instead of
/// spawning. `nranks == 1` always runs in process.
pub fn run_spmd<F>(kind: TransportKind, nranks: usize, f: F) -> Result<SpmdRun, TransportError>
where
    F: Fn(&dyn Transport) -> Result<Vec<f64>, TransportError> + Sync,
{
    assert!(nranks >= 1);
    let (thread_name, call_idx) = bump_call_index();
    if matches!(std::env::var("KRYST_SPMD_MODE"), Ok(m) if m == "worker")
        && std::env::var("KRYST_SPMD_THREAD").as_deref() == Ok(thread_name.as_str())
    {
        let target: u64 = std::env::var("KRYST_SPMD_CALL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        match call_idx.cmp(&target) {
            // Earlier calls of the spawning thread: replay in-process — the
            // backends are bit-identical, so program state evolves exactly
            // as it did in the parent.
            std::cmp::Ordering::Less => return run_channel(nranks, &f),
            std::cmp::Ordering::Equal => worker_execute(nranks, &f),
            std::cmp::Ordering::Greater => {
                // Unreachable: the targeted call exits the process.
                return Err(TransportError::Protocol {
                    detail: "worker ran past its targeted run_spmd call".into(),
                });
            }
        }
    }
    match kind {
        TransportKind::Channel => run_channel(nranks, &f),
        TransportKind::Socket if nranks == 1 => run_channel(nranks, &f),
        TransportKind::Socket => run_socket(nranks, &f, &thread_name, call_idx),
    }
}

/// Pick the error to surface from a set of per-rank outcomes: the first
/// non-`PeerClosed` error is the root cause (a `PeerClosed` is usually the
/// *echo* of some other rank's failure).
fn pick_error(errs: Vec<(usize, TransportError)>) -> Option<TransportError> {
    errs.iter()
        .find(|(_, e)| !matches!(e, TransportError::PeerClosed { .. }))
        .or_else(|| errs.first())
        .map(|(_, e)| e.clone())
}

/// Per-rank outcome of a channel run: the closure result plus the rank's
/// wire counters at exit.
type RankOutcome = (Result<Vec<f64>, TransportError>, WireSnapshot);

fn run_channel<F>(nranks: usize, f: &F) -> Result<SpmdRun, TransportError>
where
    F: Fn(&dyn Transport) -> Result<Vec<f64>, TransportError> + Sync,
{
    let mesh = channel_mesh(nranks);
    let mut outcomes: Vec<Option<RankOutcome>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for t in mesh {
            handles.push(scope.spawn(move || {
                // Fresh per-rank trace state: this thread *is* the rank.
                kryst_obs::span::reset_thread();
                let res = f(&t);
                let wire = t.wire().snapshot();
                // `t` drops here: disconnecting the endpoint is what turns a
                // panic or early return into `PeerClosed` on the peers.
                (res, wire)
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            outcomes[rank] = Some(match h.join() {
                Ok(pair) => pair,
                Err(_) => (
                    Err(TransportError::RankFailed {
                        rank,
                        detail: "rank panicked".into(),
                    }),
                    WireSnapshot::default(),
                ),
            });
        }
    });
    let mut results = Vec::with_capacity(nranks);
    let mut wire = Vec::with_capacity(nranks);
    let mut errs = Vec::new();
    for (rank, slot) in outcomes.into_iter().enumerate() {
        let (res, w) = slot.expect("every rank joined");
        wire.push(w);
        match res {
            Ok(v) => results.push(v),
            Err(e) => {
                results.push(Vec::new());
                errs.push((rank, e));
            }
        }
    }
    if let Some(e) = pick_error(errs) {
        return Err(e);
    }
    let messages = wire.iter().map(|w| w.msgs_sent).sum();
    Ok(SpmdRun {
        results,
        messages,
        wire,
    })
}

/// Rank ≥ 1 of a socket closure run: join the mesh, run `f`, ship wire stats
/// and the result to rank 0 as control frames, and exit the process. Exit
/// codes: 0 success, 10 mesh bootstrap failed, 11 world-size mismatch,
/// 12 `f` returned an error.
fn worker_execute<F>(nranks: usize, f: &F) -> !
where
    F: Fn(&dyn Transport) -> Result<Vec<f64>, TransportError>,
{
    let mut t = match child_mesh() {
        Ok(t) => t,
        Err(_) => std::process::exit(10),
    };
    if t.nranks() != nranks {
        std::process::exit(11);
    }
    // Replayed earlier calls may have recorded spans on this thread; the
    // targeted call starts from clean, rank-aligned trace state.
    kryst_obs::span::reset_thread();
    let res = f(&t);
    match res {
        Ok(out) => {
            let stats = encode_wire(&t.wire().snapshot());
            let ok = t.send_ctl(0, &stats).is_ok() && t.send_ctl(0, &out).is_ok();
            t.finish(); // joins writer threads: frames are flushed before exit
            std::process::exit(if ok { 0 } else { 12 });
        }
        Err(_) => {
            t.finish();
            std::process::exit(12);
        }
    }
}

fn run_socket<F>(
    nranks: usize,
    f: &F,
    thread_name: &str,
    call_idx: u64,
) -> Result<SpmdRun, TransportError>
where
    F: Fn(&dyn Transport) -> Result<Vec<f64>, TransportError> + Sync,
{
    // Worker argv: under libtest the spawning thread's name is the test's
    // full path, which is exactly the filter that re-enters this call site;
    // a plain binary (`main` thread) just re-runs with its own arguments.
    let args: Vec<String> = if thread_name == "main" {
        std::env::args().skip(1).collect()
    } else {
        vec![
            thread_name.to_string(),
            "--exact".into(),
            "--nocapture".into(),
            "--test-threads=1".into(),
        ]
    };
    let mut extra_env = vec![
        ("KRYST_SPMD_CALL".to_string(), call_idx.to_string()),
        ("KRYST_SPMD_THREAD".to_string(), thread_name.to_string()),
    ];
    // The instrumentation level may have been set at runtime rather than
    // via the environment; worker processes must agree, or the logical
    // clocks diverge across ranks.
    let level = kryst_obs::Profiler::global().level();
    extra_env.push(("KRYST_PROF".to_string(), level.env_value().to_string()));
    let (t, mut children) = spawn_world(nranks, "worker", None, &args, &extra_env)?;

    // Rank 0 runs on the calling thread, which may be long-lived: reset so
    // its trace state is as fresh as the workers'.
    kryst_obs::span::reset_thread();
    let r0 = f(&t);
    let r0 = match r0 {
        Ok(v) => v,
        Err(e) => {
            kill_children(&mut children);
            return Err(e);
        }
    };

    let mut results = vec![Vec::new(); nranks];
    let mut wire = vec![WireSnapshot::default(); nranks];
    results[0] = r0;
    wire[0] = t.wire().snapshot();
    for r in 1..nranks {
        let mut stats = Vec::new();
        let mut out = Vec::new();
        let got = t
            .recv_ctl(r, &mut stats)
            .and_then(|()| t.recv_ctl(r, &mut out));
        if let Err(e) = got {
            // The worker likely exited with a diagnostic code; report that
            // instead of the bare EOF.
            let status = children[r - 1].wait().ok();
            kill_children(&mut children);
            return Err(match status.and_then(|s| s.code()) {
                Some(12) => TransportError::RankFailed {
                    rank: r,
                    detail: "worker reported a transport error".into(),
                },
                Some(c) if c != 0 => TransportError::RankFailed {
                    rank: r,
                    detail: format!("worker exited with code {c}"),
                },
                _ => e,
            });
        }
        wire[r] = decode_wire(&stats).ok_or_else(|| TransportError::Protocol {
            detail: format!("malformed wire-stats frame from rank {r}"),
        })?;
        results[r] = out;
    }
    for (i, c) in children.iter_mut().enumerate() {
        match c.wait() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                return Err(TransportError::RankFailed {
                    rank: i + 1,
                    detail: format!("worker exited abnormally: {s}"),
                })
            }
            Err(e) => {
                return Err(TransportError::RankFailed {
                    rank: i + 1,
                    detail: format!("wait failed: {e}"),
                })
            }
        }
    }
    let messages = wire.iter().map(|w| w.msgs_sent).sum();
    Ok(SpmdRun {
        results,
        messages,
        wire,
    })
}

// ---------------------------------------------------------------------------
// Primitive-worker mode
// ---------------------------------------------------------------------------

/// Deterministic per-rank payload used by the primitive commands (the same
/// fill on every backend, so cross-backend results stay bit-identical).
fn pattern(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((rank * 31 + i) % 97) as f64 * 0.125 + 1.0)
        .collect()
}

/// If this process was spawned as a *primitive* socket worker
/// (`KRYST_SPMD_MODE=primitive`), join the mesh, serve commands until
/// shutdown, and exit — never returning to the caller. Binaries that host
/// [`SpmdWorld`] socket workers (the calibration bin, the transport bench)
/// must call this first thing in `main`.
pub fn maybe_primitive_worker() {
    if !matches!(std::env::var("KRYST_SPMD_MODE"), Ok(m) if m == "primitive") {
        return;
    }
    let code = match child_mesh() {
        Ok(mut t) => {
            let c = primitive_loop(&t);
            t.finish();
            c
        }
        Err(_) => 10,
    };
    std::process::exit(code);
}

/// Serve primitive commands on a worker endpoint until shutdown. Commands
/// arrive as control frames from rank 0: `[0]` shutdown (reply with wire
/// stats), `[1, len, reps]` all-reduce, `[2, len, reps]` ping-pong (rank 1
/// echoes), `[3, cols, reps, plan…]` halo exchange, `[4, n, subset, reps]`
/// coarse gather/scatter round-trips.
fn primitive_loop<T: Transport + ?Sized>(t: &T) -> i32 {
    let rank = t.rank();
    let p = t.nranks();
    let mut cmd = Vec::new();
    let mut scratch = Vec::new();
    loop {
        if t.recv_ctl(0, &mut cmd).is_err() || cmd.is_empty() {
            return 13;
        }
        let reps = |idx: usize| cmd.get(idx).copied().unwrap_or(1.0) as usize;
        let ok = match cmd[0] as u32 {
            0 => {
                let stats = encode_wire(&t.wire().snapshot());
                return if t.send_ctl(0, &stats).is_ok() { 0 } else { 13 };
            }
            1 => {
                let len = reps(1);
                let n = reps(2);
                (0..n).try_fold((), |(), _| {
                    let mut local = pattern(rank, len);
                    collective::all_reduce_sum(t, &mut local, &mut scratch).map(|_| ())
                })
            }
            2 => {
                // Ping-pong is a rank 0 ↔ 1 affair; everyone else idles.
                if rank == 1 {
                    let n = reps(2);
                    let mut buf = Vec::new();
                    (0..n).try_fold((), |(), _| {
                        t.recv_into(0, &mut buf)?;
                        t.send(0, &buf)
                    })
                } else {
                    Ok(())
                }
            }
            3 => {
                let cols = reps(1);
                let n = reps(2);
                match HaloPlan::decode(&cmd[3..]) {
                    Some(plan) => (0..n).try_fold((), |(), _| {
                        plan.execute(t, cols, (rank + 1) as f64).map(|_| ())
                    }),
                    None => Err(TransportError::Protocol {
                        detail: "malformed halo-plan frame".into(),
                    }),
                }
            }
            4 => {
                let coarse_n = reps(1);
                let subset = reps(2);
                let n = reps(3);
                let src = Layout::even(coarse_n, p);
                let dst = collective::subset_layout(coarse_n, p, subset);
                let local = pattern(rank, src.local_n(rank));
                let mut gathered = Vec::new();
                let mut back = Vec::new();
                (0..n).try_fold((), |(), _| {
                    collective::redistribute(t, &src, &dst, &local, &mut gathered)?;
                    collective::redistribute(t, &dst, &src, &gathered, &mut back)
                })
            }
            _ => Err(TransportError::Protocol {
                detail: format!("unknown primitive command {}", cmd[0]),
            }),
        };
        if ok.is_err() {
            return 13;
        }
    }
}

enum WorldBacking {
    Channel(Vec<std::thread::JoinHandle<i32>>),
    Socket(Vec<std::process::Child>),
}

/// A persistent world of primitive workers plus this process's rank-0
/// endpoint: the measurement substrate for the transport microbenchmarks and
/// the cost-model calibration. Channel worlds back workers with threads;
/// socket worlds spawn real worker processes (the hosting binary — or the
/// explicit `exe` — must call [`maybe_primitive_worker`] at the top of
/// `main`).
pub struct SpmdWorld {
    endpoint: Box<dyn Transport>,
    backing: WorldBacking,
    kind: TransportKind,
    nranks: usize,
}

impl SpmdWorld {
    /// Spawn a world of `nranks` over `kind`, workers re-executing the
    /// current binary in socket mode.
    pub fn spawn(kind: TransportKind, nranks: usize) -> Result<Self, TransportError> {
        Self::spawn_with_exe(kind, nranks, None)
    }

    /// Like [`SpmdWorld::spawn`] but socket workers execute `exe` instead of
    /// the current binary — how test binaries (which cannot host the
    /// pre-libtest worker hook) borrow the calibration bin as their worker.
    pub fn spawn_with_exe(
        kind: TransportKind,
        nranks: usize,
        exe: Option<&std::path::Path>,
    ) -> Result<Self, TransportError> {
        assert!(nranks >= 2, "an SpmdWorld needs at least 2 ranks");
        match kind {
            TransportKind::Channel => {
                let mut mesh = channel_mesh(nranks);
                let workers = mesh
                    .split_off(1)
                    .into_iter()
                    .map(|t| std::thread::spawn(move || primitive_loop(&t)))
                    .collect();
                let endpoint: Box<dyn Transport> = Box::new(mesh.pop().expect("rank 0 endpoint"));
                Ok(SpmdWorld {
                    endpoint,
                    backing: WorldBacking::Channel(workers),
                    kind,
                    nranks,
                })
            }
            TransportKind::Socket => {
                let (t, children) = spawn_world(nranks, "primitive", exe, &[], &[])?;
                Ok(SpmdWorld {
                    endpoint: Box::new(t),
                    backing: WorldBacking::Socket(children),
                    kind,
                    nranks,
                })
            }
        }
    }

    /// Backend this world runs on.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    fn broadcast_cmd(&self, cmd: &[f64]) -> Result<(), TransportError> {
        for r in 1..self.nranks {
            self.endpoint.send_ctl(r, cmd)?;
        }
        Ok(())
    }

    /// Time `reps` butterfly all-reduces of `len` doubles (wall time of rank
    /// 0's participation — the collective synchronizes, so this is the
    /// per-operation latency).
    pub fn all_reduce(&self, len: usize, reps: usize) -> Result<Duration, TransportError> {
        self.broadcast_cmd(&[1.0, len as f64, reps as f64])?;
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut local = pattern(0, len);
            collective::all_reduce_sum(self.endpoint.as_ref(), &mut local, &mut scratch)?;
        }
        Ok(t0.elapsed())
    }

    /// Time `reps` ping-pong round trips of `len` doubles against rank 1.
    pub fn ping_pong(&self, len: usize, reps: usize) -> Result<Duration, TransportError> {
        self.broadcast_cmd(&[2.0, len as f64, reps as f64])?;
        let payload = pattern(0, len);
        let mut buf = Vec::new();
        let t0 = Instant::now();
        for _ in 0..reps {
            self.endpoint.send(1, &payload)?;
            self.endpoint.recv_into(1, &mut buf)?;
        }
        Ok(t0.elapsed())
    }

    /// Time `reps` executions of a halo-exchange `plan` with `cols` columns
    /// per entry.
    pub fn halo(
        &self,
        plan: &HaloPlan,
        cols: usize,
        reps: usize,
    ) -> Result<Duration, TransportError> {
        let mut cmd = vec![3.0, cols as f64, reps as f64];
        cmd.extend(plan.encode());
        self.broadcast_cmd(&cmd)?;
        let t0 = Instant::now();
        for _ in 0..reps {
            plan.execute(self.endpoint.as_ref(), cols, 1.0)?;
        }
        Ok(t0.elapsed())
    }

    /// Time `reps` agglomerated-coarse round trips: gather an
    /// evenly-distributed `coarse_n`-row vector onto the first `subset`
    /// ranks, scatter it back.
    pub fn coarse(
        &self,
        coarse_n: usize,
        subset: usize,
        reps: usize,
    ) -> Result<Duration, TransportError> {
        self.broadcast_cmd(&[4.0, coarse_n as f64, subset as f64, reps as f64])?;
        let src = Layout::even(coarse_n, self.nranks);
        let dst = collective::subset_layout(coarse_n, self.nranks, subset);
        let local = pattern(0, src.local_n(0));
        let mut gathered = Vec::new();
        let mut back = Vec::new();
        let t0 = Instant::now();
        for _ in 0..reps {
            collective::redistribute(self.endpoint.as_ref(), &src, &dst, &local, &mut gathered)?;
            collective::redistribute(self.endpoint.as_ref(), &dst, &src, &gathered, &mut back)?;
        }
        Ok(t0.elapsed())
    }

    /// Rank 0's current wire counters.
    pub fn wire(&self) -> WireSnapshot {
        self.endpoint.wire().snapshot()
    }

    /// Shut the world down and collect per-rank wire counters (rank 0
    /// first).
    pub fn shutdown(self) -> Result<Vec<WireSnapshot>, TransportError> {
        self.broadcast_cmd(&[0.0])?;
        let mut wires = vec![self.endpoint.wire().snapshot()];
        let mut stats = Vec::new();
        for r in 1..self.nranks {
            self.endpoint.recv_ctl(r, &mut stats)?;
            wires.push(decode_wire(&stats).ok_or_else(|| TransportError::Protocol {
                detail: format!("malformed wire-stats frame from rank {r}"),
            })?);
        }
        drop(self.endpoint);
        match self.backing {
            WorldBacking::Channel(handles) => {
                for h in handles {
                    let _ = h.join();
                }
            }
            WorldBacking::Socket(mut children) => {
                for (i, c) in children.iter_mut().enumerate() {
                    match c.wait() {
                        Ok(s) if s.success() => {}
                        Ok(s) => {
                            return Err(TransportError::RankFailed {
                                rank: i + 1,
                                detail: format!("primitive worker exited abnormally: {s}"),
                            })
                        }
                        Err(e) => {
                            return Err(TransportError::RankFailed {
                                rank: i + 1,
                                detail: format!("wait failed: {e}"),
                            })
                        }
                    }
                }
            }
        }
        Ok(wires)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{
        all_reduce_sum, fused_all_reduce_sum, ifused_reduce_start, ireduce_start,
    };

    fn channel_run<F>(p: usize, f: F) -> SpmdRun
    where
        F: Fn(&dyn Transport) -> Result<Vec<f64>, TransportError> + Sync,
    {
        run_spmd(TransportKind::Channel, p, f).expect("channel run succeeds")
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        for p in [1, 2, 3, 4, 7, 8, 16] {
            let run = channel_run(p, |t| {
                let mut local = vec![t.rank() as f64, 1.0];
                let mut scratch = Vec::new();
                all_reduce_sum(t, &mut local, &mut scratch)?;
                Ok(local)
            });
            let expect0: f64 = (0..p).map(|r| r as f64).sum();
            for r in run.results {
                assert_eq!(r[0], expect0, "p = {p}");
                assert_eq!(r[1], p as f64);
            }
        }
    }

    #[test]
    fn all_reduce_message_count_is_logarithmic() {
        // Butterfly: the power-of-two core exchanges pow2·log₂(pow2)
        // messages; non-power-of-two adds one fold-in + one unfold message
        // per excess rank.
        for p in [2usize, 3, 4, 7, 8, 16] {
            let run = channel_run(p, |t| {
                let mut local = vec![1.0];
                let mut scratch = Vec::new();
                all_reduce_sum(t, &mut local, &mut scratch)?;
                Ok(local)
            });
            let pow2 = 1u64 << p.ilog2();
            let extras = p as u64 - pow2;
            assert_eq!(
                run.messages,
                pow2 * u64::from(pow2.ilog2()) + 2 * extras,
                "p = {p}"
            );
        }
    }

    #[test]
    fn all_reduce_stage_count_matches_reduce_stages() {
        // The executed stage count for P ∈ {2,3,4,7,8,16} (including
        // non-powers-of-two) must equal reduce_stages(P) — the figure the
        // cost model charges — and stay at or below the 2·⌈log₂ P⌉ the old
        // binomial tree claimed.
        for p in [2usize, 3, 4, 7, 8, 16] {
            let run = channel_run(p, |t| {
                let mut local = vec![t.rank() as f64];
                let mut scratch = Vec::new();
                let stages = all_reduce_sum(t, &mut local, &mut scratch)?;
                Ok(vec![f64::from(stages)])
            });
            let expect = f64::from(reduce_stages(p));
            for (r, s) in run.results.iter().enumerate() {
                assert_eq!(s[0], expect, "p = {p}, rank {r}");
            }
            let old_claim = 2.0 * (p as f64).log2().ceil();
            assert!(expect <= old_claim, "p = {p}: {expect} > {old_claim}");
        }
    }

    #[test]
    fn fused_all_reduce_costs_one_reduction() {
        // Three logically separate products (CᴴW / VᴴW / WᴴW shapes) batched
        // into one butterfly: same per-part sums as three separate
        // all-reduces, but the stage count of ONE.
        for p in [3usize, 4, 8] {
            let run = channel_run(p, |t| {
                let r = t.rank() as f64;
                let parts = vec![vec![r, 2.0 * r], vec![1.0 + r], vec![r * r, r, 1.0]];
                let mut scratch = Vec::new();
                let (fused, stages) = fused_all_reduce_sum(t, &parts, &mut scratch)?;
                let mut out = vec![f64::from(stages)];
                out.extend(fused.into_iter().flatten());
                Ok(out)
            });
            let pf = p as f64;
            let sum_r: f64 = (0..p).map(|r| r as f64).sum();
            let sum_r2: f64 = (0..p).map(|r| (r * r) as f64).sum();
            for enc in run.results {
                // One latency charge: a single all-reduce's worth of stages.
                assert_eq!(enc[0], f64::from(reduce_stages(p)), "p = {p}");
                assert_eq!(
                    enc[1..],
                    [sum_r, 2.0 * sum_r, pf + sum_r, sum_r2, sum_r, pf]
                );
            }
        }
    }

    #[test]
    fn split_phase_reduce_matches_synchronous_result_and_stages() {
        // ireduce_start / finish must reproduce the synchronous butterfly
        // exactly — same sums on every rank, same stage count, same total
        // message count — with local work interleaved while in flight.
        for p in [1usize, 2, 3, 4, 7, 8, 16] {
            let run = channel_run(p, |t| {
                let pending = ireduce_start(t, vec![t.rank() as f64, 1.0])?;
                // Independent local work while the reduction is on the wire.
                let hidden: f64 = (0..1000).map(|i| (i as f64).sqrt()).sum();
                let mut scratch = Vec::new();
                let (reduced, stages) = pending.finish(&mut scratch)?;
                Ok(vec![reduced[0], reduced[1], f64::from(stages), hidden])
            });
            let expect0: f64 = (0..p).map(|r| r as f64).sum();
            for enc in &run.results {
                assert_eq!(enc[0], expect0, "p = {p}");
                assert_eq!(enc[1], p as f64, "p = {p}");
                assert_eq!(enc[2], f64::from(reduce_stages(p)), "p = {p}");
                assert!(enc[3] > 0.0);
            }
            // Message totals identical to the synchronous path.
            let sync = channel_run(p, |t| {
                let mut local = vec![0.0, 0.0];
                let mut scratch = Vec::new();
                all_reduce_sum(t, &mut local, &mut scratch)?;
                Ok(local)
            });
            assert_eq!(run.messages, sync.messages, "p = {p}");
        }
    }

    #[test]
    fn split_phase_fused_reduce_returns_parts_in_order() {
        for p in [2usize, 3, 8] {
            let run = channel_run(p, |t| {
                let r = t.rank() as f64;
                let parts = vec![vec![r, 2.0 * r], vec![1.0 + r]];
                let pending = ifused_reduce_start(t, &parts)?;
                let mut scratch = Vec::new();
                let (fused, stages) = pending.finish(&mut scratch)?;
                let mut out = vec![f64::from(stages)];
                out.extend(fused.into_iter().flatten());
                Ok(out)
            });
            let pf = p as f64;
            let sum_r: f64 = (0..p).map(|r| r as f64).sum();
            for enc in run.results {
                // Still one latency charge.
                assert_eq!(enc[0], f64::from(reduce_stages(p)), "p = {p}");
                assert_eq!(enc[1..], [sum_r, 2.0 * sum_r, pf + sum_r]);
            }
        }
    }

    #[test]
    fn halo_style_neighbor_exchange() {
        // Each rank sends its id to both neighbors (chain), receives and sums.
        let p = 5;
        let run = channel_run(p, |t| {
            let r = t.rank();
            if r > 0 {
                t.send(r - 1, &[r as f64])?;
            }
            if r + 1 < t.nranks() {
                t.send(r + 1, &[r as f64])?;
            }
            let mut acc = 0.0;
            if r > 0 {
                acc += t.recv(r - 1)?[0];
            }
            if r + 1 < t.nranks() {
                acc += t.recv(r + 1)?[0];
            }
            Ok(vec![acc])
        });
        // Chain message count = 2·(P−1), matches HaloPlan for tridiagonal.
        assert_eq!(run.messages, 2 * (p as u64 - 1));
        assert_eq!(run.results[0][0], 1.0);
        assert_eq!(run.results[2][0], 1.0 + 3.0);
        assert_eq!(run.results[4][0], 3.0);
    }

    #[test]
    fn spmd_dot_product_matches_sequential() {
        // Distributed dot product of x·y with x_i = i, y_i = 2i over 3 ranks.
        let n = 30;
        let run = channel_run(3, |t| {
            let lo = t.rank() * 10;
            let hi = lo + 10;
            let mut local = vec![(lo..hi).map(|i| (i as f64) * (2 * i) as f64).sum()];
            let mut scratch = Vec::new();
            all_reduce_sum(t, &mut local, &mut scratch)?;
            Ok(local)
        });
        let expect: f64 = (0..n).map(|i| (i as f64) * (2 * i) as f64).sum();
        for r in run.results {
            assert_eq!(r[0], expect);
        }
    }

    #[test]
    fn redistribute_round_trips_between_layouts() {
        let p = 4;
        let n = 23;
        let run = channel_run(p, |t| {
            let src = Layout::even(n, p);
            let dst = collective::subset_layout(n, p, 2);
            let r = t.rank();
            let local: Vec<f64> = src.range(r).map(|i| i as f64).collect();
            let mut gathered = Vec::new();
            collective::redistribute(t, &src, &dst, &local, &mut gathered)?;
            // Gathered rows must be exactly the dst range, in order.
            for (k, v) in dst.range(r).zip(&gathered) {
                assert_eq!(*v, k as f64);
            }
            let mut back = Vec::new();
            collective::redistribute(t, &dst, &src, &gathered, &mut back)?;
            assert_eq!(back, local);
            Ok(vec![gathered.len() as f64])
        });
        let dst = collective::subset_layout(n, p, 2);
        for (r, res) in run.results.iter().enumerate() {
            assert_eq!(res[0], dst.local_n(r) as f64);
        }
        // Wire totals match the static message count (both directions).
        let src = Layout::even(n, p);
        let (msgs, rows) = collective::redistribute_messages(&src, &dst);
        let (msgs_back, rows_back) = collective::redistribute_messages(&dst, &src);
        let total_msgs: u64 = run.wire.iter().map(|w| w.msgs_sent).sum();
        let total_bytes: u64 = run.wire.iter().map(|w| w.bytes_sent).sum();
        assert_eq!(total_msgs, (msgs + msgs_back) as u64);
        assert_eq!(total_bytes, 8 * (rows + rows_back) as u64);
    }

    #[test]
    fn run_spmd_surfaces_peer_death_as_typed_error() {
        // Rank 1 "dies" (returns without participating); rank 0's receive
        // must surface the typed PeerClosed, not a panic.
        let err = run_spmd(TransportKind::Channel, 2, |t| {
            if t.rank() == 1 {
                return Ok(Vec::new());
            }
            let mut local = vec![1.0];
            let mut scratch = Vec::new();
            all_reduce_sum(t, &mut local, &mut scratch)?;
            Ok(local)
        })
        .unwrap_err();
        assert_eq!(err, TransportError::PeerClosed { rank: 0, peer: 1 });
    }

    #[test]
    fn socket_all_reduce_matches_channel_bitwise() {
        // Cross-backend smoke test at P = 3 (the fold-in + unfold path):
        // identical summation order ⇒ bitwise-identical results. The heavier
        // sweep lives in tests/transport_equivalence.rs.
        let body = |t: &dyn Transport| {
            let r = t.rank() as f64;
            let mut local = vec![0.1 * r + 0.3, r * r - 0.25, 1.0 / (r + 1.0)];
            let mut scratch = Vec::new();
            all_reduce_sum(t, &mut local, &mut scratch)?;
            Ok(local)
        };
        let chan = run_spmd(TransportKind::Channel, 3, body).expect("channel run");
        let sock = run_spmd(TransportKind::Socket, 3, body).expect("socket run");
        assert_eq!(chan.results, sock.results);
        assert_eq!(chan.messages, sock.messages);
    }

    #[test]
    fn channel_spmd_world_primitives_run() {
        let world = SpmdWorld::spawn(TransportKind::Channel, 4).expect("world spawns");
        world.all_reduce(8, 3).expect("all-reduce runs");
        world.ping_pong(1, 5).expect("ping-pong runs");
        world.coarse(17, 2, 2).expect("coarse round-trip runs");
        let w = world.wire();
        assert!(w.msgs_sent > 0 && w.msgs_recv > 0);
        let wires = world.shutdown().expect("clean shutdown");
        assert_eq!(wires.len(), 4);
        // Conservation: every sent message was received by someone.
        let sent: u64 = wires.iter().map(|w| w.msgs_sent).sum();
        let recv: u64 = wires.iter().map(|w| w.msgs_recv).sum();
        assert_eq!(sent, recv);
    }
}
