//! The Gravel benchmark: named workloads, each run for a fixed time as
//! rounds, checked for correctness, and reported as end-to-end metrics
//! (untraced) or per-layer metrics (traced). `BENCHMARK.json` lists the
//! three in-process ones; `socket_gups` runs the same way but is kept
//! out of that list while the socket cluster can deadlock. See
//! README.md.
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1 --node-bin PATH
//!           [--rustc VERSION] [--git-sha SHA] [--run-dir DIR] [--peak-probe 1]
//! ```
//!
//! `run.py` builds this binary and `gravel-node`, then runs it. With
//! `--peak-probe 1` it runs one in-process round and exits 0 if the
//! round checked: the untraced run spawns such probes to read a fresh
//! process's peak memory.

mod check;
mod host;
mod inproc;
mod layers;
mod report;
mod round;
mod socket;
mod stats;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gravel_core::GravelConfig;
use gravel_gq::Message;

use report::{Outcome, END_TO_END, PER_LAYER};
use round::Round;
use stats::{median, quantile_sorted, ratio};

/// Workloads with their load-generator thread (or process) counts.
const WORKLOADS: &[(&str, usize)] = &[
    ("gups_put", 2),
    ("pagerank_live", 1),
    ("get_under_put", 2),
    ("socket_gups", 2),
];

/// Rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Set-ups a run times at least (rounds plus extra set-ups).
const SETUP_SAMPLES: usize = 15;
/// Fresh processes an in-process run spawns to read peak memory.
const PEAK_PROBES: usize = 3;
/// Passes over the socket stream when the in-process pipeline replays
/// it in the traced run.
const SOCKET_INPROC_PASSES: u64 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: PathBuf,
    rustc: String,
    git_sha: String,
    run_dir: PathBuf,
    peak_probe: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <gups_put|pagerank_live|get_under_put|socket_gups> --seed N \
         --seconds S --trace 0|1 --node-bin PATH [--rustc V] [--git-sha SHA] [--run-dir DIR] \
         [--peak-probe 1]"
    );
    std::process::exit(64);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let workload = it.next().unwrap_or_else(|| usage());
    let mut a = Args {
        workload,
        seed: u64::MAX,
        seconds: 0.0,
        trace: false,
        node_bin: PathBuf::new(),
        rustc: "unknown".into(),
        git_sha: "unknown".into(),
        run_dir: PathBuf::from(".perfbench_run"),
        peak_probe: false,
    };
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--node-bin" => a.node_bin = PathBuf::from(val),
            "--rustc" => a.rustc = val,
            "--git-sha" => a.git_sha = val,
            "--run-dir" => a.run_dir = PathBuf::from(val),
            "--peak-probe" => a.peak_probe = val == "1",
            _ => usage(),
        }
    }
    if a.seed == u64::MAX || a.seconds.is_nan() || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Call `f(i)` for rounds `i = 0, 1, …` until `seconds` have passed and
/// at least `min` rounds ran.
fn repeat_for<T>(seconds: f64, min: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t.elapsed().as_secs_f64() < seconds {
        out.push(f(out.len()));
    }
    out
}

/// Run an in-process round from a trimmed heap, and log it.
fn run_round(round: impl FnOnce() -> Round) -> Round {
    host::release_free_memory();
    let r = round();
    eprintln!(
        "[perfbench] round: setup {:.4} s, wall {:.4} s, {:.4e} msg/s, {} failed",
        r.setup.as_secs_f64(),
        r.wall.as_secs_f64(),
        r.msgs as f64 / r.wall.as_secs_f64(),
        r.failed
    );
    r
}

/// Untraced rounds of in-process workload `a.workload`: the reference
/// its rounds check against is computed once, here.
fn inproc_rounds(a: &Args, threads: usize) -> Box<dyn FnMut(usize) -> Round> {
    let seed = a.seed;
    match a.workload.as_str() {
        "gups_put" => {
            let hist = check::gups_histogram(&inproc::gups_input(seed), inproc::NODES);
            Box::new(move |_| inproc::gups_put_round(seed, &hist, threads, false))
        }
        "pagerank_live" => {
            let want = inproc::pagerank_reference(&inproc::pagerank_graph(seed));
            Box::new(move |_| inproc::pagerank_round(seed, &want, false))
        }
        "get_under_put" => Box::new(move |i| inproc::get_under_put_round(seed, i as u64, false)),
        _ => usage(),
    }
}

/// Peak resident memory, MiB, of a fresh process that computes
/// `a.workload`'s reference and runs one round: the median over
/// [`PEAK_PROBES`] child processes (`wait4` `ru_maxrss`). A process
/// running many rounds is no measure of it: each round's runtime threads
/// leave memory in new allocator arenas, and the resident set grows for
/// tens of rounds. Call it before this process allocates much: a child
/// is spawned sharing this address space until its exec, and the kernel
/// counts this process's peak toward the child's `ru_maxrss`. A probe
/// whose round fails to check marks the run incorrect and gives no
/// figure.
#[allow(clippy::zombie_processes)] // `host::reap` waits for each probe.
fn probe_peak_rss(a: &Args, out: &mut Outcome) -> f64 {
    let exe = std::env::current_exe().expect("perfbench finds its own executable");
    let mut peaks = Vec::new();
    for _ in 0..PEAK_PROBES {
        let child = Command::new(&exe)
            .arg(&a.workload)
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", "1", "--trace", "0", "--peak-probe", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("perfbench starts a peak-memory probe");
        match host::reap(child.id(), true) {
            Some(u) if u.exited_ok => peaks.push(u.peak_rss_mib),
            _ => {
                eprintln!("[perfbench] a peak-memory probe of {} failed", a.workload);
                out.correct = false;
            }
        }
    }
    median(&peaks)
}

/// Median over rounds of `f`.
fn median_by(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn rate(r: &Round) -> f64 {
    ratio(r.msgs as f64, r.wall.as_secs_f64())
}

/// The rounds rates and times are taken from: every round that applied
/// its messages and whose outputs all checked (a failed round never
/// yields a number), except the first, which warms caches, allocator
/// pools and the page cache.
fn measured(rounds: &[Round]) -> Vec<&Round> {
    rounds
        .iter()
        .skip(1)
        .filter(|r| r.ok() && r.msgs > 0)
        .collect()
}

/// End-to-end metrics of `rounds`: the median set-up over every round
/// plus extra set-ups up to `SETUP_SAMPLES`, and the median over the
/// measured rounds of the rest (a median shrugs off the rounds a burst
/// of CPU steal from other tenants of the host slows down).
fn end_to_end(out: &mut Outcome, rounds: &[Round], mut extra_setup: impl FnMut(usize) -> Duration) {
    let ok = measured(rounds);
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    for i in rounds.len()..SETUP_SAMPLES {
        // From a trimmed heap, as every round starts.
        host::release_free_memory();
        setups.push(extra_setup(i).as_secs_f64());
    }
    out.set("setup_s", median(&setups));
    out.set("msgs_per_s", median_by(&ok, rate));
    out.set("wall_s", median_by(&ok, |r| r.wall.as_secs_f64()));
    out.set(
        "cpu_ns_per_msg",
        median_by(&ok, |r| ratio(r.cpu.as_nanos() as f64, r.msgs as f64)),
    );
    tally(out, rounds);
    out.set("rounds", rounds.len() as f64);
}

/// Add `rounds`' operations, failures and checks to `out`.
fn tally<'a>(out: &mut Outcome, rounds: impl IntoIterator<Item = &'a Round>) {
    for r in rounds {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.correct &= !r.mismatch;
    }
}

/// Per-layer metrics of an interleaved untraced/traced sequence of
/// rounds: each metric's median over the traced rounds, and the tracing
/// overhead from the two sides' median rates.
fn per_layer(out: &mut Outcome, rounds: &[Round]) {
    let (traced, plain): (Vec<&Round>, Vec<&Round>) = measured(rounds)
        .into_iter()
        .partition(|r| !r.layers.is_empty());
    out.set(
        "telemetry.trace_overhead_frac",
        1.0 - ratio(median_by(&traced, rate), median_by(&plain, rate)),
    );
    if let Some(first) = traced.first() {
        for name in first.layers.keys() {
            let v: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            out.set(name, median(&v));
        }
    }
    let iters: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.iter_ms.iter().copied())
        .collect();
    if !iters.is_empty() {
        out.set("gravel.iter_ms_p50", median(&iters));
    }
    tally(out, rounds);
}

/// Node-layer metrics of socket rounds, from the nodes' reports.
fn node_metrics(out: &mut Outcome, rounds: &[socket::SockRound]) {
    if !rounds.is_empty() {
        let setups: Vec<f64> = rounds.iter().map(|r| r.round.setup.as_secs_f64()).collect();
        out.set("node.startup_s", median(&setups));
    }
    let done: Vec<&socket::SockRound> = rounds.iter().filter(|r| !r.missed).collect();
    let sum = |f: fn(&socket::SockRound) -> u64| done.iter().map(|r| f(r)).sum::<u64>() as f64;
    let per_round = |f: fn(&socket::SockRound) -> u64| {
        median(&rounds.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    out.set(
        "node.fwd_per_packet",
        ratio(sum(|r| r.fwd_sent), sum(|r| r.acks_sent)),
    );
    out.set("node.retransmits", per_round(|r| r.retransmits));
    out.set("node.link_drops", per_round(|r| r.link_drops));
    out.set(
        "node.deadline_misses",
        rounds.iter().filter(|r| r.missed).count() as f64,
    );
}

fn socket_rounds(a: &Args, seconds: f64) -> Vec<socket::SockRound> {
    let pid = std::process::id();
    repeat_for(seconds, MIN_ROUNDS, |i| {
        let r = socket::round(
            &a.node_bin,
            a.run_dir.join(format!("{pid}-{i}")),
            a.seed,
            i as u64,
        );
        eprintln!(
            "[perfbench] socket round: setup {:.4} s, wall {:.4} s, {} failed{}",
            r.round.setup.as_secs_f64(),
            r.round.wall.as_secs_f64(),
            r.round.failed,
            if r.missed { " (deadline missed)" } else { "" }
        );
        r
    })
}

/// The untraced run of `a.workload`.
fn run_untraced(a: &Args, threads: usize) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let secs = a.seconds;
    let rounds: Vec<Round> = if a.workload == "socket_gups" {
        let srounds = socket_rounds(a, secs);
        node_metrics(&mut out, &srounds);
        let rounds: Vec<Round> = srounds.into_iter().map(|s| s.round).collect();
        out.set("peak_rss_mib", median_by(&measured(&rounds), |r| r.rss_mib));
        rounds
    } else {
        let peak = probe_peak_rss(a, &mut out);
        out.set("peak_rss_mib", peak);
        let mut round = inproc_rounds(a, threads);
        let rounds = repeat_for(secs, MIN_ROUNDS, |i| run_round(|| round(i)));
        if a.workload == "get_under_put" {
            let mut lat: Vec<u64> = rounds.iter().flat_map(|r| r.gets.iter().copied()).collect();
            lat.sort_unstable();
            out.set("get_p50_us", quantile_sorted(&lat, 0.50) as f64 / 1e3);
            out.set("get_p99_us", quantile_sorted(&lat, 0.99) as f64 / 1e3);
            out.set("get_samples", lat.len() as f64);
        }
        rounds
    };
    let pid = std::process::id();
    end_to_end(&mut out, &rounds, |i| match a.workload.as_str() {
        "socket_gups" => socket::setup_sample(
            &a.node_bin,
            a.run_dir.join(format!("{pid}-s{i}")),
            a.seed,
            i as u64,
        ),
        w => inproc::setup_sample(w, a.seed),
    });
    out.set(
        "ops_failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out
}

/// The traced run of `a.workload`: stage replays on the workload's own
/// messages, then untraced and traced rounds interleaved.
fn run_traced(a: &Args, threads: usize) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let secs = a.seconds;
    let traced = |i: usize| i % 2 == 1;
    let (streams, cfg, rounds): (Vec<Vec<Message>>, GravelConfig, Vec<Round>) =
        match a.workload.as_str() {
            "gups_put" => {
                let input = inproc::gups_input(a.seed);
                let hist = check::gups_histogram(&input, inproc::NODES);
                let streams = inproc::gups_streams(&input, inproc::NODES);
                let heap = inproc::gups_heap_len(&input, inproc::NODES);
                let rounds = repeat_for(secs, 2 * MIN_ROUNDS, |i| {
                    run_round(|| inproc::gups_put_round(a.seed, &hist, threads, traced(i)))
                });
                (streams, inproc::config(inproc::NODES, heap, false), rounds)
            }
            "pagerank_live" => {
                let g = inproc::pagerank_graph(a.seed);
                let want = inproc::pagerank_reference(&g);
                let rounds = repeat_for(secs, 2 * MIN_ROUNDS, |i| {
                    run_round(|| inproc::pagerank_round(a.seed, &want, traced(i)))
                });
                (
                    inproc::pagerank_streams(&g, inproc::NODES),
                    inproc::config(inproc::NODES, inproc::pagerank_heap_len(&g), false),
                    rounds,
                )
            }
            "get_under_put" => {
                // The storm resends the same batch: replay it many times.
                let streams = inproc::storm_chunks(inproc::NODES)
                    .into_iter()
                    .map(|c| c.repeat(64))
                    .collect();
                let rounds = repeat_for(secs, 2 * MIN_ROUNDS, |i| {
                    run_round(|| inproc::get_under_put_round(a.seed, i as u64, traced(i)))
                });
                (streams, inproc::gup_config(false), rounds)
            }
            "socket_gups" => {
                // The socket path runs no ring or aggregator: the
                // pipeline metrics come from the in-process runtime on
                // this workload's own stream, the node metrics from the
                // cluster itself.
                let input = socket::input(a.seed, 0);
                let hist = check::gups_histogram(&input, socket::NODES);
                let srounds = socket_rounds(a, secs / 2.0);
                node_metrics(&mut out, &srounds);
                tally(&mut out, srounds.iter().map(|s| &s.round));
                let heap = inproc::gups_heap_len(&input, socket::NODES);
                let rounds = repeat_for(secs / 2.0, 2 * MIN_ROUNDS, |i| {
                    run_round(|| {
                        inproc::gups_round(
                            &input,
                            socket::NODES,
                            SOCKET_INPROC_PASSES,
                            &hist,
                            threads,
                            traced(i),
                        )
                    })
                });
                let streams = inproc::gups_streams(&input, socket::NODES);
                (streams, inproc::config(socket::NODES, heap, false), rounds)
            }
            _ => usage(),
        };
    per_layer(&mut out, &rounds);
    let t = Instant::now();
    for (name, v) in layers::replays(&streams, &cfg) {
        out.set(name, v);
    }
    eprintln!("[perfbench] stage replays took {:.2?}", t.elapsed());
    out.set(
        "ops_failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out
}

fn main() {
    let mut a = parse_args();
    let Some(&(_, threads)) = WORKLOADS.iter().find(|(w, _)| *w == a.workload) else {
        usage()
    };
    if a.peak_probe {
        let r = run_round(|| inproc_rounds(&a, threads)(0));
        std::process::exit(if r.ok() { 0 } else { 1 });
    }
    let nproc = host::nproc();
    println!(
        "host: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_sha\": \"{}\", \
         \"load_threads\": {threads}}}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        host::cpu_model().replace('"', "'"),
        a.rustc.replace('"', "'"),
        a.git_sha.replace('"', "'"),
    );
    if threads > nproc {
        eprintln!(
            "[perfbench] {} needs {threads} load-generator threads; this host has {nproc} cores",
            a.workload
        );
        std::process::exit(3);
    }
    if a.workload == "socket_gups" {
        a.node_bin = std::fs::canonicalize(&a.node_bin).unwrap_or_else(|e| {
            eprintln!("[perfbench] --node-bin {}: {e}", a.node_bin.display());
            std::process::exit(66);
        });
    }
    let t = Instant::now();
    let ticks0 = host::cpu_ticks();
    let mut out = if a.trace {
        run_traced(&a, threads)
    } else {
        run_untraced(&a, threads)
    };
    let ticks = host::cpu_ticks();
    out.set(
        "host.cpu_steal_frac",
        ratio(
            ticks.0.saturating_sub(ticks0.0) as f64,
            ticks.1.saturating_sub(ticks0.1) as f64,
        ),
    );
    let _ = std::fs::remove_dir(&a.run_dir);
    eprintln!("[perfbench] {} done in {:.1?}", a.workload, t.elapsed());
    print!("{}", report::human_lines(&a.workload, &out));
    println!(
        "{}",
        report::json_line(&out, if a.trace { PER_LAYER } else { END_TO_END })
    );
}
