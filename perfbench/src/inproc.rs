//! The in-process workloads: `gups_put`, `pagerank_live`, and
//! `get_under_put`, each run as rounds on a fresh `GravelRuntime` in the
//! paper configuration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gravel_apps::graph::{gen, reference, Csr};
use gravel_apps::gups::{self, GupsInput};
use gravel_apps::pagerank;
use gravel_core::{GravelConfig, GravelRuntime};
use gravel_gq::Message;
use gravel_telemetry::TelemetryConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check;
use crate::host::process_cpu;
use crate::layers::{self, LayerMetrics};
use crate::round::Round;

/// Nodes of every in-process workload.
pub const NODES: usize = 4;

/// `gups_put`: table words (128 KiB of counters per run, L2-resident).
const GUPS_TABLE: usize = 1 << 14;
/// `gups_put`: updates in the precomputed stream.
const GUPS_STREAM: usize = 1 << 21;
/// `gups_put`: passes over the stream per round (increments commute,
/// so the expected table is `passes ×` the stream's histogram).
const GUPS_PASSES: u64 = 4;
/// Messages a producer hands to one node before turning to its other
/// node, so neither node's ring idles while the other's is full.
const INJECT_CHUNK: usize = 8192;

/// `pagerank_live`: vertices and iterations per round.
const PR_VERTICES: usize = 100_000;
const PR_ITERS: usize = 10;

/// `get_under_put`: words of each node's GET-probe region (never
/// written, so every read returns the seeded pattern) and of its storm
/// region (the target of every bulk increment).
const PROBE_WORDS: usize = 1024;
const STORM_WORDS: usize = 1024;
/// Increments per storm batch, all to the right-hand neighbour.
const STORM_CHUNK: usize = 2048;
/// Bulk increments the storm keeps in flight cluster-wide.
const BULK_IN_FLIGHT: u64 = 64 * 1024;
/// Packet size of `get_under_put`: 4 kB keeps each in-flight bulk
/// packet short of receiver work, so GET latency shows queueing at the
/// sender, the part the aggregator's scheduling decides.
const GUP_QUEUE_BYTES: usize = 4096;
/// Storm batches per round (about 25 M increments, about a second): a
/// round is a fixed amount of bulk work, so its interval measures the
/// storm, and the GETs issued meanwhile measure latency beside it.
const STORM_BATCHES_PER_ROUND: u64 = 12_288;

/// The paper configuration; traced rounds add span recording.
pub fn config(nodes: usize, heap_len: usize, traced: bool) -> GravelConfig {
    let mut cfg = GravelConfig::paper(nodes, heap_len);
    if traced {
        cfg.telemetry = TelemetryConfig::CountersAndTrace;
    }
    cfg
}

/// Registry counters, histograms, and span self-times of a finished
/// (quiesced) traced round. `busy` is the time one load-generator
/// thread spent inside the injection call; `None` for a SIMT workload,
/// whose producers (the work-group threads) wait for the ring inside the
/// `gq.offload` span.
fn traced_layers(
    rt: &GravelRuntime,
    wall: Duration,
    busy: Option<Duration>,
    tail: Duration,
) -> (LayerMetrics, Vec<f64>) {
    let mut m = layers::counter_metrics(&rt.telemetry_snapshot(), rt.nodes());
    m.insert("gravel.quiesce_tail_ms", tail.as_secs_f64() * 1e3);
    let summary = layers::trace_summary(&rt.export_chrome_trace().unwrap_or_default());
    for (span, name) in layers::TRACED_SPANS {
        m.insert(name, summary.self_ms.get(*span).copied().unwrap_or(0.0));
    }
    m.insert("trace.dropped_spans", rt.tracer().dropped_events() as f64);
    let busy_s = match busy {
        Some(b) => b.as_secs_f64(),
        None => {
            let threads = summary.threads.get("gq.offload").copied().unwrap_or(1);
            summary.self_ms.get("gq.offload").copied().unwrap_or(0.0) / 1e3 / threads as f64
        }
    };
    m.insert("gq.producer_blocked_frac", busy_s / wall.as_secs_f64());
    (m, summary.iter_ms)
}

/// Shut the runtime down; a runtime error fails the round.
fn finish(rt: GravelRuntime, round: &mut Round) {
    if let Err(e) = rt.shutdown() {
        eprintln!("[perfbench] runtime shutdown failed: {e:?}");
        round.failed = round.attempted;
    }
}

// ---- gups_put -------------------------------------------------------------

/// The `gups_put` update streams for `seed`: one `Vec` per node of INC
/// messages, routed through the GUPS partition.
pub fn gups_streams(input: &GupsInput, nodes: usize) -> Vec<Vec<Message>> {
    let part = gups::partition(input, nodes);
    (0..nodes)
        .map(|node| {
            gups::node_updates(input, nodes, node)
                .into_iter()
                .map(|g| Message::inc(part.owner(g) as u32, part.local_offset(g), 1))
                .collect()
        })
        .collect()
}

/// `gups_put` input for `seed`.
pub fn gups_input(seed: u64) -> GupsInput {
    GupsInput {
        updates: GUPS_STREAM,
        table_len: GUPS_TABLE,
        seed,
    }
}

/// Inject `passes` passes of every node's stream from `threads` host
/// producers; producer `t` feeds nodes `t, t + threads, …` a chunk at a
/// time. Returns the summed time spent inside `host_send_batch`.
fn inject(rt: &GravelRuntime, streams: &[Vec<Message>], passes: u64, threads: usize) -> Duration {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mine: Vec<usize> = (t..streams.len()).step_by(threads).collect();
                    let longest = mine.iter().map(|&n| streams[n].len()).max().unwrap_or(0);
                    let mut busy = Duration::ZERO;
                    for _ in 0..passes {
                        for start in (0..longest).step_by(INJECT_CHUNK) {
                            for &n in &mine {
                                let s = &streams[n];
                                let chunk =
                                    &s[start.min(s.len())..(start + INJECT_CHUNK).min(s.len())];
                                let t0 = Instant::now();
                                rt.node(n).host_send_batch(chunk);
                                busy += t0.elapsed();
                            }
                        }
                    }
                    busy
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .sum()
    })
}

/// Heap words per node a GUPS table needs: the largest local slice.
pub fn gups_heap_len(input: &GupsInput, nodes: usize) -> usize {
    let part = gups::partition(input, nodes);
    (0..nodes).map(|n| part.local_len(n)).max().unwrap_or(1)
}

/// `gups_put` set-up: generate the streams, start the runtime.
fn gups_setup(input: &GupsInput, nodes: usize, traced: bool) -> (Vec<Vec<Message>>, GravelRuntime) {
    let streams = gups_streams(input, nodes);
    let heap_len = gups_heap_len(input, nodes);
    (streams, GravelRuntime::new(config(nodes, heap_len, traced)))
}

/// One `gups_put` round.
pub fn gups_put_round(seed: u64, hist: &[u64], threads: usize, traced: bool) -> Round {
    gups_round(&gups_input(seed), NODES, GUPS_PASSES, hist, threads, traced)
}

/// A pipeline-injected GUPS round on `nodes` nodes: `threads` producers
/// flood `passes` passes of the precomputed streams, then quiesce; the
/// heap must equal `passes ×` the sequential histogram `hist`.
pub fn gups_round(
    input: &GupsInput,
    nodes: usize,
    passes: u64,
    hist: &[u64],
    threads: usize,
    traced: bool,
) -> Round {
    let t0 = Instant::now();
    let (streams, rt) = gups_setup(input, nodes, traced);
    let mut r = Round {
        setup: t0.elapsed(),
        ..Round::default()
    };
    r.msgs = passes * input.updates as u64;
    r.attempted = r.msgs;

    let cpu0 = process_cpu();
    let start = Instant::now();
    let busy = inject(&rt, &streams, passes, threads);
    let q0 = Instant::now();
    rt.quiesce();
    let tail = q0.elapsed();
    r.wall = start.elapsed();
    r.cpu = process_cpu() - cpu0;

    let bad = check::gups_mismatches(input, nodes, hist, passes, |n, off| {
        Some(rt.heap(n).load(off))
    });
    if bad > 0 {
        eprintln!("[perfbench] gups: {bad} table words differ from the histogram");
        r.mismatch = true;
        r.failed = r.attempted;
    }
    if traced {
        let per_thread = busy / threads as u32;
        (r.layers, r.iter_ms) = traced_layers(&rt, r.wall, Some(per_thread), tail);
    }
    finish(rt, &mut r);
    r
}

// ---- pagerank_live --------------------------------------------------------

/// `pagerank_live` graph for `seed`.
pub fn pagerank_graph(seed: u64) -> Csr {
    gen::hugebubbles_like(PR_VERTICES, seed)
}

/// The sequential reference ranks the live run must equal bit for bit.
pub fn pagerank_reference(g: &Csr) -> Vec<u64> {
    reference::pagerank(g, PR_ITERS, pagerank::default_damping())
}

/// Heap words per node `g`'s PageRank needs: the largest vertex block.
pub fn pagerank_heap_len(g: &Csr) -> usize {
    let part = pagerank::partition(g, NODES);
    (0..NODES).map(|n| part.local_len(n)).max().unwrap_or(1)
}

/// `pagerank_live` set-up: generate the graph, start the runtime.
fn pagerank_setup(seed: u64, traced: bool) -> (Csr, GravelRuntime) {
    let g = pagerank_graph(seed);
    let rt = GravelRuntime::new(config(NODES, pagerank_heap_len(&g), traced));
    (g, rt)
}

/// One `pagerank_live` round: `run_live` for `PR_ITERS` iterations.
pub fn pagerank_round(seed: u64, want: &[u64], traced: bool) -> Round {
    let t0 = Instant::now();
    let (g, rt) = pagerank_setup(seed, traced);
    let mut r = Round {
        setup: t0.elapsed(),
        ..Round::default()
    };

    let cpu0 = process_cpu();
    let start = Instant::now();
    let ranks = pagerank::run_live(&rt, &g, PR_ITERS, pagerank::default_damping());
    let q0 = Instant::now();
    rt.quiesce();
    let tail = q0.elapsed();
    r.wall = start.elapsed();
    r.cpu = process_cpu() - cpu0;
    r.msgs = rt.stats().total_offloaded();
    r.attempted = r.msgs;
    if ranks != want {
        let bad = ranks.iter().zip(want).filter(|(a, b)| a != b).count();
        eprintln!("[perfbench] pagerank_live: {bad} ranks differ from the reference");
        r.mismatch = true;
        r.failed = r.attempted;
    }
    if traced {
        (r.layers, r.iter_ms) = traced_layers(&rt, r.wall, None, tail);
    }
    finish(rt, &mut r);
    r
}

/// One iteration's scatter as messages (each edge an INC of the source's
/// initial rank share into the destination's accumulator): the stream
/// the stage replays use for `pagerank_live`.
pub fn pagerank_streams(g: &Csr, nodes: usize) -> Vec<Vec<Message>> {
    let dir = pagerank::directory(g, nodes);
    let n = g.num_vertices() as u64;
    let mut streams = vec![Vec::new(); nodes];
    for (u, v, _) in g.iter_edges() {
        let share = (reference::FIXED_ONE / n) / g.out_degree(u) as u64;
        let rv = dir.route(v as usize);
        streams[dir.route(u as usize).dest as usize].push(Message::inc(rv.dest, rv.offset, share));
    }
    streams
}

// ---- get_under_put --------------------------------------------------------

/// `get_under_put` configuration: the paper's, with 4 kB packets.
pub fn gup_config(traced: bool) -> GravelConfig {
    let mut cfg = config(NODES, PROBE_WORDS + STORM_WORDS, traced);
    cfg.node_queue_bytes = GUP_QUEUE_BYTES;
    cfg
}

/// Each node's storm batch: `STORM_CHUNK` increments into its right-hand
/// neighbour's storm region.
pub fn storm_chunks(nodes: usize) -> Vec<Vec<Message>> {
    (0..nodes)
        .map(|node| {
            let dest = ((node + 1) % nodes) as u32;
            (0..STORM_CHUNK)
                .map(|i| Message::inc(dest, (PROBE_WORDS + i % STORM_WORDS) as u64, 1))
                .collect()
        })
        .collect()
}

/// `get_under_put` set-up: build the storm batches, start the runtime,
/// write the probe pattern.
fn gup_setup(seed: u64, traced: bool) -> (Vec<Vec<Message>>, GravelRuntime) {
    let chunks = storm_chunks(NODES);
    let rt = GravelRuntime::new(gup_config(traced));
    for node in 0..NODES {
        for addr in 0..PROBE_WORDS as u64 {
            rt.heap(node)
                .store(addr, check::get_pattern(seed, node, addr));
        }
    }
    (chunks, rt)
}

/// One extra set-up of `workload` (no run): its duration. A run takes
/// more set-up samples than it has rounds so the median is steady.
pub fn setup_sample(workload: &str, seed: u64) -> Duration {
    let t0 = Instant::now();
    let rt = match workload {
        "gups_put" => gups_setup(&gups_input(seed), NODES, false).1,
        "pagerank_live" => pagerank_setup(seed, false).1,
        "get_under_put" => gup_setup(seed, false).1,
        other => panic!("{other} is not an in-process workload"),
    };
    let d = t0.elapsed();
    rt.shutdown().expect("idle runtime shuts down cleanly");
    d
}

/// One `get_under_put` round: a storm thread sends
/// `STORM_BATCHES_PER_ROUND` batches round-robin over the nodes, keeping
/// at most `BULK_IN_FLIGHT` increments in flight, while a prober on
/// node 0 issues closed-loop GETs to the other nodes' probe regions
/// until the storm is done.
pub fn get_under_put_round(seed: u64, round: u64, traced: bool) -> Round {
    let t0 = Instant::now();
    let (chunks, rt) = gup_setup(seed, traced);
    let mut rng = StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x5851_F42D_4C95_7F2D));
    let mut r = Round {
        setup: t0.elapsed(),
        ..Round::default()
    };

    let done = AtomicBool::new(false);
    let cpu0 = process_cpu();
    let start = Instant::now();
    let (sent, busy) = std::thread::scope(|s| {
        let storm = s.spawn(|| {
            let nodes: Vec<_> = (0..NODES).map(|n| rt.node(n).clone()).collect();
            let mut sent = [0u64; NODES];
            let mut busy = Duration::ZERO;
            let mut k = 0;
            for _ in 0..STORM_BATCHES_PER_ROUND {
                loop {
                    let applied: u64 = nodes.iter().map(|n| n.applied.get()).sum();
                    let offloaded: u64 = nodes.iter().map(|n| n.offloaded.get()).sum();
                    if offloaded.saturating_sub(applied) < BULK_IN_FLIGHT {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                let t = Instant::now();
                nodes[k].host_send_batch(&chunks[k]);
                busy += t.elapsed();
                sent[k] += 1;
                k = (k + 1) % NODES;
            }
            done.store(true, Ordering::Relaxed);
            (sent, busy)
        });
        let mut i = 0;
        while !done.load(Ordering::Relaxed) {
            let dest = (1 + i % (NODES - 1)) as u32;
            let addr = rng.gen_range(0..PROBE_WORDS as u64);
            i += 1;
            let t = Instant::now();
            let got = rt.host_get(0, dest, addr);
            let lat = t.elapsed().as_nanos() as u64;
            match got {
                Ok(v) if v == check::get_pattern(seed, dest as usize, addr) => r.gets.push(lat),
                Ok(v) => {
                    eprintln!(
                        "[perfbench] GET node{dest}[{addr}] returned {v:#x}, not the pattern"
                    );
                    r.mismatch = true;
                    r.failed += 1;
                }
                Err(e) => {
                    eprintln!("[perfbench] GET node{dest}[{addr}] failed: {e:?}");
                    r.failed += 1;
                }
            }
        }
        storm.join().expect("storm thread")
    });
    let q0 = Instant::now();
    rt.quiesce();
    let tail = q0.elapsed();
    r.wall = start.elapsed();
    r.cpu = process_cpu() - cpu0;
    r.msgs = sent.iter().sum::<u64>() * STORM_CHUNK as u64;
    r.attempted = r.msgs + (r.gets.len() as u64 + r.failed);

    // Node n's storm region holds exactly what its left neighbour sent.
    let per_word =
        |src: usize, w: usize| sent[src] * ((STORM_CHUNK - w).div_ceil(STORM_WORDS)) as u64;
    let bad = (0..NODES)
        .flat_map(|n| (0..STORM_WORDS).map(move |w| (n, w)))
        .filter(|&(n, w)| {
            let src = (n + NODES - 1) % NODES;
            rt.heap(n).load((PROBE_WORDS + w) as u64) != per_word(src, w)
        })
        .count();
    if bad > 0 {
        eprintln!("[perfbench] get_under_put: {bad} storm words differ from the increments sent");
        r.mismatch = true;
        r.failed += r.msgs;
    }
    if traced {
        (r.layers, r.iter_ms) = traced_layers(&rt, r.wall, Some(busy), tail);
    }
    finish(rt, &mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_word_counts_match_the_chunk() {
        // Word w of the storm region gets ceil((CHUNK - w) / WORDS)
        // increments per batch; the batch sums to CHUNK.
        let per: usize = (0..STORM_WORDS)
            .map(|w| (STORM_CHUNK - w).div_ceil(STORM_WORDS))
            .sum();
        assert_eq!(per, STORM_CHUNK);
        let chunk = &storm_chunks(NODES)[0];
        let hits = chunk
            .iter()
            .filter(|m| m.addr == PROBE_WORDS as u64)
            .count();
        assert_eq!(hits, STORM_CHUNK.div_ceil(STORM_WORDS));
    }
}
