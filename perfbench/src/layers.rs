//! Per-layer measurements, all taken from outside the program: stage
//! replays that time calls into each layer's public functions on a
//! workload's own generated messages, counter deltas from the telemetry
//! registry, and span self-times from the exported chrome trace.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gravel_core::{GravelConfig, GravelRuntime};
use gravel_gq::{BufferPool, Consumed, GravelQueue, Message, QueueConfig, MSG_ROWS};
use gravel_net::{ChannelTransport, RecvStatus, SendStatus, Transport};
use gravel_node::proto::{self, CkptImage, FwdPacket};
use gravel_node::store::WardStores;
use gravel_pgas::{DataFrame, NodeQueues, Packet, SymmetricHeap, WireIntegrity, DEFAULT_TIMEOUT};
use gravel_simt::{LaneVec, Mask};
use gravel_telemetry::{HistogramSnapshot, RegistrySnapshot};

use crate::stats::{histogram_quantile, median, ratio};

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Messages a stage replay takes from a workload's streams (a prefix of
/// each node's stream): enough for stable per-message times, small
/// enough that every replay stays well under a second.
const REPLAY_MSGS: usize = 1 << 19;
/// Messages the SIMT-versus-injected comparison takes: the interpreted
/// SIMT front end is the slow path.
const SIMT_MSGS: usize = 1 << 16;
/// Repetitions of each replay; the median is reported.
const REPS: usize = 3;
const SEND_TIMEOUT: Duration = Duration::from_secs(5);

/// The replay input: every node's messages, capped at `cap` in total.
fn capped(streams: &[Vec<Message>], cap: usize) -> Vec<Vec<Message>> {
    let per = cap / streams.len().max(1);
    streams
        .iter()
        .map(|s| s[..s.len().min(per)].to_vec())
        .collect()
}

fn words_of(msgs: &[Message]) -> Vec<u64> {
    msgs.iter().flat_map(|m| m.encode()).collect()
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median over [`REPS`] repetitions of `f`, which returns one value.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

/// `gq`: produce each slot through `GravelQueue::produce_batch`, then
/// drain with `try_consume_batch`, a ring's worth at a time.
fn replay_gq(streams: &[Vec<Message>]) -> (f64, f64) {
    let cfg = QueueConfig::gravel_default();
    let slots: Vec<(Vec<u64>, usize)> = streams
        .iter()
        .flat_map(|s| s.chunks(cfg.lane_width).map(|c| (words_of(c), c.len())))
        .collect();
    let msgs: usize = slots.iter().map(|s| s.1).sum();
    let mut prod = Vec::new();
    let mut cons = Vec::new();
    for _ in 0..REPS {
        let q = GravelQueue::new(cfg);
        let mut out = Vec::with_capacity(cfg.slots * cfg.lane_width * MSG_ROWS);
        let (mut tp, mut tc) = (Duration::ZERO, Duration::ZERO);
        for group in slots.chunks(cfg.slots) {
            let t = Instant::now();
            for (words, count) in group {
                q.produce_batch(words, *count);
            }
            tp += t.elapsed();
            let want: usize = group.iter().map(|s| s.1).sum();
            let mut got = 0;
            out.clear();
            let t = Instant::now();
            while got < want {
                match q.try_consume_batch(&mut out, 8) {
                    Consumed::Batch(n) => got += n,
                    Consumed::Empty | Consumed::Closed => panic!("replayed ring ran dry"),
                }
            }
            tc += t.elapsed();
            std::hint::black_box(&out);
        }
        prod.push(ns(tp) / msgs as f64);
        cons.push(ns(tc) / msgs as f64);
    }
    (median(&prod), median(&cons))
}

/// `pgas` pack: each node's stream through `NodeQueues::push_run` in
/// same-destination runs (as the aggregator groups them), then
/// `flush_all_into`. Returns ns per message and the packets.
fn replay_pack(streams: &[Vec<Message>], queue_bytes: usize) -> (f64, Vec<Packet>) {
    let nodes = streams.len();
    let words: Vec<Vec<u64>> = streams.iter().map(|s| words_of(s)).collect();
    let msgs: usize = streams.iter().map(Vec::len).sum();
    let pool = BufferPool::new();
    let mut packets = Vec::new();
    let per_msg = median_of(|| {
        packets.clear();
        let t = Instant::now();
        for (src, w) in words.iter().enumerate() {
            let mut q = NodeQueues::with_config(src as u32, nodes, queue_bytes, DEFAULT_TIMEOUT)
                .with_pool(pool.clone());
            let now = Instant::now();
            let mut pos = 0;
            while pos < w.len() {
                let dest = w[pos + 1];
                let mut end = pos + MSG_ROWS;
                while end < w.len() && w[end + 1] == dest {
                    end += MSG_ROWS;
                }
                q.push_run(dest as usize, &w[pos..end], MSG_ROWS, now, &mut packets);
                pos = end;
            }
            q.flush_all_into(&mut packets);
        }
        ns(t.elapsed()) / msgs as f64
    });
    (per_msg, packets)
}

/// `pgas` seal/open: `Packet::seal` and `DataFrame::open` with CRC32C,
/// per KiB of frame. Returns the sealed frames too.
fn replay_seal_open(packets: &[Packet]) -> (f64, f64, Vec<DataFrame>) {
    let mut frames: Vec<DataFrame> = Vec::new();
    let seal = median_of(|| {
        let t = Instant::now();
        frames = packets
            .iter()
            .map(|p| p.seal(0, WireIntegrity::Crc32c))
            .collect();
        ns(t.elapsed())
    });
    let kib = frames.iter().map(DataFrame::len).sum::<usize>() as f64 / 1024.0;
    let open = median_of(|| {
        let t = Instant::now();
        for f in &frames {
            std::hint::black_box(f.open(WireIntegrity::Crc32c).expect("sealed frame opens"));
        }
        ns(t.elapsed())
    });
    (seal / kib, open / kib, frames)
}

/// `pgas` apply: `SymmetricHeap::fetch_add` over the address stream.
fn replay_apply(streams: &[Vec<Message>], heap_len: usize) -> f64 {
    let msgs: usize = streams.iter().map(Vec::len).sum();
    median_of(|| {
        let heap = SymmetricHeap::new(heap_len);
        let t = Instant::now();
        for m in streams.iter().flatten() {
            heap.fetch_add(m.addr, m.value);
        }
        ns(t.elapsed()) / msgs as f64
    })
}

/// `net`: frames through `ChannelTransport::send_data`, drained with
/// `recv_data`, half a channel's capacity at a time.
fn replay_net(frames: &[DataFrame], nodes: usize) -> (f64, f64) {
    let cap = GravelConfig::paper(nodes, 1).channel_capacity;
    let mut send = Vec::new();
    let mut recv = Vec::new();
    for _ in 0..REPS {
        let t = ChannelTransport::new(nodes, 1, cap);
        let (mut ts, mut tr) = (Duration::ZERO, Duration::ZERO);
        for group in frames.chunks(cap / 2) {
            let mut per_dest = vec![0usize; nodes];
            let start = Instant::now();
            for f in group {
                per_dest[f.dest as usize] += 1;
                assert_eq!(t.send_data(f.clone(), SEND_TIMEOUT), SendStatus::Sent);
            }
            ts += start.elapsed();
            let start = Instant::now();
            for (dest, &n) in per_dest.iter().enumerate() {
                for _ in 0..n {
                    match t.recv_data(dest as u32, SEND_TIMEOUT) {
                        RecvStatus::Msg(f) => {
                            std::hint::black_box(f);
                        }
                        other => panic!("replayed frame lost: {other:?}"),
                    }
                }
            }
            tr += start.elapsed();
        }
        send.push(ns(ts) / frames.len() as f64);
        recv.push(ns(tr) / frames.len() as f64);
    }
    (median(&send), median(&recv))
}

/// `node`: `gravel-node`'s buddy-forwarding path on the packed packets.
/// Each packet is forwarded the way its receiver's `Forwarder` does
/// (`FwdPacket` of the packet's words, `proto::encode_fwd`), then
/// decoded and logged by the buddy (`proto::decode_fwd`,
/// `WardStores::on_fwd`). Then every ward's heap is rebuilt from a zero
/// baseline with `WardStores::reconstruct_heap`, as an eviction does,
/// and checked: each node's words sum to the increments sent to it.
/// Returns ns per message of forwarding and of rebuilding.
fn replay_node(streams: &[Vec<Message>], packets: &[Packet], heap_len: usize) -> (f64, f64) {
    let nodes = streams.len();
    let msgs: usize = streams.iter().map(Vec::len).sum();
    let mut want = vec![0u64; nodes];
    for m in streams.iter().flatten() {
        want[m.dest as usize] = want[m.dest as usize].wrapping_add(m.value);
    }
    let mut fwd = Vec::new();
    let mut rebuild = Vec::new();
    for _ in 0..REPS {
        let stores = WardStores::new();
        for ward in 0..nodes as u32 {
            let baseline = CkptImage {
                heap: vec![0; heap_len],
                ..CkptImage::default()
            };
            stores.on_ckpt(ward, baseline);
        }
        let t = Instant::now();
        for p in packets {
            let words = proto::encode_fwd(&FwdPacket {
                src: p.src,
                lane: p.lane,
                seq: p.seq,
                words: p.words(),
            });
            let pkt = proto::decode_fwd(&words).expect("a forwarded packet decodes");
            stores.on_fwd(p.dest, pkt);
        }
        fwd.push(ns(t.elapsed()) / msgs as f64);
        let t = Instant::now();
        let heaps: Vec<Vec<u64>> = (0..nodes as u32)
            .map(|ward| stores.reconstruct_heap(ward).expect("every ward has a baseline"))
            .collect();
        rebuild.push(ns(t.elapsed()) / msgs as f64);
        for (node, heap) in heaps.iter().enumerate() {
            let sum = heap.iter().fold(0u64, |a, &w| a.wrapping_add(w));
            assert_eq!(sum, want[node], "node {node}'s rebuilt heap");
        }
    }
    (median(&fwd), median(&rebuild))
}

/// Dispatch `msgs` (all increments) from `node` as a SIMT kernel: one
/// work-item per message calling `shmem_inc`, the GUPS kernel shape.
fn dispatch_incs(rt: &GravelRuntime, node: usize, msgs: &[Message]) {
    if msgs.is_empty() {
        return;
    }
    let wg_size = rt.config().wg_size;
    rt.dispatch(node, msgs.len().div_ceil(wg_size), |ctx| {
        let gids = ctx.wg.global_ids();
        let n = ctx.wg.wg_size();
        let in_range = Mask::from_fn(n, |l| gids.get(l) < msgs.len());
        ctx.masked(&in_range, |ctx| {
            let m = |l: usize| msgs[gids.get(l).min(msgs.len() - 1)];
            let dests = LaneVec::from_fn(n, |l| m(l).dest);
            let addrs = LaneVec::from_fn(n, |l| m(l).addr);
            let vals = LaneVec::from_fn(n, |l| m(l).value);
            ctx.shmem_inc(&dests, &addrs, &vals);
        });
    });
}

/// `simt`: the same messages offloaded by a SIMT kernel minus injected
/// from the host, each on a fresh runtime up to quiescence, per message.
fn replay_simt(streams: &[Vec<Message>], cfg: &GravelConfig) -> f64 {
    let msgs: usize = streams.iter().map(Vec::len).sum();
    let time = |simt: bool| {
        let rt = GravelRuntime::new(cfg.clone());
        let t = Instant::now();
        for (node, s) in streams.iter().enumerate() {
            if simt {
                dispatch_incs(&rt, node, s);
            } else {
                rt.node(node).host_send_batch(s);
            }
        }
        rt.quiesce();
        let d = t.elapsed();
        rt.shutdown().expect("replay runtime shuts down cleanly");
        ns(d)
    };
    median_of(|| (time(true) - time(false)) / msgs as f64)
}

/// Every stage replay on a workload's streams. `cfg` is the workload's
/// runtime configuration (node count, heap, packet size).
pub fn replays(streams: &[Vec<Message>], cfg: &GravelConfig) -> LayerMetrics {
    let input = capped(streams, REPLAY_MSGS);
    let mut m = LayerMetrics::new();
    let (produce, consume) = replay_gq(&input);
    m.insert("gq.produce_ns_per_msg", produce);
    m.insert("gq.consume_ns_per_msg", consume);
    let (pack, packets) = replay_pack(&input, cfg.node_queue_bytes);
    m.insert("pgas.pack_ns_per_msg", pack);
    let (seal, open, frames) = replay_seal_open(&packets);
    m.insert("pgas.seal_ns_per_kib", seal);
    m.insert("pgas.open_ns_per_kib", open);
    m.insert("pgas.apply_ns_per_msg", replay_apply(&input, cfg.heap_len));
    let (fwd, rebuild) = replay_node(&input, &packets, cfg.heap_len);
    m.insert("node.fwd_ns_per_msg", fwd);
    m.insert("node.rebuild_ns_per_msg", rebuild);
    let (send, recv) = replay_net(&frames, cfg.nodes);
    m.insert("net.send_ns_per_pkt", send);
    m.insert("net.recv_ns_per_pkt", recv);
    m.insert(
        "simt.offload_ns_per_msg",
        replay_simt(&capped(streams, SIMT_MSGS), cfg),
    );
    m
}

/// Sum of counter `suffix` over every node of a snapshot.
fn total(snap: &RegistrySnapshot, nodes: usize, suffix: &str) -> f64 {
    (0..nodes)
        .map(|n| snap.counter(&format!("node{n}.{suffix}")))
        .sum::<u64>() as f64
}

/// Counter- and histogram-derived metrics of one traced round, from the
/// registry snapshot taken at its end (each round runs on a fresh
/// runtime, so the snapshot is the round's delta).
pub fn counter_metrics(snap: &RegistrySnapshot, nodes: usize) -> LayerMetrics {
    let c = |s: &str| total(snap, nodes, s);
    let packets = c("agg.packets");
    let mut m = LayerMetrics::new();
    m.insert(
        "gq.producer_spins_per_slot",
        ratio(c("queue.producer_spins"), c("queue.slots_produced")),
    );
    let empty = c("queue.consumer_empty_polls");
    m.insert(
        "gq.empty_poll_frac",
        ratio(empty, empty + c("queue.consumer_hits")),
    );
    let hits = c("pool.hits");
    m.insert("gq.pool_hit_frac", ratio(hits, hits + c("pool.misses")));
    m.insert("pgas.avg_packet_bytes", ratio(c("agg.bytes"), packets));
    let timeouts = c("agg.timeout_flushes");
    m.insert(
        "pgas.timeout_flush_frac",
        ratio(timeouts, timeouts + c("agg.full_flushes")),
    );
    m.insert(
        "gravel.chan_stalls_per_kpkt",
        ratio(1000.0 * c("net.chan_stalls"), packets),
    );
    m.insert(
        "gravel.window_stalls_per_kpkt",
        ratio(1000.0 * c("net.window_stalls"), packets),
    );
    m.insert("gravel.retransmits", c("net.retransmits"));
    m.insert("gravel.rpc_credit_stalls", c("rpc.credits_stalled"));
    m.insert("gravel.rpc_timeouts", c("rpc.timeouts"));
    let mut lat = HistogramSnapshot::default();
    for n in 0..nodes {
        if let Some(h) = snap.histogram(&format!("node{n}.net.packet_latency_ns")) {
            lat.merge(h);
        }
    }
    m.insert(
        "gravel.agg_apply_p50_us",
        histogram_quantile(&lat, 0.50) / 1000.0,
    );
    m.insert(
        "gravel.agg_apply_p99_us",
        histogram_quantile(&lat, 0.99) / 1000.0,
    );
    m
}

/// Spans whose self time the traced run reports, with their metric
/// names.
pub const TRACED_SPANS: &[(&str, &str)] = &[
    ("gq.offload", "trace.gq.offload_self_ms"),
    ("agg.drain", "trace.agg.drain_self_ms"),
    ("agg.flush", "trace.agg.flush_self_ms"),
    ("agg.retransmit", "trace.agg.retransmit_self_ms"),
    ("net.apply", "trace.net.apply_self_ms"),
];

/// What a chrome trace says about one round.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Self time (span duration minus the time its child spans on the
    /// same thread cover) summed per span name, in ms.
    pub self_ms: BTreeMap<String, f64>,
    /// Durations of every `pagerank.iter` span, in ms.
    pub iter_ms: Vec<f64>,
    /// Distinct threads that recorded each span name.
    pub threads: BTreeMap<String, usize>,
}

/// The flat (non-nesting) JSON objects of `json`, e.g. every span event
/// of a chrome trace (metadata events nest an `args` object and are
/// skipped).
fn flat_objects(json: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut in_str, mut escaped) = (false, false);
    let mut open: Option<usize> = None;
    for (i, c) in json.char_indices() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => open = Some(i),
            '}' => {
                if let Some(start) = open.take() {
                    out.push(&json[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// The raw value of `"key":` in a flat object (string contents without
/// quotes, or the number's text).
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = obj[obj.find(&pat)? + pat.len()..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// Self times from `export_chrome_trace()` JSON. The document can hold
/// hundreds of thousands of spans, so it is scanned rather than parsed
/// into a value tree.
pub fn trace_summary(chrome_json: &str) -> TraceSummary {
    let num = |o: &str, k: &str| {
        field(o, k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // (tid, start_us, dur_us, name) of every complete span.
    let mut spans: Vec<(u64, f64, f64, &str)> = flat_objects(chrome_json)
        .into_iter()
        .filter(|o| field(o, "ph") == Some("X"))
        .map(|o| {
            (
                num(o, "tid") as u64,
                num(o, "ts"),
                num(o, "dur"),
                field(o, "name").unwrap_or(""),
            )
        })
        .collect();
    // Per thread, by start; an enclosing span sorts before its children.
    spans.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(b.2.total_cmp(&a.2))
    });
    let mut children = vec![0.0f64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (tid, ts, _, _) = spans[i];
        while let Some(&top) = stack.last() {
            let (ttid, tts, tdur, _) = spans[top];
            if ttid != tid || tts + tdur <= ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            children[parent] += spans[i].2;
        }
        stack.push(i);
    }
    let mut out = TraceSummary::default();
    let mut threads: BTreeMap<&str, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for (i, &(tid, _, dur, name)) in spans.iter().enumerate() {
        *out.self_ms.entry(name.to_string()).or_insert(0.0) +=
            (dur - children[i]).max(0.0) / 1000.0;
        threads.entry(name).or_default().insert(tid);
        if name == "pagerank.iter" {
            out.iter_ms.push(dur / 1000.0);
        }
    }
    out.threads = threads
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.len()))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_the_same_thread_only() {
        let ev = |name: &str, tid: u64, ts: f64, dur: f64| {
            format!(
                r#"{{"name":"{name}","cat":"c","ph":"X","ts":{ts},"dur":{dur},"pid":0,"tid":{tid}}}"#
            )
        };
        let json = format!(
            r#"{{"traceEvents":[{{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{{"name":"main"}}}},{},{},{},{},{}]}}"#,
            ev("pagerank.iter", 1, 0.0, 1000.0),
            ev("gq.offload", 1, 100.0, 200.0),
            ev("gq.offload", 1, 400.0, 100.0),
            // Another thread overlapping in time is not a child.
            ev("net.apply", 2, 150.0, 500.0),
            ev("agg.drain", 3, 0.0, 50.0),
        );
        let s = trace_summary(&json);
        assert!((s.self_ms["pagerank.iter"] - 0.7).abs() < 1e-9);
        assert!((s.self_ms["gq.offload"] - 0.3).abs() < 1e-9);
        assert!((s.self_ms["net.apply"] - 0.5).abs() < 1e-9);
        assert_eq!(s.iter_ms, vec![1.0]);
        assert_eq!(s.threads["gq.offload"], 1);
    }

    #[test]
    fn scanner_reads_the_exported_trace_format() {
        let tracer = gravel_telemetry::Tracer::enabled();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _outer = tracer.span("agg.drain", "aggregate", 0);
                    let _inner = tracer.span("agg.flush", "aggregate", 0);
                    std::thread::sleep(Duration::from_millis(2));
                });
            }
        });
        let s = trace_summary(&tracer.export_chrome_json().unwrap());
        assert_eq!(s.threads["agg.drain"], 2);
        assert!(s.self_ms["agg.flush"] >= 4.0);
        assert!(s.self_ms["agg.drain"] < s.self_ms["agg.flush"]);
    }

    #[test]
    fn replays_measure_every_stage() {
        let streams: Vec<Vec<Message>> = (0..2u32)
            .map(|n| {
                (0..5000u64)
                    .map(|i| Message::inc(1 - n, i % 64, 1))
                    .collect()
            })
            .collect();
        let m = replays(&streams, &GravelConfig::paper(2, 64));
        for (name, v) in &m {
            assert!(*v > 0.0, "{name} = {v}");
        }
        assert_eq!(m.len(), 11);
    }
}
