//! The sender half of the delivery protocol: one go-back-N engine for
//! every sender in the workspace (DESIGN.md §9).
//!
//! A [`FlowSet`] belongs to one sender thread and wire lane and holds
//! one flow per destination node. It owns the whole protocol: packets
//! are stamped with `(lane, seq)` and sealed exactly once, kept until a
//! cumulative ack releases them, and the whole unacked window is re-sent
//! with doubling backoff (capped at `RetryConfig::backoff_max`, reset on
//! progress) when acks stop arriving. A flow that makes no progress for
//! `RetryConfig::max_retries` rounds surfaces as
//! [`RuntimeError::RetryExhausted`].
//!
//! Backpressure: the transport's data channels are bounded. A send that
//! cannot complete within a short timeout parks the frame in
//! the flow's staging slot and counts `net.chan_stalls`; a full window
//! counts `net.window_stalls` (together they are
//! `NetStats::backpressure_stalls`). The caller's loop keeps servicing
//! its inputs and the ack mailbox meanwhile, so a stalled link never
//! deadlocks the reply path (netthread → ring → aggregator → netthread).
//!
//! The callers only feed packets: the aggregator's lanes, and
//! `gravel-node`'s GUPS, elastic, and request-reply senders.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gravel_gq::{Band, TrafficClass, NUM_BANDS, NUM_CLASSES};
use gravel_net::{SendStatus, Transport};
use gravel_pgas::{DataFrame, FrameKind, Packet};
use gravel_telemetry::Gauge;

use crate::error::RuntimeError;
use crate::node::NodeShared;

/// How long one transport send attempt may block before the frame is
/// parked and the caller's loop resumes servicing acks and its inputs.
const SEND_ATTEMPT_TIMEOUT: Duration = Duration::from_micros(200);

/// In-flight packet budget of one QoS band, derived from the go-back-N
/// window (no separate knob): the LATENCY band may fill the whole
/// window, NORMAL three quarters, BULK half. A bulk stream therefore
/// can never occupy the window so completely that a GET or reply has to
/// queue behind it — the credit head-room *is* the priority mechanism
/// (SNIPPETS.md Snippet 3's credit-gated sends). The cap is static on
/// purpose: a work-conserving variant (full window while no
/// higher-band traffic is active) was measured to cost nothing on pure
/// GUPS but to erase most of the GET-latency advantage — request
/// traffic is intermittent, so by the time a reply is queued the
/// window is already stuffed with bulk frames it must drain behind.
fn band_credit(band: Band, window: usize) -> usize {
    match band {
        Band::Latency => window,
        Band::Normal => (window * 3 / 4).max(1),
        Band::Bulk => (window / 2).max(1),
    }
}

/// Sender-side state of one destination flow.
struct DestFlow {
    /// Next sequence number to stamp.
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    base: u64,
    /// Packets awaiting a sequence number, one queue per traffic class
    /// (drained in [`TrafficClass::PRIORITY`] order subject to band
    /// credits). Index 0 carries everything when QoS bands are off.
    classq: [VecDeque<Packet>; NUM_CLASSES],
    /// The stamped, sealed frame a backpressured send parked. It goes
    /// out before any fresh packet is stamped (sequence order).
    staged: Option<(DataFrame, Band)>,
    /// Sent, unacknowledged frames `base .. base + unacked.len()`, each
    /// with the band its credit is charged to. Retransmissions are
    /// refcounted clones of the same frame bytes (no re-CRC).
    unacked: VecDeque<(DataFrame, Band)>,
    /// Stamped-but-unacked frames (staged + unacked) per band.
    band_stamped: [usize; NUM_BANDS],
    /// Last time this flow made ack progress or (re)transmitted.
    last_activity: Instant,
    /// Current retransmission backoff.
    backoff: Duration,
    /// Consecutive retransmission rounds without ack progress.
    retries: u32,
}

impl DestFlow {
    fn new(backoff: Duration) -> Self {
        DestFlow {
            next_seq: 0,
            base: 0,
            classq: Default::default(),
            staged: None,
            unacked: VecDeque::new(),
            band_stamped: [0; NUM_BANDS],
            last_activity: Instant::now(),
            backoff,
            retries: 0,
        }
    }

    fn queued(&self) -> usize {
        self.classq.iter().map(VecDeque::len).sum()
    }

    fn is_drained(&self) -> bool {
        self.queued() == 0 && self.staged.is_none() && self.unacked.is_empty()
    }

    /// Release every in-flight frame with `seq <= cum_seq`. An ack at or
    /// past `next_seq` releases only what was actually sent; stale and
    /// duplicate acks release nothing. Returns whether anything moved.
    fn release(&mut self, cum_seq: u64) -> bool {
        let mut progressed = false;
        while self.base <= cum_seq {
            let Some((_, band)) = self.unacked.pop_front() else { break };
            self.band_stamped[band.index()] -= 1;
            self.base += 1;
            progressed = true;
        }
        progressed
    }
}

/// One sender thread's go-back-N flows on one wire lane, indexed by
/// destination node.
pub struct FlowSet {
    node: Arc<NodeShared>,
    transport: Arc<dyn Transport>,
    lane: u32,
    flows: Vec<DestFlow>,
    /// Live unacked-packet total across these flows
    /// (`node{N}.agg.in_flight` in the registry).
    in_flight: Gauge,
}

impl FlowSet {
    /// Flows from `node` to every node of the cluster on wire `lane`,
    /// tuned by `node.retry` and banded when `node.qos_bands` is set.
    pub fn new(node: Arc<NodeShared>, transport: Arc<dyn Transport>, lane: u32) -> Self {
        let in_flight = node
            .registry
            .gauge(&format!("node{}.agg.in_flight", node.id));
        let flows = (0..node.nodes).map(|_| DestFlow::new(node.retry.backoff)).collect();
        FlowSet { node, transport, lane, flows, in_flight }
    }

    /// Queue `pkt` on its destination's flow by traffic class and pump
    /// that flow.
    pub fn submit(&mut self, pkt: Packet) {
        let dest = pkt.dest as usize;
        let ci = if self.node.qos_bands { pkt.class().index() } else { 0 };
        self.flows[dest].classq[ci].push_back(pkt);
        self.pump(dest);
    }

    /// Packets `dest`'s flow can take before its window is full,
    /// counting packets already queued or parked.
    pub fn room(&self, dest: u32) -> usize {
        let f = &self.flows[dest as usize];
        let used = f.unacked.len() + usize::from(f.staged.is_some()) + f.queued();
        self.node.retry.window.saturating_sub(used)
    }

    /// Are all flows fully acknowledged, with nothing queued or parked?
    pub fn is_drained(&self) -> bool {
        self.flows.iter().all(DestFlow::is_drained)
    }

    /// Re-try every frame parked by backpressure (queued packets need
    /// no help: submits and ack progress pump their flow).
    pub fn retry_parked(&mut self) {
        for dest in 0..self.flows.len() {
            if self.flows[dest].staged.is_some() {
                self.pump(dest);
            }
        }
    }

    /// Move `dest`'s packets onto the wire while its window has room:
    /// first the frame parked by backpressure (sequence order is
    /// sacred), then fresh packets in priority order, each subject to
    /// its band's in-flight credit. A class blocked *only* by exhausted
    /// credits counts `rpc.credits_stalled`.
    fn pump(&mut self, dest: usize) {
        let window = self.node.retry.window;
        let qos = self.node.qos_bands;
        let node = &*self.node;
        let flow = &mut self.flows[dest];
        while flow.unacked.len() < window {
            if let Some((frame, band)) = flow.staged.take() {
                match self.transport.send_data(frame.clone(), SEND_ATTEMPT_TIMEOUT) {
                    SendStatus::Sent => {
                        flow.last_activity = Instant::now();
                        flow.unacked.push_back((frame, band));
                        continue;
                    }
                    SendStatus::TimedOut => node.net_chan_stalls.add(1),
                    SendStatus::Closed => {} // cluster is winding down
                }
                flow.staged = Some((frame, band));
                return self.note_in_flight();
            }
            // Stamp the highest-priority queued packet whose band still
            // has credit.
            let mut next = None;
            let mut credit_blocked = false;
            for class in TrafficClass::PRIORITY {
                let ci = if qos { class.index() } else { 0 };
                if flow.classq[ci].is_empty() {
                    continue;
                }
                let band = class.band();
                if qos && flow.band_stamped[band.index()] >= band_credit(band, window) {
                    credit_blocked = true;
                    continue;
                }
                next = Some((ci, band));
                break;
            }
            let Some((ci, band)) = next else {
                if credit_blocked {
                    node.rpc_credits_stalled.add(1);
                }
                return self.note_in_flight();
            };
            let mut pkt = flow.classq[ci].pop_front().expect("class queue non-empty");
            pkt.lane = self.lane;
            pkt.seq = flow.next_seq;
            flow.next_seq += 1;
            let epoch = node.wire_epoch.load(Ordering::Relaxed);
            // With bands off every frame travels as plain DATA (packets
            // may mix classes when aggregation didn't split them).
            let frame = if qos {
                pkt.seal_in(epoch, node.wire_integrity, node.pool.as_ref())
            } else {
                pkt.seal_kind_in(epoch, node.wire_integrity, FrameKind::Data, node.pool.as_ref())
            };
            flow.band_stamped[band.index()] += 1;
            flow.staged = Some((frame, band));
        }
        if flow.staged.is_some() || flow.queued() > 0 {
            // Window full: also a form of backpressure (the receiver or
            // the ack path is behind).
            node.net_window_stalls.add(1);
        }
        self.note_in_flight();
    }

    fn note_in_flight(&self) {
        let n: usize = self.flows.iter().map(|f| f.unacked.len()).sum();
        self.in_flight.set(n as i64);
    }

    /// Drain this lane's ack mailbox, verify each ack, release what it
    /// covers, and pump flows that moved. Unverifiable acks and acks
    /// naming a peer outside the cluster are dropped (counted in
    /// `net.ack_corrupt_dropped`): a lost ack just means the next
    /// cumulative ack or a retransmission round covers it. Returns
    /// whether any flow made progress.
    pub fn drain_acks(&mut self) -> bool {
        let mut progressed = false;
        while let Some(frame) = self.transport.try_recv_ack(self.node.id, self.lane) {
            let ack = match frame.open(self.node.wire_integrity) {
                Ok(ack) => ack,
                Err(_) => {
                    self.node.net_ack_corrupt_dropped.add(1);
                    continue;
                }
            };
            // With integrity off a mangled src can still verify; never
            // index out of the flow table on a corrupt peer id.
            let dest = ack.src as usize;
            let Some(flow) = self.flows.get_mut(dest) else {
                self.node.net_ack_corrupt_dropped.add(1);
                continue;
            };
            self.node.net_acks_received.add(1);
            if flow.release(ack.cum_seq) {
                flow.last_activity = Instant::now();
                flow.backoff = self.node.retry.backoff;
                flow.retries = 0;
                progressed = true;
                self.pump(dest);
            }
        }
        progressed
    }

    /// Retransmit every timed-out window (go-back-N: resend everything
    /// unacked). Errors when a flow has spent its retry budget.
    pub fn poll_retransmits(&mut self) -> Result<(), RuntimeError> {
        let now = Instant::now();
        let retry = &self.node.retry;
        for (dest, flow) in self.flows.iter_mut().enumerate() {
            if flow.unacked.is_empty() || now.duration_since(flow.last_activity) < flow.backoff {
                continue;
            }
            if flow.retries >= retry.max_retries {
                return Err(RuntimeError::RetryExhausted {
                    src: self.node.id,
                    dest: dest as u32,
                    lane: self.lane,
                    seq: flow.base,
                    retries: flow.retries,
                });
            }
            flow.retries += 1;
            flow.backoff = (flow.backoff * 2).min(retry.backoff_max);
            flow.last_activity = now;
            self.node.net_retransmits.add(flow.unacked.len() as u64);
            let _span = self.node.tracer.span("agg.retransmit", "aggregate", self.node.id);
            for (frame, _) in &flow.unacked {
                // Best-effort: a full channel just means the next round
                // retries again — the window bound keeps this finite.
                if self.transport.send_data(frame.clone(), SEND_ATTEMPT_TIMEOUT)
                    == SendStatus::Closed
                {
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GravelConfig;
    use gravel_gq::Message;
    use gravel_net::{Ack, ChannelTransport, RecvStatus, RetryConfig};
    use gravel_pgas::{AmRegistry, WireIntegrity};

    /// Lane 0 of node 0 in a 2-node cluster: a `window`-packet window,
    /// 1 ms → 4 ms backoff, 3 retries, over a channel fabric buffering
    /// `capacity` packets per node.
    fn setup(window: usize, capacity: usize, qos: bool) -> (FlowSet, Arc<ChannelTransport>) {
        let mut cfg = GravelConfig::small(2, 16);
        cfg.retry = RetryConfig {
            window,
            backoff: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            max_retries: 3,
        };
        cfg.rpc.qos_bands = qos;
        let node = Arc::new(NodeShared::new(0, &cfg, Arc::new(AmRegistry::new())));
        let transport = Arc::new(ChannelTransport::new(2, 1, capacity));
        (FlowSet::new(node, transport.clone(), 0), transport)
    }

    fn inc(k: u64) -> Packet {
        Packet::from_words(0, 1, &Message::inc(1, k, 1).encode())
    }

    /// `(seq, first address)` of every frame waiting at node 1.
    fn wire(t: &ChannelTransport) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let RecvStatus::Msg(f) = t.recv_data(1, Duration::ZERO) {
            let p = f.open(WireIntegrity::Crc32c).expect("frame verifies");
            out.push((p.seq, p.words()[2]));
        }
        out
    }

    fn seqs(t: &ChannelTransport) -> Vec<u64> {
        wire(t).into_iter().map(|(seq, _)| seq).collect()
    }

    fn ack_from(t: &ChannelTransport, src: u32, cum_seq: u64) {
        t.send_ack(Ack { src, dest: 0, lane: 0, cum_seq }.seal(0, WireIntegrity::Crc32c));
    }

    fn ack(t: &ChannelTransport, cum_seq: u64) {
        ack_from(t, 1, cum_seq);
    }

    /// Age flow 1's last activity so its retransmission timer fires.
    fn expire(fs: &mut FlowSet) {
        fs.flows[1].last_activity = Instant::now() - Duration::from_secs(1);
    }

    #[test]
    fn window_bounds_frames_in_flight() {
        let (mut fs, t) = setup(4, 64, false);
        for k in 0..10 {
            fs.submit(inc(k));
        }
        assert_eq!(seqs(&t), [0, 1, 2, 3]);
        assert_eq!(fs.room(1), 0);
        assert!(fs.node.net_window_stalls.get() > 0);
        ack(&t, 1);
        assert!(fs.drain_acks());
        assert_eq!(seqs(&t), [4, 5]);
        assert_eq!(fs.flows[1].unacked.len(), 4);
    }

    #[test]
    fn parked_frame_goes_before_fresh_packets() {
        // One packet of buffering: the second send times out and parks.
        let (mut fs, t) = setup(8, 1, false);
        fs.submit(inc(10));
        fs.submit(inc(11));
        assert_eq!(fs.node.net_chan_stalls.get(), 1);
        fs.submit(inc(12));
        assert_eq!(wire(&t), [(0, 10)]);
        fs.retry_parked();
        assert_eq!(wire(&t), [(1, 11)]);
        fs.retry_parked();
        assert_eq!(wire(&t), [(2, 12)]);
        assert_eq!(fs.flows[1].unacked.len(), 3);
    }

    #[test]
    fn cumulative_ack_releases_exactly_base_through_cum_seq() {
        let (mut fs, t) = setup(8, 64, false);
        for k in 0..5 {
            fs.submit(inc(k));
        }
        ack(&t, 2);
        assert!(fs.drain_acks());
        assert_eq!(fs.flows[1].base, 3);
        assert_eq!(fs.flows[1].unacked.len(), 2);
        // The retransmission round re-sends exactly the unreleased tail.
        seqs(&t);
        expire(&mut fs);
        fs.poll_retransmits().unwrap();
        assert_eq!(seqs(&t), [3, 4]);
    }

    #[test]
    fn duplicate_and_stale_acks_are_no_ops() {
        let (mut fs, t) = setup(8, 64, false);
        for k in 0..5 {
            fs.submit(inc(k));
        }
        ack(&t, 2);
        fs.drain_acks();
        expire(&mut fs);
        fs.poll_retransmits().unwrap();
        let backoff = fs.flows[1].backoff;
        ack(&t, 2);
        ack(&t, 0);
        assert!(!fs.drain_acks());
        assert_eq!((fs.flows[1].base, fs.flows[1].unacked.len()), (3, 2));
        // No progress, so the backoff and retry count stand.
        assert_eq!((fs.flows[1].backoff, fs.flows[1].retries), (backoff, 1));
        assert_eq!(fs.node.net_acks_received.get(), 3);
    }

    #[test]
    fn ack_past_next_seq_releases_only_frames_in_flight() {
        // Two packets of buffering: seq 2 is stamped but parked.
        let (mut fs, t) = setup(8, 2, false);
        for k in 0..3 {
            fs.submit(inc(k));
        }
        assert!(fs.flows[1].staged.is_some());
        // A mangled (or post-restart) ack far past anything sent.
        ack(&t, 100);
        assert!(fs.drain_acks());
        assert_eq!(fs.flows[1].base, 2);
        assert!(fs.flows[1].unacked.is_empty());
        assert!(!fs.is_drained(), "the parked frame was never delivered");
        assert_eq!(seqs(&t), [0, 1]);
        fs.retry_parked();
        fs.submit(inc(3));
        assert_eq!(seqs(&t), [2, 3]);
        ack(&t, 3);
        fs.drain_acks();
        assert!(fs.is_drained());
    }

    #[test]
    fn backoff_doubles_caps_and_resets_on_progress() {
        let (mut fs, t) = setup(8, 64, false);
        fs.submit(inc(0));
        fs.submit(inc(1));
        // Not yet due: nothing is re-sent.
        fs.poll_retransmits().unwrap();
        assert_eq!(fs.node.net_retransmits.get(), 0);
        let mut backoffs = Vec::new();
        for _ in 0..3 {
            expire(&mut fs);
            fs.poll_retransmits().unwrap();
            backoffs.push(fs.flows[1].backoff.as_millis());
        }
        assert_eq!(backoffs, [2, 4, 4]);
        assert_eq!(fs.flows[1].retries, 3);
        // Whole-window go-back-N: both frames, every round.
        assert_eq!(fs.node.net_retransmits.get(), 6);
        assert_eq!(seqs(&t), [0, 1, 0, 1, 0, 1, 0, 1]);
        ack(&t, 0);
        fs.drain_acks();
        assert_eq!(fs.flows[1].backoff, Duration::from_millis(1));
        assert_eq!(fs.flows[1].retries, 0);
    }

    #[test]
    fn retry_exhaustion_names_the_dead_flow() {
        let (mut fs, _t) = setup(8, 64, false);
        fs.submit(inc(0));
        for _ in 0..3 {
            expire(&mut fs);
            fs.poll_retransmits().unwrap();
        }
        expire(&mut fs);
        match fs.poll_retransmits() {
            Err(RuntimeError::RetryExhausted { src, dest, lane, seq, retries }) => {
                assert_eq!((src, dest, lane, seq, retries), (0, 1, 0, 0, 3));
            }
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn band_credit_is_refunded_on_ack() {
        // Window 4: BULK may hold 2 frames, LATENCY all 4.
        let (mut fs, t) = setup(4, 64, true);
        for k in 0..3 {
            fs.submit(inc(k));
        }
        assert_eq!(seqs(&t), [0, 1]);
        assert!(fs.node.rpc_credits_stalled.get() > 0);
        // A GET jumps the credit-blocked bulk packet.
        fs.submit(Packet::from_words(0, 1, &Message::get(1, 7, 1, 100).encode()));
        assert_eq!(wire(&t), [(2, 7)]);
        ack(&t, 0);
        fs.drain_acks();
        assert_eq!(wire(&t), [(3, 2)]);
        assert_eq!(fs.flows[1].band_stamped, [1, 0, 2]);
    }

    #[test]
    fn corrupt_and_out_of_range_acks_are_dropped() {
        let (mut fs, t) = setup(8, 64, false);
        fs.submit(inc(0));
        let mut bad = Ack { src: 1, dest: 0, lane: 0, cum_seq: 0 }.seal(0, WireIntegrity::Crc32c);
        bad.bytes[24] ^= 0xff;
        t.send_ack(bad);
        ack_from(&t, 7, 0);
        assert!(!fs.drain_acks());
        assert_eq!(fs.node.net_ack_corrupt_dropped.get(), 2);
        assert_eq!(fs.flows[1].unacked.len(), 1);
    }
}
