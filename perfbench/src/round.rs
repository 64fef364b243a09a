//! One round of a workload: a set-up, a measured interval, and checks.

use std::time::Duration;

/// One round's measurements.
#[derive(Debug, Default)]
pub struct Round {
    /// Input generation plus runtime start.
    pub setup: Duration,
    /// First injection to quiescence.
    pub wall: Duration,
    /// Messages applied (for `get_under_put`, storm messages).
    pub msgs: u64,
    /// Process CPU time over `wall`.
    pub cpu: Duration,
    /// Operations attempted and failed in this round.
    pub attempted: u64,
    pub failed: u64,
    /// An output differed from its reference (a subset of `failed`).
    pub mismatch: bool,
    /// Socket rounds: the nodes' summed peak resident memory, MiB.
    pub rss_mib: f64,
    /// GET round trips in ns (`get_under_put`).
    pub gets: Vec<u64>,
    /// Traced rounds: per-layer metrics read around the round.
    pub layers: crate::layers::LayerMetrics,
    /// Traced rounds: `pagerank.iter` span durations in ms.
    pub iter_ms: Vec<f64>,
}

impl Round {
    /// A round counts toward the rates only if every output checked.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}
