//! `socket_gups`: a 2-process `gravel-node` cluster in static mode over
//! Unix-domain sockets, one connection pair, running GUPS with the
//! bit-exact heap check. Each round is a fresh cluster with a deadline;
//! a round that misses it counts every message its nodes' last reports
//! do not show applied as failed, and the cluster is torn down with
//! SIGTERM, then SIGKILL after a grace period.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gravel_apps::gups::GupsInput;
use gravel_node::report::{read_report, OutReport};
use gravel_node::signal::{send_signal, SIGKILL, SIGTERM};

use crate::check;
use crate::host::{self, ChildUsage};
use crate::round::Round;

/// Cluster size: one process per core, one connection pair.
pub const NODES: usize = 2;
/// GUPS table words.
const TABLE: usize = 4096;
/// Updates per round. The cluster hangs in about one round in eleven at
/// this length (README.md); the benchmark reports those rounds as failed
/// operations.
const UPDATES: usize = 100_000;
/// A healthy round completes in under 0.2 s.
const ROUND_DEADLINE: Duration = Duration::from_millis(1000);
/// The nodes' own backstop deadline, far beyond the round's.
const NODE_DEADLINE_SECS: u64 = 60;
/// SIGTERM → SIGKILL grace.
const TERM_GRACE: Duration = Duration::from_millis(300);
const POLL: Duration = Duration::from_millis(5);

/// The input of round `round` of a run with `seed`. Every round draws
/// its own stream, so how often the cluster hangs is an average over
/// inputs rather than a property of one seed.
pub fn input(seed: u64, round: u64) -> GupsInput {
    let seed = seed.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    GupsInput {
        updates: UPDATES,
        table_len: TABLE,
        seed,
    }
}

/// One socket round's measurements. In `round`, set-up runs from spawn
/// until every node listens on its socket, the interval from then until
/// every node reports completion, and CPU time and peak memory are both
/// processes' over their whole lives.
#[derive(Debug, Default)]
pub struct SockRound {
    pub round: Round,
    /// The round hit its deadline.
    pub missed: bool,
    /// Summed report counters.
    pub fwd_sent: u64,
    pub acks_sent: u64,
    pub retransmits: u64,
    pub link_drops: u64,
}

/// A running cluster: its processes (by pid; the cluster reaps them
/// itself, to read their resource usage) and working directory.
/// Dropping it stops every process and removes the directory.
struct Cluster {
    dir: PathBuf,
    pids: Vec<u32>,
}

impl Cluster {
    /// Spawn `NODES` members in `dir`. Socket and report paths are
    /// relative to `dir`, so they stay short whatever the checkout path.
    fn spawn(bin: &Path, dir: PathBuf, seed: u64) -> std::io::Result<Cluster> {
        std::fs::create_dir_all(&dir)?;
        let mut cluster = Cluster {
            dir,
            pids: Vec::new(),
        };
        for n in 0..NODES {
            let child = Command::new(bin)
                .current_dir(&cluster.dir)
                .args([
                    "--node",
                    &n.to_string(),
                    "--nodes",
                    &NODES.to_string(),
                    "--dir",
                    ".",
                ])
                .args([
                    "--updates",
                    &UPDATES.to_string(),
                    "--table",
                    &TABLE.to_string(),
                ])
                .args(["--seed", &seed.to_string()])
                .args(["--deadline-secs", &NODE_DEADLINE_SECS.to_string()])
                .args(["--out", &format!("node{n}.json")])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?;
            // Dropping a `Child` neither kills nor waits for it.
            cluster.pids.push(child.id());
        }
        Ok(cluster)
    }

    fn listening(&self) -> bool {
        (0..NODES).all(|n| self.dir.join(format!("node{n}.sock")).exists())
    }

    fn reports(&self) -> Vec<Option<OutReport>> {
        (0..NODES)
            .map(|n| read_report(&self.dir.join(format!("node{n}.json"))).ok())
            .collect()
    }

    /// SIGTERM every member, SIGKILL whoever is left after the grace
    /// period, and reap them all: their resource usage.
    fn stop(&mut self) -> Vec<ChildUsage> {
        for &pid in &self.pids {
            send_signal(pid, SIGTERM);
        }
        let deadline = Instant::now() + TERM_GRACE;
        let mut usage = Vec::new();
        for pid in self.pids.drain(..) {
            let mut u = host::reap(pid, false);
            while u.is_none() && Instant::now() < deadline {
                std::thread::sleep(POLL);
                u = host::reap(pid, false);
            }
            if u.is_none() {
                send_signal(pid, SIGKILL);
                u = host::reap(pid, true);
            }
            usage.extend(u);
        }
        usage
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Spawn a cluster and wait until every node listens, up to the round
/// deadline.
fn start(bin: &Path, dir: PathBuf, seed: u64) -> std::io::Result<(Cluster, Duration)> {
    let t0 = Instant::now();
    let cluster = Cluster::spawn(bin, dir, seed)?;
    while !cluster.listening() && t0.elapsed() < ROUND_DEADLINE {
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok((cluster, t0.elapsed()))
}

/// One extra set-up (spawn until listening, then tear down): its
/// duration. A run takes more set-up samples than it has rounds so the
/// median is steady.
pub fn setup_sample(bin: &Path, dir: PathBuf, seed: u64, round: u64) -> Duration {
    start(bin, dir, input(seed, round).seed).map_or(ROUND_DEADLINE, |(_, d)| d)
}

/// Round `round` of a run with `seed`, in `dir` (created, and removed
/// afterwards).
pub fn round(bin: &Path, dir: PathBuf, seed: u64, round: u64) -> SockRound {
    let inp = input(seed, round);
    let hist = check::gups_histogram(&inp, NODES);
    let mut r = SockRound::default();
    r.round.attempted = UPDATES as u64;
    let mut cluster = match start(bin, dir, inp.seed) {
        Ok((c, setup)) => {
            r.round.setup = setup;
            c
        }
        Err(e) => {
            eprintln!("[perfbench] cannot spawn {}: {e}", bin.display());
            r.round.failed = r.round.attempted;
            r.missed = true;
            return r;
        }
    };
    let start = Instant::now();
    let mut last = cluster.reports();
    while !last.iter().all(|r| r.as_ref().is_some_and(|r| r.completed)) {
        if start.elapsed() >= ROUND_DEADLINE {
            r.missed = true;
            break;
        }
        std::thread::sleep(POLL);
        last = cluster.reports();
    }
    r.round.wall = start.elapsed();
    for rep in last.iter().flatten() {
        r.fwd_sent += rep.stats.fwd_sent;
        r.acks_sent += rep.stats.acks_sent;
        r.retransmits += rep.stats.retransmits;
        r.link_drops += rep.stats.link_drops;
    }
    if r.missed {
        r.round.failed = check::unapplied(r.round.attempted, &last);
        eprintln!(
            "[perfbench] socket_gups round missed its {:?} deadline: {} of {} messages not shown applied",
            ROUND_DEADLINE, r.round.failed, r.round.attempted
        );
    } else {
        r.round.msgs = r.round.attempted;
        let bad = check::gups_mismatches(&inp, NODES, &hist, 1, |n, off| {
            last[n]
                .as_ref()
                .and_then(|rep| rep.heap.get(off as usize).copied())
        });
        if bad > 0 {
            eprintln!("[perfbench] socket_gups: {bad} table words differ from the histogram");
            r.round.mismatch = true;
            r.round.failed = r.round.attempted;
        }
    }
    let usage = cluster.stop();
    r.round.cpu = usage.iter().map(|u| u.cpu).sum();
    r.round.rss_mib = usage.iter().map(|u| u.peak_rss_mib).sum();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in member that ignores SIGTERM (as a deadlocked node's
    /// blocked threads effectively do) must still be gone, with its
    /// directory, after the deadline path tears the cluster down.
    #[test]
    #[allow(clippy::zombie_processes)] // The cluster's teardown reaps it.
    fn teardown_escalates_to_sigkill_and_removes_the_directory() {
        let dir = std::env::temp_dir().join(format!("perfbench_teardown_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let child = Command::new("sh")
            .args(["-c", "trap '' TERM; exec sleep 30"])
            .spawn()
            .unwrap();
        let pid = child.id();
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        drop(Cluster {
            dir: dir.clone(),
            pids: vec![child.id()],
        });
        assert!(t.elapsed() < Duration::from_secs(5));
        assert!(!dir.exists(), "directory removed");
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "process reaped"
        );
    }

    /// A simulated timeout: a "cluster" whose members never report is
    /// recorded as a deadline miss with every message failed.
    #[test]
    fn a_cluster_that_never_reports_fails_every_message() {
        let dir = std::env::temp_dir().join(format!("perfbench_timeout_{}", std::process::id()));
        // `true` exits at once and writes nothing: no socket, no report.
        let r = round(Path::new("true"), dir.clone(), 1, 0);
        assert!(r.missed);
        assert_eq!(r.round.failed, r.round.attempted);
        assert!(!r.round.mismatch);
        assert!(!dir.exists());
    }
}
