//! Correctness checks every run makes, and the failure accounting for
//! runs that miss their deadline.

use gravel_apps::gups::{self, GupsInput};
use gravel_node::report::OutReport;

/// The sequential GUPS histogram: how many increments each global table
/// word receives from all nodes' update streams.
pub fn gups_histogram(input: &GupsInput, nodes: usize) -> Vec<u64> {
    let mut hist = vec![0u64; input.table_len];
    for node in 0..nodes {
        for g in gups::node_updates(input, nodes, node) {
            hist[g] += 1;
        }
    }
    hist
}

/// Global table words whose value differs from `passes ×` the
/// sequential histogram. `load(node, offset)` reads a node's heap.
pub fn gups_mismatches(
    input: &GupsInput,
    nodes: usize,
    hist: &[u64],
    passes: u64,
    load: impl Fn(usize, u64) -> Option<u64>,
) -> usize {
    let part = gups::partition(input, nodes);
    hist.iter()
        .enumerate()
        .filter(|&(g, &want)| load(part.owner(g), part.local_offset(g)) != Some(want * passes))
        .count()
}

/// The value word `addr` of node `node`'s GET-probe region holds for
/// `seed` (SplitMix64 of the three): probes read it back bit-exact.
pub fn get_pattern(seed: u64, node: usize, addr: u64) -> u64 {
    let mut z = seed ^ ((node as u64) << 48) ^ addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Messages of a socket round that its nodes' last reports do not show
/// applied: every message is failed unless a report accounts for it. A
/// node with no report (it never wrote one, or wrote a partial file)
/// shows nothing applied.
pub fn unapplied(updates: u64, reports: &[Option<OutReport>]) -> u64 {
    let shown: u64 = reports.iter().flatten().map(|r| r.applied).sum();
    updates.saturating_sub(shown)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heaps(input: &GupsInput, nodes: usize, hist: &[u64], passes: u64) -> Vec<Vec<u64>> {
        let part = gups::partition(input, nodes);
        let mut h: Vec<Vec<u64>> = (0..nodes).map(|n| vec![0; part.local_len(n)]).collect();
        for (g, &c) in hist.iter().enumerate() {
            h[part.owner(g)][part.local_offset(g) as usize] = c * passes;
        }
        h
    }

    #[test]
    fn gups_checker_accepts_the_histogram_and_rejects_a_corrupted_heap() {
        let input = GupsInput {
            updates: 5000,
            table_len: 256,
            seed: 9,
        };
        let hist = gups_histogram(&input, 4);
        assert_eq!(hist.iter().sum::<u64>(), 5000);
        let mut h = heaps(&input, 4, &hist, 3);
        let load = |h: &Vec<Vec<u64>>| {
            let h = h.clone();
            move |n: usize, off: u64| h[n].get(off as usize).copied()
        };
        assert_eq!(gups_mismatches(&input, 4, &hist, 3, load(&h)), 0);
        h[2][7] += 1;
        assert_eq!(gups_mismatches(&input, 4, &hist, 3, load(&h)), 1);
        // A missing heap (no report) fails every word it owns.
        let none = |_: usize, _: u64| None;
        assert_eq!(gups_mismatches(&input, 4, &hist, 3, none), 256);
    }

    #[test]
    fn get_pattern_differs_by_node_and_address() {
        assert_ne!(get_pattern(1, 0, 5), get_pattern(1, 1, 5));
        assert_ne!(get_pattern(1, 0, 5), get_pattern(1, 0, 6));
        assert_ne!(get_pattern(1, 0, 5), get_pattern(2, 0, 5));
        assert_eq!(get_pattern(1, 0, 5), get_pattern(1, 0, 5));
    }

    #[test]
    fn deadline_miss_counts_every_message_no_report_shows() {
        let r = |applied| {
            Some(OutReport {
                applied,
                ..Default::default()
            })
        };
        assert_eq!(unapplied(1000, &[None, None]), 1000);
        assert_eq!(unapplied(1000, &[r(300), None]), 700);
        assert_eq!(unapplied(1000, &[r(600), r(400)]), 0);
    }
}
