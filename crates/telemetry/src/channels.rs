//! Per-channel counters and the empirical contention measure.
//!
//! The analytical contention metric (`fractanet-metrics`) asks: over
//! all transfer sets with distinct sources and distinct destinations,
//! how many can simultaneously need one channel? The empirical measure
//! recorded here answers the runtime version: in each simulated cycle,
//! how many *actual* concurrent transfers attempted to push a flit
//! into the channel? Contenders are deduplicated the same way the
//! paper counts transfers — as a maximum matching of their `(source,
//! destination)` pairs — so on fault-free runs the empirical peak is
//! mathematically ≤ the analytical bound (the active pair set is a
//! subset of the routed pair set), and exceeding it is a bug.

/// Counters for one unidirectional channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelSummary {
    /// Cycles a flit entered the channel (the engine's busy measure).
    pub busy_cycles: u64,
    /// Flits that left the channel (ejected or forwarded downstream).
    pub flits_forwarded: u64,
    /// Flit-wait cycles: one per transfer per cycle that wanted to
    /// enter the channel and could not (full buffer, foreign owner, or
    /// arbitration loss). Can exceed the run length on a contended
    /// channel — it aggregates waiting across worms.
    pub blocked_cycles: u64,
    /// Deepest the input FIFO ever got, in flits.
    pub peak_queue_depth: u32,
    /// Peak per-cycle matching of concurrent contending transfers —
    /// the empirical `k` of `k:1`.
    pub peak_contention: u32,
    /// Blocked cycles attributable to exhausted downstream credits
    /// (full input FIFO), as opposed to a foreign worm holding the
    /// channel or an arbitration loss. Always ≤ `blocked_cycles`.
    pub credit_stalls: u64,
    /// Sum of the FIFO depths observed at each flit arrival — an
    /// arrival-weighted occupancy integral. Dividing by
    /// `flits_forwarded` approximates the mean queue a flit joined.
    pub occupancy_flits: u64,
}

/// Maximum bipartite matching over a (small) list of `(src, dst)`
/// transfer pairs: the largest subset with pairwise-distinct sources
/// and pairwise-distinct destinations, by Hopcroft–Karp. The
/// analytical contention metric computes the same maximum matching
/// over every routed pair, so the empirical figure can never exceed
/// it. Contender lists are bounded by router in-degree (≤ ports +
/// injection), so this is effectively constant-time per cycle.
pub fn matching_bound(pairs: &[(u32, u32)]) -> usize {
    let mut srcs: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let mut dsts: Vec<u32> = pairs.iter().map(|p| p.1).collect();
    srcs.sort_unstable();
    srcs.dedup();
    dsts.sort_unstable();
    dsts.dedup();
    let mut bip = fractanet_graph::matching::Bipartite::new(srcs.len(), dsts.len());
    for &(s, d) in pairs {
        let si = srcs.binary_search(&s).expect("deduped from pairs");
        let di = dsts.binary_search(&d).expect("deduped from pairs");
        bip.add_edge(si as u32, di as u32);
    }
    bip.max_matching()
}

/// The per-channel counter bank an engine feeds while recording.
#[derive(Clone, Debug)]
pub struct ChannelCounters {
    summaries: Vec<ChannelSummary>,
}

impl ChannelCounters {
    /// Counters for a network of `channels` channels.
    pub fn new(channels: usize) -> Self {
        ChannelCounters {
            summaries: vec![ChannelSummary::default(); channels],
        }
    }

    /// Books one flit leaving `channel`.
    pub fn flit_forwarded(&mut self, channel: usize) {
        self.summaries[channel].flits_forwarded += 1;
    }

    /// Books one cycle in which `channel` turned at least one flit
    /// away.
    pub fn blocked_cycle(&mut self, channel: usize) {
        self.summaries[channel].blocked_cycles += 1;
    }

    /// Observes an input-FIFO depth at a flit arrival.
    pub fn observe_depth(&mut self, channel: usize, depth: u32) {
        let s = &mut self.summaries[channel];
        if depth > s.peak_queue_depth {
            s.peak_queue_depth = depth;
        }
        s.occupancy_flits += depth as u64;
    }

    /// Books one credit-stalled transfer on `channel` (blocked on a
    /// full downstream FIFO rather than channel ownership).
    pub fn credit_stall(&mut self, channel: usize) {
        self.summaries[channel].credit_stalls += 1;
    }

    /// Observes one cycle's contention (matching of active transfer
    /// pairs) on `channel`.
    pub fn observe_contention(&mut self, channel: usize, k: u32) {
        let s = &mut self.summaries[channel];
        if k > s.peak_contention {
            s.peak_contention = k;
        }
    }

    /// Finalizes with the engine's authoritative busy counts.
    pub fn finish(mut self, busy: &[u64]) -> Vec<ChannelSummary> {
        for (s, &b) in self.summaries.iter_mut().zip(busy) {
            s.busy_cycles = b;
        }
        self.summaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_dedupes_shared_endpoints() {
        // Three transfers sharing a source collapse to one.
        assert_eq!(matching_bound(&[(0, 1), (0, 2), (0, 3)]), 1);
        // Distinct on both sides: all count.
        assert_eq!(matching_bound(&[(0, 1), (2, 3), (4, 5)]), 3);
        // A matching, not min(|S|,|D|): the pair structure matters.
        // {(0,1),(1,0)} is a perfect matching of size 2.
        assert_eq!(matching_bound(&[(0, 1), (1, 0)]), 2);
        // Duplicated pair counts once.
        assert_eq!(matching_bound(&[(0, 1), (0, 1)]), 1);
        assert_eq!(matching_bound(&[]), 0);
    }

    #[test]
    fn matching_needs_augmenting_paths() {
        // Greedy in order would match (0,1) then strand (1,_): the
        // augmenting search must still find size 2.
        assert_eq!(matching_bound(&[(0, 1), (1, 1), (0, 2)]), 2);
    }

    #[test]
    fn counters_track_peaks_and_sums() {
        let mut c = ChannelCounters::new(2);
        c.flit_forwarded(0);
        c.flit_forwarded(0);
        c.blocked_cycle(1);
        c.observe_depth(1, 3);
        c.observe_depth(1, 2);
        c.observe_contention(1, 4);
        c.observe_contention(1, 1);
        c.credit_stall(1);
        let s = c.finish(&[7, 9]);
        assert_eq!(s[0].busy_cycles, 7);
        assert_eq!(s[0].flits_forwarded, 2);
        assert_eq!(s[1].blocked_cycles, 1);
        assert_eq!(s[1].peak_queue_depth, 3);
        assert_eq!(s[1].peak_contention, 4);
        assert_eq!(s[1].credit_stalls, 1);
        assert_eq!(s[1].occupancy_flits, 5, "3 + 2 observed depths");
    }
}
