//! Property-based tests for the exact deadlock layer over random
//! connected topologies: the exact synthesizer never does worse than
//! the greedy one, both results certify acyclic, the decision
//! procedure is `Free` exactly when the network is connected, and
//! every certificate survives an independent replay.

use fractanet_deadlock::{
    deadlock_free_routing_exists, min_cycle_disables, synthesize_disables,
    synthesize_disables_exact, verify_deadlock_free, Decision, ExactConfig,
};
use proptest::prelude::*;

mod common;
use common::{cable_lists, connected_net};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a connected network the decision is always `Free`, the
    /// witness covers every ordered pair, replays cleanly, and its
    /// routes certify acyclic.
    #[test]
    fn decision_free_and_replayable_on_connected(pairs in cable_lists(6)) {
        let (net, ends) = connected_net(6, &pairs);
        match deadlock_free_routing_exists(&net, &ends) {
            Decision::Free(synth) => {
                let covered = synth.witness.replay(&net, &ends).expect("replay");
                prop_assert_eq!(covered, ends.len() * (ends.len() - 1));
                prop_assert!(verify_deadlock_free(&net, &synth.witness.routes).is_ok());
            }
            Decision::NoRouting(obs) => {
                panic!("connected network declared unroutable: {obs:?}");
            }
        }
    }

    /// Exact synthesis needs no more disables than greedy, and both
    /// certify acyclic.
    #[test]
    fn exact_not_worse_than_greedy(pairs in cable_lists(6)) {
        let (net, ends) = connected_net(6, &pairs);
        let synth = synthesize_disables_exact(&net, &ends, None, &ExactConfig::default())
            .expect("exact synthesis");
        prop_assert!(verify_deadlock_free(&net, &synth.witness.routes).is_ok());
        if synth.greedy_size != usize::MAX {
            prop_assert!(synth.disables() <= synth.greedy_size);
        }
        let (disables, routes) = synthesize_disables(&net, &ends, 400).expect("greedy");
        prop_assert!(verify_deadlock_free(&net, &routes).is_ok());
        prop_assert!(synth.disables() <= disables.len());
    }

    /// Tampering with any single rank entry of a witness makes the
    /// replay reject it, unless the perturbed ranks still happen to be
    /// monotone along every path (replay checks the inequality itself,
    /// not the provenance of the numbers).
    #[test]
    fn replay_is_sound_under_rank_tampering(
        pairs in cable_lists(5),
        idx in 0usize..64,
    ) {
        let (net, ends) = connected_net(5, &pairs);
        let synth = synthesize_disables_exact(&net, &ends, None, &ExactConfig::default())
            .expect("exact synthesis");
        let mut tampered = synth.witness.clone();
        let i = idx % tampered.rank.len();
        tampered.rank[i] = 0;
        // Accepting is only sound if some independent check agrees:
        // the routes must still certify acyclic.
        if tampered.replay(&net, &ends).is_ok() {
            prop_assert!(verify_deadlock_free(&net, &tampered.routes).is_ok());
        }
        // Truncating the rank vector is always rejected.
        let mut short = synth.witness.clone();
        short.rank.pop();
        prop_assert!(short.replay(&net, &ends).is_err());
    }

    /// `min_cycle_disables` over random cycle families: the result
    /// hits every cycle's turn set, is no larger than greedy, no
    /// smaller than the packing lower bound, and matches brute force
    /// whenever it claims minimality.
    #[test]
    fn min_cycle_disables_is_a_hitting_set(
        cycles in prop::collection::vec(
            prop::collection::vec(0u32..10, 1..5), 1..7),
    ) {
        let sol = min_cycle_disables(&cycles, 100_000);
        // The turn set of cycle [c0, c1, ..] is its consecutive pairs
        // with wrap-around — mirror that to check coverage.
        let turn_sets: Vec<Vec<(u32, u32)>> = cycles
            .iter()
            .map(|c| (0..c.len()).map(|i| (c[i], c[(i + 1) % c.len()])).collect())
            .collect();
        for ts in &turn_sets {
            prop_assert!(ts.iter().any(|t| sol.turns.contains(t)), "{:?} unhit", ts);
        }
        prop_assert!(sol.turns.len() <= sol.greedy_size);
        prop_assert!(sol.lower_bound <= sol.turns.len());
        if sol.proven_minimal {
            // Brute-force cross-check over the turn universe (at most
            // 7 cycles x 4 turns = 28 turns; subsets of the distinct
            // ones, capped well below 2^20 in practice by dedup).
            let mut universe: Vec<(u32, u32)> =
                turn_sets.iter().flatten().copied().collect();
            universe.sort_unstable();
            universe.dedup();
            if universe.len() <= 16 {
                let mut best = universe.len();
                for mask in 0u32..(1 << universe.len()) {
                    let chosen: Vec<(u32, u32)> = universe
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &t)| t)
                        .collect();
                    if chosen.len() < best
                        && turn_sets
                            .iter()
                            .all(|ts| ts.iter().any(|t| chosen.contains(t)))
                    {
                        best = chosen.len();
                    }
                }
                prop_assert_eq!(sol.turns.len(), best);
            }
        }
    }
}
