//! Traffic generation.
//!
//! The paper's motivating workloads are commercial and unpredictable
//! ("it is not possible to know the data access patterns a priori",
//! §3), so the simulator offers the standard synthetic processes plus
//! scripted patterns for the paper's own adversarial examples.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// A Bernoulli trial with success probability `p`, decided exactly as
/// `Rng::gen_bool(p)` decides it from the same draw, with the float
/// work done once. `gen_bool` passes iff `(x >> 11) · 2⁻⁵³ < p`; both
/// sides scaled by 2⁵³ (exact for a power of two) give the integer
/// compare `(x >> 11) < ⌈p · 2⁵³⌉`.
#[derive(Clone, Copy, Debug)]
struct Bernoulli {
    threshold: u64,
}

impl Bernoulli {
    fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Bernoulli {
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    fn sample(self, rng: &mut StdRng) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}

/// How a Bernoulli source picks destinations.
#[derive(Clone, Debug)]
pub enum DstPattern {
    /// Uniformly random destination ≠ source.
    Uniform,
    /// Fixed permutation: source `s` always sends to `perm[s]`
    /// (sources with `perm[s] == s` stay silent).
    Permutation(Vec<usize>),
    /// A `fraction` of packets target a uniformly-chosen hotspot from
    /// `targets`; the rest are uniform.
    HotSpot {
        /// The hot destinations.
        targets: Vec<usize>,
        /// Probability a packet goes to a hotspot.
        fraction: f64,
    },
}

impl DstPattern {
    fn pick(&self, src: usize, n: usize, rng: &mut StdRng) -> Option<usize> {
        match self {
            DstPattern::Uniform => {
                let d = rng.gen_range(0..n - 1);
                Some(if d >= src { d + 1 } else { d })
            }
            DstPattern::Permutation(p) => {
                let d = p[src];
                (d != src).then_some(d)
            }
            DstPattern::HotSpot { targets, fraction } => {
                if rng.gen_bool(*fraction) {
                    let d = targets[rng.gen_range(0..targets.len())];
                    (d != src).then_some(d)
                } else {
                    DstPattern::Uniform.pick(src, n, rng)
                }
            }
        }
    }
}

/// A traffic workload: either an open-loop Bernoulli process or a
/// scripted packet list.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Every source independently generates a packet each cycle with
    /// probability `injection_rate / packet_flits` (so `injection_rate`
    /// is the offered load in flits per node per cycle), until
    /// `until_cycle`.
    Bernoulli {
        /// Offered load in flits/node/cycle (1.0 = link saturation).
        injection_rate: f64,
        /// Destination process.
        pattern: DstPattern,
        /// Generation stops at this cycle (statistics can then drain).
        until_cycle: u64,
    },
    /// Explicit packets: `(cycle, src, dst)`, any order.
    Scripted(Vec<(u64, usize, usize)>),
}

/// Classic permutation generators for `DstPattern::Permutation`
/// (Dally's standard kernel set, §3's "arbitrary set of four CPU
/// nodes" made systematic).
pub mod perms {
    /// Transpose: with `n = k²`, node `(r, c)` sends to `(c, r)`.
    pub fn transpose(n: usize) -> Vec<usize> {
        let k = (n as f64).sqrt() as usize;
        assert_eq!(k * k, n, "transpose needs a square node count");
        (0..n).map(|s| (s % k) * k + s / k).collect()
    }

    /// Bit reversal over `log2(n)` bits.
    pub fn bit_reversal(n: usize) -> Vec<usize> {
        assert!(n.is_power_of_two(), "bit reversal needs a power of two");
        let bits = n.trailing_zeros();
        (0..n)
            .map(|s| (s as u32).reverse_bits() as usize >> (32 - bits))
            .collect()
    }

    /// Tornado: node `i` sends almost half-way around, `i + ⌈n/2⌉ − 1`.
    pub fn tornado(n: usize) -> Vec<usize> {
        (0..n).map(|s| (s + n.div_ceil(2) - 1) % n).collect()
    }

    /// Nearest neighbour: node `i` sends to `i + 1 (mod n)`.
    pub fn neighbor(n: usize) -> Vec<usize> {
        (0..n).map(|s| (s + 1) % n).collect()
    }

    /// Complement: node `i` sends to `n − 1 − i`.
    pub fn complement(n: usize) -> Vec<usize> {
        (0..n).map(|s| n - 1 - s).collect()
    }
}

impl Workload {
    /// The Fig 1 demonstration: simultaneous wrap-around transfers,
    /// one per ring router (`i → i + n/2`).
    pub fn fig1_ring(n: usize) -> Self {
        Workload::Scripted((0..n).map(|s| (0, s, (s + n / 2) % n)).collect())
    }

    /// One packet from every source to every other destination at
    /// cycle 0 (all-to-all burst).
    pub fn all_to_all_burst(n: usize) -> Self {
        let mut v = Vec::with_capacity(n * (n - 1));
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    v.push((0, s, d));
                }
            }
        }
        Workload::Scripted(v)
    }

    /// Packets this workload creates at `cycle`. `packet_flits` scales
    /// Bernoulli packet probability so `injection_rate` stays in flit
    /// units.
    pub fn generate(
        &mut self,
        cycle: u64,
        n: usize,
        packet_flits: u32,
        rng: &mut StdRng,
    ) -> Vec<(usize, usize)> {
        match self {
            Workload::Bernoulli {
                injection_rate,
                pattern,
                until_cycle,
            } => {
                if cycle >= *until_cycle {
                    return Vec::new();
                }
                let trial = Bernoulli::new((*injection_rate / packet_flits as f64).min(1.0));
                let mut out = Vec::new();
                for s in 0..n {
                    if trial.sample(rng) {
                        if let Some(d) = pattern.pick(s, n, rng) {
                            out.push((s, d));
                        }
                    }
                }
                out
            }
            Workload::Scripted(list) => {
                let mut out = Vec::new();
                list.retain(|&(t, s, d)| {
                    if t == cycle {
                        out.push((s, d));
                        false
                    } else {
                        true
                    }
                });
                out
            }
        }
    }

    /// Whether no future packet can appear.
    pub fn finished(&self, cycle: u64) -> bool {
        match self {
            Workload::Bernoulli { until_cycle, .. } => cycle >= *until_cycle,
            Workload::Scripted(list) => list.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_never_picks_self() {
        let mut r = rng();
        for s in 0..8usize {
            for _ in 0..200 {
                let d = DstPattern::Uniform.pick(s, 8, &mut r).unwrap();
                assert_ne!(d, s);
                assert!(d < 8);
            }
        }
    }

    #[test]
    fn permutation_is_fixed() {
        let p = DstPattern::Permutation(vec![3, 2, 1, 0]);
        let mut r = rng();
        assert_eq!(p.pick(0, 4, &mut r), Some(3));
        assert_eq!(p.pick(3, 4, &mut r), Some(0));
    }

    #[test]
    fn identity_permutation_entries_are_silent() {
        let p = DstPattern::Permutation(vec![0, 0, 2]);
        let mut r = rng();
        assert_eq!(p.pick(0, 3, &mut r), None);
        assert_eq!(p.pick(1, 3, &mut r), Some(0));
        assert_eq!(p.pick(2, 3, &mut r), None);
    }

    #[test]
    fn hotspot_concentrates() {
        let p = DstPattern::HotSpot {
            targets: vec![5],
            fraction: 1.0,
        };
        let mut r = rng();
        for s in 0..5usize {
            assert_eq!(p.pick(s, 8, &mut r), Some(5));
        }
    }

    #[test]
    fn fig1_workload_shape() {
        let mut w = Workload::fig1_ring(4);
        let pkts = w.generate(0, 4, 8, &mut rng());
        assert_eq!(pkts, vec![(0, 2), (1, 3), (2, 0), (3, 1)]);
        assert!(w.finished(1));
        assert!(w.generate(1, 4, 8, &mut rng()).is_empty());
    }

    #[test]
    fn bernoulli_rate_controls_volume() {
        let mut lo = Workload::Bernoulli {
            injection_rate: 0.05,
            pattern: DstPattern::Uniform,
            until_cycle: 2_000,
        };
        let mut hi = Workload::Bernoulli {
            injection_rate: 0.5,
            pattern: DstPattern::Uniform,
            until_cycle: 2_000,
        };
        let mut r1 = rng();
        let mut r2 = rng();
        let (mut n_lo, mut n_hi) = (0, 0);
        for c in 0..2_000u64 {
            n_lo += lo.generate(c, 16, 16, &mut r1).len();
            n_hi += hi.generate(c, 16, 16, &mut r2).len();
        }
        assert!(n_hi > 5 * n_lo, "hi = {n_hi}, lo = {n_lo}");
        assert!(lo.finished(2_000));
    }

    #[test]
    fn bernoulli_decides_like_gen_bool() {
        let mut ps = vec![
            0.0,
            2f64.powi(-60),
            0.00125,
            1.0 / 16.0,
            1.0 - 2f64.powi(-53),
            1.0,
        ];
        let mut pick = StdRng::seed_from_u64(7);
        ps.extend((0..64).map(|_| pick.gen_range(0.0..1.0)));
        let (mut float, mut int) = (rng(), rng());
        for p in ps {
            let trial = Bernoulli::new(p);
            for _ in 0..256 {
                assert_eq!(float.gen_bool(p), trial.sample(&mut int), "p = {p:e}");
            }
        }
        // p exactly on, just under and just over the very draw it
        // meets, where a rounding slip would flip the decision.
        for i in 0..768 {
            let at = (float.clone().next_u64() >> 11) as f64 * 2f64.powi(-53);
            let p = [at, at * (1.0 - f64::EPSILON), at + 2f64.powi(-53)][i % 3].min(1.0);
            let trial = Bernoulli::new(p);
            assert_eq!(float.gen_bool(p), trial.sample(&mut int), "p = {p:e}");
        }
    }

    #[test]
    fn all_to_all_counts() {
        let mut w = Workload::all_to_all_burst(4);
        let pkts = w.generate(0, 4, 8, &mut rng());
        assert_eq!(pkts.len(), 12);
    }

    #[test]
    fn transpose_is_an_involution() {
        let p = perms::transpose(16);
        for s in 0..16 {
            assert_eq!(p[p[s]], s);
        }
        assert_eq!(p[1], 4); // (0,1) -> (1,0)
    }

    #[test]
    fn bit_reversal_is_an_involution() {
        let p = perms::bit_reversal(64);
        for s in 0..64 {
            assert_eq!(p[p[s]], s);
        }
        assert_eq!(p[0b000001], 0b100000);
        assert_eq!(p[0b110000], 0b000011);
    }

    #[test]
    fn tornado_and_neighbor_are_permutations() {
        for p in [
            perms::tornado(10),
            perms::neighbor(10),
            perms::complement(10),
        ] {
            let mut seen = [false; 10];
            for &d in &p {
                assert!(!seen[d]);
                seen[d] = true;
            }
        }
        assert_eq!(perms::tornado(10)[0], 4);
        assert_eq!(perms::complement(10)[0], 9);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn transpose_requires_square() {
        let _ = perms::transpose(12);
    }
}
