//! Synthetic graph generators: Kronecker (`-g`) and uniform random (`-u`),
//! matching the GAPBS converter's datasets used by the paper (`kron` and
//! `urand`).

use crate::edgelist::{EdgeList, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Kronecker (RMAT) generator with the Graph500/GAPBS parameters
/// A=0.57, B=0.19, C=0.19.
///
/// `scale` gives `2^scale` vertices; `degree` gives `degree × 2^scale`
/// edges (GAPBS `-k`, default 16). Vertex labels are permuted so that the
/// heavy-hitter vertices are not clustered at low ids, as GAPBS does.
///
/// # Examples
///
/// ```
/// use tiersim_graph::KroneckerGenerator;
///
/// let el = KroneckerGenerator::new(8, 4).seed(1).generate();
/// assert_eq!(el.num_nodes, 256);
/// assert_eq!(el.len(), 4 * 256);
/// ```
#[derive(Debug, Clone)]
pub struct KroneckerGenerator {
    scale: u32,
    degree: usize,
    seed: u64,
    a: f64,
    b: f64,
    c: f64,
}

impl KroneckerGenerator {
    /// Creates a generator for `2^scale` vertices with average `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or greater than 31.
    pub fn new(scale: u32, degree: usize) -> Self {
        assert!((1..=31).contains(&scale), "scale must be in 1..=31");
        KroneckerGenerator { scale, degree, seed: 27491095, a: 0.57, b: 0.19, c: 0.19 }
    }

    /// Sets the RNG seed (consuming builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seeds the RNG and draws the Fisher–Yates label permutation that is
    /// applied to generated vertices.
    fn rng_and_perm(&self) -> (SmallRng, Vec<NodeId>) {
        let n = 1usize << self.scale;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        (rng, perm)
    }

    /// The cumulative quadrant probabilities `a`, `a + b`, `(a + b) + c` as
    /// integer thresholds on a 53-bit draw `k = next_u64() >> 11`.
    ///
    /// The rand stub's `gen::<f64>()` is exactly `k · 2^-53`, and scaling
    /// by a power of two is exact, so `k · 2^-53 >= t` holds exactly when
    /// `k >= ceil(t · 2^53)`. The thresholds therefore pick the same
    /// quadrant as comparing the float draw, for every draw.
    fn thresholds(&self) -> [u64; 3] {
        let scaled = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
        [scaled(self.a), scaled(self.a + self.b), scaled(self.a + self.b + self.c)]
    }

    /// Generates the edge list.
    ///
    /// Each level draws one 53-bit `k` and picks quadrant A (0, 0) below
    /// `T_a`, B (0, 1) below `T_ab`, C (1, 0) below `T_abc` and D (1, 1)
    /// otherwise, as bit arithmetic rather than a branch: the quadrant is
    /// random, so a branch on it would be mispredicted about once a level.
    pub fn generate(&self) -> EdgeList {
        let num_edges = self.degree << self.scale;
        let (mut rng, perm) = self.rng_and_perm();
        let [t_a, t_ab, t_abc] = self.thresholds();
        let mut edges = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..self.scale {
                let k = rng.next_u64() >> 11;
                let (ge_a, ge_ab, ge_abc) = (k >= t_a, k >= t_ab, k >= t_abc);
                u = (u << 1) | usize::from(ge_ab);
                v = (v << 1) | usize::from((ge_a & !ge_ab) | ge_abc);
            }
            edges.push((perm[u], perm[v]));
        }
        EdgeList::new(perm.len(), edges)
    }

    /// The branchy float loop `generate` replaced. Retained only to pin
    /// `generate` equivalence in the tests.
    #[cfg(test)]
    fn generate_ref(&self) -> EdgeList {
        let num_edges = self.degree << self.scale;
        let (mut rng, perm) = self.rng_and_perm();
        let mut edges = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..self.scale {
                u <<= 1;
                v <<= 1;
                let r: f64 = rng.gen();
                if r < self.a {
                    // quadrant A: (0, 0)
                } else if r < self.a + self.b {
                    v |= 1; // B: (0, 1)
                } else if r < self.a + self.b + self.c {
                    u |= 1; // C: (1, 0)
                } else {
                    u |= 1;
                    v |= 1; // D: (1, 1)
                }
            }
            edges.push((perm[u], perm[v]));
        }
        EdgeList::new(perm.len(), edges)
    }
}

/// Uniform-random (Erdős–Rényi-style) generator: GAPBS `-u`.
///
/// # Examples
///
/// ```
/// use tiersim_graph::UniformGenerator;
///
/// let el = UniformGenerator::new(8, 4).seed(7).generate();
/// assert_eq!(el.num_nodes, 256);
/// assert_eq!(el.len(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct UniformGenerator {
    scale: u32,
    degree: usize,
    seed: u64,
}

impl UniformGenerator {
    /// Creates a generator for `2^scale` vertices with average `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or greater than 31.
    pub fn new(scale: u32, degree: usize) -> Self {
        assert!((1..=31).contains(&scale), "scale must be in 1..=31");
        UniformGenerator { scale, degree, seed: 27491095 }
    }

    /// Sets the RNG seed (consuming builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the edge list.
    pub fn generate(&self) -> EdgeList {
        let n = 1u64 << self.scale;
        let num_edges = self.degree * (n as usize);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let edges = (0..num_edges)
            .map(|_| (rng.gen_range(0..n) as NodeId, rng.gen_range(0..n) as NodeId))
            .collect();
        EdgeList::new(n as usize, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generators_are_deterministic() {
        let a = KroneckerGenerator::new(8, 8).seed(3).generate();
        let b = KroneckerGenerator::new(8, 8).seed(3).generate();
        assert_eq!(a, b);
        let c = KroneckerGenerator::new(8, 8).seed(4).generate();
        assert_ne!(a, c);
        let u1 = UniformGenerator::new(8, 8).seed(3).generate();
        let u2 = UniformGenerator::new(8, 8).seed(3).generate();
        assert_eq!(u1, u2);
    }

    #[test]
    fn kron_is_skewed_uniform_is_not() {
        // Degree concentration: top 1% of vertices should hold far more
        // edge endpoints in kron than in urand.
        let top_share = |el: &EdgeList| {
            let mut deg: HashMap<NodeId, u64> = HashMap::new();
            for &(u, v) in &el.edges {
                *deg.entry(u).or_insert(0) += 1;
                *deg.entry(v).or_insert(0) += 1;
            }
            let mut counts: Vec<u64> = deg.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let top = el.num_nodes / 100 + 1;
            let top_sum: u64 = counts.iter().take(top).sum();
            top_sum as f64 / (2 * el.len()) as f64
        };
        let kron = KroneckerGenerator::new(10, 16).seed(1).generate();
        let urand = UniformGenerator::new(10, 16).seed(1).generate();
        assert!(
            top_share(&kron) > 2.0 * top_share(&urand),
            "kron {:.3} should be much more skewed than urand {:.3}",
            top_share(&kron),
            top_share(&urand)
        );
    }

    #[test]
    fn endpoints_in_range() {
        for el in [KroneckerGenerator::new(6, 4).generate(), UniformGenerator::new(6, 4).generate()]
        {
            assert!(el.edges.iter().all(|&(u, v)| (u as usize) < 64 && (v as usize) < 64));
        }
    }

    /// FNV-1a over `num_nodes` (u64 LE) and every `(src, dst)` (u32 LE).
    fn edge_digest(el: &EdgeList) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(el.num_nodes as u64).to_le_bytes());
        for &(u, v) in &el.edges {
            eat(&u.to_le_bytes());
            eat(&v.to_le_bytes());
        }
        h
    }

    /// `(scale, degree, seed, edge_digest)` of kron edge lists recorded
    /// from the branchy float generator. A change to any kron graph must
    /// update this table on purpose.
    const KRON_DIGESTS: [(u32, usize, u64, u64); 40] = [
        (1, 1, 0, 0xcf21924e7b0ff7c7),
        (1, 1, 5, 0xff2397871cb46d16),
        (1, 1, 27491095, 0xcf21924e7b0ff7c7),
        (1, 1, 20220917, 0xf666e5260e0f8aa7),
        (1, 1, u64::MAX, 0x58de29aed4fb4ca6),
        (1, 16, 0, 0xccf617cf971fff66),
        (1, 16, 5, 0x5ad16535e9270f36),
        (1, 16, 27491095, 0x0a5fefa31baabbe6),
        (1, 16, 20220917, 0x87c4878839418027),
        (1, 16, u64::MAX, 0x07ac92264e57ebb6),
        (5, 1, 0, 0xbef5dc2652258407),
        (5, 1, 5, 0x2ee0c9d191f3d3d8),
        (5, 1, 27491095, 0xbb9979d1bd8b6acc),
        (5, 1, 20220917, 0x5ffcc108bb101bdc),
        (5, 1, u64::MAX, 0x21a7be14bba9a346),
        (5, 16, 0, 0x248ec911f8924a29),
        (5, 16, 5, 0x24ae49c51c531388),
        (5, 16, 27491095, 0xd9dd23652e9991cd),
        (5, 16, 20220917, 0x078ce2c5a5c2f067),
        (5, 16, u64::MAX, 0x58f893d7de93b205),
        (10, 1, 0, 0xf53111b80e832d9c),
        (10, 1, 5, 0x694a21b476a70b88),
        (10, 1, 27491095, 0xa826c6edceb96642),
        (10, 1, 20220917, 0x4f59d06370a5367e),
        (10, 1, u64::MAX, 0xdc0770e8d656eddc),
        (10, 16, 0, 0x031a51ca626a1ffe),
        (10, 16, 5, 0x9989f8221c59f2e3),
        (10, 16, 27491095, 0x0d7f1033eb857d6e),
        (10, 16, 20220917, 0x6382c6bc0347edd2),
        (10, 16, u64::MAX, 0xdd6a0010c3a41ceb),
        (14, 1, 0, 0xdca9880ac02a8307),
        (14, 1, 5, 0xf58da4d473fdaa29),
        (14, 1, 27491095, 0xa1e64611dd4176ec),
        (14, 1, 20220917, 0xa858a57dcde90739),
        (14, 1, u64::MAX, 0xf3a13f974434c456),
        (14, 16, 0, 0x666da29e37c0d64e),
        (14, 16, 5, 0x02fd94118daac689),
        (14, 16, 27491095, 0xf5557c8815776bef),
        (14, 16, 20220917, 0x869eb846ba0ab764),
        (14, 16, u64::MAX, 0xc4922567b8a206dd),
    ];

    #[test]
    fn kron_edge_lists_match_pinned_digests() {
        for (scale, degree, seed, want) in KRON_DIGESTS {
            let got = edge_digest(&KroneckerGenerator::new(scale, degree).seed(seed).generate());
            assert_eq!(
                got, want,
                "kron scale {scale} degree {degree} seed {seed}: digest {got:#018x}"
            );
        }
    }

    #[test]
    fn thresholds_split_draws_exactly_like_the_float_compare() {
        let g = KroneckerGenerator::new(1, 1);
        let probs = [g.a, g.a + g.b, g.a + g.b + g.c];
        for (t, th) in probs.into_iter().zip(g.thresholds()) {
            for k in [th - 1, th, th + 1] {
                let r = k as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(r >= t, k >= th, "t {t}, threshold {th}, k {k}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_generate_matches_branchy_reference(
            scale in 1u32..13,
            degree in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = KroneckerGenerator::new(scale, degree).seed(seed);
            proptest::prop_assert_eq!(g.generate(), g.generate_ref());
        }

        #[test]
        fn prop_edge_counts_match_parameters(scale in 3u32..10, degree in 1usize..8, seed in 0u64..1000) {
            let el = UniformGenerator::new(scale, degree).seed(seed).generate();
            proptest::prop_assert_eq!(el.num_nodes, 1 << scale);
            proptest::prop_assert_eq!(el.len(), degree << scale);
        }
    }
}

/// 2D-grid ("road-like") generator: vertices form a `w × h` lattice with
/// edges to the right and down neighbors. Unlike kron/urand this graph has
/// strong spatial locality and a long diameter — the contrast dataset for
/// studying how much of the paper's findings stem from access
/// *irregularity* (the paper excludes the real `road` input only because
/// its footprint was too small for their machine).
///
/// # Examples
///
/// ```
/// use tiersim_graph::GridGenerator;
///
/// let el = GridGenerator::new(4).generate(); // 2^4 = 16 vertices, 4x4
/// assert_eq!(el.num_nodes, 16);
/// assert_eq!(el.len(), 2 * 4 * 3); // 2 · w · (w - 1) lattice edges
/// ```
#[derive(Debug, Clone)]
pub struct GridGenerator {
    scale: u32,
}

impl GridGenerator {
    /// Creates a generator for a lattice of `2^scale` vertices (`scale`
    /// must be even so the lattice is square).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is odd, zero, or greater than 30.
    pub fn new(scale: u32) -> Self {
        assert!((2..=30).contains(&scale), "scale must be in 2..=30");
        assert!(scale.is_multiple_of(2), "grid scale must be even (square lattice)");
        GridGenerator { scale }
    }

    /// Generates the lattice edge list (deterministic; no RNG involved).
    pub fn generate(&self) -> EdgeList {
        let w = 1usize << (self.scale / 2);
        let n = w * w;
        let mut edges = Vec::with_capacity(2 * w * (w - 1));
        for y in 0..w {
            for x in 0..w {
                let u = (y * w + x) as NodeId;
                if x + 1 < w {
                    edges.push((u, u + 1));
                }
                if y + 1 < w {
                    edges.push((u, u + w as NodeId));
                }
            }
        }
        EdgeList::new(n, edges)
    }
}

#[cfg(test)]
mod grid_tests {
    use super::*;

    #[test]
    fn lattice_shape() {
        let el = GridGenerator::new(6).generate(); // 8x8
        assert_eq!(el.num_nodes, 64);
        assert_eq!(el.len(), 2 * 8 * 7);
        // Corner vertex 0 connects right (1) and down (8) only.
        let deg0 = el.edges.iter().filter(|&&(u, v)| u == 0 || v == 0).count();
        assert_eq!(deg0, 2);
    }

    #[test]
    fn grid_is_connected() {
        let el = GridGenerator::new(6).generate();
        let g = crate::csr::CsrGraph::from_edges(&el, true);
        let comp = crate::reference::cc_ref(&g);
        assert!(comp.iter().all(|&c| c == 0), "a lattice is one component");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_scale_rejected() {
        let _ = GridGenerator::new(7);
    }
}
