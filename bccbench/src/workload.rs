//! Seeded input generation: the three workload graphs, their churn streams,
//! and the query batches. Everything here is a pure function of the seed;
//! the program under test only ever sees the generated inputs.

use fast_bcc::core::query::{random_mixed_batch, Query};
use fast_bcc::graph::generators::{geometric, path, rmat};
use fast_bcc::graph::{Graph, GraphDelta, V};
use fast_bcc::primitives::rng::Rng;
use std::collections::HashSet;

/// The benchmark's workloads (see README.md for why each was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A path: diameter ≈ n, an empty skeleton, n − 1 bridge blocks.
    Chain,
    /// An R-MAT graph: low diameter, skewed degrees, m ≫ n.
    Social,
    /// A road-like random geometric graph under a light churn stream.
    RoadChurn,
}

pub const ALL: [Workload; 3] = [Workload::Chain, Workload::Social, Workload::RoadChurn];

/// Edges deleted, and as many inserted, per delta, as a share of m.
pub const CHURN: f64 = 1e-4;

/// R-MAT edge samples of `social`, before self-loops and duplicates are
/// removed.
const RMAT_SAMPLES: usize = 3_000_000;

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chain => "chain",
            Workload::Social => "social",
            Workload::RoadChurn => "road_churn",
        }
    }

    /// Build the workload graph for `seed`.
    pub fn graph(self, seed: u64) -> Graph {
        match self {
            Workload::RoadChurn => self.graph_of(1 << 19, RMAT_SAMPLES, seed),
            _ => self.graph_of(1 << 18, RMAT_SAMPLES, seed),
        }
    }

    /// Build this workload's graph family on `n` vertices (a power of two)
    /// from the library's generators, the families `crates/bench` measures.
    fn graph_of(self, n: usize, rmat_samples: usize, seed: u64) -> Graph {
        match self {
            // The paper's Chn family: vertices in path order. The seed
            // draws this workload's churn stream and queries only.
            Workload::Chain => path(n),
            // Graph500 quadrant probabilities.
            Workload::Social => rmat(n.trailing_zeros(), rmat_samples, seed),
            // Average degree ≈ 3.5: a giant component, many fragments,
            // many small blocks.
            Workload::RoadChurn => {
                geometric::random_geometric(n, geometric::road_like_radius(n), seed)
            }
        }
    }
}

/// A churn stream of `count` deltas against `g`. Each delta deletes
/// `round(churn · m)` edges of `g` and inserts as many pairs absent from
/// `g`. Deleted edges are drawn without replacement over the whole stream
/// and inserted pairs are never repeated, so every delta is exact (each
/// deletion hits a present edge, each insertion an absent one) whatever
/// prefix of the stream has been applied before it.
pub fn delta_stream(g: &Graph, churn: f64, count: usize, seed: u64) -> Vec<GraphDelta> {
    let mut rng = Rng::new(seed ^ 0xDE17A);
    let mut below = |n: usize| rng.index(n);
    let n = g.n();
    let mut edges: Vec<(V, V)> = g.iter_edges().collect();
    let m = edges.len();
    let k = ((m as f64 * churn).round() as usize).max(1);
    assert!(k * count <= m, "churn stream would delete every edge");
    let mut added: HashSet<(V, V)> = HashSet::with_capacity(k * count);
    let mut next_del = 0usize;
    (0..count)
        .map(|_| {
            let mut d = GraphDelta::new();
            for _ in 0..k {
                let r = next_del + below(m - next_del);
                edges.swap(next_del, r);
                d.dels.push(edges[next_del]);
                next_del += 1;
            }
            while d.adds.len() < k {
                let (a, b) = (below(n) as V, below(n) as V);
                let e = (a.min(b), a.max(b));
                if a != b && !g.has_edge(e.0, e.1) && added.insert(e) {
                    d.adds.push(e);
                }
            }
            d
        })
        .collect()
}

/// `count` query batches of `size` queries each, from the library's
/// standard mixed generator (~25% of each query kind).
pub fn query_batches(n: usize, size: usize, count: usize, seed: u64) -> Vec<Vec<Query>> {
    (0..count as u64)
        .map(|i| random_mixed_batch(n, size, seed.wrapping_mul(1_000_003) ^ (0x9B0 + i)))
        .collect()
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }
    h
}

pub fn graph_fingerprint(g: &Graph) -> u64 {
    fnv(g
        .offsets()
        .iter()
        .map(|&o| o as u64)
        .chain(g.arcs().iter().map(|&a| a as u64)))
}

pub fn delta_fingerprint(ds: &[GraphDelta]) -> u64 {
    fnv(ds.iter().flat_map(|d| {
        let pairs = d.adds.iter().chain(&d.dels);
        std::iter::once(d.adds.len() as u64)
            .chain(pairs.map(|&(u, v)| ((u as u64) << 32) | v as u64))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload's graph family scaled down, so the tests run in
    /// well under a second.
    fn small(w: Workload, seed: u64) -> (Graph, Vec<GraphDelta>) {
        let n = if w == Workload::RoadChurn {
            1 << 13
        } else {
            1 << 12
        };
        let g = w.graph_of(n, 40_000, seed);
        let ds = delta_stream(&g, 2e-3, 8, seed);
        (g, ds)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in ALL {
            let (g1, d1) = small(w, 11);
            let (g2, d2) = small(w, 11);
            let (g3, d3) = small(w, 12);
            assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g2), "{w:?}");
            assert_eq!(delta_fingerprint(&d1), delta_fingerprint(&d2), "{w:?}");
            assert_ne!(delta_fingerprint(&d1), delta_fingerprint(&d3), "{w:?}");
            if w != Workload::Chain {
                assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g3), "{w:?}");
            }
        }
        let q1 = query_batches(1000, 64, 3, 5);
        assert_eq!(q1, query_batches(1000, 64, 3, 5));
        assert_ne!(q1, query_batches(1000, 64, 3, 6));
    }

    #[test]
    fn deltas_are_exact_against_any_applied_prefix() {
        use fast_bcc::graph::{apply_delta, DeltaScratch};
        for w in ALL {
            let (g, ds) = small(w, 3);
            let mut cur = g.clone();
            let mut scratch = DeltaScratch::new();
            for d in &ds {
                assert!(!d.adds.is_empty() && d.adds.len() == d.dels.len());
                for &(u, v) in &d.dels {
                    assert!(cur.has_edge(u, v), "{w:?}: deleted edge absent");
                }
                for &(u, v) in &d.adds {
                    assert!(u < v && !cur.has_edge(u, v), "{w:?}: inserted edge present");
                }
                let next = apply_delta(&cur, d, &mut scratch);
                assert_eq!(next.m_undirected(), cur.m_undirected());
                scratch.recycle(std::mem::replace(&mut cur, next));
            }
        }
    }
}
