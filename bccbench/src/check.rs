//! Correctness gates run inside every benchmark run. Each returns the
//! number of mismatching checks (0 when the output is right).

use fast_bcc::baselines::hopcroft_tarjan::HtResult;
use fast_bcc::core::postprocess::{articulation_points, bridges};
use fast_bcc::core::{BccEngine, BccIndex, BccOpts, BccResult};
use fast_bcc::graph::{Graph, NONE, V};

fn sorted_bridges(r: &BccResult) -> Vec<(V, V)> {
    let mut b: Vec<(V, V)> = bridges(r)
        .into_iter()
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    b.sort_unstable();
    b
}

/// A solve against SEQ (Hopcroft–Tarjan): BCC count, articulation points
/// and bridges.
pub fn solve_vs_seq(r: &BccResult, ht: &HtResult) -> u64 {
    let mut aps = articulation_points(r);
    aps.sort_unstable();
    (r.num_bcc != ht.num_bcc) as u64
        + (aps != ht.articulation_points) as u64
        + (sorted_bridges(r) != ht.bridges) as u64
}

/// A published index against a fresh solve of the graph it should
/// describe: block and cut counts, every vertex's articulation flag, and
/// every edge's bridge flag.
pub fn index_vs_fresh_solve(index: &BccIndex, g: &Graph) -> u64 {
    let mut engine = BccEngine::new(BccOpts::default());
    let r = engine.solve(g);
    let mut is_ap = vec![false; g.n()];
    for v in articulation_points(r) {
        is_ap[v as usize] = true;
    }
    let want_bridges = sorted_bridges(r);
    let got_bridges: Vec<(V, V)> = g
        .iter_edges()
        .filter(|&(u, v)| index.is_bridge(u, v))
        .collect();
    (index.num_vertices() != g.n()) as u64
        + (index.num_blocks() != r.num_bcc) as u64
        + (0..g.n()).any(|v| index.is_articulation(v as V) != is_ap[v]) as u64
        + (got_bridges != want_bridges) as u64
}

/// Do two label arrays describe the same partition (equal up to renaming)?
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let size = |xs: &[u32]| xs.iter().max().map_or(0, |&x| x as usize + 1);
    let (mut fwd, mut bwd) = (vec![NONE; size(a)], vec![NONE; size(b)]);
    a.iter().zip(b).all(|(&x, &y)| {
        let (f, w) = (&mut fwd[x as usize], &mut bwd[y as usize]);
        if *f == NONE && *w == NONE {
            *f = y;
            *w = x;
        }
        *f == y && *w == x
    })
}

/// The BCC of every edge of `g` (in `iter_edges` order), read from a
/// label-plus-head representation: co-labelled endpoints share their
/// label's BCC, otherwise one endpoint heads the other's label. Two solves
/// found the same biconnected components iff these edge labellings are
/// the same partition, whatever spanning forest each used.
pub fn edge_bccs(g: &Graph, labels: &[u32], head: &[V]) -> Vec<u32> {
    g.iter_edges()
        .map(|(u, v)| {
            let (lu, lv) = (labels[u as usize], labels[v as usize]);
            if lu == lv || head[lu as usize] == v {
                lu
            } else {
                lv
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bcc::baselines::hopcroft_tarjan::hopcroft_tarjan;
    use fast_bcc::graph::builder::from_edges;

    #[test]
    fn partition_equality_is_up_to_renaming() {
        assert!(same_partition(&[0, 0, 2, 2], &[3, 3, 1, 1]));
        assert!(!same_partition(&[0, 0, 2, 2], &[3, 3, 3, 1]));
        assert!(!same_partition(&[0, 1, 2, 2], &[3, 3, 1, 1]));
        assert!(!same_partition(&[0, 1], &[0]));
        assert!(same_partition(&[9, 9, 1], &[0, 0, 5]));
    }

    #[test]
    fn gates_pass_on_right_answers_and_fail_on_wrong_ones() {
        // A triangle with a pendant path: one cycle block, two bridges.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let mut engine = BccEngine::new(BccOpts::default());
        let ht = hopcroft_tarjan(&g, false);
        assert_eq!(solve_vs_seq(engine.solve(&g), &ht), 0);
        let first = edge_bccs(&g, &engine.result().labels, &engine.result().head);
        let index = engine.build_index();
        assert_eq!(index_vs_fresh_solve(&index, &g), 0);
        // The index of another graph is caught.
        let other = from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        assert!(index_vs_fresh_solve(&index, &other) > 0);
        assert!(solve_vs_seq(engine.solve(&other), &ht) > 0);
        // A solve from another seed picks another forest, same partition.
        let mut reseeded = BccEngine::new(BccOpts {
            seed: 99,
            ..BccOpts::default()
        });
        let r = reseeded.solve(&g);
        assert!(same_partition(&first, &edge_bccs(&g, &r.labels, &r.head)));
        assert!(!same_partition(&first, &[0; 5]));
    }
}
