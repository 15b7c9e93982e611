//! An independent query oracle: answers all four query kinds from the
//! biconnected components found by sequential Hopcroft–Tarjan (SEQ), with
//! its own block–cut forest and an offline (Tarjan) LCA for the path
//! counts. It shares no code with `BccIndex` beyond the graph type.

use fast_bcc::baselines::hopcroft_tarjan::{hopcroft_tarjan, HtResult};
use fast_bcc::core::query::{Query, QueryAnswer};
use fast_bcc::graph::{Graph, NONE, V};

pub struct Oracle {
    /// The SEQ run behind the oracle (BCC sets dropped), for the solve
    /// gates: BCC count, articulation points, bridges.
    pub seq: HtResult,
    /// Number of block nodes; cut nodes are `blocks..`.
    blocks: usize,
    block_size: Vec<u32>,
    /// Block of a non-cut vertex, cut node of an articulation point,
    /// `NONE` for an isolated vertex.
    node_of: Vec<u32>,
    /// Block–cut forest adjacency (CSR over all nodes), sorted per node.
    off: Vec<usize>,
    adj: Vec<u32>,
    /// Forest component and cut nodes on the root path (inclusive) per
    /// node, from one DFS.
    comp: Vec<u32>,
    cuts_to_root: Vec<u32>,
}

impl Oracle {
    pub fn new(g: &Graph) -> Self {
        let mut ht = hopcroft_tarjan(g, true);
        let bccs = ht.bccs.take().expect("collected BCC sets");
        let n = g.n();
        let blocks = bccs.len();
        let mut node_of = vec![NONE; n];
        for (rank, &v) in ht.articulation_points.iter().enumerate() {
            node_of[v as usize] = (blocks + rank) as u32;
        }
        let nodes = blocks + ht.articulation_points.len();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (b, set) in bccs.iter().enumerate() {
            for &v in set {
                let x = node_of[v as usize];
                if (x as usize) >= blocks && x != NONE {
                    edges.push((b as u32, x));
                    edges.push((x, b as u32));
                } else {
                    node_of[v as usize] = b as u32;
                }
            }
        }
        edges.sort_unstable();
        let mut off = vec![0usize; nodes + 1];
        for &(a, _) in &edges {
            off[a as usize + 1] += 1;
        }
        for i in 0..nodes {
            off[i + 1] += off[i];
        }
        let adj = edges.iter().map(|&(_, b)| b).collect();
        let block_size = bccs.iter().map(|s| s.len() as u32).collect();
        drop(bccs);
        let mut o = Oracle {
            seq: ht,
            blocks,
            block_size,
            node_of,
            off,
            adj,
            comp: Vec::new(),
            cuts_to_root: Vec::new(),
        };
        let mut comp = vec![NONE; nodes];
        let mut ctr = vec![0u32; nodes];
        o.dfs(&[], &mut [], |x, parent, root| {
            comp[x as usize] = root;
            let above = parent.map_or(0, |p| ctr[p as usize]);
            ctr[x as usize] = above + (x as usize >= blocks) as u32;
        });
        o.comp = comp;
        o.cuts_to_root = ctr;
        o
    }

    fn nbrs(&self, x: u32) -> &[u32] {
        &self.adj[self.off[x as usize]..self.off[x as usize + 1]]
    }

    fn is_cut(&self, x: u32) -> u32 {
        (x as usize >= self.blocks) as u32
    }

    /// The blocks containing vertex `v` (empty for an isolated vertex).
    fn blocks_of(&self, v: V) -> &[u32] {
        let x = self.node_of[v as usize];
        if x == NONE {
            &[]
        } else if self.is_cut(x) == 1 {
            self.nbrs(x)
        } else {
            std::slice::from_ref(&self.node_of[v as usize])
        }
    }

    /// The block shared by distinct `u` and `v`, if any (two blocks share
    /// at most one vertex, so there is at most one).
    fn common_block(&self, u: V, v: V) -> Option<u32> {
        let (a, b) = (self.blocks_of(u), self.blocks_of(v));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Some(a[i]),
            }
        }
        None
    }

    /// Count mismatches between `answers` and the oracle's answers to
    /// `queries`.
    pub fn mismatches(&self, queries: &[Query], answers: &[QueryAnswer]) -> u64 {
        assert_eq!(queries.len(), answers.len());
        let mut want: Vec<Option<QueryAnswer>> = Vec::with_capacity(queries.len());
        // Path queries whose endpoints sit on distinct nodes of one forest
        // tree need an LCA; collect them for one offline pass.
        let mut lca_pairs = Vec::new();
        let mut lca_slots = Vec::new();
        for (i, &q) in queries.iter().enumerate() {
            want.push(match q {
                Query::SameBcc(u, v) if u == v => {
                    Some(QueryAnswer::Bool(self.node_of[u as usize] != NONE))
                }
                Query::SameBcc(u, v) => Some(QueryAnswer::Bool(self.common_block(u, v).is_some())),
                Query::IsArticulation(v) => {
                    let x = self.node_of[v as usize];
                    Some(QueryAnswer::Bool(x != NONE && self.is_cut(x) == 1))
                }
                Query::IsBridge(u, v) => Some(QueryAnswer::Bool(
                    u != v && matches!(self.common_block(u, v), Some(b) if self.block_size[b as usize] == 2),
                )),
                Query::CutVerticesOnPath(u, v) => {
                    let (a, b) = (self.node_of[u as usize], self.node_of[v as usize]);
                    if u == v {
                        Some(QueryAnswer::Count(Some(0)))
                    } else if a == NONE || b == NONE || self.comp[a as usize] != self.comp[b as usize] {
                        Some(QueryAnswer::Count(None))
                    } else if a == b {
                        Some(QueryAnswer::Count(Some(0)))
                    } else {
                        lca_pairs.push((a, b));
                        lca_slots.push(i);
                        None
                    }
                }
            });
        }
        let mut lca = vec![NONE; lca_pairs.len()];
        self.dfs(&lca_pairs, &mut lca, |_, _, _| {});
        for ((&(a, b), &l), &i) in lca_pairs.iter().zip(&lca).zip(&lca_slots) {
            let ctr = |x: u32| self.cuts_to_root[x as usize];
            let inclusive = ctr(a) + ctr(b) - 2 * ctr(l) + self.is_cut(l);
            want[i] = Some(QueryAnswer::Count(Some(
                inclusive - self.is_cut(a) - self.is_cut(b),
            )));
        }
        want.iter()
            .zip(answers)
            .filter(|(w, a)| w.expect("every query answered") != **a)
            .count() as u64
    }

    /// One iterative DFS over the forest, calling `visit(node, parent,
    /// root)` on entry to each node and running Tarjan's offline LCA for
    /// `pairs` (each pair must lie in one tree) into `lca`.
    fn dfs(
        &self,
        pairs: &[(u32, u32)],
        lca: &mut [u32],
        mut visit: impl FnMut(u32, Option<u32>, u32),
    ) {
        let nodes = self.off.len() - 1;
        // Pair lists per node, as a CSR.
        let mut qoff = vec![0usize; nodes + 1];
        for &(a, b) in pairs {
            qoff[a as usize + 1] += 1;
            qoff[b as usize + 1] += 1;
        }
        for i in 0..nodes {
            qoff[i + 1] += qoff[i];
        }
        let mut qcur = qoff.clone();
        let mut qadj = vec![(0u32, 0usize); 2 * pairs.len()];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            qadj[qcur[a as usize]] = (b, i);
            qcur[a as usize] += 1;
            qadj[qcur[b as usize]] = (a, i);
            qcur[b as usize] += 1;
        }
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize];
                x = uf[x as usize];
            }
            x
        }
        let mut uf: Vec<u32> = (0..nodes as u32).collect();
        let mut anc: Vec<u32> = (0..nodes as u32).collect();
        let mut state = vec![0u8; nodes]; // 0 unseen, 1 open, 2 done
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..nodes as u32 {
            if state[root as usize] != 0 {
                continue;
            }
            state[root as usize] = 1;
            visit(root, None, root);
            stack.push((root, self.off[root as usize]));
            while let Some(top) = stack.last_mut() {
                let x = top.0;
                if top.1 < self.off[x as usize + 1] {
                    let c = self.adj[top.1];
                    top.1 += 1;
                    if state[c as usize] == 0 {
                        state[c as usize] = 1;
                        visit(c, Some(x), root);
                        stack.push((c, self.off[c as usize]));
                    }
                    continue;
                }
                state[x as usize] = 2;
                for &(o, i) in &qadj[qoff[x as usize]..qoff[x as usize + 1]] {
                    if state[o as usize] == 2 {
                        let r = find(&mut uf, o);
                        lca[i] = anc[r as usize];
                    }
                }
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    let (rp, rx) = (find(&mut uf, p), find(&mut uf, x));
                    uf[rx as usize] = rp;
                    anc[rp as usize] = p;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bcc::core::query::random_mixed_batch;
    use fast_bcc::core::{BccEngine, BccOpts, QueryScratch};
    use fast_bcc::graph::builder::from_edges;

    fn check(g: &Graph, seed: u64) {
        let mut engine = BccEngine::new(BccOpts::default());
        engine.solve(g);
        let index = engine.build_index();
        let oracle = Oracle::new(g);
        let qs = random_mixed_batch(g.n(), 4000, seed);
        let mut scratch = QueryScratch::new();
        let answers = index.answer_batch(&qs, &mut scratch);
        assert_eq!(oracle.mismatches(&qs, answers), 0);
        // A corrupted answer is caught.
        let mut bad = answers.to_vec();
        bad[0] = match bad[0] {
            QueryAnswer::Bool(b) => QueryAnswer::Bool(!b),
            QueryAnswer::Count(c) => QueryAnswer::Count(c.map_or(Some(7), |k| Some(k + 1))),
        };
        assert_eq!(oracle.mismatches(&qs, &bad), 1);
    }

    #[test]
    fn agrees_with_the_index_on_small_graphs() {
        // Two paths, a cycle with pendant trees, an isolated vertex, and a
        // dense-ish random part, all in one graph.
        let mut e: Vec<(V, V)> = (1..40).map(|v| (v - 1, v)).collect();
        e.extend((41..60).map(|v| (v - 1, v)));
        e.extend((60..80).map(|v| (v, if v == 79 { 60 } else { v + 1 })));
        e.extend([(62, 90), (90, 91), (91, 92), (65, 93), (93, 62)]);
        let mut rng = fast_bcc::primitives::rng::Rng::new(9);
        for _ in 0..300 {
            e.push((100 + rng.index(100) as V, 100 + rng.index(100) as V));
        }
        e.push((150, 39));
        let g = from_edges(220, &e);
        for seed in 0..4 {
            check(&g, seed);
        }
    }
}
