//! Online BCC query serving: [`BccIndex`].
//!
//! The solver produces the paper's `O(n)` BCC representation; the paper's
//! introduction motivates BCC as the substrate for *downstream queries* —
//! network reliability, centrality, planarity. This module is that layer:
//! a read-only index built **once** from a [`BccResult`], answering
//!
//! | query | answer | cost |
//! |---|---|---|
//! | [`same_bcc(u, v)`](BccIndex::same_bcc) | share a biconnected component? | `O(1)` |
//! | [`is_articulation(v)`](BccIndex::is_articulation) | cut vertex? | `O(1)` |
//! | [`is_bridge(u, v)`](BccIndex::is_bridge) | is `{u, v}` a bridge edge? | `O(1)` |
//! | [`cut_vertices_on_path(u, v)`](BccIndex::cut_vertices_on_path) | # articulation points separating `u` from `v` | `O(B)` boundary scans + `O(1)` table |
//!
//! The machinery is the classic Euler-tour LCA, instantiated on the
//! **block–cut forest** instead of the input graph. The representation
//! already roots that forest: a block hangs under the cut node of its
//! component head, and a cut hangs under the block of its own label, so
//! every node's parent is an `O(1)` lookup into `labels`/`head`. The
//! build threads the children onto per-parent lists, ranks one Euler
//! circuit through every tree ([`fastbcc_ett::rank_circular_lists`]), and
//! scans the ranked tour into a ±1 depth array; a position-returning block
//! RMQ ([`fastbcc_primitives::rmq::ArgRmq`]) then answers `argmin(depth)`
//! over tour intervals — the LCA of two forest nodes. Blocks and cuts
//! alternate along forest paths, so each node's count of cut nodes on its
//! root path (`cuts_to_root`) follows from its depth, and "articulation
//! points on the tree path" is a four-term sum — exactly the set of
//! vertices whose removal separates the two query endpoints.
//!
//! Space follows the repo's discipline: everything is flat `u32` arrays —
//! five `O(n)` vertex tables plus `O(t)` tour tables and the linear-space
//! blocked RMQ (`t ≤ 4n`), all reported by [`BccIndex::bytes`] and bounded
//! by [`crate::space::query_index_budget_bytes`]. Batches run on the
//! parallel runtime through a pooled [`QueryScratch`], so a warm
//! [`answer_batch`](BccIndex::answer_batch) reports
//! [`fresh_alloc_bytes`](QueryScratch::fresh_alloc_bytes)` == 0` at any
//! `FASTBCC_THREADS` budget — the same zero-allocation gate the engine's
//! solve path honors.

use crate::algo::BccResult;
use crate::postprocess::articulation_points;
use fastbcc_ett::rank_circular_lists;
use fastbcc_graph::{NONE, V};
use fastbcc_primitives::atomics::as_atomic_u32;
use fastbcc_primitives::pack::pack_index;
use fastbcc_primitives::par::{par_for, par_for_grain};
use fastbcc_primitives::rmq::{ArgRmq, RmqKind};
use fastbcc_primitives::scan::scan_inclusive_inplace;
use fastbcc_primitives::slice::{uninit_vec, UnsafeSlice};
use std::sync::atomic::Ordering;

/// One BCC query. Vertex ids must be `< n` (the solved graph's vertex
/// count); out-of-range ids panic, exactly like the rest of the API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Do `u` and `v` share a biconnected component?
    SameBcc(V, V),
    /// Is `v` an articulation point?
    IsArticulation(V),
    /// Do `u` and `v` form a bridge edge (a 2-vertex BCC)?
    IsBridge(V, V),
    /// How many articulation points separate `u` from `v`?
    CutVerticesOnPath(V, V),
}

/// Answer to a [`Query`]: the boolean kinds return `Bool`, the path count
/// returns `Count` (`None` when no `u`–`v` path exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    Bool(bool),
    Count(Option<u32>),
}

/// A deterministic mixed workload: `count` queries over vertex ids
/// `0..num_vertices`, ~25% of each kind. The single definition of the
/// batch shape served by the `queries` benchmark, the `query_service`
/// example, and the determinism tests — change the mix here and every
/// consumer follows.
pub fn random_mixed_batch(num_vertices: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = fastbcc_primitives::rng::Rng::new(seed);
    (0..count)
        .map(|_| {
            let u = rng.index(num_vertices) as V;
            let v = rng.index(num_vertices) as V;
            match rng.index(4) {
                0 => Query::SameBcc(u, v),
                1 => Query::IsArticulation(u),
                2 => Query::IsBridge(u, v),
                _ => Query::CutVerticesOnPath(u, v),
            }
        })
        .collect()
}

/// Pooled output buffer for [`BccIndex::answer_batch`]. Construct once and
/// reuse: the answer slots stay allocated across batches, so every warm
/// batch reports [`fresh_alloc_bytes`](Self::fresh_alloc_bytes)` == 0`.
#[derive(Default)]
pub struct QueryScratch {
    answers: Vec<QueryAnswer>,
    fresh: usize,
}

impl QueryScratch {
    /// An empty scratch (sized by the first batch).
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for batches of up to `q` queries, so even the
    /// first batch allocates nothing.
    pub fn with_capacity(q: usize) -> Self {
        Self {
            answers: Vec::with_capacity(q),
            fresh: 0,
        }
    }

    /// Heap bytes currently reserved by the answer buffer.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<QueryAnswer>() * self.answers.capacity()
    }

    /// Buffer capacity newly allocated by the most recent batch — 0 for
    /// every batch no larger than the largest batch served so far.
    pub fn fresh_alloc_bytes(&self) -> usize {
        self.fresh
    }
}

/// A read-only batched-query index over one BCC solve. See the module docs
/// for the construction; [`build`](Self::build) runs the parallel passes
/// once, queries never mutate.
pub struct BccIndex {
    // --- vertex-level O(1) tables (each length n) -----------------------
    /// Skeleton-connectivity label per vertex (copied out of the result so
    /// the index outlives engine re-solves).
    labels: Vec<u32>,
    /// Component head per label.
    head: Vec<V>,
    /// Vertex count of the BCC with label `l` (head included); 0 when `l`
    /// is not a real BCC.
    block_size: Vec<u32>,
    /// Rank of `v` in the tree's cut list; `NONE` for non-articulation
    /// vertices.
    cut_id: Vec<u32>,
    /// Block–cut-forest node of `v`: its cut node when `v` is an
    /// articulation point, else the one block containing it; `NONE` for
    /// isolated vertices.
    node_of: Vec<u32>,
    // --- block-cut forest (nodes 0..B are blocks, B.. are cuts) ----------
    /// Number of block nodes (`B`).
    num_block_nodes: usize,
    /// Forest-component id per node: the first tour position of the node's
    /// tree (two vertices are connected iff their nodes share one).
    comp: Vec<u32>,
    /// Euler-tour first position per node.
    first: Vec<u32>,
    /// Node at every tour position.
    tour_node: Vec<u32>,
    /// Number of cut nodes on the root→node path, node inclusive.
    cuts_to_root: Vec<u32>,
    /// `argmin(tour depth)` over tour intervals — Euler-tour LCA. Owns its
    /// copy of the depth key array, so the depths are not stored twice.
    lca: ArgRmq,
    /// Caller-assigned graph-version tag (0 until
    /// [`set_version`](Self::set_version)). A snapshot host such as
    /// `fastbcc-serve` stamps this into every answer batch so consumers can
    /// tell which graph version produced an answer.
    version: u64,
}

impl BccIndex {
    /// Build the index from a solve result. Reads only `labels`, `head`
    /// and `label_count` — never the tags, so an index built after an
    /// incremental [`crate::engine::BccEngine::apply_batch`] (whose tour
    /// tags are stale) is exact.
    ///
    /// `O(n)` expected work. The representation roots the block–cut
    /// forest itself (see the module docs), so there is no block–cut tree,
    /// no sort, no search and no re-rooting. Every `O(n)` pass is a
    /// parallel primitive; only the list ranking's offset pass runs
    /// sequentially, over its `O(√n)` samples plus one start per tree.
    pub fn build(r: &BccResult) -> Self {
        let n = r.labels.len();
        let blocks: Vec<u32> = pack_index(n, |l| r.is_bcc_label(l as u32));
        let cuts: Vec<V> = articulation_points(r);
        let nb = blocks.len();
        let nc = cuts.len();
        let nodes = nb + nc;

        // Vertex tables: block sizes, block/cut ranks, forest node ids.
        // SAFETY: the scatter below writes every index `0..n` before use.
        let mut block_size: Vec<u32> = unsafe { uninit_vec(n) };
        {
            let view = UnsafeSlice::new(&mut block_size);
            par_for(n, |l| {
                let s = if r.is_bcc_label(l as u32) {
                    r.label_count[l] + (r.head[l] != NONE) as u32
                } else {
                    0
                };
                // SAFETY: label index written exactly once.
                unsafe { view.write(l, s) };
            });
        }
        let mut block_rank = vec![NONE; n];
        {
            let view = UnsafeSlice::new(&mut block_rank);
            let blocks = &blocks;
            // SAFETY: block labels are distinct vertices.
            par_for(nb, |i| unsafe { view.write(blocks[i] as usize, i as u32) });
        }
        let mut cut_id = vec![NONE; n];
        {
            let view = UnsafeSlice::new(&mut cut_id);
            let cuts = &cuts;
            // SAFETY: cut vertices are distinct.
            par_for(nc, |i| unsafe { view.write(cuts[i] as usize, i as u32) });
        }

        let mut node_of = vec![NONE; n];
        {
            let view = UnsafeSlice::new(&mut node_of);
            let (cut_id, block_rank) = (&cut_id, &block_rank);
            par_for(n, |v| {
                let x = if cut_id[v] != NONE {
                    nb as u32 + cut_id[v]
                } else {
                    block_rank[r.labels[v] as usize] // NONE if the class is no BCC
                };
                if x != NONE {
                    // SAFETY: one write per vertex v.
                    unsafe { view.write(v, x) };
                }
            });
            // A non-cut vertex whose own label class is not a BCC can still
            // sit in exactly one block: the single block it heads.
            par_for(n, |l| {
                let h = r.head[l];
                if h != NONE
                    && block_rank[l] != NONE
                    && cut_id[h as usize] == NONE
                    && block_rank[r.labels[h as usize] as usize] == NONE
                {
                    // SAFETY: a vertex in this case belongs to one BCC, so
                    // exactly one label l reaches it (else it would be a cut).
                    unsafe { view.write(h as usize, block_rank[l]) };
                }
            });
        }

        // Forest parents, read off the representation in O(1) per node.
        // Nodes 0..nb are blocks (ascending label), nb.. are cuts
        // (ascending vertex). Block L contains its head h, so L hangs
        // under h's cut node — or is a root when h is absent or heads L
        // alone (a spanning-tree root). Cut c sits in its own label's
        // block, so it hangs under that block — or is a root when its own
        // class is no BCC (a spanning-tree root heading several blocks).
        // Blocks and cuts alternate along every forest path.
        // SAFETY: the scatter below writes every node before use.
        let mut parent: Vec<u32> = unsafe { uninit_vec(nodes) };
        {
            let view = UnsafeSlice::new(&mut parent);
            let (blocks, cuts, cut_id, block_rank) = (&blocks, &cuts, &cut_id, &block_rank);
            par_for(nodes, |x| {
                let p = if x < nb {
                    let h = r.head[blocks[x] as usize];
                    if h != NONE && cut_id[h as usize] != NONE {
                        nb as u32 + cut_id[h as usize]
                    } else {
                        NONE
                    }
                } else {
                    block_rank[r.labels[cuts[x - nb] as usize] as usize]
                };
                // SAFETY: node x written exactly once.
                unsafe { view.write(x, p) };
            });
        }
        drop((blocks, cuts, block_rank));

        // Children as per-parent linked lists: one atomic swap per child
        // (`first_child[p]`, `next_sib[c]`). Roots have no siblings, so
        // their `next_sib` slot chains the trees instead: root i points at
        // root i + 1, cyclically.
        let mut first_child = vec![NONE; nodes];
        // SAFETY: the scatter below writes every node before use.
        let mut next_sib: Vec<u32> = unsafe { uninit_vec(nodes) };
        {
            let heads = as_atomic_u32(&mut first_child);
            let view = UnsafeSlice::new(&mut next_sib);
            let parent = &parent;
            par_for(nodes, |x| {
                let p = parent[x];
                let s = if p != NONE {
                    // Relaxed: the loop's join orders every swap before
                    // the lists are read.
                    heads[p as usize].swap(x as u32, Ordering::Relaxed)
                } else {
                    NONE
                };
                // SAFETY: node x written exactly once.
                unsafe { view.write(x, s) };
            });
        }
        let roots: Vec<u32> = pack_index(nodes, |x| parent[x] == NONE);
        let k = roots.len();
        {
            let view = UnsafeSlice::new(&mut next_sib);
            let roots = &roots;
            // SAFETY: roots are distinct nodes.
            par_for(k, |i| unsafe {
                view.write(roots[i] as usize, roots[(i + 1) % k])
            });
        }

        // One Euler circuit over every tree: list node 2x enters x, 2x+1
        // leaves it (the tour's return to x's parent). A root's leave slot
        // has no tour entry, so the circuit jumps from a tree's last step
        // straight into the next root, and the slot becomes its own
        // one-node list. Ranking from the first root then yields global
        // tour positions for all `2·nodes − k` entries directly.
        // SAFETY: the scatter below writes both slots of every node.
        let mut succ: Vec<u32> = unsafe { uninit_vec(2 * nodes) };
        {
            let view = UnsafeSlice::new(&mut succ);
            let (parent, first_child, next_sib) = (&parent, &first_child, &next_sib);
            let enter = |x: u32| 2 * x;
            let leave = |x: u32| 2 * x + 1;
            // Where the tour goes after the last step of x's subtree.
            let after = |x: u32| {
                let p = parent[x as usize];
                if p == NONE {
                    enter(next_sib[x as usize]) // next tree
                } else if next_sib[x as usize] != NONE {
                    enter(next_sib[x as usize])
                } else if parent[p as usize] == NONE {
                    enter(next_sib[p as usize]) // p's spare slot, skipped
                } else {
                    leave(p)
                }
            };
            par_for(nodes, |x| {
                let x = x as u32;
                let fc = first_child[x as usize];
                let is_root = parent[x as usize] == NONE;
                let on_enter = if fc != NONE {
                    enter(fc)
                } else if is_root {
                    after(x)
                } else {
                    leave(x)
                };
                let on_leave = if is_root { leave(x) } else { after(x) };
                // SAFETY: slots 2x and 2x+1 are owned by node x.
                unsafe {
                    view.write(enter(x) as usize, on_enter);
                    view.write(leave(x) as usize, on_leave);
                }
            });
        }
        drop((first_child, next_sib));
        let mut starts = Vec::with_capacity(k + 1);
        starts.extend(roots.first().map(|&r0| 2 * r0));
        starts.extend(roots.iter().map(|&x| 2 * x + 1));
        drop(roots);
        let rank = rank_circular_lists(&succ, &starts, 0xB1_0C5);
        drop((succ, starts));

        // Scatter the ranks into the tour, the `first` table, the ±1 depth
        // steps (0 on entering a root, so every tree starts at depth 0)
        // and the tree-start marks; two scans finish depths and tree ids.
        let tlen = 2 * nodes - k;
        // SAFETY: the scatter below writes every tour position and node.
        let mut tour_node: Vec<u32> = unsafe { uninit_vec(tlen) };
        let mut first: Vec<u32> = unsafe { uninit_vec(nodes) };
        let mut depth: Vec<u32> = unsafe { uninit_vec(tlen) };
        let mut tree_start = vec![0u32; tlen];
        {
            let tour_v = UnsafeSlice::new(&mut tour_node);
            let first_v = UnsafeSlice::new(&mut first);
            let depth_v = UnsafeSlice::new(&mut depth);
            let start_v = UnsafeSlice::new(&mut tree_start);
            let (parent, rank) = (&parent, &rank);
            par_for(nodes, |x| {
                let p = parent[x];
                let pos = rank[2 * x] as usize;
                // SAFETY: tour positions are a bijection onto the entered
                // and returned-to slots, and node x is written once.
                unsafe {
                    tour_v.write(pos, x as u32);
                    first_v.write(x, pos as u32);
                    depth_v.write(pos, (p != NONE) as u32);
                    if p == NONE {
                        start_v.write(pos, pos as u32);
                    } else {
                        let back = rank[2 * x + 1] as usize;
                        tour_v.write(back, p);
                        depth_v.write(back, u32::MAX); // −1, wrapping
                    }
                }
            });
        }
        drop(rank);
        // Every prefix sum is a real depth (non-negative), so the wrapping
        // u32 sum of the ±1 steps is exact.
        scan_inclusive_inplace(&mut depth, 0u32, u32::wrapping_add);
        scan_inclusive_inplace(&mut tree_start, 0u32, u32::max);

        // Per node: its tree id (the tree's first tour position) and the
        // number of cut nodes on its root path. Blocks and cuts alternate,
        // so the count follows from the depth and the root's kind.
        // SAFETY: the scatters below write every node before use.
        let mut comp: Vec<u32> = unsafe { uninit_vec(nodes) };
        let mut cuts_to_root: Vec<u32> = unsafe { uninit_vec(nodes) };
        {
            let comp_v = UnsafeSlice::new(&mut comp);
            let ctr_v = UnsafeSlice::new(&mut cuts_to_root);
            let (first, depth, tree_start, tour_node) = (&first, &depth, &tree_start, &tour_node);
            par_for(nodes, |x| {
                let f = first[x] as usize;
                let (c, d) = (tree_start[f], depth[f]);
                // Cut nodes sit at odd depths under a block root and at
                // even depths under a cut root.
                let root_is_cut = tour_node[c as usize] as usize >= nb;
                let cuts = (d + 1 + root_is_cut as u32) / 2;
                // SAFETY: node x written exactly once.
                unsafe {
                    comp_v.write(x, c);
                    ctr_v.write(x, cuts);
                }
            });
        }

        Self {
            labels: r.labels.clone(),
            head: r.head.clone(),
            block_size,
            cut_id,
            node_of,
            num_block_nodes: nb,
            comp,
            first,
            tour_node,
            cuts_to_root,
            lca: ArgRmq::build_from(depth, RmqKind::Min),
            version: 0,
        }
    }

    /// The caller-assigned graph-version tag (0 if never set).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamp a graph-version tag onto this index. The tag is inert for the
    /// queries themselves; it exists so a snapshot host can hand out
    /// `Arc<BccIndex>` snapshots and tag every answer with the version of
    /// the graph that produced it.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Vertex count of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of block nodes (= biconnected components).
    pub fn num_blocks(&self) -> usize {
        self.num_block_nodes
    }

    /// Number of cut nodes (= articulation points).
    pub fn num_cuts(&self) -> usize {
        self.comp.len() - self.num_block_nodes
    }

    /// Nodes of the block–cut forest.
    pub fn node_count(&self) -> usize {
        self.comp.len()
    }

    /// Heap bytes held by every index array (the "index bytes" column of
    /// the `queries` benchmark).
    pub fn bytes(&self) -> usize {
        4 * (self.labels.len()
            + self.head.len()
            + self.block_size.len()
            + self.cut_id.len()
            + self.node_of.len()
            + self.comp.len()
            + self.first.len()
            + self.tour_node.len()
            + self.cuts_to_root.len())
            + self.lca.bytes()
    }

    /// The label of a BCC containing both `u` and `v` (`u != v`), if any —
    /// the result representation's three-comparison trick: any two
    /// co-members of a BCC either share the label or one is the head of
    /// the other's class.
    #[inline]
    fn common_block(&self, u: V, v: V) -> Option<u32> {
        let lu = self.labels[u as usize];
        let lv = self.labels[v as usize];
        if lu == lv && self.block_size[lu as usize] > 0 {
            Some(lu)
        } else if self.head[lu as usize] == v {
            Some(lu)
        } else if self.head[lv as usize] == u {
            Some(lv)
        } else {
            None
        }
    }

    /// Do `u` and `v` share a biconnected component? `O(1)`.
    /// `same_bcc(u, u)` is true iff `u` belongs to at least one BCC (i.e.
    /// has an incident edge).
    #[inline]
    pub fn same_bcc(&self, u: V, v: V) -> bool {
        if u == v {
            return self.node_of[u as usize] != NONE;
        }
        self.common_block(u, v).is_some()
    }

    /// Is `v` an articulation point? `O(1)`.
    #[inline]
    pub fn is_articulation(&self, v: V) -> bool {
        self.cut_id[v as usize] != NONE
    }

    /// Is `{u, v}` a bridge edge? `O(1)`. True iff `u` and `v` share a
    /// BCC of exactly two vertices — a 2-vertex BCC is a single edge, so
    /// this is equivalent to "`(u, v)` is an edge and deleting it
    /// disconnects its endpoints".
    #[inline]
    pub fn is_bridge(&self, u: V, v: V) -> bool {
        u != v
            && matches!(self.common_block(u, v),
                        Some(l) if self.block_size[l as usize] == 2)
    }

    /// Number of articulation points separating `u` from `v`: vertices `w
    /// ∉ {u, v}` whose removal breaks every `u`–`v` path. `None` when no
    /// path exists at all (different components, or an isolated endpoint
    /// with `u != v`); `Some(0)` when `u == v`.
    ///
    /// Cost: one `argmin` LCA probe — two `O(B)` boundary-block scans
    /// (`B = 32`) plus an `O(1)` table lookup — and a four-term prefix-sum
    /// combination.
    pub fn cut_vertices_on_path(&self, u: V, v: V) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let a = self.node_of[u as usize];
        let b = self.node_of[v as usize];
        if a == NONE || b == NONE || self.comp[a as usize] != self.comp[b as usize] {
            return None;
        }
        if a == b {
            return Some(0); // same block (or same cut node): nothing between
        }
        let (fa, fb) = (self.first[a as usize], self.first[b as usize]);
        let (lo, hi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        let l = self.tour_node[self.lca.query(lo as usize, hi as usize)];
        let isc = |x: u32| (x as usize >= self.num_block_nodes) as u32;
        // Cut nodes on the a–b tree path, endpoints inclusive…
        let inclusive = self.cuts_to_root[a as usize] + self.cuts_to_root[b as usize]
            - 2 * self.cuts_to_root[l as usize]
            + isc(l);
        // …minus the endpoints' own nodes when they are cut nodes: a
        // vertex never separates itself from anything.
        Some(inclusive - isc(a) - isc(b))
    }

    /// Answer one query (the sequential path of
    /// [`answer_batch`](Self::answer_batch)).
    pub fn answer(&self, q: Query) -> QueryAnswer {
        match q {
            Query::SameBcc(u, v) => QueryAnswer::Bool(self.same_bcc(u, v)),
            Query::IsArticulation(v) => QueryAnswer::Bool(self.is_articulation(v)),
            Query::IsBridge(u, v) => QueryAnswer::Bool(self.is_bridge(u, v)),
            Query::CutVerticesOnPath(u, v) => QueryAnswer::Count(self.cut_vertices_on_path(u, v)),
        }
    }

    /// Answer a batch in parallel, writing into the pooled `scratch`.
    /// Answers land at the query's position. Queries are pure reads over
    /// immutable arrays, so the result is independent of the schedule and
    /// the thread budget; a warm scratch (any prior batch at least this
    /// large) makes the whole call allocation-free
    /// ([`QueryScratch::fresh_alloc_bytes`]` == 0`).
    pub fn answer_batch<'s>(
        &self,
        queries: &[Query],
        scratch: &'s mut QueryScratch,
    ) -> &'s [QueryAnswer] {
        let before = scratch.heap_bytes();
        scratch.answers.clear();
        scratch
            .answers
            .resize(queries.len(), QueryAnswer::Bool(false));
        {
            let view = UnsafeSlice::new(scratch.answers.as_mut_slice());
            // Finer grain than the default: a path query costs two block
            // scans, so ~512 queries amortize a steal comfortably.
            par_for_grain(queries.len(), 512, |i| {
                // SAFETY: slot i written exactly once.
                unsafe { view.write(i, self.answer(queries[i])) };
            });
        }
        scratch.fresh = scratch.heap_bytes().saturating_sub(before);
        &scratch.answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{fast_bcc, BccOpts};
    use fastbcc_graph::generators::classic::*;
    use fastbcc_graph::Graph;

    fn index_of(g: &Graph) -> BccIndex {
        BccIndex::build(&fast_bcc(g, BccOpts::default()))
    }

    #[test]
    fn path_queries() {
        let ix = index_of(&path(5)); // 0-1-2-3-4
        assert!(ix.same_bcc(0, 1) && ix.same_bcc(3, 4));
        assert!(!ix.same_bcc(0, 2));
        assert!(ix.is_articulation(2) && !ix.is_articulation(0));
        assert!(ix.is_bridge(1, 2) && ix.is_bridge(2, 1));
        assert!(!ix.is_bridge(0, 4));
        assert_eq!(ix.cut_vertices_on_path(0, 4), Some(3));
        assert_eq!(ix.cut_vertices_on_path(1, 3), Some(1));
        assert_eq!(ix.cut_vertices_on_path(0, 1), Some(0));
        assert_eq!(ix.cut_vertices_on_path(2, 2), Some(0));
    }

    #[test]
    fn windmill_center_separates_blades() {
        let ix = index_of(&windmill(4));
        assert!(ix.is_articulation(0));
        for t1 in 0..4u32 {
            for t2 in 0..4u32 {
                let (a, b) = (1 + 2 * t1, 1 + 2 * t2);
                if t1 == t2 {
                    assert!(ix.same_bcc(a, a + 1));
                    assert_eq!(ix.cut_vertices_on_path(a, a + 1), Some(0));
                } else {
                    assert!(!ix.same_bcc(a, b));
                    assert_eq!(ix.cut_vertices_on_path(a, b), Some(1));
                }
            }
        }
        assert!(!ix.is_bridge(1, 2)); // triangle edge
        assert_eq!(ix.num_blocks(), 4);
        assert_eq!(ix.num_cuts(), 1);
    }

    #[test]
    fn biconnected_graphs_have_no_cuts() {
        for g in [cycle(9), complete(6), petersen()] {
            let ix = index_of(&g);
            assert_eq!(ix.num_cuts(), 0);
            assert_eq!(ix.num_blocks(), 1);
            assert!(ix.same_bcc(0, 2));
            assert!(!ix.is_bridge(0, 1));
            assert_eq!(ix.cut_vertices_on_path(0, 3), Some(0));
        }
    }

    #[test]
    fn disconnected_and_isolated() {
        let g = disjoint_union(&[&cycle(3), &path(2), &Graph::empty(2)]);
        let ix = index_of(&g);
        assert!(!ix.same_bcc(0, 3)); // different components
        assert_eq!(ix.cut_vertices_on_path(0, 3), None);
        assert_eq!(ix.cut_vertices_on_path(0, 5), None); // isolated endpoint
        assert_eq!(ix.cut_vertices_on_path(5, 5), Some(0));
        assert!(!ix.same_bcc(5, 5)); // isolated: member of no BCC
        assert!(ix.same_bcc(3, 3));
        assert!(ix.is_bridge(3, 4));
    }

    #[test]
    fn barbell_path_counts() {
        // Cliques 0..=3 and 4..=7 joined by the bridge path 3–8–4: the
        // articulation points are 3, 8, and 4.
        let g = barbell(4, 2);
        let ix = index_of(&g);
        let r = fast_bcc(&g, BccOpts::default());
        assert_eq!(crate::postprocess::articulation_points(&r).len(), 3);
        // Clique interior to clique interior: every articulation point lies
        // between them.
        assert_eq!(ix.cut_vertices_on_path(0, 7), Some(3));
        // Up to the middle bridge vertex (itself a cut, so not counted as a
        // separator of the pair): only the near attachment 3 lies between.
        assert_eq!(ix.cut_vertices_on_path(0, 8), Some(1));
        // Within one clique: none.
        assert_eq!(ix.cut_vertices_on_path(0, 2), Some(0));
    }

    #[test]
    fn batch_matches_sequential_and_reuses_scratch() {
        let g = clique_chain(5, 4);
        let ix = index_of(&g);
        let n = g.n() as u32;
        let mut queries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                queries.push(Query::SameBcc(i, j));
                queries.push(Query::IsBridge(i, j));
                queries.push(Query::CutVerticesOnPath(i, j));
            }
            queries.push(Query::IsArticulation(i));
        }
        let mut scratch = QueryScratch::new();
        let got: Vec<QueryAnswer> = ix.answer_batch(&queries, &mut scratch).to_vec();
        let want: Vec<QueryAnswer> = queries.iter().map(|&q| ix.answer(q)).collect();
        assert_eq!(got, want);
        assert!(scratch.heap_bytes() > 0);
        // Warm batches of the same (or smaller) size allocate nothing.
        for take in [queries.len(), queries.len() / 2, 1] {
            ix.answer_batch(&queries[..take], &mut scratch);
            assert_eq!(scratch.fresh_alloc_bytes(), 0, "batch of {take}");
        }
    }

    #[test]
    fn empty_graph_index() {
        let ix = index_of(&Graph::empty(0));
        assert_eq!(ix.node_count(), 0);
        let mut scratch = QueryScratch::new();
        assert!(ix.answer_batch(&[], &mut scratch).is_empty());
    }

    #[test]
    fn index_bytes_within_budget() {
        for g in [windmill(20), path(500), clique_chain(6, 30)] {
            let ix = index_of(&g);
            let budget = crate::space::query_index_budget_bytes(g.n());
            assert!(
                ix.bytes() > 0 && ix.bytes() <= budget,
                "index {} B outside (0, {budget}] for n={}",
                ix.bytes(),
                g.n()
            );
        }
    }
}
