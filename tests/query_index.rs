//! Query-index acceptance tests: every [`BccIndex`] answer is checked
//! against ground truth derived from the sequential Hopcroft–Tarjan oracle
//! (membership sets for `same_bcc`, the articulation/bridge lists, and a
//! brute-force "remove w, is u still connected to v?" sweep for the path
//! separator counts), on the generator zoo and on random proptest graphs.
//! Batched answering must be bit-identical to sequential answering at
//! every thread budget, and warm batches must allocate nothing.

use fast_bcc::baselines::hopcroft_tarjan;
use fast_bcc::prelude::*;
use proptest::prelude::*;

fn build_index(g: &Graph) -> (BccResult, BccIndex) {
    let r = fast_bcc(g, BccOpts::default());
    let ix = BccIndex::build(&r);
    (r, ix)
}

/// BFS connectivity from `src` to `dst`, optionally with one vertex removed.
fn connected_without(g: &Graph, src: V, dst: V, removed: Option<V>) -> bool {
    if Some(src) == removed || Some(dst) == removed {
        return false;
    }
    if src == dst {
        return true;
    }
    let mut seen = vec![false; g.n()];
    let mut queue = std::collections::VecDeque::from([src]);
    seen[src as usize] = true;
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if Some(w) == removed || seen[w as usize] {
                continue;
            }
            if w == dst {
                return true;
            }
            seen[w as usize] = true;
            queue.push_back(w);
        }
    }
    false
}

/// Oracle for `cut_vertices_on_path`: count articulation points (from the
/// HT list) that separate `u` from `v`; `None` when no path exists.
fn separators_truth(g: &Graph, aps: &[V], u: V, v: V) -> Option<u32> {
    if u == v {
        return Some(0);
    }
    if !connected_without(g, u, v, None) {
        return None;
    }
    Some(
        aps.iter()
            .filter(|&&w| w != u && w != v && !connected_without(g, u, v, Some(w)))
            .count() as u32,
    )
}

/// Oracle for `same_bcc` from HT's explicit component vertex sets.
fn same_bcc_truth(bccs: &[Vec<V>], u: V, v: V) -> bool {
    bccs.iter().any(|b| b.contains(&u) && b.contains(&v))
}

/// Check every query kind over all vertex pairs of a small graph.
fn check_all_pairs(g: &Graph) -> Result<(), TestCaseError> {
    let (_, ix) = build_index(g);
    check_index(g, &ix)
}

/// Check every query kind of `ix` over all vertex pairs of `g` against the
/// Hopcroft–Tarjan and brute-force oracles.
fn check_index(g: &Graph, ix: &BccIndex) -> Result<(), TestCaseError> {
    let ht = hopcroft_tarjan(g, true);
    let bccs = ht.bccs.as_ref().unwrap();
    let n = g.n() as V;
    for v in 0..n {
        prop_assert_eq!(
            ix.is_articulation(v),
            ht.articulation_points.contains(&v),
            "is_articulation({})",
            v
        );
    }
    for u in 0..n {
        for v in 0..n {
            if u != v {
                prop_assert_eq!(
                    ix.same_bcc(u, v),
                    same_bcc_truth(bccs, u, v),
                    "same_bcc({}, {})",
                    u,
                    v
                );
            }
            prop_assert_eq!(
                ix.is_bridge(u, v),
                ht.bridges.contains(&(u.min(v), u.max(v))) && u != v,
                "is_bridge({}, {})",
                u,
                v
            );
            prop_assert_eq!(
                ix.cut_vertices_on_path(u, v),
                separators_truth(g, &ht.articulation_points, u, v),
                "cut_vertices_on_path({}, {})",
                u,
                v
            );
        }
    }
    Ok(())
}

#[test]
fn zoo_graphs_match_ground_truth() {
    use fast_bcc::graph::generators::classic::*;
    use fast_bcc::graph::generators::{grid2d, rmat};
    for g in [
        path(9),
        cycle(8),
        star(7),
        complete(6),
        windmill(4),
        barbell(4, 2),
        barbell(3, 1),
        clique_chain(4, 3),
        binary_tree(15),
        theta(2, 3, 4),
        petersen(),
        ladder(5),
        wheel(7),
        grid2d(4, 5, false),
        rmat(5, 60, 42),
        disjoint_union(&[&windmill(3), &path(4), &cycle(5), &Graph::empty(3)]),
        Graph::empty(4),
        path(2),
    ] {
        check_all_pairs(&g).unwrap();
    }
}

/// Forests of many trees: one block–cut tree per non-trivial component,
/// all chained into one Euler circuit, with isolated vertices (no forest
/// node at all) interleaved between them.
#[test]
fn many_trees_and_isolated_vertices() {
    use fast_bcc::graph::generators::classic::*;
    let e1 = Graph::empty(1);
    let trees = [
        windmill(2),
        path(4),
        cycle(4),
        star(4),
        path(2),
        complete(4),
        path(3),
        barbell(3, 1),
    ];
    let mut parts = vec![&e1];
    for t in &trees {
        parts.extend([t, &e1]);
    }
    check_all_pairs(&disjoint_union(&parts)).unwrap();
    // Twelve one-edge trees with an isolated vertex after each.
    let pairs: Vec<(V, V)> = (0..12).map(|i| (3 * i, 3 * i + 1)).collect();
    check_all_pairs(&builder::from_edges(36, &pairs)).unwrap();
}

/// Single-block components: each block–cut tree is one block node with
/// no cut, so its tour is a single entry.
#[test]
fn single_block_components() {
    use fast_bcc::graph::generators::classic::*;
    for g in [
        disjoint_union(&[&cycle(5), &complete(4), &path(2), &petersen(), &cycle(3)]),
        disjoint_union(&[&path(2), &path(2), &path(2), &Graph::empty(2), &path(2)]),
        complete(7),
    ] {
        let (r, ix) = build_index(&g);
        assert_eq!(ix.num_cuts(), 0);
        assert_eq!(ix.num_blocks(), r.num_bcc);
        check_index(&g, &ix).unwrap();
    }
}

/// The spanning-tree root's label class is not a BCC, so the build roots
/// its block–cut tree at the one block the root heads, or at the root's
/// own cut node when it heads several. Both shapes must show up in this
/// family (asserted from the solve's parent array) and answer exactly.
#[test]
fn spanning_tree_root_heading_one_or_several_blocks() {
    use fast_bcc::graph::generators::classic::*;
    let relabel = |g: &Graph, shift: usize| {
        let n = g.n();
        let mut edges = Vec::new();
        for u in 0..n as V {
            for &v in g.neighbors(u) {
                if u < v {
                    edges.push(((u as usize + shift) % n, (v as usize + shift) % n));
                }
            }
        }
        let edges: Vec<(V, V)> = edges.iter().map(|&(a, b)| (a as V, b as V)).collect();
        builder::from_edges(n, &edges)
    };
    let (mut heads_one, mut heads_several) = (0, 0);
    for base in [path(7), star(6), windmill(3), barbell(3, 2), binary_tree(9)] {
        for shift in 0..base.n() {
            let g = relabel(&base, shift);
            let (r, ix) = build_index(&g);
            for root in (0..g.n()).filter(|&v| r.tags.parent[v] == NONE) {
                match r.head.iter().filter(|&&h| h == root as V).count() {
                    0 => {}
                    1 => heads_one += 1,
                    _ => heads_several += 1,
                }
            }
            check_index(&g, &ix).unwrap();
        }
    }
    assert!(
        heads_one > 0,
        "no spanning-tree root heads exactly one block"
    );
    assert!(
        heads_several > 0,
        "no spanning-tree root heads several blocks"
    );
}

/// A 2^16-vertex path: a block–cut tree of depth ~2^17, the shape whose
/// tour the old sequential forest passes walked end to end. Membership
/// answers are checked against Hopcroft–Tarjan; on a path the vertices
/// separating `u` from `v` are exactly those strictly between them.
#[test]
fn long_path_index() {
    use fast_bcc::graph::generators::classic::path;
    let n = 1usize << 16;
    let g = path(n);
    let (_, ix) = build_index(&g);
    let ht = hopcroft_tarjan(&g, false);
    assert_eq!(ix.num_blocks(), ht.num_bcc);
    assert_eq!(ix.num_cuts(), ht.articulation_points.len());
    for &v in &ht.articulation_points {
        assert!(ix.is_articulation(v));
    }
    assert!(!ix.is_articulation(0) && !ix.is_articulation(n as V - 1));
    let mut rng = fast_bcc::primitives::rng::Rng::new(0x9A7);
    let ends = [0, 1, n - 2, n - 1];
    for i in 0..20_000 {
        let (u, v) = if i < 16 {
            (ends[i / 4], ends[i % 4])
        } else {
            let u = rng.index(n);
            (
                u,
                if i % 2 == 0 {
                    rng.index(n)
                } else {
                    (u + 1).min(n - 1)
                },
            )
        };
        let (u, v) = (u as V, v as V);
        let adjacent = u.abs_diff(v) == 1;
        assert_eq!(ix.same_bcc(u, v), adjacent || u == v, "same_bcc({u}, {v})");
        assert_eq!(ix.is_bridge(u, v), adjacent, "is_bridge({u}, {v})");
        assert_eq!(
            ht.bridges.contains(&(u.min(v), u.max(v))),
            adjacent,
            "HT bridge ({u}, {v})"
        );
        let between = u.abs_diff(v).saturating_sub(1);
        assert_eq!(
            ix.cut_vertices_on_path(u, v),
            Some(between),
            "cut_vertices_on_path({u}, {v})"
        );
    }
}

/// After an incremental `apply_batch` the result's tour tags
/// (`first`/`last`/`low`/`high`) are stale. The index must not care: it
/// answers exactly like the index of a fresh solve of the evolved graph
/// and matches the oracles on it.
#[test]
fn index_after_incremental_batch_matches_fresh_solve() {
    use fast_bcc::graph::generators::grid2d;
    let mut incremental = 0;
    for seed in 0..8u64 {
        let g0 = grid2d(6, 8, false);
        let mut engine = BccEngine::new(BccOpts::default());
        engine.dyn_opts_mut().max_churn_frac = 1.0;
        engine.attach(&g0);
        let mut rng = fast_bcc::primitives::rng::Rng::new(seed);
        let n = g0.n();
        for _round in 0..3 {
            let g = engine.graph().unwrap();
            let mut dels = Vec::new();
            for u in 0..n as V {
                for &v in g.neighbors(u) {
                    if u < v && rng.index(6) == 0 {
                        dels.push((u, v));
                    }
                }
            }
            let adds: Vec<(V, V)> = (0..2)
                .map(|_| (rng.index(n) as V, rng.index(n) as V))
                .filter(|&(a, b)| a != b)
                .collect();
            engine.apply_batch(&adds, &dels);
            incremental += engine.last_apply_report().unwrap().incremental as usize;
            let ix = engine.build_index();
            let g = engine.graph().unwrap().clone();
            let (_, fresh) = build_index(&g);
            for u in 0..n as V {
                for v in 0..n as V {
                    for q in [
                        Query::SameBcc(u, v),
                        Query::IsBridge(u, v),
                        Query::CutVerticesOnPath(u, v),
                        Query::IsArticulation(u),
                    ] {
                        assert_eq!(ix.answer(q), fresh.answer(q), "seed {seed}: {q:?}");
                    }
                }
            }
            assert_eq!(ix.bytes(), fresh.bytes(), "seed {seed}");
            check_index(&g, &ix).unwrap();
        }
    }
    assert!(incremental > 0, "no batch took the incremental path");
}

/// The build reads only `labels`, `head` and `label_count`: an index over
/// a result whose tags were dropped answers exactly like the original.
#[test]
fn build_never_reads_the_tags() {
    use fast_bcc::graph::generators::classic::*;
    use fast_bcc::graph::generators::rmat;
    for g in [barbell(4, 2), clique_chain(4, 3), rmat(8, 700, 5), path(40)] {
        let (mut r, want) = build_index(&g);
        r.tags = Default::default();
        let ix = BccIndex::build(&r);
        for q in random_mixed_batch(g.n(), 2048, 77) {
            assert_eq!(ix.answer(q), want.answer(q), "{q:?}");
        }
        assert_eq!(ix.bytes(), want.bytes());
    }
}

#[test]
fn batches_are_deterministic_across_thread_budgets() {
    use fast_bcc::graph::generators::{grid2d, rmat};
    for g in [rmat(8, 1200, 9), grid2d(20, 13, true)] {
        let (_, ix) = build_index(&g);
        let queries = random_mixed_batch(g.n(), 4096, 0xBA7C4);
        // Sequential reference: one answer() call per query.
        let want: Vec<QueryAnswer> = queries.iter().map(|&q| ix.answer(q)).collect();
        for budget in [1usize, 2, 4, 8] {
            let got = with_threads(budget, || {
                let mut scratch = QueryScratch::new();
                ix.answer_batch(&queries, &mut scratch).to_vec()
            });
            assert_eq!(got, want, "budget {budget}");
        }
    }
}

#[test]
fn warm_batches_allocate_nothing_at_every_budget() {
    use fast_bcc::graph::generators::rmat;
    let g = rmat(9, 2500, 17);
    let (_, ix) = build_index(&g);
    let queries = random_mixed_batch(g.n(), 8192, 0x5EED);
    // The default budget (FASTBCC_THREADS or hardware) plus pinned ones —
    // the acceptance criterion's {1, 4, default} matrix.
    let run = |scratch: &mut QueryScratch| {
        ix.answer_batch(&queries, scratch);
        let first = scratch.fresh_alloc_bytes();
        for round in 0..3 {
            ix.answer_batch(&queries, scratch);
            assert_eq!(
                scratch.fresh_alloc_bytes(),
                0,
                "warm batch allocated (round {round})"
            );
        }
        first
    };
    let mut scratch = QueryScratch::new();
    let first = run(&mut scratch); // default budget
    assert!(first > 0, "first batch must size the scratch");
    for budget in [1usize, 4] {
        with_threads(budget, || {
            // Same pooled scratch across budgets: still zero fresh bytes.
            ix.answer_batch(&queries, &mut scratch);
            assert_eq!(scratch.fresh_alloc_bytes(), 0, "budget {budget}");
            let mut cold = QueryScratch::with_capacity(queries.len());
            ix.answer_batch(&queries, &mut cold);
            assert_eq!(
                cold.fresh_alloc_bytes(),
                0,
                "pre-sized scratch allocated at budget {budget}"
            );
        });
    }
}

#[test]
fn engine_build_index_matches_standalone_build() {
    use fast_bcc::graph::generators::classic::{clique_chain, windmill};
    let mut engine = BccEngine::new(BccOpts::default());
    for g in [windmill(5), clique_chain(4, 4)] {
        engine.solve(&g);
        let from_engine = engine.build_index();
        let (_, standalone) = build_index(&g);
        let queries = random_mixed_batch(g.n(), 512, 3);
        for &q in &queries {
            assert_eq!(from_engine.answer(q), standalone.answer(q), "{q:?}");
        }
        assert_eq!(from_engine.bytes(), standalone.bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_graphs_match_ground_truth(
        n in 2usize..24,
        edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
    ) {
        let edges: Vec<(V, V)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = builder::from_edges(n, &edges);
        check_all_pairs(&g)?;
    }

    #[test]
    fn random_batches_match_sequential_answers(
        n in 2usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        seed in 0u64..1000,
    ) {
        let edges: Vec<(V, V)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = builder::from_edges(n, &edges);
        let (_, ix) = build_index(&g);
        let queries = random_mixed_batch(n, 256, seed);
        let mut scratch = QueryScratch::new();
        let got = ix.answer_batch(&queries, &mut scratch).to_vec();
        for (i, (&q, &a)) in queries.iter().zip(got.iter()).enumerate() {
            prop_assert_eq!(a, ix.answer(q), "query {} = {:?}", i, q);
        }
    }
}
