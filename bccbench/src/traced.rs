//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions. It replays one
//! solve through the phase functions (First-CC → forest CSR → rooting →
//! tagging → Last-CC → heads), one index build and query stream, a fixed
//! number of updates (apply_delta, apply_batch, build_index, publish), and
//! the reference solvers. End-to-end numbers never come from this run.

use crate::e2e::{repeat, to_flat, Service, PROBE};
use crate::oracle::Oracle;
use crate::stats::{median, percentile, Report};
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::{check, Inputs, Ops, Sampled, BATCH};
use fast_bcc::baselines::bfs_bcc::bfs_bcc_in;
use fast_bcc::baselines::hopcroft_tarjan::hopcroft_tarjan;
use fast_bcc::connectivity::bfs::BfsScratch;
use fast_bcc::connectivity::cc::{ldd_uf_jtb_filtered_in, CcScratch};
use fast_bcc::connectivity::ldd::LddOpts;
use fast_bcc::connectivity::spanning_forest::forest_adjacency_in;
use fast_bcc::core::algo::assign_heads_in;
use fast_bcc::core::tags::{compute_tags_in, TagScratch};
use fast_bcc::core::{ApplyReport, BccEngine, BccOpts, QueryScratch, Tags, FALLBACK_REASONS};
use fast_bcc::ett::{root_forest_in, EttScratch, RootedForest};
use fast_bcc::graph::{apply_delta, load_snapshot, DeltaScratch, Graph, V};
use fast_bcc::primitives::{pool_spawns, steal_count, with_threads};
use fast_bcc::serve::{self, ServeOpts};
use std::io;
use std::time::Instant;

/// Cold starts, warm solves, replays and reference solves per run.
const COLD: usize = 3;
const WARM: usize = 5;
const REFS: usize = 3;
/// Least served batches: enough for a p99 with ten samples beyond it.
const SERVED: usize = 1000;
/// Raw index batches.
const RAW: usize = 200;
/// Deltas per traced run; fixed, so the dynamic-path counts repeat.
const DELTAS: usize = 6;

/// Pooled buffers of the replayed solve, mirroring the engine's workspace.
#[derive(Default)]
struct Replay {
    cc: CcScratch,
    first_labels: Vec<u32>,
    forest: Vec<(V, V)>,
    tree_offsets: Vec<usize>,
    tree_arcs: Vec<V>,
    rf: RootedForest,
    ett: EttScratch,
    tags: Tags,
    tag: TagScratch,
    labels: Vec<u32>,
    head: Vec<V>,
    label_count: Vec<u32>,
    dense_rounds: usize,
}

impl Replay {
    /// One solve through the public phase functions, each in its own span
    /// under a `solve` span. Seeds match the engine's, so the replay does
    /// the engine's work; its output is checked as a partition either way.
    fn solve(&mut self, g: &Graph, opts: BccOpts, tr: &mut Tracer) {
        let ldd = LddOpts {
            beta: None,
            local_search: opts.local_search,
            seed: opts.seed,
            ..Default::default()
        };
        tr.span("solve", |tr| {
            tr.span("connectivity.first_cc", |_| {
                ldd_uf_jtb_filtered_in(
                    g,
                    ldd,
                    &|_, _| true,
                    &mut self.cc,
                    &mut self.first_labels,
                    Some(&mut self.forest),
                )
            });
            self.dense_rounds = self.cc.ldd.dense_rounds();
            tr.span("ett.forest_csr", |_| {
                forest_adjacency_in(
                    g.n(),
                    &self.forest,
                    &mut self.tree_offsets,
                    &mut self.tree_arcs,
                )
            });
            let tree = Graph::from_raw_parts(
                std::mem::take(&mut self.tree_offsets),
                std::mem::take(&mut self.tree_arcs),
            );
            tr.span("ett.root_forest", |_| {
                root_forest_in(
                    &tree,
                    &self.first_labels,
                    opts.seed ^ 0xE77,
                    &mut self.rf,
                    &mut self.ett,
                )
            });
            (self.tree_offsets, self.tree_arcs) = tree.into_raw_parts();
            tr.span("core.tagging", |_| {
                compute_tags_in(g, &self.rf, &mut self.tags, &mut self.tag)
            });
            let tags = &self.tags;
            let last = LddOpts {
                seed: opts.seed ^ 0x1A57,
                ..ldd
            };
            tr.span("connectivity.last_cc", |_| {
                ldd_uf_jtb_filtered_in(
                    g,
                    last,
                    &|u, v| tags.in_skeleton(u, v),
                    &mut self.cc,
                    &mut self.labels,
                    None,
                )
            });
            tr.span("core.heads", |_| {
                assign_heads_in(&self.labels, tags, &mut self.head, &mut self.label_count)
            });
        });
    }

    /// Arcs of `g` passing `Tags::in_skeleton` — Last-CC's useful work.
    fn skeleton_arcs(&self, g: &Graph) -> usize {
        (0..g.n() as V)
            .map(|u| {
                g.neighbors(u)
                    .iter()
                    .filter(|&&v| self.tags.in_skeleton(u, v))
                    .count()
            })
            .sum()
    }
}

/// Sums of the `ApplyReport` path counters over the traced deltas.
#[derive(Default)]
struct DynCounts {
    batches: usize,
    incremental: usize,
    fallback: [usize; FALLBACK_REASONS.len()],
    paths: [usize; 9],
}

const PATHS: [&str; 9] = [
    "dels_bridge",
    "dels_cert_pass",
    "dels_sub_solve",
    "dels_skipped",
    "adds_noop",
    "adds_merged",
    "adds_linked",
    "adds_rerooted",
    "rehang",
];

impl DynCounts {
    fn add(&mut self, r: &ApplyReport) {
        self.batches += 1;
        self.incremental += r.incremental as usize;
        if let Some(reason) = r.fallback {
            let k = FALLBACK_REASONS
                .iter()
                .position(|&f| f == reason)
                .expect("known fallback reason");
            self.fallback[k] += 1;
        }
        let counts = [
            r.dels_bridge,
            r.dels_cert_pass,
            r.dels_sub_solve,
            r.dels_skipped,
            r.adds_noop,
            r.adds_merged,
            r.adds_linked,
            r.adds_rerooted,
            r.rehang as usize,
        ];
        for (acc, c) in self.paths.iter_mut().zip(counts) {
            *acc += c;
        }
    }
}

fn timed<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    samples.push(t0.elapsed().as_secs_f64());
    r
}

pub fn run(inp: &Inputs) -> io::Result<(Report, Ops)> {
    let g = &inp.g;
    let opts = BccOpts::default();
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let mut sampled = Sampled::default();
    let mut rep = Report::default();

    // Cold starts, each split into its layer calls.
    let mut svc: Option<Service> = None;
    for _ in 0..COLD {
        drop(svc.take());
        let next = tr.span("setup", |tr| -> io::Result<Service> {
            let mapped = tr.span("graph.load_snapshot", |_| load_snapshot(&inp.snapshot))?;
            let flat = tr.span("graph.to_graph", |_| to_flat(&mapped))?;
            let (handle, rebuilder) =
                tr.span("serve.start", |_| serve::start(&flat, ServeOpts::default()));
            let mut reader = handle.reader();
            let first = &inp.batches[0];
            tr.span("serve.answer_batch", |_| {
                let b = reader.answer_batch(first);
                ops.add(1 + first.len() as u64, (b.version != 1) as u64);
                sampled.keep(first, b.answers);
            });
            Ok(Service {
                handle,
                rebuilder,
                reader,
            })
        })?;
        svc = Some(next);
    }
    let mut svc = svc.expect("cold starts ran");

    // Warm solves, untraced, then the traced replays of the same solve.
    let oracle = Oracle::new(g);
    let mut engine = BccEngine::new(opts);
    engine.solve(g);
    ops.add(1, check::solve_vs_seq(engine.result(), &oracle.seq).min(1));
    let engine_edges = check::edge_bccs(g, &engine.result().labels, &engine.result().head);
    let (spawns0, steals0) = (pool_spawns(), steal_count());
    let mut untraced = Vec::new();
    for _ in 0..WARM {
        timed(&mut untraced, || engine.solve(g));
    }
    let (spawns, steals) = (pool_spawns() - spawns0, steal_count() - steals0);
    let mut replay = Replay::default();
    replay.solve(g, opts, &mut Tracer::new()); // size the replay's buffers
    for _ in 0..WARM {
        replay.solve(g, opts, &mut tr);
    }
    let replayed = check::edge_bccs(g, &replay.labels, &replay.head);
    ops.add(1, !check::same_partition(&engine_edges, &replayed) as u64);
    drop((engine_edges, replayed));

    // Reference solvers.
    let mut solve_1t = Vec::new();
    with_threads(1, || {
        let mut e = BccEngine::new(opts);
        e.solve(g);
        for _ in 0..REFS {
            tr.span("core.solve_1t", |_| {
                timed(&mut solve_1t, || e.solve(g).num_bcc)
            });
        }
    });
    let mut seq = Vec::new();
    for _ in 0..REFS {
        tr.span("baselines.seq", |_| {
            timed(&mut seq, || hopcroft_tarjan(g, false).num_bcc)
        });
    }
    let mut bfs = Vec::new();
    let mut bfs_scratch = BfsScratch::new();
    bfs_bcc_in(g, opts.seed, &mut bfs_scratch);
    for _ in 0..REFS {
        let r = tr.span("baselines.bfs_bcc", |_| {
            timed(&mut bfs, || bfs_bcc_in(g, opts.seed, &mut bfs_scratch))
        });
        ops.add(1, (r.num_bcc != oracle.seq.num_bcc) as u64);
    }
    drop(bfs_scratch);

    // Index build and raw batches, then the served read path.
    let mut index_build = Vec::new();
    let mut index = None;
    for _ in 0..REFS {
        index = Some(tr.span("core.build_index", |_| {
            timed(&mut index_build, || engine.build_index())
        }));
    }
    let index = index.expect("index built");
    let mut raw = Vec::new();
    let mut scratch = QueryScratch::with_capacity(BATCH);
    for i in 0..RAW {
        let qs = &inp.batches[i % inp.batches.len()];
        let answers = tr.span("core.answer_batch", |_| {
            timed(&mut raw, || index.answer_batch(qs, &mut scratch))
        });
        ops.add(qs.len() as u64, 0);
        sampled.keep(qs, answers);
    }
    let mut served = Vec::new();
    let mut fresh = 0usize;
    repeat(0.03 * inp.seconds, SERVED, usize::MAX, |i| {
        let qs = &inp.batches[i % inp.batches.len()];
        tr.span("serve.answer_batch", |_| {
            let b = timed(&mut served, || svc.reader.answer_batch(qs));
            ops.add(qs.len() as u64, (b.version != 1) as u64);
            sampled.keep(qs, b.answers);
        });
        fresh = fresh.max(svc.reader.fresh_alloc_bytes());
        Ok(())
    })?;
    ops.add(0, oracle.mismatches(&sampled.queries, &sampled.answers));
    drop(oracle);

    // Updates: the graph layer, the engine and the service each apply the
    // same deltas; the service's publish is what readers see.
    let mut dyn_engine = BccEngine::new(opts);
    dyn_engine.attach(g);
    let mut cur = g.clone();
    let mut delta_scratch = DeltaScratch::new();
    let mut counts = DynCounts::default();
    let (mut rebuild_total, mut rebuild_solve, mut visible) = (Vec::new(), Vec::new(), Vec::new());
    let probe = &inp.batches[1][..PROBE];
    for (i, d) in inp.deltas.iter().take(DELTAS).enumerate() {
        let want = 2 + i as u64;
        tr.span("update", |tr| {
            let next = tr.span("graph.apply_delta", |_| {
                apply_delta(&cur, d, &mut delta_scratch)
            });
            delta_scratch.recycle(std::mem::replace(&mut cur, next));
            tr.span("core.apply_batch", |_| {
                dyn_engine.apply_batch(&d.adds, &d.dels);
            });
            counts.add(&dyn_engine.last_apply_report().expect("apply_batch reports"));
            tr.span("core.build_index", |_| {
                dyn_engine.build_index_versioned(want)
            });
            let t0 = Instant::now();
            let (report, seen) = tr.span("serve.update", |tr| {
                let accepted = svc.handle.submit_delta(d.clone()).is_ok();
                let report = tr.span("serve.rebuild_pending", |_| svc.rebuilder.rebuild_pending());
                let seen = tr.span("serve.answer_batch", |_| {
                    svc.reader.answer_batch(probe).version
                });
                ops.add(1, (!accepted || seen != want) as u64);
                (report, seen)
            });
            let lag = t0.elapsed().as_secs_f64();
            if let Some(r) = report.filter(|_| seen == want) {
                rebuild_total.push(r.total.as_secs_f64());
                rebuild_solve.push(r.solve.as_secs_f64());
                visible.push(lag - r.total.as_secs_f64());
            }
        });
    }
    let fresh_solve = BccEngine::new(opts).solve_into(&cur);
    let want_edges = check::edge_bccs(&cur, &fresh_solve.labels, &fresh_solve.head);
    let dyn_r = dyn_engine.result();
    ops.add(
        1,
        !check::same_partition(
            &want_edges,
            &check::edge_bccs(&cur, &dyn_r.labels, &dyn_r.head),
        ) as u64,
    );
    ops.add(
        0,
        check::index_vs_fresh_solve(&svc.reader.snapshot().index, &cur).min(1),
    );

    // Spans → per-layer metrics.
    rep.put_median(
        "graph.load_snapshot_s",
        &tr.durations("graph.load_snapshot"),
        "s",
    );
    rep.put_median("graph.to_graph_s", &tr.durations("graph.to_graph"), "s");
    rep.put_median(
        "graph.apply_delta_s",
        &tr.durations("graph.apply_delta"),
        "s",
    );
    rep.put_median("serve.start_s", &tr.durations("serve.start"), "s");
    rep.put_median(
        "connectivity.first_cc_s",
        &tr.durations("connectivity.first_cc"),
        "s",
    );
    rep.put(
        "connectivity.first_cc_dense_rounds",
        replay.dense_rounds as f64,
        "count",
        1,
    );
    rep.put_median(
        "connectivity.last_cc_s",
        &tr.durations("connectivity.last_cc"),
        "s",
    );
    let skeleton_arcs = replay.skeleton_arcs(g);
    rep.put(
        "connectivity.skeleton_arcs",
        skeleton_arcs as f64,
        "count",
        1,
    );
    rep.put_median("ett.forest_csr_s", &tr.durations("ett.forest_csr"), "s");
    rep.put_median("ett.root_forest_s", &tr.durations("ett.root_forest"), "s");
    rep.put_median("core.tagging_s", &tr.durations("core.tagging"), "s");
    rep.put_median("core.heads_s", &tr.durations("core.heads"), "s");
    rep.put_median("core.index_build_s", &index_build, "s");
    rep.put("core.index_bytes", index.bytes() as f64, "bytes", 1);
    let raw_med = median(&raw).expect("raw batches");
    rep.put(
        "core.answer_ns_per_query",
        raw_med / BATCH as f64 * 1e9,
        "ns",
        raw.len(),
    );
    rep.put_median("core.apply_batch_s", &tr.durations("core.apply_batch"), "s");
    let incremental_share = counts.incremental as f64 / counts.batches.max(1) as f64;
    rep.put(
        "core.dyn_incremental_share",
        incremental_share,
        "ratio",
        counts.batches,
    );
    for (reason, c) in FALLBACK_REASONS.iter().zip(counts.fallback) {
        rep.put(
            format!("core.dyn_fallback.{reason}"),
            c as f64,
            "count",
            counts.batches,
        );
    }
    for (path, c) in PATHS.iter().zip(counts.paths) {
        rep.put(
            format!("core.dyn_path.{path}"),
            c as f64,
            "count",
            counts.batches,
        );
    }
    rep.put(
        "core.workspace_bytes",
        engine.workspace().heap_bytes() as f64,
        "bytes",
        1,
    );
    rep.put(
        "core.aux_peak_bytes",
        engine.result().aux_peak_bytes as f64,
        "bytes",
        1,
    );
    rep.put_median("core.solve_1t_s", &solve_1t, "s");
    rep.put_median("serve.rebuild_total_s", &rebuild_total, "s");
    rep.put_median("serve.rebuild_solve_s", &rebuild_solve, "s");
    rep.put_median("serve.publish_visible_s", &visible, "s");
    let us: Vec<f64> = served.iter().map(|s| s * 1e6).collect();
    rep.put_median("serve.batch_p50_us", &us, "us");
    let p99 = percentile(&us, 0.99).expect("enough served batches for a p99");
    rep.put("serve.batch_p99_us", p99, "us", us.len());
    rep.put(
        "serve.reader_fresh_alloc_bytes",
        fresh as f64,
        "bytes",
        us.len(),
    );
    rep.put("primitives.pool_spawns", spawns as f64, "count", WARM);
    rep.put("primitives.steal_count", steals as f64, "count", WARM);
    rep.put_median("baselines.seq_s", &seq, "s");
    rep.put_median("baselines.bfs_bcc_s", &bfs, "s");
    let solve_med = median(&untraced).expect("warm solves");
    let traced_med = median(&tr.durations("solve")).expect("replays");
    let seq_med = median(&seq).expect("SEQ samples");
    let bfs_med = median(&bfs).expect("BFS-BCC samples");
    let solve_1t_med = median(&solve_1t).expect("1-thread samples");
    rep.put(
        "ratio.solve_1t_over_seq",
        solve_1t_med / seq_med,
        "ratio",
        REFS,
    );
    rep.put(
        "ratio.solve_over_bfs_bcc",
        solve_med / bfs_med,
        "ratio",
        REFS,
    );
    rep.put("trace.untraced_solve_s", solve_med, "s", WARM);
    rep.put("trace.solve_s", traced_med, "s", WARM);
    rep.put("trace.overhead_s", traced_med - solve_med, "s", WARM);
    let self_share = median(&tr.self_times("solve")).expect("replays") / traced_med;
    rep.put("trace.solve_self_share", self_share, "ratio", WARM);
    rep.put("trace.spans", tr.spans().len() as f64, "count", 1);

    // What each workload is chosen to exercise (README, "Traced run"):
    // every condition is one attempt, and a broken one a failure.
    let mut require = |ok: bool, what: &str| {
        ops.add(1, !ok as u64);
        if !ok {
            eprintln!("{}: failed: {what}", inp.workload.name());
        }
    };
    require(fresh == 0, "serve.reader_fresh_alloc_bytes == 0");
    require(spawns == 0, "primitives.pool_spawns == 0 over warm solves");
    require(self_share < 0.1, "trace.solve_self_share < 0.1");
    match inp.workload {
        Workload::Chain => {
            require(skeleton_arcs == 0, "connectivity.skeleton_arcs == 0");
            require(counts.incremental == 0, "every delta falls back");
        }
        Workload::RoadChurn => require(
            incremental_share >= 0.9,
            "core.dyn_incremental_share >= 0.9",
        ),
        Workload::Social => {}
    }

    let path = inp
        .out_dir
        .join(format!("spans-{}-{}.json", inp.workload.name(), inp.seed));
    std::fs::write(&path, tr.to_json())?;
    eprintln!(
        "{}: {} spans written to {}; SEQ {seq_med:.4}s, ours at 1 thread {solve_1t_med:.4}s ({:.2}x SEQ); \
         BFS-BCC {bfs_med:.4}s, ours at {} threads {solve_med:.4}s ({:.2}x BFS-BCC); \
         tracing overhead {:+.4}s, solve self share {self_share:.3}",
        inp.workload.name(),
        tr.spans().len(),
        path.display(),
        solve_1t_med / seq_med,
        inp.threads,
        solve_med / bfs_med,
        traced_med - solve_med,
    );
    Ok((rep, ops))
}
