//! The end-to-end run (tracing off): one closed-loop client, no reader or
//! rebuilder threads of its own, at the process's thread budget.
//!
//! The run repeats one round until its time is up. A round cold-starts a
//! fresh service (`setup_s`: snapshot load → flat graph → service start →
//! first query batch answered), serves a burst of query batches through
//! its reader (`query_mqps`), warms a fresh engine for a few timed solves
//! (`solve_s`), and feeds the service a few deltas (`update_lag_s`:
//! submit → rebuild → the reader's next batch carries the new version; one
//! delta in flight at a time). Every metric thus samples the whole run, so
//! a slow spell of the machine weighs on all of them alike. Fresh
//! allocations every round spread the samples over several memory
//! layouts, which moved memory-bound query and solve times by up to 20%
//! between otherwise identical services.

use crate::oracle::Oracle;
use crate::stats::{median, Report};
use crate::{check, Inputs, Ops, Sampled, BATCH};
use fast_bcc::core::{BccEngine, BccOpts};
use fast_bcc::graph::{apply_delta, load_snapshot, DeltaScratch, Graph, MappedGraph};
use fast_bcc::serve::{self, Rebuilder, ServeOpts, ServiceHandle, ServiceReader};
use std::io;
use std::time::Instant;

/// Least rounds per run.
const ROUNDS: usize = 5;
/// Timed warm solves per round.
const SOLVES: usize = 2;
/// Deltas per round. Round `r` applies deltas `r·DELTAS..` to its fresh
/// service; the stream is exact against any subset applied to the graph.
const DELTAS: usize = 2;
/// Query burst per round: share of `--seconds`, least batches.
const BURST: (f64, usize) = (0.01, 50);
/// Queries in the batch that watches for a new version.
pub const PROBE: usize = 64;

/// Call `f(i)` for `i = 0, 1, …` until at least `min` calls were made and
/// `budget_s` seconds have passed, or `max` calls were made.
pub fn repeat(
    budget_s: f64,
    min: usize,
    max: usize,
    mut f: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<usize> {
    let t0 = Instant::now();
    let mut i = 0;
    while i < max && (i < min || t0.elapsed().as_secs_f64() < budget_s) {
        f(i)?;
        i += 1;
    }
    Ok(i)
}

pub fn to_flat(m: &MappedGraph) -> io::Result<Graph> {
    match m {
        MappedGraph::Flat(f) => Ok(f.to_graph()),
        MappedGraph::Compressed(_) => Err(io::Error::other("expected a flat snapshot")),
    }
}

/// A running service with its one reader.
pub struct Service {
    pub handle: ServiceHandle,
    pub rebuilder: Rebuilder,
    pub reader: ServiceReader,
}

/// One cold start, timed from snapshot load to the first answered batch.
fn cold_start(inp: &Inputs, sampled: &mut Sampled, ops: &mut Ops) -> io::Result<(Service, f64)> {
    let first = &inp.batches[0];
    let t0 = Instant::now();
    let g = to_flat(&load_snapshot(&inp.snapshot)?)?;
    let (handle, rebuilder) = serve::start(&g, ServeOpts::default());
    let mut reader = handle.reader();
    let batch = reader.answer_batch(first);
    let secs = t0.elapsed().as_secs_f64();
    ops.add(1 + first.len() as u64, (batch.version != 1) as u64);
    sampled.keep(first, batch.answers);
    drop(g);
    Ok((
        Service {
            handle,
            rebuilder,
            reader,
        },
        secs,
    ))
}

pub fn run(inp: &Inputs) -> io::Result<(Report, Ops)> {
    let s = inp.seconds;
    let g = &inp.g;
    let mut ops = Ops::default();
    let mut sampled = Sampled::default();
    let oracle = Oracle::new(g);
    let probe = &inp.batches[1][..PROBE];

    let (mut setup, mut solve, mut batch_s, mut lag) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut aux_bytes = 0;
    let mut last: Option<(Service, std::ops::Range<usize>)> = None;
    let max_rounds = inp.deltas.len() / DELTAS;
    repeat(s, ROUNDS, max_rounds, |round| {
        drop(last.take()); // tear the previous service down untimed
        let (mut svc, secs) = cold_start(inp, &mut sampled, &mut ops)?;
        setup.push(secs);
        aux_bytes =
            svc.rebuilder.engine().workspace().heap_bytes() + svc.reader.snapshot().index.bytes();

        repeat(s * BURST.0, BURST.1, usize::MAX, |i| {
            let qs = &inp.batches[(round + i) % inp.batches.len()];
            let t0 = Instant::now();
            let b = svc.reader.answer_batch(qs);
            batch_s.push(t0.elapsed().as_secs_f64());
            ops.add(qs.len() as u64, (b.version != 1) as u64);
            sampled.keep(qs, b.answers);
            Ok(())
        })?;

        // A fresh engine: one untimed solve sizes its workspace (checked
        // against SEQ), then the timed warm solves.
        let mut engine = BccEngine::new(BccOpts::default());
        ops.add(1, check::solve_vs_seq(engine.solve(g), &oracle.seq).min(1));
        for _ in 0..SOLVES {
            let t0 = Instant::now();
            let r = engine.solve(g);
            solve.push(t0.elapsed().as_secs_f64());
            ops.add(1, (r.num_bcc != oracle.seq.num_bcc) as u64);
        }
        drop(engine);

        let deltas = round * DELTAS..(round + 1) * DELTAS;
        for (k, d) in inp.deltas[deltas.clone()].iter().enumerate() {
            let want = 2 + k as u64;
            let delta = d.clone();
            let t0 = Instant::now();
            if svc.handle.submit_delta(delta).is_err() {
                ops.add(1, 1);
                continue;
            }
            let rep = svc.rebuilder.rebuild_pending();
            let seen = svc.reader.answer_batch(probe).version;
            lag.push(t0.elapsed().as_secs_f64());
            ops.add(
                1,
                (rep.map(|r| r.version) != Some(want) || seen != want) as u64,
            );
        }
        last = Some((svc, deltas));
        Ok(())
    })?;
    ops.add(0, oracle.mismatches(&sampled.queries, &sampled.answers));
    drop(oracle);

    // The last round's final version against a fresh solve of its graph.
    let (svc, deltas) = last.expect("at least one round");
    let evolved = evolve(g, &inp.deltas[deltas]);
    ops.add(
        0,
        check::index_vs_fresh_solve(&svc.reader.snapshot().index, &evolved).min(1),
    );

    let mut report = Report::default();
    report.put_median("setup_s", &setup, "s");
    report.put_median("solve_s", &solve, "s");
    report.put_median("update_lag_s", &lag, "s");
    let mqps = BATCH as f64 / median(&batch_s).expect("query samples") / 1e6;
    report.put("query_mqps", mqps, "Mq/s", batch_s.len());
    report.put("aux_bytes", aux_bytes as f64, "bytes", setup.len());
    Ok((report, ops))
}

/// `g` with `deltas` applied in order.
pub fn evolve(g: &Graph, deltas: &[fast_bcc::graph::GraphDelta]) -> Graph {
    let mut scratch = DeltaScratch::new();
    let mut cur = g.clone();
    for d in deltas {
        let next = apply_delta(&cur, d, &mut scratch);
        scratch.recycle(std::mem::replace(&mut cur, next));
    }
    cur
}
