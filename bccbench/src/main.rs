//! FAST-BCC benchmark: one closed-loop client drives a workload through the
//! operator's path (snapshot load → service start → warm solves → query
//! batches → deltas) and prints its metrics.
//!
//! ```text
//! fastbcc-perfbench --workload <chain|social|road_churn> --seed <n>
//!                   --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run giving per-layer metrics and a
//! span file. The last stdout line is the result JSON; the line before it
//! repeats every metric with its sample count.

mod check;
mod e2e;
mod oracle;
mod stats;
mod trace;
mod traced;
mod workload;

use fast_bcc::core::query::{Query, QueryAnswer};
use fast_bcc::graph::{save_snapshot, Graph, GraphDelta};
use stats::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Queries per batch: the service's default admission batch.
pub const BATCH: usize = 4096;
/// Distinct query batches cycled through by the query phases.
const BATCH_POOL: usize = 64;
/// Queries per batch copied aside for the oracle check.
pub const SAMPLE: usize = 32;
/// Deltas generated per run; a run applies a prefix of them.
const MAX_DELTAS: usize = 64;

/// Everything a run needs, generated from the seed before any timing.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub g: Graph,
    pub deltas: Vec<GraphDelta>,
    pub batches: Vec<Vec<Query>>,
    pub snapshot: PathBuf,
    pub out_dir: PathBuf,
}

/// Operation counts for the result line: solves, published versions and
/// queries attempted, and how many of them were wrong or refused.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Queries and answers copied out of served batches for the oracle.
#[derive(Default)]
pub struct Sampled {
    pub queries: Vec<Query>,
    pub answers: Vec<QueryAnswer>,
}

impl Sampled {
    pub fn keep(&mut self, queries: &[Query], answers: &[QueryAnswer]) {
        let k = SAMPLE.min(queries.len());
        self.queries.extend_from_slice(&queries[..k]);
        self.answers.extend_from_slice(&answers[..k]);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's snapshot file however the run ends.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Where snapshots and span files go: `out/` in this package's directory
/// (`cargo run` names it; a binary started by hand from the repository
/// root finds it at `bccbench/`).
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("bccbench"), PathBuf::from)
        .join("out")
}

fn generate(a: &Args, threads: usize, out_dir: &Path) -> std::io::Result<Inputs> {
    let t0 = std::time::Instant::now();
    let g = a.workload.graph(a.seed);
    let deltas = workload::delta_stream(&g, workload::CHURN, MAX_DELTAS, a.seed);
    let batches = workload::query_batches(g.n(), BATCH, BATCH_POOL, a.seed);
    std::fs::create_dir_all(out_dir)?;
    let snapshot = out_dir.join(format!(
        "{}-{}-{}.snap",
        a.workload.name(),
        a.seed,
        std::process::id()
    ));
    save_snapshot(&g, &snapshot)?;
    eprintln!(
        "{}: n={} m={} graph={:016x} deltas={:016x} ({} per delta) generated in {:.2}s",
        a.workload.name(),
        g.n(),
        g.m_undirected(),
        workload::graph_fingerprint(&g),
        workload::delta_fingerprint(&deltas),
        deltas[0].dels.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(Inputs {
        workload: a.workload,
        seed: a.seed,
        seconds: a.seconds,
        threads,
        g,
        deltas,
        batches,
        snapshot,
        out_dir: out_dir.to_path_buf(),
    })
}

/// Pin glibc's mmap threshold at its initial 128 KiB. By default the first
/// free of an mmap'd block raises the threshold, so after the first round
/// tears its service down, later rounds' large buffers land on the heap at
/// history-dependent offsets; query rates of identical runs then split
/// into two modes 25% apart. Pinned, every large buffer of every round is
/// mmap'd, as in a fresh process, so `setup_s` and `update_lag_s` include
/// the page faults of freshly mapped buffers.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only retunes the allocator and is called before
    // any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) refused");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <chain|social|road_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    pin_mmap_threshold();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let dir = out_dir();
    let inputs =
        match fast_bcc::primitives::with_threads(threads, || generate(&args, threads, &dir)) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("error: writing inputs under {}: {e}", dir.display());
                return ExitCode::from(1);
            }
        };
    let _cleanup = Cleanup(inputs.snapshot.clone());
    let (workload, seed, trace) = (args.workload.name(), args.seed, args.trace);
    let result: std::io::Result<(Report, Ops)> =
        fast_bcc::primitives::with_threads(threads, move || {
            if trace {
                traced::run(&inputs)
            } else {
                e2e::run(&inputs)
            }
        });
    match result {
        Ok((report, ops)) => {
            println!("{}", report.detail_json(workload, seed, trace));
            println!("{}", report.result_json(ops.attempted, ops.failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
