//! Parallel list ranking with √n sampling.
//!
//! The paper's exact scheme (§5): "For list ranking, we coarsen the base
//! cases by sampling √n nodes. We start from these nodes in parallel, with
//! each node sequentially following the pointers until it visits the next
//! sample. Then we compute the offsets of each sample by prefix sum, pass
//! the offsets to other nodes by chasing the pointers from the samples, and
//! scatter all nodes into a contiguous array."
//!
//! Works on a set of disjoint **circular** successor lists (one Euler
//! circuit per tree here; the core crate's query index ranks one circuit
//! through every tree of the block–cut forest, with each root's unused
//! slot as a one-node list). Each list must contain at least one
//! designated start node; ranks are positions relative to that start. With random sampling
//! the longest inter-sample segment is `O(√n log n)` w.h.p., which bounds
//! the span; total work is `O(n)`.

use fastbcc_primitives::par::par_for;
use fastbcc_primitives::rng::hash64_pair;
use fastbcc_primitives::slice::{reuse_uninit, UnsafeSlice};

/// Sentinel for "not a sample".
const NOT_SAMPLE: u32 = u32::MAX;

/// Reusable buffers for [`rank_circular_lists_in`]: the `O(n)` sample-id
/// array plus the `O(√n)` per-sample segment tables.
#[derive(Default)]
pub struct ListRankScratch {
    sample_of: Vec<u32>,
    is_start: Vec<bool>,
    samples: Vec<u32>,
    randoms: Vec<u32>,
    seg_len: Vec<u32>,
    next_sample: Vec<u32>,
    offset: Vec<u32>,
}

impl ListRankScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserve for lists totalling up to `n` nodes with up to `starts`
    /// designated start nodes. The random half of the sample set is
    /// binomial with mean `√n`, so its realized size varies run to run;
    /// reserving four times the mean (plus slack) pins the per-sample
    /// tables' capacity, keeping warm repeated solves allocation-free
    /// rather than growing on an unlucky draw.
    pub fn reserve(&mut self, n: usize, starts: usize) {
        let k = (starts + 4 * (n as f64).sqrt().ceil() as usize + 64).min(n + starts);
        self.sample_of.reserve(n);
        self.is_start.reserve(n);
        self.samples.reserve(k);
        self.randoms.reserve(k);
        self.seg_len.reserve(k);
        self.next_sample.reserve(k);
        self.offset.reserve(k);
    }

    /// Heap bytes currently reserved (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        4 * (self.sample_of.capacity()
            + self.samples.capacity()
            + self.randoms.capacity()
            + self.seg_len.capacity()
            + self.next_sample.capacity()
            + self.offset.capacity())
            + self.is_start.capacity()
    }
}

/// Rank the nodes of disjoint circular lists.
///
/// * `succ[i]` — successor of node `i`; every node lies on exactly one
///   circular list.
/// * `starts` — one designated start node per list (rank 0). Every circular
///   list must contain exactly one start.
///
/// Returns `rank[i]` = distance from its list's start to `i` along `succ`.
pub fn rank_circular_lists(succ: &[u32], starts: &[u32], seed: u64) -> Vec<u32> {
    let mut rank = Vec::new();
    let mut scratch = ListRankScratch::new();
    rank_circular_lists_in(succ, starts, seed, &mut rank, &mut scratch);
    rank
}

/// [`rank_circular_lists`] writing into a caller-owned rank buffer, with
/// all intermediates in `scratch` (the engine's repeated-solve path).
pub fn rank_circular_lists_in(
    succ: &[u32],
    starts: &[u32],
    seed: u64,
    rank_out: &mut Vec<u32>,
    scratch: &mut ListRankScratch,
) {
    let n = succ.len();
    // SAFETY: every node lies on exactly one sample segment, so pass 2
    // writes every slot.
    unsafe { reuse_uninit(rank_out, n) };
    if n == 0 {
        return;
    }
    let rank = rank_out;

    // --- choose samples: expected √n random nodes + every start ---------
    // sample_id[i] != NOT_SAMPLE marks node i as the sample with that index.
    let target = (n as f64).sqrt().ceil() as u64;
    let is_random_sample =
        |i: usize| -> bool { hash64_pair(seed, i as u64) % (n as u64).max(1) < target };
    let is_start = &mut scratch.is_start;
    is_start.clear();
    is_start.resize(n, false);
    for &s in starts {
        is_start[s as usize] = true;
    }
    let is_start = &*is_start;
    fastbcc_primitives::pack::pack_index_into(
        n,
        |i| !is_start[i] && is_random_sample(i),
        &mut scratch.randoms,
    );
    let samples = &mut scratch.samples;
    samples.clear();
    samples.reserve(starts.len() + scratch.randoms.len());
    samples.extend_from_slice(starts);
    samples.extend_from_slice(&scratch.randoms);
    let samples = &*samples;
    let k = samples.len();
    let sample_of = &mut scratch.sample_of;
    sample_of.clear();
    sample_of.resize(n, NOT_SAMPLE);
    {
        let view = UnsafeSlice::new(sample_of.as_mut_slice());
        // SAFETY: sample node ids are distinct, so the writes are disjoint.
        par_for(k, |si| unsafe {
            view.write(samples[si] as usize, si as u32)
        });
    }
    let sample_of = &*sample_of;

    // --- pass 1: walk each sample's segment, find next sample + length ---
    let seg_len = &mut scratch.seg_len;
    seg_len.clear();
    seg_len.resize(k, 0);
    let next_sample = &mut scratch.next_sample;
    next_sample.clear();
    next_sample.resize(k, 0);
    {
        let lens = UnsafeSlice::new(seg_len.as_mut_slice());
        let nexts = UnsafeSlice::new(next_sample.as_mut_slice());
        let sample_of_ref = &sample_of;
        par_for(k, |si| {
            let mut cur = succ[samples[si] as usize];
            let mut len = 1u32;
            while sample_of_ref[cur as usize] == NOT_SAMPLE {
                cur = succ[cur as usize];
                len += 1;
            }
            // SAFETY: slot si owned by this iteration.
            unsafe {
                lens.write(si, len);
                nexts.write(si, sample_of_ref[cur as usize]);
            }
        });
    }

    // --- sequential over samples: accumulate offsets per circuit --------
    // k = O(√n + #lists) so this pass is cheap; it also validates that each
    // start's circuit returns to itself.
    let seg_len = &*seg_len;
    let next_sample = &*next_sample;
    let offset = &mut scratch.offset;
    offset.clear();
    offset.resize(k, u32::MAX);
    for &s in starts {
        let s0 = sample_of[s as usize];
        let mut si = s0;
        let mut acc = 0u32;
        loop {
            debug_assert_eq!(offset[si as usize], u32::MAX, "two starts on one circuit");
            offset[si as usize] = acc;
            acc += seg_len[si as usize];
            si = next_sample[si as usize];
            if si == s0 {
                break;
            }
        }
    }

    // --- pass 2: re-walk segments, scattering final ranks ---------------
    let offset = &*offset;
    {
        let view = UnsafeSlice::new(rank.as_mut_slice());
        let sample_of_ref = &sample_of;
        par_for(k, |si| {
            let base = offset[si];
            debug_assert_ne!(base, u32::MAX, "sample on a circuit with no start");
            let mut cur = samples[si];
            let mut d = 0u32;
            loop {
                // SAFETY: every node belongs to exactly one sample segment.
                unsafe { view.write(cur as usize, base + d) };
                cur = succ[cur as usize];
                d += 1;
                if sample_of_ref[cur as usize] != NOT_SAMPLE {
                    break;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbcc_primitives::rng::Rng;

    /// Build one circular list visiting a given permutation order.
    fn circle_from_order(order: &[u32]) -> Vec<u32> {
        let n = order.len();
        let mut succ = vec![0u32; n];
        for i in 0..n {
            succ[order[i] as usize] = order[(i + 1) % n];
        }
        succ
    }

    #[test]
    fn single_circle_identity_order() {
        let n = 1000;
        let order: Vec<u32> = (0..n as u32).collect();
        let succ = circle_from_order(&order);
        let rank = rank_circular_lists(&succ, &[0], 1);
        for i in 0..n {
            assert_eq!(rank[i], i as u32);
        }
    }

    #[test]
    fn single_circle_random_order_random_start() {
        let mut r = Rng::new(7);
        for n in [1usize, 2, 3, 17, 1000, 40_000] {
            let mut order: Vec<u32> = (0..n as u32).collect();
            r.shuffle(&mut order);
            let succ = circle_from_order(&order);
            let start = order[r.index(n)];
            let rank = rank_circular_lists(&succ, &[start], r.next_u64());
            // Verify by walking.
            let mut cur = start;
            for d in 0..n as u32 {
                assert_eq!(rank[cur as usize], d, "n={n}");
                cur = succ[cur as usize];
            }
            assert_eq!(cur, start);
        }
    }

    #[test]
    fn multiple_disjoint_circles() {
        let mut r = Rng::new(13);
        // Three circles of different sizes over one id space.
        let sizes = [5usize, 1, 300];
        let n: usize = sizes.iter().sum();
        let mut succ = vec![0u32; n];
        let mut starts = Vec::new();
        let mut base = 0usize;
        for &sz in &sizes {
            let mut order: Vec<u32> = (base as u32..(base + sz) as u32).collect();
            r.shuffle(&mut order);
            for i in 0..sz {
                succ[order[i] as usize] = order[(i + 1) % sz];
            }
            starts.push(order[0]);
            base += sz;
        }
        let rank = rank_circular_lists(&succ, &starts, 3);
        for (ci, &s) in starts.iter().enumerate() {
            let mut cur = s;
            for d in 0..sizes[ci] as u32 {
                assert_eq!(rank[cur as usize], d, "circle {ci}");
                cur = succ[cur as usize];
            }
            assert_eq!(cur, s);
        }
    }

    #[test]
    fn empty_input() {
        let rank = rank_circular_lists(&[], &[], 0);
        assert!(rank.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let order: Vec<u32> = (0..777u32).rev().collect();
        let succ = circle_from_order(&order);
        let a = rank_circular_lists(&succ, &[5], 9);
        let b = rank_circular_lists(&succ, &[5], 9);
        assert_eq!(a, b);
    }
}
