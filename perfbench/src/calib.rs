//! Host-speed reference: a fixed computation the workloads time between
//! requests, off the clock, so that every end-to-end timing can be scaled
//! to one reference host speed.
//!
//! The benchmark runs on a few cores of a shared machine whose speed
//! drifts by 10–30% over tens of seconds. The drift slows every part of
//! the program together, and this reference with it: over the 10-second
//! windows of a 120-second `cold-e2` run on a 2-core host, the mean request
//! latency spread 0.09 (interquartile range over median) and its ratio to
//! the reference time 0.024. Scaling by the reference therefore removes the machine's drift and keeps
//! the program's own cost. The reference is this file's own code and calls
//! nothing in the repository, so a change to the program moves the scaled
//! timings and never the reference. It mixes the program's two kinds of
//! work: Dijkstra from a fixed set of sources on a fixed random graph
//! (cache-resident, branchy) and a min-plus product into a freshly
//! allocated n × n matrix (memory-bound). Either part alone tracks the
//! program less closely than the two together.
//!
//! The reference runs on as many threads at once as the workload has
//! clients, because the host slows one busy core and two busy cores
//! differently: over eight 20-second `serve-churn` runs (two clients), the
//! unscaled throughput correlated −0.88 with the two-thread reference time
//! and 0.11 with the one-thread one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::stats::median;

/// Reference time, ms, of the host every end-to-end timing is scaled to
/// (about what the reference takes on the 2-core host the bounds were set
/// on).
pub const REF_NOMINAL_MS: f64 = 35.0;
/// Nodes of the reference graph, and rows and columns of the min-plus
/// product.
const REF_NODES: usize = 800;
/// Inner dimension of the min-plus product.
const REF_INNER: usize = 24;
/// Edges drawn per node (each stored in both directions).
const REF_EDGES_PER_NODE: usize = 5;
/// Dijkstra sources per sample.
const REF_SOURCES: usize = 100;
/// Least time between two samples of [`RefClock::tick`], s.
const SAMPLE_EVERY_S: f64 = 1.0;

/// The reference computation and its samples.
#[derive(Debug)]
pub struct RefClock {
    /// Copies of the reference run at once, one per thread.
    threads: usize,
    /// CSR offsets into `adj`.
    off: Vec<usize>,
    /// `(neighbour, weight)` lists.
    adj: Vec<(u32, u64)>,
    /// Min-plus factors, `REF_NODES × REF_INNER` and `REF_INNER × REF_NODES`.
    left: Vec<u64>,
    right: Vec<u64>,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl RefClock {
    /// Builds the fixed reference inputs (the same on every run); each
    /// sample runs `threads` copies of the reference at once.
    pub fn new(threads: usize) -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut lists: Vec<Vec<(u32, u64)>> = vec![Vec::new(); REF_NODES];
        for u in 0..REF_NODES {
            for _ in 0..REF_EDGES_PER_NODE {
                let v = (next() % REF_NODES as u64) as usize;
                if v != u {
                    let w = 1 + next() % 100;
                    lists[u].push((v as u32, w));
                    lists[v].push((u as u32, w));
                }
            }
        }
        let mut off = vec![0];
        let mut adj = Vec::new();
        for l in &lists {
            adj.extend_from_slice(l);
            off.push(adj.len());
        }
        let left = (0..REF_NODES * REF_INNER).map(|_| next() % 1000).collect();
        let right = (0..REF_INNER * REF_NODES).map(|_| next() % 1000).collect();
        RefClock { threads, off, adj, left, right, samples_ms: Vec::new(), last: None }
    }

    /// Times one run of the reference on each of the threads, all at once
    /// (until the last finishes).
    pub fn sample(&mut self) {
        let start = Instant::now();
        let checksum = std::thread::scope(|s| {
            let copies: Vec<_> = (0..self.threads)
                .map(|_| s.spawn(|| self.dijkstra_rows() ^ self.min_plus()))
                .collect();
            copies.into_iter().map(|c| c.join().expect("reference thread")).fold(0, |a, c| a ^ c)
        });
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
        std::hint::black_box(checksum);
    }

    /// Times the reference when [`SAMPLE_EVERY_S`] has passed since the last
    /// sample (or there is none yet).
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= SAMPLE_EVERY_S) {
            self.sample();
        }
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median reference time of the run, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Factor that scales a duration measured in this run to the reference
    /// host: [`REF_NOMINAL_MS`] over the run's median reference time.
    pub fn scale(&self) -> f64 {
        REF_NOMINAL_MS / self.median_ms()
    }

    /// Dijkstra from the first [`REF_SOURCES`] nodes into one flat distance
    /// table; returns a checksum so the work cannot be optimised away.
    fn dijkstra_rows(&self) -> u64 {
        let n = REF_NODES;
        let mut dist = vec![u64::MAX; n * REF_SOURCES];
        let mut heap = BinaryHeap::new();
        let mut checksum = 0u64;
        for (s, row) in dist.chunks_mut(n).enumerate() {
            row[s] = 0;
            heap.push(Reverse((0u64, s as u32)));
            while let Some(Reverse((d, u))) = heap.pop() {
                let u = u as usize;
                if d > row[u] {
                    continue;
                }
                for &(v, w) in &self.adj[self.off[u]..self.off[u + 1]] {
                    let nd = d + w;
                    if nd < row[v as usize] {
                        row[v as usize] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            checksum = row.iter().filter(|&&d| d != u64::MAX).fold(checksum, |a, &d| a ^ d);
        }
        checksum
    }

    /// `left ⊗ right` in the (min, +) semiring into a fresh matrix; returns
    /// a checksum.
    fn min_plus(&self) -> u64 {
        let n = REF_NODES;
        let mut out = vec![u64::MAX; n * n];
        for (i, row) in out.chunks_mut(n).enumerate() {
            for t in 0..REF_INNER {
                let a = self.left[i * REF_INNER + t];
                for (o, &b) in row.iter_mut().zip(&self.right[t * n..(t + 1) * n]) {
                    *o = (*o).min(a + b);
                }
            }
        }
        out.iter().fold(0, |acc, &v| acc ^ v)
    }
}
