//! Dijkstra's algorithm — the sequential ground truth for every distance the
//! distributed algorithms of the paper compute.
//!
//! Besides plain single-source shortest paths this module provides the
//! lexicographic `(distance, hops)` variant needed for the *shortest path diameter*
//! `SPD(G)` (the paper compares its SSSP algorithm against the `Õ(√SPD)` algorithm
//! of \[3\], so experiments need `SPD` as a workload parameter).
//!
//! # Hot path
//!
//! Multi-source consumers (reference APSP, eccentricities, `SPD(G)`, the
//! skeleton fallback of `hybrid-core`) run one Dijkstra per source. Two layers
//! make that fast:
//!
//! * [`DijkstraWorkspace`] — a reusable arena (recycled distance/hop/
//!   predecessor arrays, Dial buckets and binary heaps) that eliminates all
//!   per-run allocation. Reset is a bulk `fill` of the distance row: measured
//!   against an epoch-tagged visited array, the bulk reset wins because it keeps the
//!   per-edge relaxation free of an extra mark load and branch.
//! * [`par_map_rows`] / [`par_dist_rows`] / [`par_lex_rows_with`] — a
//!   multi-source driver that partitions the sources across OS threads
//!   (`std::thread::scope`; one workspace per worker) and writes rows straight
//!   into caller-provided flat buffers. Thread count follows
//!   `std::thread::available_parallelism`, overridable with the
//!   `HYBRID_DIJKSTRA_THREADS` environment variable. Outputs are exact
//!   distances, so results are bit-identical regardless of parallelism.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dist::{dist_add, Distance, INFINITY};
use crate::graph::Graph;
use crate::ids::NodeId;

/// Shortest-path distances (and predecessors) from one source.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Distance>,
    pred: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// The source of the computation.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// `d(source, v)`, or [`INFINITY`] if unreachable.
    pub fn dist(&self, v: NodeId) -> Distance {
        self.dist[v.index()]
    }

    /// The raw distance array indexed by node.
    pub fn as_slice(&self) -> &[Distance] {
        &self.dist
    }

    /// Predecessor of `v` on a shortest path from the source.
    pub fn predecessor(&self, v: NodeId) -> Option<NodeId> {
        self.pred[v.index()]
    }

    /// Reconstructs a shortest path `source -> v` (inclusive), if `v` is reachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[v.index()] == INFINITY {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.pred[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Largest finite distance from the source (weighted eccentricity).
    pub fn eccentricity(&self) -> Distance {
        self.dist.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0)
    }
}

/// Reusable state for repeated Dijkstra runs on graphs of (up to) a fixed
/// size: recycled distance/hop/predecessor arrays and a recycled heap — no
/// allocation per run. Predecessors are validated through the distance row
/// (`dist[v] == INFINITY` ⇒ `pred[v]` is stale), so only the touched arrays
/// are reset per run.
///
/// Two relaxations share the workspace: the plain distance-only run (SSSP
/// rows, eccentricities, truncated searches) and the lexicographic
/// `(distance, hops)` run (`dijkstra_lex`, `SPD`) — the hop tie-break is kept
/// out of the plain path because it forces extra equal-distance relaxations
/// on tie-heavy graphs.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<Distance>,
    hops: Vec<Distance>,
    pred: Vec<u32>,
    /// Heap for the plain run and the packed lexicographic run (compact
    /// 16-byte entries).
    heap: BinaryHeap<Reverse<(Distance, u32)>>,
    /// Heap for the unpacked lexicographic run (carries the hop count).
    heap_lex: BinaryHeap<Reverse<(Distance, Distance, u32)>>,
    /// Circular buckets for Dial's queue (runs on graphs with small maximum
    /// edge weight).
    buckets: Vec<Vec<u32>>,
}

/// Largest maximum edge weight for which both runs use Dial's bucket queue
/// (`W + 1` circular distance buckets, `O(m + D)`) instead of a binary heap.
const DIAL_MAX_WEIGHT: u64 = 64;

impl DijkstraWorkspace {
    /// Creates an empty workspace; arrays are sized lazily on first use.
    pub fn new() -> Self {
        DijkstraWorkspace::default()
    }

    /// Starts a new run: sizes the arrays for `n` nodes and resets the
    /// distance row (`hops` is reset by the lexicographic run only).
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.hops.resize(n, INFINITY);
            self.pred.resize(n, u32::MAX);
        }
        self.dist[..n].fill(INFINITY);
        self.heap.clear();
        self.heap_lex.clear();
    }

    /// Core plain run: distance-only Dijkstra from `source`, truncated at
    /// weighted radius `max_dist` ([`INFINITY`] for unbounded). Leaves `hops`
    /// untouched (consumers of the plain run never read it) — skipping the
    /// hop tie-break avoids the extra relaxations the lexicographic variant
    /// performs on tie-heavy graphs.
    fn run_plain(&mut self, g: &Graph, source: NodeId, max_dist: Distance) {
        if g.max_weight() <= DIAL_MAX_WEIGHT {
            self.run_dial::<false>(g, source, max_dist, INFINITY);
            return;
        }
        self.begin(g.len());
        let s = source.index();
        self.dist[s] = 0;
        self.pred[s] = u32::MAX;
        self.heap.push(Reverse((0, source.raw())));
        while let Some(Reverse((d, v_raw))) = self.heap.pop() {
            let v = v_raw as usize;
            if d > self.dist[v] {
                continue; // stale entry
            }
            for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                let nd = dist_add(d, w);
                if nd > max_dist {
                    continue;
                }
                let ui = u.index();
                if nd < self.dist[ui] {
                    self.dist[ui] = nd;
                    self.pred[ui] = v_raw;
                    self.heap.push(Reverse((nd, u.raw())));
                }
            }
        }
    }

    /// Dial's algorithm over `W + 1` circular distance buckets — `O(m + D)`
    /// and heap-free for the small integer weights every generator in this
    /// workspace produces. Stale bucket entries are skipped via the `dist`
    /// check; since `w ≥ 1`, a relaxation never lands in the bucket being
    /// drained.
    ///
    /// With `LEX` the run also keeps the minimum hop count over
    /// minimum-weight paths: an equal-distance relaxation with fewer hops
    /// rewrites `hops`/`pred` in place without a push. That is exact because
    /// every predecessor of a node on a minimum-weight path sits at a strictly
    /// smaller distance (`w ≥ 1`), so all of them are settled — and have
    /// relaxed — before the node's own bucket is drained: hops are final at
    /// pop. The lexicographic run stops and returns `false` at the first node
    /// it settles with more than `hop_cap` hops (buckets cleared for reuse);
    /// the plain run ignores `hop_cap` and always returns `true`.
    fn run_dial<const LEX: bool>(
        &mut self,
        g: &Graph,
        source: NodeId,
        max_dist: Distance,
        hop_cap: Distance,
    ) -> bool {
        let n = g.len();
        self.begin(n);
        let nb = g.max_weight() as usize + 1;
        if self.buckets.len() < nb {
            self.buckets.resize(nb, Vec::new());
        }
        let s = source.index();
        self.dist[s] = 0;
        self.pred[s] = u32::MAX;
        if LEX {
            self.hops[..n].fill(INFINITY);
            self.hops[s] = 0;
        }
        self.buckets[0].push(source.raw());
        let mut remaining = 1usize;
        let mut cur: Distance = 0;
        let mut cb = 0usize; // cur % nb, maintained incrementally
        while remaining > 0 {
            while let Some(v_raw) = self.buckets[cb].pop() {
                remaining -= 1;
                let v = v_raw as usize;
                if self.dist[v] != cur {
                    continue; // stale entry
                }
                let nh = if LEX {
                    if self.hops[v] > hop_cap {
                        for b in self.buckets[..nb].iter_mut() {
                            b.clear();
                        }
                        return false;
                    }
                    self.hops[v] + 1
                } else {
                    0
                };
                for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                    let nd = cur + w;
                    if nd > max_dist {
                        continue;
                    }
                    let ui = u.index();
                    if nd < self.dist[ui] {
                        self.dist[ui] = nd;
                        self.pred[ui] = v_raw;
                        if LEX {
                            self.hops[ui] = nh;
                        }
                        // nd - cur ≤ W < nb: one wrap suffices.
                        let mut target = cb + w as usize;
                        if target >= nb {
                            target -= nb;
                        }
                        self.buckets[target].push(u.raw());
                        remaining += 1;
                    } else if LEX && nd == self.dist[ui] && nh < self.hops[ui] {
                        self.hops[ui] = nh;
                        self.pred[ui] = v_raw;
                    }
                }
            }
            cur += 1;
            cb += 1;
            if cb == nb {
                cb = 0;
            }
        }
        true
    }

    /// The key factor `K` for the packed lexicographic run, if the graph's
    /// weights permit it: every *relaxation candidate* `key + w · K + 1` must
    /// stay below [`INFINITY`] without wrapping. Weights are ≥ 1, so paths are
    /// simple and `hops ≤ n − 1 < K = n`; the largest settled key is at most
    /// `(n − 1) · W · K + (n − 1)`, and one further relaxation adds at most
    /// `W · K + 1` — so the guard bounds `n · W · K + n`, the worst candidate,
    /// not just the worst settled key.
    fn lex_pack_factor(g: &Graph) -> Option<u64> {
        let n = g.len() as u64;
        if n < 2 {
            return Some(2);
        }
        let k = n;
        let max_cand_dist = n.checked_mul(g.max_weight())?;
        let max_cand_key = max_cand_dist.checked_mul(k)?.checked_add(n)?;
        (max_cand_key < INFINITY).then_some(k)
    }

    /// Core lexicographic run: `(dist, hops)` Dijkstra from `source`, leaving
    /// the rows in `self.dist` / `self.hops`. Returns `false` — rows
    /// incomplete — as soon as a node settles with more than `hop_cap` hops
    /// (hops are final at settlement on every path below), `true` otherwise.
    ///
    /// Three queues, by maximum weight `W`:
    /// * `W ≤` [`DIAL_MAX_WEIGHT`]: Dial over distance buckets with the hop
    ///   tie-break resolved in place ([`DijkstraWorkspace::run_dial`]).
    /// * larger `W`, whenever `n · W · n` fits below [`INFINITY`] (every
    ///   polynomially-weighted graph the paper considers): a plain heap over
    ///   the packed key `dist · K + hops` with `K = n > max hops` — key order
    ///   is exactly the lexicographic order, so it is a plain Dijkstra over
    ///   transformed weights `w · K + 1`; the keys are decoded at the end.
    /// * extreme weights: the two-key heap.
    fn run_lex(&mut self, g: &Graph, source: NodeId, hop_cap: Distance) -> bool {
        if g.max_weight() <= DIAL_MAX_WEIGHT {
            return self.run_dial::<true>(g, source, INFINITY, hop_cap);
        }
        let n = g.len();
        self.begin(n);
        let s = source.index();
        self.dist[s] = 0;
        self.pred[s] = u32::MAX;
        if let Some(k) = Self::lex_pack_factor(g) {
            self.heap.push(Reverse((0, source.raw())));
            while let Some(Reverse((key, v_raw))) = self.heap.pop() {
                let v = v_raw as usize;
                if key > self.dist[v] {
                    continue; // stale entry
                }
                if key % k > hop_cap {
                    return false;
                }
                for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                    let nk = key + w * k + 1;
                    let ui = u.index();
                    if nk < self.dist[ui] {
                        self.dist[ui] = nk;
                        self.pred[ui] = v_raw;
                        self.heap.push(Reverse((nk, u.raw())));
                    }
                }
            }
            for (d, h) in self.dist[..n].iter_mut().zip(&mut self.hops[..n]) {
                if *d == INFINITY {
                    *h = INFINITY;
                } else {
                    *h = *d % k;
                    *d /= k;
                }
            }
            return true;
        }
        self.hops[..n].fill(INFINITY);
        self.hops[s] = 0;
        self.heap_lex.push(Reverse((0, 0, source.raw())));
        while let Some(Reverse((d, h, v_raw))) = self.heap_lex.pop() {
            let v = v_raw as usize;
            if (d, h) > (self.dist[v], self.hops[v]) {
                continue; // stale entry
            }
            if h > hop_cap {
                return false;
            }
            for (u, w) in g.neighbors(NodeId::from(v_raw)) {
                let nd = dist_add(d, w);
                let nh = h + 1;
                let ui = u.index();
                if (nd, nh) < (self.dist[ui], self.hops[ui]) {
                    self.dist[ui] = nd;
                    self.hops[ui] = nh;
                    self.pred[ui] = v_raw;
                    self.heap_lex.push(Reverse((nd, nh, u.raw())));
                }
            }
        }
        true
    }

    /// Runs from `source` and writes the distance row into `out`
    /// (`out.len() == g.len()`; unreachable nodes get [`INFINITY`]).
    pub fn dist_into(&mut self, g: &Graph, source: NodeId, out: &mut [Distance]) {
        assert_eq!(out.len(), g.len(), "output row must have one slot per node");
        self.run_plain(g, source, INFINITY);
        out.copy_from_slice(&self.dist[..g.len()]);
    }

    /// Runs from `source` and writes both the distance and the minimum-hop
    /// rows (the [`dijkstra_lex`] relaxation) into `dist_out` / `hops_out`.
    pub fn lex_into(
        &mut self,
        g: &Graph,
        source: NodeId,
        dist_out: &mut [Distance],
        hops_out: &mut [Distance],
    ) {
        assert_eq!(dist_out.len(), g.len(), "output row must have one slot per node");
        assert_eq!(hops_out.len(), g.len(), "output row must have one slot per node");
        self.run_lex(g, source, INFINITY);
        dist_out.copy_from_slice(&self.dist[..g.len()]);
        hops_out.copy_from_slice(&self.hops[..g.len()]);
    }

    /// The `d_h` certificate: runs the lexicographic search from `source` and,
    /// if every reachable node has a minimum-weight path of at most `h` hops,
    /// writes the distance row into `out` and returns `true`. That row *is*
    /// `d_h(source, ·)`: a minimum-weight path that fits in `h` hops gives
    /// `d_h = d`, and unreachable nodes are [`INFINITY`] in both. Returns
    /// `false`, with `out` untouched, at the first node settled beyond `h`
    /// hops.
    pub fn dist_within_hops_into(
        &mut self,
        g: &Graph,
        source: NodeId,
        h: usize,
        out: &mut [Distance],
    ) -> bool {
        assert_eq!(out.len(), g.len(), "output row must have one slot per node");
        let cap = Distance::try_from(h).unwrap_or(INFINITY);
        if !self.run_lex(g, source, cap) {
            return false;
        }
        out.copy_from_slice(&self.dist[..g.len()]);
        true
    }

    /// Weighted eccentricity of `source` ([`INFINITY`] if `source` does not
    /// reach every node), without materializing a row.
    pub fn eccentricity(&mut self, g: &Graph, source: NodeId) -> Distance {
        self.run_plain(g, source, INFINITY);
        let mut ecc = 0;
        for &d in &self.dist[..g.len()] {
            if d == INFINITY {
                return INFINITY;
            }
            ecc = ecc.max(d);
        }
        ecc
    }

    fn extract(&self, g: &Graph, source: NodeId) -> ShortestPaths {
        let n = g.len();
        let dist = self.dist[..n].to_vec();
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        for v in 0..n {
            // `pred` entries are only meaningful where this run settled the
            // node; stale values from earlier runs hide behind INFINITY.
            if dist[v] != INFINITY && self.pred[v] != u32::MAX {
                pred[v] = Some(NodeId::from(self.pred[v]));
            }
        }
        ShortestPaths { source, dist, pred }
    }
}

/// Single-source shortest paths in `O((n + m) log n)`.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    let mut ws = DijkstraWorkspace::new();
    ws.run_plain(g, source, INFINITY);
    ws.extract(g, source)
}

/// Dijkstra truncated at weighted radius `max_dist`: nodes with `d(source, v) >
/// max_dist` keep [`INFINITY`].
pub fn dijkstra_within(g: &Graph, source: NodeId, max_dist: Distance) -> ShortestPaths {
    let mut ws = DijkstraWorkspace::new();
    ws.run_plain(g, source, max_dist);
    ws.extract(g, source)
}

/// Lexicographic shortest paths: minimizes `(w(P), |P|)`, i.e. among all shortest
/// paths prefers one with the fewest hops.
///
/// Returns `(dist, hops)` per node where `hops[v]` is the minimum hop count over all
/// minimum-weight `source`–`v` paths. `hops` is [`INFINITY`] iff `dist` is.
pub fn dijkstra_lex(g: &Graph, source: NodeId) -> (Vec<Distance>, Vec<Distance>) {
    let n = g.len();
    let mut dist = vec![INFINITY; n];
    let mut hops = vec![INFINITY; n];
    let mut ws = DijkstraWorkspace::new();
    ws.lex_into(g, source, &mut dist, &mut hops);
    (dist, hops)
}

/// Number of Dijkstra workers for a `k`-source batch: the smaller of the
/// available cores (or the `HYBRID_DIJKSTRA_THREADS` override) and `k`.
fn worker_count(k: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let configured = std::env::var("HYBRID_DIJKSTRA_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t > 0);
    configured.unwrap_or(hw).min(k).max(1)
}

/// Runs one lexicographic Dijkstra per source — in parallel across OS threads,
/// one reusable [`DijkstraWorkspace`] per worker — and maps each `(dist, hops)`
/// row pair through `f`, returning the results in source order.
///
/// `f` receives `(source index, source, dist row, hops row)`; the rows are
/// worker-local buffers overwritten by the next source, so `f` must extract
/// what it needs. Exact distances make the output independent of the thread
/// count.
pub fn par_map_rows<T, F>(g: &Graph, sources: &[NodeId], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, NodeId, &[Distance], &[Distance]) -> T + Sync,
{
    let n = g.len();
    let k = sources.len();
    if k == 0 {
        return Vec::new();
    }
    let threads = worker_count(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        let mut dist = vec![INFINITY; n];
        let mut hops = vec![INFINITY; n];
        return sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                ws.lex_into(g, s, &mut dist, &mut hops);
                f(i, s, &dist, &hops)
            })
            .collect();
    }
    let chunk = k.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .enumerate()
            .map(|(ci, srcs)| {
                scope.spawn(move || {
                    let mut ws = DijkstraWorkspace::new();
                    let mut dist = vec![INFINITY; n];
                    let mut hops = vec![INFINITY; n];
                    srcs.iter()
                        .enumerate()
                        .map(|(j, &s)| {
                            ws.lex_into(g, s, &mut dist, &mut hops);
                            f(ci * chunk + j, s, &dist, &hops)
                        })
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("dijkstra worker panicked")).collect()
    })
}

/// Runs one lexicographic Dijkstra per source in parallel, splitting `out`
/// into `sources.len()` rows of `g.len()` entries and invoking
/// `f(source index, source, dist row, hops row, out row)` to fill each one.
/// What `f` returns per row comes back in source order.
///
/// This is the direct-write driver behind the `hybrid-core` APSP assembly:
/// rows land in the final flat matrix without an intermediate copy.
pub fn par_lex_rows_with<T, F>(g: &Graph, sources: &[NodeId], out: &mut [Distance], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, NodeId, &[Distance], &[Distance], &mut [Distance]) -> T + Sync,
{
    let n = g.len();
    let k = sources.len();
    assert_eq!(out.len(), n * k, "output must hold one row per source");
    if k == 0 {
        return Vec::new();
    }
    let threads = worker_count(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        let mut dist = vec![INFINITY; n];
        let mut hops = vec![INFINITY; n];
        return sources
            .iter()
            .zip(out.chunks_mut(n))
            .enumerate()
            .map(|(i, (&s, row))| {
                ws.lex_into(g, s, &mut dist, &mut hops);
                f(i, s, &dist, &hops, row)
            })
            .collect();
    }
    let chunk = k.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .enumerate()
            .zip(out.chunks_mut(chunk * n))
            .map(|((ci, srcs), rows)| {
                scope.spawn(move || {
                    let mut ws = DijkstraWorkspace::new();
                    let mut dist = vec![INFINITY; n];
                    let mut hops = vec![INFINITY; n];
                    srcs.iter()
                        .zip(rows.chunks_mut(n))
                        .enumerate()
                        .map(|(j, (&s, row))| {
                            ws.lex_into(g, s, &mut dist, &mut hops);
                            f(ci * chunk + j, s, &dist, &hops, row)
                        })
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("dijkstra worker panicked")).collect()
    })
}

/// Fills `out` (row-major, one row of `g.len()` distances per source) with
/// exact single-source distances, one parallel Dijkstra per source.
///
/// Uses the plain (distance-only) relaxation — cheaper than the lexicographic
/// drivers on tie-heavy graphs since no equal-distance re-relaxations occur.
pub fn par_dist_rows(g: &Graph, sources: &[NodeId], out: &mut [Distance]) {
    let n = g.len();
    let k = sources.len();
    assert_eq!(out.len(), n * k, "output must hold one row per source");
    if k == 0 {
        return;
    }
    let threads = worker_count(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        for (&s, row) in sources.iter().zip(out.chunks_mut(n)) {
            ws.dist_into(g, s, row);
        }
        return;
    }
    let chunk = k.div_ceil(threads);
    std::thread::scope(|scope| {
        for (srcs, rows) in sources.chunks(chunk).zip(out.chunks_mut(chunk * n)) {
            scope.spawn(move || {
                let mut ws = DijkstraWorkspace::new();
                for (&s, row) in srcs.iter().zip(rows.chunks_mut(n)) {
                    ws.dist_into(g, s, row);
                }
            });
        }
    });
}

/// Like [`par_map_rows`] but with the plain (distance-only) relaxation: maps
/// each source's distance row through `f` without computing hop counts.
pub fn par_map_dist_rows<T, F>(g: &Graph, sources: &[NodeId], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, NodeId, &[Distance]) -> T + Sync,
{
    let n = g.len();
    let k = sources.len();
    if k == 0 {
        return Vec::new();
    }
    let threads = worker_count(k);
    if threads <= 1 {
        let mut ws = DijkstraWorkspace::new();
        let mut dist = vec![INFINITY; n];
        return sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                ws.dist_into(g, s, &mut dist);
                f(i, s, &dist)
            })
            .collect();
    }
    let chunk = k.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .enumerate()
            .map(|(ci, srcs)| {
                scope.spawn(move || {
                    let mut ws = DijkstraWorkspace::new();
                    let mut dist = vec![INFINITY; n];
                    srcs.iter()
                        .enumerate()
                        .map(|(j, &s)| {
                            ws.dist_into(g, s, &mut dist);
                            f(ci * chunk + j, s, &dist)
                        })
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("dijkstra worker panicked")).collect()
    })
}

/// The *shortest path diameter* `SPD(G)`: the maximum, over all pairs `u, v`, of the
/// minimum hop length of a minimum-weight `u`–`v` path.
///
/// For unweighted graphs `SPD(G) = D(G)`. Returns [`INFINITY`] for disconnected
/// graphs. Cost: `n` lexicographic Dijkstra runs, parallelized across cores.
pub fn shortest_path_diameter(g: &Graph) -> Distance {
    let sources: Vec<NodeId> = g.nodes().collect();
    let per_source = par_map_rows(g, &sources, |_, _, dist, hops| {
        let mut worst = 0;
        for v in 0..dist.len() {
            if dist[v] == INFINITY {
                return INFINITY; // disconnected: propagate
            }
            worst = worst.max(hops[v]);
        }
        worst
    });
    per_source.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, erdos_renyi_connected, grid, path, weighted_cycle_with_chord};
    use crate::graph::GraphBuilder;
    use rand::SeedableRng;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3   and   0 -3- 2 -3- 3 ; plus heavy direct edge 0-3.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(3), 1).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(2), 3).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3), 3).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(3), 10).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn picks_light_path() {
        let g = diamond();
        let sp = dijkstra(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(3)), 2);
        assert_eq!(
            sp.path_to(NodeId::new(3)).unwrap(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        let g = b.build().unwrap();
        let sp = dijkstra(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(2)), INFINITY);
        assert!(sp.path_to(NodeId::new(2)).is_none());
    }

    #[test]
    fn truncated_respects_radius() {
        let g = path(6, 2).unwrap(); // weights 2, distances 0,2,4,...
        let sp = dijkstra_within(&g, NodeId::new(0), 5);
        assert_eq!(sp.dist(NodeId::new(2)), 4);
        assert_eq!(sp.dist(NodeId::new(3)), INFINITY);
    }

    #[test]
    fn lex_prefers_fewer_hops() {
        // Two shortest paths of weight 4: 0-1-2-3 (3 hops) and the direct edge.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3), 2).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(3), 4).unwrap();
        let g = b.build().unwrap();
        let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
        assert_eq!(dist[3], 4);
        assert_eq!(hops[3], 1); // prefers the direct edge
    }

    #[test]
    fn spd_exceeds_diameter_on_weighted_cycle() {
        // A cycle with a heavy chord: shortest paths go the long way around, so SPD
        // is much larger than the hop diameter.
        let g = weighted_cycle_with_chord(12, 1, 100).unwrap();
        let spd = shortest_path_diameter(&g);
        assert!(spd >= 6, "spd = {spd}");
    }

    #[test]
    fn spd_equals_diameter_unweighted() {
        let g = path(7, 1).unwrap();
        assert_eq!(shortest_path_diameter(&g), 6);
    }

    #[test]
    fn spd_disconnected_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(shortest_path_diameter(&g), INFINITY);
    }

    #[test]
    fn eccentricity_on_path() {
        let g = path(5, 3).unwrap();
        assert_eq!(dijkstra(&g, NodeId::new(0)).eccentricity(), 12);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // One workspace across many sources (and two graphs of different
        // sizes) must reproduce fresh per-source runs exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let big = erdos_renyi_connected(60, 0.08, 7, &mut rng).unwrap();
        let small = grid(4, 4, 2).unwrap();
        let mut ws = DijkstraWorkspace::new();
        for g in [&big, &small, &big] {
            let n = g.len();
            let mut dist = vec![0; n];
            let mut hops = vec![0; n];
            for v in g.nodes() {
                ws.lex_into(g, v, &mut dist, &mut hops);
                let (fresh_d, fresh_h) = dijkstra_lex(g, v);
                assert_eq!(dist, fresh_d, "dist from {v}");
                assert_eq!(hops, fresh_h, "hops from {v}");
                assert_eq!(ws.eccentricity(g, v), dijkstra(g, v).eccentricity());
            }
        }
    }

    #[test]
    fn par_rows_match_sequential_dijkstra() {
        // Driver equivalence on the three workload families named by the
        // acceptance criteria: seeded Erdős–Rényi, grid, and path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let families = vec![
            erdos_renyi_connected(72, 0.07, 9, &mut rng).unwrap(),
            grid(8, 7, 3).unwrap(),
            path(50, 2).unwrap(),
        ];
        for g in &families {
            let n = g.len();
            let sources: Vec<NodeId> = g.nodes().collect();
            let mut rows = vec![0; n * n];
            par_dist_rows(g, &sources, &mut rows);
            let mapped =
                par_map_rows(g, &sources, |_, _, dist, hops| (dist.to_vec(), hops.to_vec()));
            for (i, &s) in sources.iter().enumerate() {
                let (exact_d, exact_h) = dijkstra_lex(g, s);
                assert_eq!(&rows[i * n..(i + 1) * n], &exact_d[..], "row {s}");
                assert_eq!(mapped[i].0, exact_d, "mapped dist {s}");
                assert_eq!(mapped[i].1, exact_h, "mapped hops {s}");
            }
        }
    }

    #[test]
    fn lex_fallback_on_huge_weights_matches_packed_semantics() {
        // Weights near u64::MAX/2 make the packed key overflow, forcing the
        // general two-key loop; the lexicographic contract must be identical.
        let big = u64::MAX / 4;
        {
            // Boundary audit: a graph whose worst *settled* key fits but whose
            // worst relaxation candidate would wrap must be rejected too.
            let n = 16u64;
            // In the window where the worst settled key (240·w) fits but the
            // worst relaxation candidate (256·w) wraps:
            let w = u64::MAX / 250;
            let mut b = GraphBuilder::new(n as usize);
            for i in 0..(n as usize - 1) {
                b.add_edge(NodeId::new(i), NodeId::new(i + 1), w).unwrap();
            }
            let g = b.build().unwrap();
            assert!(
                DijkstraWorkspace::lex_pack_factor(&g).is_none(),
                "candidate-overflow graphs must use the fallback"
            );
            // And the fallback still computes correct saturating distances.
            let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
            assert_eq!(dist[1], w);
            assert_eq!(hops[15], 15);
        }
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), big).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(2), big + 1).unwrap(); // same total, 1 hop
        let g = b.build().unwrap();
        assert!(DijkstraWorkspace::lex_pack_factor(&g).is_none(), "must take the fallback");
        let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
        assert_eq!(dist[2], big + 1);
        assert_eq!(hops[2], 1, "lex prefers the 1-hop path of equal weight");
        assert_eq!(dist[3], INFINITY);
        assert_eq!(hops[3], INFINITY);
    }

    #[test]
    fn heap_path_matches_dial_path() {
        // The same graph shape with weights just beyond the Dial threshold
        // must produce identical distances via the binary-heap plain run.
        let scale = super::DIAL_MAX_WEIGHT + 1; // pushes max weight past Dial
        let small = path(12, 3).unwrap();
        let mut b = GraphBuilder::new(12);
        for e in small.edges() {
            b.add_edge(e.u, e.v, e.w * scale).unwrap();
        }
        let heavy = b.build().unwrap();
        for v in small.nodes() {
            let d_small = dijkstra(&small, v);
            let d_heavy = dijkstra(&heavy, v);
            for u in small.nodes() {
                assert_eq!(d_small.dist(u) * scale, d_heavy.dist(u));
            }
        }
    }

    #[test]
    fn lex_dial_matches_heap_packed_path() {
        // Same topology, weights scaled past the Dial bound: the packed heap
        // run must agree with the bucketed run up to the uniform weight
        // scale (identical hop tie-breaks, scaled distances).
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let small = erdos_renyi_connected(40, 0.12, 8, &mut rng).unwrap();
        let scale = super::DIAL_MAX_WEIGHT + 1;
        let mut b = GraphBuilder::new(small.len());
        for e in small.edges() {
            b.add_edge(e.u, e.v, e.w * scale).unwrap();
        }
        let heavy = b.build().unwrap();
        assert!(heavy.max_weight() > super::DIAL_MAX_WEIGHT, "heavy graph must take the heap");
        assert!(DijkstraWorkspace::lex_pack_factor(&heavy).is_some(), "still packable");
        for v in small.nodes() {
            let (d_small, h_small) = dijkstra_lex(&small, v);
            let (d_heavy, h_heavy) = dijkstra_lex(&heavy, v);
            for u in small.nodes() {
                assert_eq!(d_small[u.index()] * scale, d_heavy[u.index()]);
                assert_eq!(h_small[u.index()], h_heavy[u.index()]);
            }
        }
    }

    #[test]
    fn lex_dial_on_high_diameter_cycle() {
        // A long unit cycle: the distance buckets sweep only the weighted
        // eccentricity (n/2), and the closed-form cycle distances pin it.
        let n = 2000usize;
        let g = cycle(n, 1).unwrap();
        let (dist, hops) = dijkstra_lex(&g, NodeId::new(0));
        for v in [1usize, 7, n / 2, n - 3] {
            let expect = v.min(n - v) as u64;
            assert_eq!(dist[v], expect, "node {v}");
            assert_eq!(hops[v], expect, "node {v}");
        }
    }

    #[test]
    fn hop_cap_certificate_stops_beyond_h() {
        // Path 0–1–…–9: node 0 reaches node 9 in 9 hops, so the certificate
        // holds for h ≥ 9 and fails below, on every queue.
        for w in [1, super::DIAL_MAX_WEIGHT + 1] {
            let g = path(10, w).unwrap();
            let mut ws = DijkstraWorkspace::new();
            let mut row = vec![7; 10];
            assert!(!ws.dist_within_hops_into(&g, NodeId::new(0), 8, &mut row));
            assert_eq!(row, vec![7; 10], "a failed certificate leaves the row alone");
            assert!(ws.dist_within_hops_into(&g, NodeId::new(0), 9, &mut row));
            assert_eq!(row, dijkstra(&g, NodeId::new(0)).as_slice());
            assert!(ws.dist_within_hops_into(&g, NodeId::new(5), 5, &mut row));
        }
    }

    #[test]
    fn par_map_rows_preserves_source_order() {
        let g = path(20, 1).unwrap();
        let sources: Vec<NodeId> = vec![NodeId::new(3), NodeId::new(17), NodeId::new(0)];
        let ids = par_map_rows(&g, &sources, |i, s, _, _| (i, s));
        assert_eq!(ids, vec![(0, NodeId::new(3)), (1, NodeId::new(17)), (2, NodeId::new(0))]);
    }

    #[test]
    fn par_rows_empty_sources() {
        let g = path(5, 1).unwrap();
        let mut out: Vec<Distance> = Vec::new();
        par_dist_rows(&g, &[], &mut out);
        assert!(par_map_rows(&g, &[], |_, _, _, _| 0u8).is_empty());
    }
}
