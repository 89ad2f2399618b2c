//! Breadth-first search: hop distances `hop(u, v)` and the unweighted diameter
//! `D(G) = max_{u,v} hop(u, v)` (§1.3 of the paper).

use std::collections::VecDeque;

use crate::dist::{Distance, INFINITY};
use crate::graph::Graph;
use crate::ids::NodeId;

/// Hop distances from a single source, as produced by [`bfs`].
#[derive(Debug, Clone)]
pub struct HopDistances {
    source: NodeId,
    dist: Vec<Distance>,
}

impl HopDistances {
    /// The source the search started from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// `hop(source, v)`, or [`INFINITY`] if unreachable.
    pub fn dist(&self, v: NodeId) -> Distance {
        self.dist[v.index()]
    }

    /// The raw distance array indexed by node.
    pub fn as_slice(&self) -> &[Distance] {
        &self.dist
    }

    /// Largest finite hop distance from the source (its eccentricity).
    pub fn eccentricity(&self) -> Distance {
        self.dist.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0)
    }
}

/// Computes hop distances from `source` by BFS in `O(n + m)`.
pub fn bfs(g: &Graph, source: NodeId) -> HopDistances {
    let mut dist = vec![INFINITY; g.len()];
    dist[source.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for (u, _) in g.neighbors(v) {
            if dist[u.index()] == INFINITY {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    HopDistances { source, dist }
}

/// Computes hop distances from `source`, exploring only up to `max_hops`.
///
/// Nodes farther than `max_hops` hops keep distance [`INFINITY`]. Used to model the
/// paper's local explorations "to depth d" without touching the rest of the graph.
pub fn bfs_limited(g: &Graph, source: NodeId, max_hops: usize) -> HopDistances {
    let mut dist = vec![INFINITY; g.len()];
    dist[source.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        if dv as usize >= max_hops {
            continue;
        }
        for (u, _) in g.neighbors(v) {
            if dist[u.index()] == INFINITY {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    HopDistances { source, dist }
}

/// Multi-source BFS: for every node, the hop distance to the closest source and that
/// source's identity (ties broken towards the smaller source ID — the paper's
/// "break ties arbitrarily" made deterministic).
///
/// Returns `(closest_source, hop_distance)` per node; unreachable nodes map to
/// `(None, INFINITY)`.
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> Vec<(Option<NodeId>, Distance)> {
    let mut dist = vec![INFINITY; g.len()];
    let mut owner: Vec<Option<NodeId>> = vec![None; g.len()];
    let mut queue = VecDeque::new();
    let mut sorted = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &s in &sorted {
        dist[s.index()] = 0;
        owner[s.index()] = Some(s);
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        let ov = owner[v.index()];
        for (u, _) in g.neighbors(v) {
            if dist[u.index()] == INFINITY {
                dist[u.index()] = dv + 1;
                owner[u.index()] = ov;
                queue.push_back(u);
            }
        }
    }
    owner.into_iter().zip(dist).collect()
}

/// The unweighted diameter `D(G) = max_{u,v} hop(u, v)` via `n` BFS runs.
///
/// Returns [`INFINITY`] for disconnected graphs.
pub fn unweighted_diameter(g: &Graph) -> Distance {
    let mut best = 0;
    for v in g.nodes() {
        let d = bfs(g, v);
        for u in g.nodes() {
            let duv = d.dist(u);
            if duv == INFINITY {
                return INFINITY;
            }
            best = best.max(duv);
        }
    }
    best
}

/// Largest hop distance observed from `v` within its `r`-hop neighborhood — the
/// paper's `h_v := max_{w ∈ N_{r}(v)} hop(v, w)` used in Algorithm 9. One
/// truncated BFS; [`local_max_hops`] computes the same value for every node
/// at once.
pub fn local_max_hop(g: &Graph, v: NodeId, r: usize) -> Distance {
    let d = bfs_limited(g, v, r);
    d.eccentricity()
}

/// [`local_max_hop`]`(g, v, r)` for every node `v`, indexed by node.
///
/// A bit-parallel multi-source BFS (MS-BFS, Then et al., PVLDB 2014): the
/// sources run in batches of 64, one bit of a `u64` word per source, so one
/// frontier scan of a node advances every search of the batch that reached it.
/// Each level expands only the frontier list (the nodes some search reached
/// at the previous level), and a batch stops after `r` levels or once every
/// search in it has run out of nodes. `h_v` is the last level at which
/// `v`'s search reached a new node.
pub fn local_max_hops(g: &Graph, r: usize) -> Vec<Distance> {
    let n = g.len();
    let mut out = vec![0; n];
    let mut seen = vec![0u64; n];
    let mut visit = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut frontier: Vec<u32> = Vec::new();
    let mut next_frontier: Vec<u32> = Vec::new();
    for base in (0..n).step_by(64) {
        let batch = (n - base).min(64);
        seen.fill(0);
        frontier.clear();
        for i in 0..batch {
            seen[base + i] = 1 << i;
            visit[base + i] = 1 << i;
            frontier.push((base + i) as u32);
        }
        let mut level = 0;
        while level < r && !frontier.is_empty() {
            level += 1;
            for &v in &frontier {
                let word = visit[v as usize];
                for (u, _) in g.neighbors(NodeId::from(v)) {
                    let ui = u.index();
                    let fresh = word & !seen[ui];
                    if fresh != 0 {
                        if next[ui] == 0 {
                            next_frontier.push(u.raw());
                        }
                        next[ui] |= fresh;
                    }
                }
            }
            let mut reached = 0u64;
            for &u in &next_frontier {
                seen[u as usize] |= next[u as usize];
                reached |= next[u as usize];
            }
            while reached != 0 {
                out[base + reached.trailing_zeros() as usize] = level as Distance;
                reached &= reached - 1;
            }
            for &v in &frontier {
                visit[v as usize] = 0;
            }
            std::mem::swap(&mut visit, &mut next);
            std::mem::swap(&mut frontier, &mut next_frontier);
            next_frontier.clear();
        }
        for &v in &frontier {
            visit[v as usize] = 0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, path};
    use crate::graph::GraphBuilder;

    #[test]
    fn bfs_on_path() {
        let g = path(5, 1).unwrap();
        let d = bfs(&g, NodeId::new(0));
        for i in 0..5 {
            assert_eq!(d.dist(NodeId::new(i)), i as u64);
        }
        assert_eq!(d.eccentricity(), 4);
    }

    #[test]
    fn bfs_ignores_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1), 100).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2), 100).unwrap();
        let g = b.build().unwrap();
        assert_eq!(bfs(&g, NodeId::new(0)).dist(NodeId::new(2)), 2);
    }

    #[test]
    fn bfs_limited_truncates() {
        let g = path(10, 1).unwrap();
        let d = bfs_limited(&g, NodeId::new(0), 3);
        assert_eq!(d.dist(NodeId::new(3)), 3);
        assert_eq!(d.dist(NodeId::new(4)), INFINITY);
    }

    #[test]
    fn multi_source_assigns_closest() {
        let g = path(7, 1).unwrap();
        let res = multi_source_bfs(&g, &[NodeId::new(0), NodeId::new(6)]);
        assert_eq!(res[1], (Some(NodeId::new(0)), 1));
        assert_eq!(res[5], (Some(NodeId::new(6)), 1));
        // Midpoint ties towards smaller source id.
        assert_eq!(res[3], (Some(NodeId::new(0)), 3));
    }

    #[test]
    fn diameter_of_cycle() {
        let g = cycle(8, 1).unwrap();
        assert_eq!(unweighted_diameter(&g), 4);
    }

    #[test]
    fn diameter_disconnected_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(unweighted_diameter(&g), INFINITY);
    }

    #[test]
    fn local_max_hop_on_path() {
        let g = path(10, 1).unwrap();
        assert_eq!(local_max_hop(&g, NodeId::new(0), 4), 4);
        assert_eq!(local_max_hop(&g, NodeId::new(5), 3), 3);
        assert_eq!(local_max_hop(&g, NodeId::new(0), 100), 9);
        assert_eq!(local_max_hops(&g, 4)[0], 4);
        assert_eq!(local_max_hops(&g, 3)[5], 3);
        assert_eq!(local_max_hops(&g, 100)[0], 9);
    }
}
