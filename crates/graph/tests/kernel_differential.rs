//! Differential tests of the local-knowledge kernels against their reference
//! formulations: the distance-bucket lexicographic Dijkstra against the packed
//! heap run, the Dijkstra-certified `d_h` rows against the two-array
//! Bellman–Ford that defines `d_h`, and the skeleton tables built from them
//! against tables built with the Bellman–Ford alone. All inputs are seeded.

use hybrid_graph::delta::DeltaBatch;
use hybrid_graph::dijkstra::{dijkstra_lex, shortest_path_diameter, DijkstraWorkspace};
use hybrid_graph::generators::{cycle, erdos_renyi_connected, grid, path};
use hybrid_graph::limited::{hop_limited_distances, mark_within_hops, HopLimitedRows};
use hybrid_graph::skeleton::Skeleton;
use hybrid_graph::{Distance, Graph, GraphBuilder, NodeId, INFINITY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Heaviest weight the bucket queue accepts; scaling by one more pushes a
/// graph onto the packed heap.
const DIAL_MAX_WEIGHT: Distance = 64;

/// `g` with every edge reweighted uniformly in `[1, w_max]` (one edge pinned
/// to `w_max`, so the maximum weight is exactly `w_max`).
fn reweighted(g: &Graph, w_max: Distance, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(g.len());
    for (i, e) in g.edges().iter().enumerate() {
        let w = if i == 0 { w_max } else { rng.gen_range(1..=w_max) };
        b.add_edge(e.u, e.v, w).unwrap();
    }
    b.build().unwrap()
}

/// `g` with every weight multiplied by `scale`.
fn scaled(g: &Graph, scale: Distance) -> Graph {
    let mut b = GraphBuilder::new(g.len());
    for e in g.edges() {
        b.add_edge(e.u, e.v, e.w * scale).unwrap();
    }
    b.build().unwrap()
}

/// Three components: a 50-cycle with two chords, a 60-node random tree-like
/// path with shortcuts, and ten isolated nodes.
fn disconnected(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(120);
    for i in 0..50 {
        b.add_edge(NodeId::new(i), NodeId::new((i + 1) % 50), 1).unwrap();
    }
    b.add_edge(NodeId::new(0), NodeId::new(25), 1).unwrap();
    b.add_edge(NodeId::new(10), NodeId::new(40), 1).unwrap();
    for i in 51..110 {
        let parent = rng.gen_range(50..i);
        b.add_edge(NodeId::new(parent), NodeId::new(i), 1).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn bucketed_lex_rows_match_the_packed_heap() {
    for w_max in [1, 4, DIAL_MAX_WEIGHT] {
        let shapes = [
            ("cycle", reweighted(&cycle(301, 1).unwrap(), w_max, 3 + w_max)),
            ("disconnected", reweighted(&disconnected(5), w_max, 7 + w_max)),
            ("grid", reweighted(&grid(12, 13, 1).unwrap(), w_max, 11 + w_max)),
        ];
        for (name, light) in &shapes {
            assert_eq!(light.max_weight(), w_max);
            let scale = DIAL_MAX_WEIGHT + 1;
            let heavy = scaled(light, scale);
            assert!(heavy.max_weight() > DIAL_MAX_WEIGHT, "{name}: must take the heap");
            for s in light.nodes() {
                let (d_bucket, h_bucket) = dijkstra_lex(light, s);
                let (d_heap, h_heap) = dijkstra_lex(&heavy, s);
                for v in 0..light.len() {
                    let expect =
                        if d_bucket[v] == INFINITY { INFINITY } else { d_bucket[v] * scale };
                    assert_eq!(expect, d_heap[v], "{name} W={w_max}: dist {s}→{v}");
                    assert_eq!(h_bucket[v], h_heap[v], "{name} W={w_max}: hops {s}→{v}");
                }
            }
        }
    }
}

#[test]
fn certified_rows_match_the_bellman_ford() {
    let mut rng = StdRng::seed_from_u64(21);
    let graphs = [
        reweighted(&cycle(90, 1).unwrap(), 4, 1),
        erdos_renyi_connected(80, 0.06, 9, &mut rng).unwrap(),
        reweighted(&disconnected(8), 3, 2),
    ];
    for g in &graphs {
        let spd = g
            .nodes()
            .map(|s| {
                let (d, h) = dijkstra_lex(g, s);
                (0..g.len()).filter(|&v| d[v] != INFINITY).map(|v| h[v]).max().unwrap_or(0)
            })
            .max()
            .unwrap() as usize;
        let mut ws = DijkstraWorkspace::new();
        let mut row = vec![0; g.len()];
        for h in [0, 1, spd / 2, spd - 1, spd, spd + 7] {
            for s in g.nodes() {
                let bf = hop_limited_distances(g, s, h);
                let (d, hops) = dijkstra_lex(g, s);
                let fits = (0..g.len()).all(|v| d[v] == INFINITY || hops[v] as usize <= h);
                row.fill(7);
                assert_eq!(ws.dist_within_hops_into(g, s, h, &mut row), fits, "h={h} s={s}");
                if fits {
                    assert_eq!(row, bf, "certified row h={h} s={s}");
                } else {
                    assert!(row.iter().all(|&x| x == 7), "a rejected row is left alone");
                }
                let mut rows = HopLimitedRows::new();
                rows.row_into(g, s, h, &mut row);
                assert_eq!(row, bf, "builder row h={h} s={s}");
            }
        }
    }
}

/// The `d_h` table of `nodes` built with the Bellman–Ford alone.
fn bf_table(g: &Graph, nodes: &[NodeId], h: usize) -> Vec<Distance> {
    nodes.iter().flat_map(|&s| hop_limited_distances(g, s, h)).collect()
}

/// Asserts `sk` carries exactly the table `bf` and the skeleton graph it
/// defines (an edge iff the `d_h` entry is finite, weighted by it).
fn assert_matches_bf(g: &Graph, sk: &Skeleton, h: usize, what: &str) {
    let bf = bf_table(g, sk.nodes(), h);
    assert_eq!(sk.dh_flat(), &bf[..], "{what}: d_h table");
    let n = g.len();
    for (i, row) in bf.chunks_exact(n).enumerate() {
        for (j, &t) in sk.nodes().iter().enumerate() {
            if i == j {
                continue;
            }
            let expect = (row[t.index()] != INFINITY).then_some(row[t.index()]);
            assert_eq!(sk.graph().edge_weight(NodeId::new(i), NodeId::new(j)), expect, "{what}");
        }
    }
}

#[test]
fn skeleton_tables_match_a_bellman_ford_build() {
    // A small component first (rows there certify), then a long path (its
    // rows fail the certificate mid-build), so one build mixes both paths.
    let mut b = GraphBuilder::new(46);
    for i in 0..5 {
        b.add_edge(NodeId::new(i), NodeId::new(i + 1), 2).unwrap();
    }
    for i in 6..45 {
        b.add_edge(NodeId::new(i), NodeId::new(i + 1), 1 + (i as u64 % 3)).unwrap();
    }
    let mixed = b.build().unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let er = erdos_renyi_connected(70, 0.07, 6, &mut rng).unwrap();
    let cases: [(&Graph, Vec<usize>); 3] = [
        (&mixed, vec![0, 3, 10, 20, 30, 44]),
        (&er, (0..70).step_by(6).collect()),
        (&path(60, 1).unwrap(), (0..60).step_by(8).collect()),
    ];
    for (g, picks) in &cases {
        let nodes: Vec<NodeId> = picks.iter().map(|&v| NodeId::new(v)).collect();
        let spd = shortest_path_diameter(g);
        let spd = if spd == INFINITY { g.len() } else { spd as usize };
        for h in [0, 1, 6, spd, spd + 3] {
            let sk = Skeleton::from_nodes(g, nodes.clone(), h).unwrap();
            assert_matches_bf(g, &sk, h, &format!("from_nodes h={h}"));
            // Repair after one reweight, with a sound dirty mask, and with
            // every row dirty.
            let e = g.edges()[g.edges().len() / 2];
            let g2 = g.apply_delta(&DeltaBatch::new().reweight(e.u, e.v, e.w + 2)).unwrap();
            let mut dirty = mark_within_hops(g, &[e.u, e.v], h);
            for (slot, m) in dirty.iter_mut().zip(mark_within_hops(&g2, &[e.u, e.v], h)) {
                *slot |= m;
            }
            let (patched, _) = sk.repair(&g2, &dirty).unwrap();
            assert_matches_bf(&g2, &patched, h, &format!("repair h={h}"));
            let (full, rows) = sk.repair(&g2, &vec![true; g.len()]).unwrap();
            assert_eq!(rows, nodes.len());
            assert_matches_bf(&g2, &full, h, &format!("full repair h={h}"));
        }
    }
}
