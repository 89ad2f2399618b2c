//! CLIQUE diameter algorithms (plugins for Theorem 5.1).

use hybrid_graph::apsp::weighted_diameter;
use hybrid_graph::{Distance, Graph, NodeId, INFINITY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::net::{CliqueError, CliqueMsg, CliqueNet};
use crate::semiring::SemiringApsp;
use crate::traits::{Beta, CliqueDiameterAlgorithm};

/// Exact weighted diameter by running [`SemiringApsp`] and max-aggregating the
/// per-node eccentricities in one extra clique round (`α = 1`, `β = 0`,
/// `δ = 1/3`).
#[derive(Debug, Clone, Default)]
pub struct ExactDiameter;

impl ExactDiameter {
    /// Creates the algorithm.
    pub fn new() -> Self {
        ExactDiameter
    }
}

impl CliqueDiameterAlgorithm for ExactDiameter {
    fn name(&self) -> &'static str {
        "exact-diameter-via-semiring-apsp"
    }

    fn delta(&self) -> f64 {
        1.0 / 3.0
    }

    fn eta(&self) -> f64 {
        1.0
    }

    fn alpha(&self) -> f64 {
        1.0
    }

    fn beta(&self) -> Beta {
        Beta::Zero
    }

    fn run(&self, net: &mut CliqueNet, g: &Graph) -> Result<Distance, CliqueError> {
        let d = SemiringApsp::new().apsp(net, g)?;
        // Each node v computes its eccentricity from its row and sends it to node
        // 0, which takes the max and (conceptually) broadcasts — two clique
        // rounds, simulated explicitly.
        let eccs: Vec<Distance> = d
            .as_flat()
            .chunks_exact(g.len())
            .map(|row| row.iter().copied().max().unwrap_or(0))
            .collect();
        let mut batch = Vec::new();
        for v in g.nodes() {
            if v.index() != 0 {
                batch.push(CliqueMsg::new(v, NodeId::new(0), eccs[v.index()]));
            }
        }
        let inboxes = net.route(batch)?;
        let mut diam = eccs[0];
        for &(_, e) in &inboxes[0] {
            diam = diam.max(e);
        }
        net.broadcast(NodeId::new(0), diam)?;
        Ok(diam)
    }
}

/// Declared wrapper for the `(3/2 + ε, W)`-approximate diameter algorithm of \[7\]
/// (`δ = 0`, `η = 1/ε`) — used by Corollary 5.2. See
/// [`crate::declared`] for the substitution rationale.
#[derive(Debug, Clone)]
pub struct DeclaredDiameter32 {
    eps: f64,
    seed: u64,
}

impl DeclaredDiameter32 {
    /// Creates the wrapper with approximation slack `ε > 0`.
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!(eps > 0.0);
        DeclaredDiameter32 { eps, seed }
    }
}

impl CliqueDiameterAlgorithm for DeclaredDiameter32 {
    fn name(&self) -> &'static str {
        "CKKL19-diameter-3/2"
    }

    fn delta(&self) -> f64 {
        0.0
    }

    fn eta(&self) -> f64 {
        (1.0 / self.eps).max(1.0)
    }

    fn alpha(&self) -> f64 {
        1.5 + self.eps
    }

    fn beta(&self) -> Beta {
        Beta::MaxWeight(1.0)
    }

    fn run(&self, net: &mut CliqueNet, g: &Graph) -> Result<Distance, CliqueError> {
        net.charge_rounds(((self.eta()).ceil() as u64).max(1));
        let d = weighted_diameter(g);
        if d == INFINITY {
            return Ok(INFINITY);
        }
        let hi = self.alpha() * d as f64 + g.max_weight() as f64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let v = rng.gen_range(d as f64..=hi);
        Ok((v.floor() as Distance).max(d))
    }
}

/// Declared wrapper for the `(1 + ε)`-approximate diameter via the algebraic
/// APSP of \[8\] (`δ = 0.15715`, `η = 1/ε`) — used by Corollary 5.3.
#[derive(Debug, Clone)]
pub struct DeclaredDiameterAlgebraic {
    eps: f64,
    seed: u64,
}

impl DeclaredDiameterAlgebraic {
    /// Creates the wrapper with approximation slack `ε > 0`.
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!(eps > 0.0);
        DeclaredDiameterAlgebraic { eps, seed }
    }
}

impl CliqueDiameterAlgorithm for DeclaredDiameterAlgebraic {
    fn name(&self) -> &'static str {
        "CKKLPS19-diameter-1+eps"
    }

    fn delta(&self) -> f64 {
        0.15715
    }

    fn eta(&self) -> f64 {
        (1.0 / self.eps).max(1.0)
    }

    fn alpha(&self) -> f64 {
        1.0 + self.eps
    }

    fn beta(&self) -> Beta {
        Beta::Zero
    }

    fn run(&self, net: &mut CliqueNet, g: &Graph) -> Result<Distance, CliqueError> {
        let n = net.len();
        let rounds = ((self.eta() * (n as f64).powf(self.delta())).ceil() as u64).max(1);
        net.charge_rounds(rounds);
        let d = weighted_diameter(g);
        if d == INFINITY {
            return Ok(INFINITY);
        }
        let hi = self.alpha() * d as f64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let v = rng.gen_range(d as f64..=hi);
        Ok((v.floor() as Distance).max(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators::{cycle, erdos_renyi_connected};
    use rand::rngs::StdRng;

    #[test]
    fn exact_diameter_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [12, 30] {
            let g = erdos_renyi_connected(n, 0.15, 5, &mut rng).unwrap();
            let mut net = CliqueNet::new(n);
            let d = ExactDiameter::new().run(&mut net, &g).unwrap();
            assert_eq!(d, weighted_diameter(&g));
        }
    }

    #[test]
    fn exact_diameter_on_cycle() {
        let g = cycle(10, 4).unwrap();
        let mut net = CliqueNet::new(10);
        assert_eq!(ExactDiameter::new().run(&mut net, &g).unwrap(), 20);
    }

    #[test]
    fn declared_32_respects_contract() {
        let g = cycle(14, 3).unwrap();
        let exact = weighted_diameter(&g);
        for seed in 0..10 {
            let alg = DeclaredDiameter32::new(0.2, seed);
            let mut net = CliqueNet::new(14);
            let d = alg.run(&mut net, &g).unwrap();
            assert!(d >= exact);
            assert!(d as f64 <= (1.5 + 0.2) * exact as f64 + g.max_weight() as f64 + 1.0);
        }
    }

    #[test]
    fn declared_algebraic_respects_contract() {
        let g = cycle(14, 3).unwrap();
        let exact = weighted_diameter(&g);
        for seed in 0..10 {
            let alg = DeclaredDiameterAlgebraic::new(0.1, seed);
            let mut net = CliqueNet::new(14);
            let d = alg.run(&mut net, &g).unwrap();
            assert!(d >= exact);
            assert!(d as f64 <= 1.1 * exact as f64 + 1.0);
        }
    }

    #[test]
    fn declared_rounds_charged() {
        let g = cycle(20, 1).unwrap();
        let alg = DeclaredDiameter32::new(0.1, 0);
        let mut net = CliqueNet::new(20);
        alg.run(&mut net, &g).unwrap();
        assert_eq!(net.rounds(), 10); // η = 1/ε = 10, δ = 0
    }

    #[test]
    fn handles_disconnected() {
        let mut b = hybrid_graph::GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3), 1).unwrap();
        let g = b.build().unwrap();
        let mut net = CliqueNet::new(4);
        assert_eq!(DeclaredDiameter32::new(0.5, 1).run(&mut net, &g).unwrap(), INFINITY);
    }
}
