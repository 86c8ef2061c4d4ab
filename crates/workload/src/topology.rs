//! Synthetic network topologies.
//!
//! §5 of the paper promises an evaluation *"over real and large
//! representative synthetic datasets"* without naming either. We
//! substitute four standard random-graph families, all seeded and
//! deterministic:
//!
//! * [`Topology::ErdosRenyi`] — the uniform G(n, m) null model;
//! * [`Topology::BarabasiAlbert`] — preferential attachment, matching
//!   the heavy-tailed degree distribution of real OSNs (the cost driver
//!   for line-graph construction: hubs contribute `deg²` line edges);
//! * [`Topology::WattsStrogatz`] — high clustering + short paths, the
//!   "small world" regime of friendship graphs;
//! * [`Topology::Community`] — dense intra-community ties with sparse
//!   inter-community bridges, the structure privacy policies actually
//!   navigate (friends inside, colleagues across).
//!
//! Generators emit **undirected ties**; [`crate::spec::GraphSpec`]
//! orients them (with a reciprocity probability) and labels them.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// A family of random undirected tie sets.
#[derive(Clone, Debug, PartialEq)]
pub enum Topology {
    /// G(n, m): `edges` distinct ties sampled uniformly.
    ErdosRenyi {
        /// Number of members.
        nodes: usize,
        /// Number of distinct ties.
        edges: usize,
    },
    /// Preferential attachment: each new member attaches to
    /// `edges_per_node` existing members with probability proportional
    /// to degree.
    BarabasiAlbert {
        /// Number of members.
        nodes: usize,
        /// Ties created per arriving member.
        edges_per_node: usize,
    },
    /// Ring lattice with `neighbors` nearest neighbors (must be even),
    /// each tie rewired with probability `rewire`.
    WattsStrogatz {
        /// Number of members.
        nodes: usize,
        /// Lattice neighbors per member (even).
        neighbors: usize,
        /// Rewiring probability in `[0, 1]`.
        rewire: f64,
    },
    /// `communities` equal-sized groups; within a group each tie exists
    /// with probability `p_in`; `bridges` extra ties connect random
    /// members of different groups.
    Community {
        /// Number of members.
        nodes: usize,
        /// Number of groups.
        communities: usize,
        /// Intra-group tie probability.
        p_in: f64,
        /// Inter-group bridge ties.
        bridges: usize,
    },
}

impl Topology {
    /// Number of members the topology will produce.
    pub fn nodes(&self) -> usize {
        match *self {
            Topology::ErdosRenyi { nodes, .. }
            | Topology::BarabasiAlbert { nodes, .. }
            | Topology::WattsStrogatz { nodes, .. }
            | Topology::Community { nodes, .. } => nodes,
        }
    }

    /// Generates the undirected tie list (u < v, no duplicates, no
    /// self-ties).
    pub fn generate(&self, rng: &mut StdRng) -> Vec<(u32, u32)> {
        match *self {
            Topology::ErdosRenyi { nodes, edges } => erdos_renyi(nodes, edges, rng),
            Topology::BarabasiAlbert {
                nodes,
                edges_per_node,
            } => barabasi_albert(nodes, edges_per_node, rng),
            Topology::WattsStrogatz {
                nodes,
                neighbors,
                rewire,
            } => watts_strogatz(nodes, neighbors, rewire, rng),
            Topology::Community {
                nodes,
                communities,
                p_in,
                bridges,
            } => community(nodes, communities, p_in, bridges, rng),
        }
    }

    /// The community id of each member (only meaningful for
    /// [`Topology::Community`]; other families put everyone in group 0).
    pub fn community_of(&self, node: u32) -> u32 {
        match *self {
            Topology::Community {
                nodes, communities, ..
            } => {
                let size = nodes.div_ceil(communities);
                node / size as u32
            }
            _ => 0,
        }
    }
}

fn tie(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

fn erdos_renyi(n: usize, m: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    assert!(n >= 2, "ER needs at least two nodes");
    let max_ties = n * (n - 1) / 2;
    let m = m.min(max_ties);
    let mut seen = HashSet::with_capacity(m * 2);
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let t = tie(a, b);
        if seen.insert(t) {
            out.push(t);
        }
    }
    out
}

fn barabasi_albert(n: usize, m: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    assert!(m >= 1, "BA needs edges_per_node >= 1");
    assert!(n > m, "BA needs nodes > edges_per_node");
    // Seed clique of m+1 members, then preferential attachment via the
    // repeated-endpoints trick: sampling a uniform position in the
    // endpoint list is sampling proportionally to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(n * m);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(n * m * 2);
    for a in 0..=(m as u32) {
        for b in (a + 1)..=(m as u32) {
            out.push((a, b));
            seen.insert((a, b));
            endpoints.push(a);
            endpoints.push(b);
        }
    }
    for v in (m as u32 + 1)..(n as u32) {
        let mut attached = 0;
        let mut guard = 0;
        while attached < m && guard < 100 * m {
            guard += 1;
            let u = endpoints[rng.gen_range(0..endpoints.len())];
            if u == v {
                continue;
            }
            let t = tie(u, v);
            if seen.insert(t) {
                out.push(t);
                endpoints.push(u);
                endpoints.push(v);
                attached += 1;
            }
        }
    }
    out
}

fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut StdRng) -> Vec<(u32, u32)> {
    assert!(k.is_multiple_of(2), "WS needs an even neighbor count");
    assert!(n > k, "WS needs nodes > neighbors");
    assert!((0.0..=1.0).contains(&beta), "rewire must be a probability");
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut out = Vec::with_capacity(n * k / 2);
    for v in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            let w = (v + j) % n as u32;
            let t = if rng.gen_bool(beta) {
                // rewire the far endpoint uniformly
                let mut guard = 0;
                loop {
                    guard += 1;
                    let r = rng.gen_range(0..n as u32);
                    let cand = tie(v, r);
                    if r != v && !seen.contains(&cand) {
                        break cand;
                    }
                    if guard > 100 {
                        break tie(v, w); // dense corner case: keep lattice tie
                    }
                }
            } else {
                tie(v, w)
            };
            if seen.insert(t) {
                out.push(t);
            }
        }
    }
    out
}

fn community(n: usize, c: usize, p_in: f64, bridges: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    assert!(c >= 1 && n >= c, "need at least one community");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be a probability");
    let size = n.div_ceil(c);
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut out = Vec::new();
    for start in (0..n).step_by(size) {
        let end = (start + size).min(n);
        for a in start..end {
            for b in (a + 1)..end {
                if rng.gen_bool(p_in) {
                    let t = tie(a as u32, b as u32);
                    if seen.insert(t) {
                        out.push(t);
                    }
                }
            }
        }
    }
    let mut placed = 0;
    let mut guard = 0;
    while placed < bridges && guard < 100 * (bridges + 1) {
        guard += 1;
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b || (a as usize / size) == (b as usize / size) {
            continue;
        }
        let t = tie(a, b);
        if seen.insert(t) {
            out.push(t);
            placed += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn assert_simple(ties: &[(u32, u32)], n: usize) {
        let mut seen = HashSet::new();
        for &(a, b) in ties {
            assert!(a < b, "ties are normalized (a < b)");
            assert!((b as usize) < n, "endpoint in range");
            assert!(seen.insert((a, b)), "no duplicate ties");
        }
    }

    #[test]
    fn er_produces_requested_edge_count() {
        let t = Topology::ErdosRenyi {
            nodes: 50,
            edges: 120,
        };
        let ties = t.generate(&mut rng(1));
        assert_eq!(ties.len(), 120);
        assert_simple(&ties, 50);
    }

    #[test]
    fn er_caps_at_complete_graph() {
        let t = Topology::ErdosRenyi {
            nodes: 5,
            edges: 999,
        };
        let ties = t.generate(&mut rng(2));
        assert_eq!(ties.len(), 10);
    }

    #[test]
    fn ba_grows_heavy_tail() {
        let t = Topology::BarabasiAlbert {
            nodes: 300,
            edges_per_node: 3,
        };
        let ties = t.generate(&mut rng(3));
        assert_simple(&ties, 300);
        // expected ~ (m choose 2) + (n - m - 1) * m edges
        assert!(ties.len() >= 290 * 3);
        // heavy tail: the max degree far exceeds the mean
        let mut deg = vec![0usize; 300];
        for &(a, b) in &ties {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mean = deg.iter().sum::<usize>() as f64 / 300.0;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(
            max > 3.0 * mean,
            "BA should have hubs (max {max}, mean {mean})"
        );
    }

    #[test]
    fn ws_keeps_lattice_degree_roughly() {
        let t = Topology::WattsStrogatz {
            nodes: 100,
            neighbors: 4,
            rewire: 0.1,
        };
        let ties = t.generate(&mut rng(4));
        assert_simple(&ties, 100);
        // ~ n*k/2 ties (rewiring collisions may drop a few)
        assert!(ties.len() > 180 && ties.len() <= 200, "got {}", ties.len());
    }

    #[test]
    fn ws_zero_rewire_is_exact_lattice() {
        let t = Topology::WattsStrogatz {
            nodes: 10,
            neighbors: 2,
            rewire: 0.0,
        };
        let ties = t.generate(&mut rng(5));
        assert_eq!(ties.len(), 10); // a ring
    }

    #[test]
    fn community_bridges_cross_groups() {
        let t = Topology::Community {
            nodes: 60,
            communities: 3,
            p_in: 0.5,
            bridges: 10,
        };
        let ties = t.generate(&mut rng(6));
        assert_simple(&ties, 60);
        let crossing = ties
            .iter()
            .filter(|&&(a, b)| t.community_of(a) != t.community_of(b))
            .count();
        assert_eq!(crossing, 10);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let t = Topology::BarabasiAlbert {
            nodes: 100,
            edges_per_node: 2,
        };
        assert_eq!(t.generate(&mut rng(7)), t.generate(&mut rng(7)));
        assert_ne!(t.generate(&mut rng(7)), t.generate(&mut rng(8)));
    }

    #[test]
    fn nodes_accessor() {
        assert_eq!(Topology::ErdosRenyi { nodes: 9, edges: 1 }.nodes(), 9);
    }
}
