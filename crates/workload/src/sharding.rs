//! Shard-aware topology generation.
//!
//! The sharded serving layer's cost profile is dominated by how often
//! traversals cross shard boundaries: intra-shard edges are served by
//! one snapshot, boundary edges force the router to forward product
//! states between shards. The standard families in [`crate::topology`]
//! are placement-oblivious — hashing their members spreads ties at the
//! *expected* crossing rate `1 − 1/N` and nothing else. This module
//! generates ties with a **controlled crossing rate** instead, so the
//! shard-scaling experiments (bench P11, now retired and recorded in
//! CHANGES.md) could sweep from
//! shard-friendly (mostly intra) to adversarial (dense cross-shard
//! traffic) workloads under the very [`ShardAssignment`] the serving
//! layer will use.

use rand::rngs::StdRng;
use rand::Rng;
use socialreach_graph::shard::{members_by_shard, ShardAssignment};
use socialreach_graph::{NodeId, SocialGraph};
use std::collections::HashSet;

/// A tie generator with a controlled cross-shard fraction under a
/// given placement.
#[derive(Clone, Debug)]
pub struct CrossShardTopology {
    /// Number of members (named `u0..uN-1`, the workload convention).
    pub nodes: usize,
    /// Number of distinct undirected ties to generate.
    pub edges: usize,
    /// The placement the ties are classified against.
    pub assignment: ShardAssignment,
    /// Probability that a tie crosses shard boundaries. `1.0` makes
    /// every tie a boundary edge (maximal router traffic); `0.0` keeps
    /// every tie inside a shard (embarrassingly parallel).
    pub cross_fraction: f64,
}

impl CrossShardTopology {
    /// The member names the generator assumes (`u{i}`), matching
    /// [`crate::spec::GraphSpec::build`].
    pub fn member_names(&self) -> Vec<String> {
        (0..self.nodes).map(|i| format!("u{i}")).collect()
    }

    /// Generates the undirected tie list (u < v, no duplicates, no
    /// self-ties), deterministic per RNG state. The realized crossing
    /// rate tracks `cross_fraction` except where the placement makes a
    /// class empty (one shard ⇒ no crossing ties; one member per shard
    /// ⇒ no intra ties).
    ///
    /// Under-delivery: when a tie class is non-empty but smaller than
    /// its requested share (e.g. tiny shards with `cross_fraction`
    /// near 0), the rejection loop exhausts its guard and the result
    /// carries **fewer ties than `edges`** — callers sizing workloads
    /// should read `result.len()`, not `self.edges`.
    pub fn generate(&self, rng: &mut StdRng) -> Vec<(u32, u32)> {
        assert!(self.nodes >= 2, "need at least two members");
        assert!(
            (0.0..=1.0).contains(&self.cross_fraction),
            "cross_fraction is a probability"
        );
        let names = self.member_names();
        let by_shard: Vec<Vec<u32>> = members_by_shard(&self.assignment, &names)
            .into_iter()
            .filter(|m| !m.is_empty())
            .collect();
        let multi_shard = by_shard.len() > 1;
        let has_intra_pair = by_shard.iter().any(|m| m.len() >= 2);

        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(self.edges * 2);
        let mut out = Vec::with_capacity(self.edges);
        let max_ties = self.nodes * (self.nodes - 1) / 2;
        let want = self.edges.min(max_ties);
        let mut guard = 0usize;
        while out.len() < want && guard < 200 * want + 1000 {
            guard += 1;
            let crossing = multi_shard && rng.gen_bool(self.cross_fraction);
            let (a, b) = if crossing {
                // Two distinct shards, one member from each.
                let s1 = rng.gen_range(0..by_shard.len());
                let mut s2 = rng.gen_range(0..by_shard.len() - 1);
                if s2 >= s1 {
                    s2 += 1;
                }
                (
                    by_shard[s1][rng.gen_range(0..by_shard[s1].len())],
                    by_shard[s2][rng.gen_range(0..by_shard[s2].len())],
                )
            } else if has_intra_pair {
                // Two distinct members of one shard.
                let s = loop {
                    let s = rng.gen_range(0..by_shard.len());
                    if by_shard[s].len() >= 2 {
                        break s;
                    }
                };
                let members = &by_shard[s];
                let i = rng.gen_range(0..members.len());
                let mut j = rng.gen_range(0..members.len() - 1);
                if j >= i {
                    j += 1;
                }
                (members[i], members[j])
            } else {
                // Degenerate placement (every shard holds ≤ 1 member):
                // only crossing ties exist.
                let a = rng.gen_range(0..self.nodes as u32);
                let b = rng.gen_range(0..self.nodes as u32);
                if a == b {
                    continue;
                }
                (a, b)
            };
            let t = if a < b { (a, b) } else { (b, a) };
            if seen.insert(t) {
                out.push(t);
            }
        }
        out
    }

    /// Builds a labeled [`SocialGraph`] over the controlled tie list:
    /// ties are oriented uniformly, labeled with the friend-heavy OSN
    /// mix (`friend` 70% / `colleague` 20% / `parent` 10%) and half of
    /// them reciprocated — mirroring [`crate::spec::GraphSpec::build`]
    /// over this generator's placement-aware ties. Deterministic per
    /// RNG state; the batch-amortization workloads share this shape.
    pub fn build_graph(&self, rng: &mut StdRng) -> SocialGraph {
        let ties = self.generate(rng);
        let mut graph = SocialGraph::new();
        for name in self.member_names() {
            graph.add_node(&name);
        }
        let labels = [
            (graph.intern_label("friend"), 0.70),
            (graph.intern_label("colleague"), 0.20),
            (graph.intern_label("parent"), 0.10),
        ];
        for (a, b) in ties {
            let (src, dst) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            let mut pick = rng.gen_range(0.0..1.0);
            let mut chosen = labels[0].0;
            for &(l, w) in &labels {
                if pick < w {
                    chosen = l;
                    break;
                }
                pick -= w;
            }
            graph.add_edge(NodeId(src), NodeId(dst), chosen);
            if rng.gen_bool(0.5) {
                graph.add_edge(NodeId(dst), NodeId(src), chosen);
            }
        }
        graph
    }

    /// Fraction of `ties` crossing shard boundaries under this
    /// generator's placement.
    pub fn crossing_rate(&self, ties: &[(u32, u32)]) -> f64 {
        if ties.is_empty() {
            return 0.0;
        }
        let names = self.member_names();
        let crossing = ties
            .iter()
            .filter(|&&(a, b)| {
                self.assignment.shard_of(&names[a as usize])
                    != self.assignment.shard_of(&names[b as usize])
            })
            .count();
        crossing as f64 / ties.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn topo(shards: u32, cross: f64) -> CrossShardTopology {
        CrossShardTopology {
            nodes: 300,
            edges: 900,
            assignment: ShardAssignment::hashed(shards, 5),
            cross_fraction: cross,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let t = topo(4, 0.5);
        let a = t.generate(&mut StdRng::seed_from_u64(3));
        let b = t.generate(&mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        let c = t.generate(&mut StdRng::seed_from_u64(4));
        assert_ne!(a, c);
    }

    #[test]
    fn ties_are_simple_and_in_range() {
        let t = topo(3, 0.7);
        let ties = t.generate(&mut StdRng::seed_from_u64(1));
        assert_eq!(ties.len(), 900);
        let mut seen = HashSet::new();
        for &(a, b) in &ties {
            assert!(a < b);
            assert!((b as usize) < t.nodes);
            assert!(seen.insert((a, b)));
        }
    }

    #[test]
    fn crossing_rate_tracks_the_requested_fraction() {
        for &want in &[0.0, 0.3, 0.9, 1.0] {
            let t = topo(4, want);
            let ties = t.generate(&mut StdRng::seed_from_u64(9));
            let got = t.crossing_rate(&ties);
            assert!(
                (got - want).abs() < 0.08,
                "requested {want}, realized {got}"
            );
        }
    }

    #[test]
    fn build_graph_is_deterministic_and_covers_every_member() {
        let t = topo(4, 0.6);
        let a = t.build_graph(&mut StdRng::seed_from_u64(8));
        let b = t.build_graph(&mut StdRng::seed_from_u64(8));
        assert_eq!(a.num_nodes(), 300);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.num_edges() >= 900, "ties oriented, half reciprocated");
        let edges_a: Vec<_> = a.edges().map(|(_, r)| (r.src, r.dst, r.label)).collect();
        let edges_b: Vec<_> = b.edges().map(|(_, r)| (r.src, r.dst, r.label)).collect();
        assert_eq!(edges_a, edges_b);
        assert!(a.vocab().label("friend").is_some());
    }

    #[test]
    fn single_shard_placement_never_crosses() {
        let t = topo(1, 0.9);
        let ties = t.generate(&mut StdRng::seed_from_u64(2));
        assert!(!ties.is_empty());
        assert_eq!(t.crossing_rate(&ties), 0.0);
    }
}
