//! Shared setup for experiment P11 — sharded multi-graph serving.
//!
//! The question: what does hash-partitioning the serving layer
//! ([`socialreach_core::ShardedSystem`]) cost or buy against the single-graph system, as
//! a function of the **shard count** and the **cross-shard traffic
//! density** (the fraction of relationships crossing shard
//! boundaries)? Three measurements, used by both the
//! `p11_shard_scaling` criterion bench and the `p11-snapshot` binary
//! that records `BENCH_p11.json`:
//!
//! 1. **Partition census** — members, ghost replicas and boundary
//!    edges per shard (the replication overhead the crossing rate
//!    buys).
//! 2. **Cold decision batches** — `check_batch` over a fixed request
//!    stream, decision caches cold: single system vs sharded, per
//!    shard count × crossing rate. (Since the batch-amortization work
//!    the sharded side decides by materializing the uncached
//!    resources' audiences through one masked fixpoint per bundle —
//!    the `threads` knob only fans out the *single* system's
//!    per-request stream; the sharded fixpoint parallelizes per round
//!    across shards instead.)
//! 3. **Audience bundles** — `audience_batch` over every generated
//!    resource: single system (multi-source batch BFS) vs the sharded
//!    fixpoint fan-out.
//!
//! Correctness is asserted before timing
//! ([`assert_sharded_matches_single`]): the sharded system must agree
//! decision-for-decision and audience-for-audience with the single
//! system on the measured workload — the bench can't drift from the
//! differential-tested semantics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialreach_core::{
    AccessService, Decision, Deployment, PolicyStore, ResourceId, ServiceInstance,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};
use socialreach_workload::{generate_policies, CrossShardTopology, PolicyWorkloadConfig};

/// One prepared P11 scenario: a labeled cross-shard graph, policies,
/// and a request stream, together with the placement the serving layer
/// will use.
pub struct P11Case {
    /// Scenario name (`s{shards}-x{crossing%}`).
    pub name: String,
    /// Serving shard count.
    pub shards: u32,
    /// Requested crossing rate.
    pub cross_fraction: f64,
    /// The social graph (single-system view).
    pub graph: SocialGraph,
    /// Policies over it.
    pub store: PolicyStore,
    /// Every generated resource.
    pub rids: Vec<ResourceId>,
    /// The decision request stream.
    pub requests: Vec<(ResourceId, NodeId)>,
    /// The placement (same seed across cases, so member → shard moves
    /// only with the shard count).
    pub assignment: ShardAssignment,
}

/// Builds the P11 scenario for one `(shards, cross_fraction)` cell.
/// Everything is deterministic in the arguments.
pub fn case(nodes: usize, shards: u32, cross_fraction: f64, num_requests: usize) -> P11Case {
    let assignment = ShardAssignment::hashed(shards, 1100);
    let topo = CrossShardTopology {
        nodes,
        edges: nodes * 3,
        assignment: assignment.clone(),
        cross_fraction,
    };
    let mut rng = StdRng::seed_from_u64(1111 + shards as u64);
    let ties = topo.generate(&mut rng);

    // Orient + label the ties (friend-heavy OSN mix, half reciprocated),
    // mirroring `GraphSpec::build` over the controlled tie list.
    let mut graph = SocialGraph::new();
    for name in topo.member_names() {
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

    let mut store = PolicyStore::new();
    let cfg = PolicyWorkloadConfig {
        num_resources: 24,
        steps: (1, 2),
        deep_prob: 0.5,
        // The controlled-crossing graphs carry no member attributes, so
        // predicates would make their rules vacuous.
        pred_prob: 0.0,
        ..PolicyWorkloadConfig::default()
    };
    let rids = generate_policies(&mut graph, &mut store, &cfg, &mut rng);

    let requests: Vec<(ResourceId, NodeId)> = (0..num_requests)
        .map(|_| {
            (
                rids[rng.gen_range(0..rids.len())],
                NodeId(rng.gen_range(0..nodes as u32)),
            )
        })
        .collect();

    P11Case {
        name: format!("s{shards}-x{:02}", (cross_fraction * 100.0) as u32),
        shards,
        cross_fraction,
        graph,
        store,
        rids,
        requests,
        assignment,
    }
}

/// A fresh single-graph deployment over the case (decision cache
/// cold). The generated store is adopted verbatim —
/// [`Deployment::from_graph`] replaced the per-backend replay
/// plumbing this module used to carry.
pub fn build_single(case: &P11Case) -> ServiceInstance {
    Deployment::online().from_graph(&case.graph, case.store.clone())
}

/// A fresh sharded deployment over the case (decision cache cold).
pub fn build_sharded(case: &P11Case) -> ServiceInstance {
    Deployment::sharded_with(case.assignment.clone()).from_graph(&case.graph, case.store.clone())
}

/// Asserts two deployments agree on every measured request and
/// audience (run once before timing). Generic over the backends: any
/// pair of [`AccessService`] implementations can be pinned to each
/// other.
pub fn assert_sharded_matches_single(
    case: &P11Case,
    single: &dyn AccessService,
    sharded: &dyn AccessService,
) {
    let singles: Vec<Decision> = case
        .requests
        .iter()
        .map(|&(rid, req)| single.check(rid, req).expect("resources registered"))
        .collect();
    let shardeds = sharded
        .check_batch(&case.requests, 1)
        .expect("resources registered");
    assert_eq!(shardeds, singles, "decision divergence in {}", case.name);
    let single_audiences = single
        .audience_batch(&case.rids)
        .expect("resources registered");
    let sharded_audiences = sharded
        .audience_batch(&case.rids)
        .expect("resources registered");
    assert_eq!(
        sharded_audiences, single_audiences,
        "audience divergence in {}",
        case.name
    );
}

/// One cold pass of the decision stream through any deployment.
pub fn run_checks(case: &P11Case, svc: &dyn AccessService, threads: usize) {
    let decisions = svc
        .check_batch(&case.requests, threads)
        .expect("resources registered");
    std::hint::black_box(decisions.len());
}

/// One audience-bundle pass through any deployment.
pub fn run_audiences(case: &P11Case, svc: &dyn AccessService) {
    let audiences = svc
        .audience_batch(&case.rids)
        .expect("resources registered");
    std::hint::black_box(audiences.len());
}
