//! The **batched** sharded read path, the masked fixpoint that runs one
//! traversal per 64-condition chunk of a bundle's plan. On seeded random
//! cases, across shard counts {1, 2, 4, 7}, audience bundles under each
//! `BundleStrategy` are the oracle's (`common::oracle`) and census the
//! single graph's plan, and check batches under each `CheckPlan` decide
//! as the oracle does with every grant witnessable. Regressions: wide
//! bundles chunk into mask words without cross-talk, and a walk that
//! re-enters a shard many times expands the region once. Every wrapper,
//! read shape and write-after-read leg is `differential_matrix`.

mod common;

use proptest::prelude::*;
use socialreach_core::BundleStrategy::{Batched, PerCondition};
use socialreach_core::CheckPlan::{Audience, Targeted};
use socialreach_core::{
    AccessService, Deployment, MutateService, PolicyStore, ReadBatch, ReadStats, ServiceInstance,
    ShardedSystem,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};

const SHARDS: [u32; 4] = [1, 2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Audience bundles forced down each strategy: on every shard count
    /// the masked fixpoint returns the oracle's audiences, and censuses
    /// the same shared-prefix plan, in as many traversals, as the single
    /// graph's multi-source BFS.
    #[test]
    fn batched_audiences_match_every_oracle(case in common::cases(), seed in 0..1000u64) {
        let (rids, want) = (common::case_rids(&case), common::oracle_audiences(&case));
        let single = common::serve(&Deployment::online(), &case);
        for k in SHARDS {
            let sharded = common::serve(&Deployment::sharded(k, seed), &case);
            for strategy in [Batched, PerCondition] {
                let forced = |svc: &ServiceInstance| {
                    svc.reads().audience_batch_forced(&rids, strategy).unwrap()
                };
                let (expect, base) = forced(&single);
                prop_assert_eq!(&expect, &want, "single graph under {:?}", strategy);
                let (got, stats) = forced(&sharded);
                prop_assert_eq!(&got, &want, "sharded({}) under {:?}", k, strategy);
                prop_assert!(stats.plan_states <= stats.expr_states, "{:?}", stats);
                let census = |s: ReadStats| (s.plan_states, s.expr_states, s.traversals);
                let tag = format!("census of sharded({k}) under {strategy:?}");
                prop_assert_eq!(census(stats), census(base), "{}", tag);
            }
        }
    }

    /// Check batches forced down each plan decide as the oracle does on
    /// every shard count, and every grant is explained by walks the
    /// oracle replays.
    #[test]
    fn batched_checks_match_and_grants_are_witnessable(
        case in common::cases(),
        seed in 0..1000u64,
    ) {
        let (pairs, granted) = common::oracle_pairs(&case);
        for k in SHARDS {
            let sharded = common::serve(&Deployment::sharded(k, seed), &case);
            for plan in [Targeted, Audience(Batched), Audience(PerCondition)] {
                let (got, _) = sharded.reads().check_batch_forced(&pairs, 2, plan).unwrap();
                let got: Vec<bool> = got.iter().map(|d| d.is_granted()).collect();
                prop_assert_eq!(&got, &granted, "sharded({}) under {:?}", k, plan);
            }
            common::assert_explains(sharded.reads(), &case, &format!("sharded({k})"));
        }
    }
}

/// A 64+-condition bundle chunks into multiple mask words; chunking
/// must be invisible in the answers and cost one extra fixpoint per
/// word, not one per condition.
#[test]
fn wide_bundles_chunk_into_words_without_cross_talk() {
    // A friend ring of 80 members: every audience is the owner's two
    // forward neighbors, so per-owner answers differ and any bit
    // cross-talk between words would misattribute members.
    let mut g = SocialGraph::new();
    let n = 80u32;
    for i in 0..n {
        g.add_node(&format!("u{i}"));
    }
    let friend = g.intern_label("friend");
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), friend);
    }
    let mut store = PolicyStore::new();
    let mut rids = Vec::new();
    for i in 0..70u32 {
        let rid = store.register_resource(NodeId(i));
        store.allow(rid, "friend+[1,2]", &mut g).unwrap();
        rids.push(rid);
    }

    // The uniform census agrees across deployments: the single-graph
    // batch BFS also chunks the 70 shared-template owners into two
    // 64-wide mask passes.
    let single = Deployment::online().from_graph(&g, store.clone());
    let (_, single_stats) = single.reads().audience_batch_with_stats(&rids).unwrap();
    assert_eq!(single_stats.traversals, 2, "single backend: two mask words");
    assert_eq!(single_stats.conditions, 70);
    assert_eq!(single_stats.exported_states, 0);

    for shards in [1u32, 3] {
        let mut sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(shards, 9));
        sys.adopt_store(store.clone());
        let (batched, stats) = sys.service().audience_batch_with_stats(&rids).unwrap();
        assert_eq!(
            stats.traversals, 2,
            "70 conditions of one template = two mask words (shards {shards})"
        );
        assert_eq!(stats.conditions, 70, "the bundle dedups to 70 conditions");
        let per_condition = sys.audience_batch_forced(&rids, PerCondition).unwrap().0;
        assert_eq!(batched, per_condition, "shards {shards}");
        for (i, audience) in batched.iter().enumerate() {
            let owner = i as u32;
            let expect: Vec<NodeId> = {
                let mut v = vec![
                    NodeId(owner),
                    NodeId((owner + 1) % n),
                    NodeId((owner + 2) % n),
                ];
                v.sort_unstable();
                v
            };
            assert_eq!(audience, &expect, "owner u{owner} shards {shards}");
        }
    }
}

/// Round-linearity regression (the visited-persistence fix): a path
/// that re-enters one shard's hub region k times expands O(region)
/// states in total, not O(k · region). A fixpoint with fresh visited
/// state per round would re-traverse the hub on every re-entry; the
/// round-persistent masks must not.
#[test]
fn pingpong_fixpoint_expands_the_region_once() {
    const HUB: u32 = 40; // satellites of the shard-0 hub
    const K: u32 = 12; // shard-0 re-entries

    // Boundary edges replicate into both endpoint shards (against
    // ghosts), so a walk only forces a new fixpoint round when it
    // needs two *consecutive intra-shard* edges of the remote shard.
    // The chain therefore alternates two-member segments:
    //
    //   shard 0: a_i → b_i   (intra)    + a_i → c → s_j (the hub)
    //   shard 1: p_i → q_i   (intra)
    //   cross:   b_i → p_i,  q_i → a_{i+1},  o → a_1
    //
    // Every re-entry lands on a fresh a_i whose hub edge points at the
    // same c: without round-persistent visited state shard 0 re-walks
    // the hub (c + HUB satellites) on each of the K re-entries.
    let mut pins: Vec<(String, u32)> = vec![("o".into(), 1), ("c".into(), 0)];
    for i in 1..=K {
        pins.push((format!("a{i}"), 0));
        pins.push((format!("b{i}"), 0));
    }
    for i in 1..K {
        pins.push((format!("p{i}"), 1));
        pins.push((format!("q{i}"), 1));
    }
    for j in 1..=HUB {
        pins.push((format!("s{j}"), 0));
    }
    let assignment = ShardAssignment::explicit(2, 0, pins);
    let mut sys = ShardedSystem::with_assignment(assignment);
    let o = sys.add_user("o");
    let c = sys.add_user("c");
    let heads: Vec<NodeId> = (1..=K).map(|i| sys.add_user(&format!("a{i}"))).collect();
    let tails: Vec<NodeId> = (1..=K).map(|i| sys.add_user(&format!("b{i}"))).collect();
    let relays: Vec<(NodeId, NodeId)> = (1..K)
        .map(|i| {
            (
                sys.add_user(&format!("p{i}")),
                sys.add_user(&format!("q{i}")),
            )
        })
        .collect();
    let sats: Vec<NodeId> = (1..=HUB).map(|j| sys.add_user(&format!("s{j}"))).collect();
    sys.add_relationship(o, "friend", heads[0]);
    for i in 0..K as usize {
        sys.add_relationship(heads[i], "friend", tails[i]);
        sys.add_relationship(heads[i], "friend", c);
        if i + 1 < K as usize {
            let (p, q) = relays[i];
            sys.add_relationship(tails[i], "friend", p);
            sys.add_relationship(p, "friend", q);
            sys.add_relationship(q, "friend", heads[i + 1]);
        }
    }
    for &s in &sats {
        sys.add_relationship(c, "friend", s);
    }

    let rid = sys.add_resource(o);
    sys.add_rule(rid, "friend+[1..]").unwrap();
    let read = sys.service().read(&ReadBatch::new().audience(rid)).unwrap();
    let (batched, stats) = (read[0].audience.clone().unwrap(), read[0].stats);

    // Sanity: everything is reachable from the owner.
    assert_eq!(batched.len(), sys.num_members());

    // The fixpoint really ping-pongs: each two-member segment costs a
    // round on each side of the boundary.
    assert!(
        stats.rounds >= 2 * (K as usize - 1),
        "expected ≥{} rounds, got {}",
        2 * (K as usize - 1),
        stats.rounds
    );

    // Work bound: friend+[1..] saturates at depth 1, so the explored
    // region is O(members + ghosts) product states regardless of how
    // many rounds delivered them. Without visited persistence the hub
    // alone would be re-expanded on each of the K re-entries:
    // ≥ K · HUB = 480 states.
    let total = stats.states_expanded;
    let members = sys.num_members();
    let region_bound = 4 * members + 8; // 2 layers × (home + ghost copies)
    assert!(
        total <= region_bound,
        "states_expanded {total} exceeds the linear-region bound {region_bound} \
         (quadratic re-traversal regression; K·HUB re-walking would be ≥{})",
        K * HUB
    );
    assert!(
        total < (K * HUB) as usize / 2,
        "states_expanded {total} is not meaningfully below the re-traversal cost {}",
        K * HUB
    );

    // Semantics stay equal to the per-condition path and to a
    // single-graph deployment of the same members and edges on the
    // same adversarial topology.
    let per_cond = sys.audience_batch_forced(&[rid], PerCondition).unwrap().0;
    assert_eq!(
        vec![batched.clone()],
        per_cond,
        "semantics agree on the ping-pong graph"
    );
    let mut single = Deployment::online().build();
    for m in 0..sys.num_members() {
        single
            .writes()
            .add_user(sys.member_name(NodeId::from_index(m)));
    }
    for &(src, label, dst) in sys.edge_log() {
        single
            .writes()
            .add_relationship(src, sys.vocab().label_name(label), dst);
    }
    let single_rid = single.writes().add_resource(o);
    single
        .writes()
        .add_rule(single_rid, "friend+[1..]")
        .unwrap();
    assert_eq!(
        vec![batched],
        single.reads().audience_batch(&[single_rid]).unwrap(),
        "the single graph agrees on the ping-pong graph"
    );
}
