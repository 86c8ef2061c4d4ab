//! Differential property tests for the sharded serving layer: on
//! random graphs × random policies, the sharded deployment must return
//! exactly the same **decisions**, **audiences** and *valid*
//! **witnesses** as the single-graph deployment, across shard counts
//! {1, 2, 4, 7} and a networked(2) fleet behind loopback TCP —
//! partitioning is an implementation detail the
//! semantics may never observe. The equivalence harness
//! ([`common::assert_services_agree`]) is generic over any two
//! [`socialreach_core::AccessService`] implementations; this suite
//! instantiates it with `Deployment::online` vs `Deployment::sharded`.

mod common;

use proptest::prelude::*;
use socialreach_core::{
    online, parse_path, Decision, Deployment, PathExpr, PolicyStore, ShardedSystem,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 7];

#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    /// `(owner index, path text)` pairs; each becomes a single-condition
    /// rule, and consecutive pairs additionally form one two-condition
    /// (conjunctive) rule on the first pair's resource.
    policies: Vec<(u32, String)>,
}

fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (3..11usize).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..3usize, 10..60i64), 0..30).prop_map(
            move |edges| {
                let mut g = SocialGraph::new();
                for i in 0..n {
                    g.add_node(&format!("u{i}"));
                }
                for l in LABELS {
                    g.intern_label(l);
                }
                for (i, (s, t, l, age)) in edges.iter().enumerate() {
                    let label = g.vocab().label(LABELS[*l]).unwrap();
                    g.add_edge(NodeId(*s), NodeId(*t), label);
                    let node = NodeId((i as u32 + s + t) % n as u32);
                    g.set_node_attr(node, "age", *age);
                }
                g
            },
        )
    })
}

fn path_text_strategy() -> impl Strategy<Value = String> {
    let step = (0..3usize, 0..3usize, 1..3u32, 0..2u32, 0..5usize).prop_map(
        |(label, dir, lo, extra, shape)| {
            let dir = ["+", "-", "*"][dir];
            let hi = lo + extra;
            let depths = match shape {
                0 => format!("[{lo}]"),
                1 => format!("[{lo}..{hi}]"),
                2 => format!("[{lo},{}]", hi + 2),
                3 => format!("[{lo}..]"),
                _ => format!("[{lo}..{hi}]{{age>=30}}"),
            };
            format!("{}{}{}", LABELS[label], dir, depths)
        },
    );
    proptest::collection::vec(step, 1..3).prop_map(|steps| steps.join("/"))
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        graph_strategy(),
        proptest::collection::vec((0..8u32, path_text_strategy()), 1..4),
    )
        .prop_map(|(graph, policies)| Case { graph, policies })
}

/// Builds the reference store over `g`: one resource per policy pair
/// (single-condition rule), plus a conjunctive two-condition rule on
/// the first resource when at least two policies exist.
fn build_store(g: &mut SocialGraph, policies: &[(u32, String)]) -> PolicyStore {
    let n = g.num_nodes() as u32;
    let mut store = PolicyStore::new();
    let mut rids = Vec::new();
    for (owner_ix, text) in policies {
        let owner = NodeId(owner_ix % n);
        let rid = store.register_resource(owner);
        store.allow(rid, text, g).expect("generated paths parse");
        rids.push(rid);
    }
    if policies.len() >= 2 {
        let owner_a = NodeId(policies[0].0 % n);
        let owner_b = NodeId(policies[1].0 % n);
        let path_a = parse_path(&policies[0].1, g.vocab_mut()).unwrap();
        let path_b = parse_path(&policies[1].1, g.vocab_mut()).unwrap();
        store
            .add_rule(socialreach_core::AccessRule {
                resource: rids[0],
                conditions: vec![
                    socialreach_core::AccessCondition {
                        owner: owner_a,
                        path: path_a,
                    },
                    socialreach_core::AccessCondition {
                        owner: owner_b,
                        path: path_b,
                    },
                ],
            })
            .expect("resource registered");
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decisions, audiences, batched reads and explain grant-ness:
    /// the sharded deployment ≡ the single-graph deployment, for every
    /// resource × member, across shard counts — via the
    /// backend-agnostic `&dyn AccessService` harness.
    #[test]
    fn sharded_decisions_and_audiences_match_single_graph(case in case_strategy()) {
        let mut g = case.graph;
        let store = build_store(&mut g, &case.policies);
        let rids: Vec<_> = {
            let mut r: Vec<_> = store.resources().map(|(rid, _)| rid).collect();
            r.sort_unstable();
            r
        };

        let single = Deployment::online().from_graph(&g, store.clone());
        for &shards in &SHARD_COUNTS {
            let sharded = Deployment::sharded_with(ShardAssignment::hashed(shards, 11))
                .from_graph(&g, store.clone());
            common::assert_services_agree(single.reads(), sharded.reads(), &rids);
        }
        // The networked deployment joins the same matrix: shard
        // processes behind real sockets may not be observable either.
        let fleet = socialreach_core::remote::spawn_local_fleet(2, false).expect("fleet spawns");
        let addrs: Vec<_> = fleet.iter().map(|h| h.addr().clone()).collect();
        let networked = Deployment::networked_with(addrs, 11).from_graph(&g, store.clone());
        common::assert_services_agree(single.reads(), networked.reads(), &rids);
    }

    /// Witnesses: for every granted condition, the sharded system's
    /// stitched walk is a valid accepting walk of the reference graph.
    #[test]
    fn sharded_witnesses_are_valid_accepting_walks(case in case_strategy()) {
        let mut g = case.graph;
        let n = g.num_nodes() as u32;
        let conds: Vec<(NodeId, PathExpr)> = case
            .policies
            .iter()
            .map(|(owner_ix, text)| {
                (NodeId(owner_ix % n), parse_path(text, g.vocab_mut()).unwrap())
            })
            .collect();

        for &shards in &SHARD_COUNTS {
            let sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(shards, 23));
            for (owner, path) in &conds {
                for requester in g.nodes() {
                    let truth = online::evaluate(&g, *owner, path, Some(requester));
                    let sharded = sys.evaluate_condition(*owner, path, Some(requester));
                    prop_assert_eq!(
                        sharded.granted, truth.granted,
                        "condition decision: owner={} requester={} shards={}",
                        owner, requester, shards
                    );
                    prop_assert_eq!(sharded.witness.is_some(), sharded.granted);
                    if let Some(w) = &sharded.witness {
                        common::assert_witness_valid(&g, *owner, requester, path, w);
                    }
                }
            }
        }
    }

    /// Condition audiences match the reference engine member-for-member
    /// (the per-condition primitive underneath audiences).
    #[test]
    fn sharded_condition_audiences_match_reference(case in case_strategy()) {
        let mut g = case.graph;
        let n = g.num_nodes() as u32;
        let conds: Vec<(NodeId, PathExpr)> = case
            .policies
            .iter()
            .map(|(owner_ix, text)| {
                (NodeId(owner_ix % n), parse_path(text, g.vocab_mut()).unwrap())
            })
            .collect();
        for &shards in &SHARD_COUNTS {
            let sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(shards, 31));
            for (owner, path) in &conds {
                let truth = online::evaluate_reference(&g, *owner, path, None);
                let sharded = sys.evaluate_condition(*owner, path, None);
                prop_assert_eq!(
                    &sharded.matched, &truth.matched,
                    "condition audience: owner={} shards={}", owner, shards
                );
            }
        }
    }
}

/// Placement determinism: two independently built systems place every
/// member identically (the hash is seeded and stable), and decisions
/// come out the same run to run.
#[test]
fn placement_and_decisions_are_reproducible() {
    let build = || {
        let mut g = SocialGraph::new();
        for i in 0..40 {
            g.add_node(&format!("u{i}"));
        }
        let friend = g.intern_label("friend");
        for i in 0..39u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), friend);
        }
        let mut store = PolicyStore::new();
        let rid = store.register_resource(NodeId(0));
        store.allow(rid, "friend+[1..4]", &mut g).unwrap();
        let mut sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(4, 99));
        sys.adopt_store(store);
        (sys, rid)
    };
    let (a, rid) = build();
    let (b, _) = build();
    for m in 0..40u32 {
        assert_eq!(a.member_shard(NodeId(m)), b.member_shard(NodeId(m)));
    }
    assert_eq!(
        a.service().audience(rid).unwrap(),
        b.service().audience(rid).unwrap()
    );
    for m in 0..40u32 {
        assert_eq!(
            a.service().check(rid, NodeId(m)).unwrap(),
            b.service().check(rid, NodeId(m)).unwrap()
        );
    }
    assert_eq!(
        a.service().check(rid, NodeId(4)).unwrap(),
        Decision::Grant,
        "u4 is 4 friend-hops from u0"
    );
}
