//! Differential property tests for the **batched** sharded read path:
//! on random graphs × bundle-shaped random policies, the one-fixpoint-
//! per-bundle masked engine (`ShardedSystem::audience_batch` /
//! `check_batch`) must agree condition-for-condition with
//!
//! 1. the single-graph multi-source plan BFS
//!    (`query::evaluate_bundle_audiences`),
//! 2. the per-condition sharded path — one masked fixpoint per
//!    condition (`audience_batch_forced` under `PerCondition`), which
//!    shares the driver and engine with the batched path, so every
//!    comparison with it also has an independent leg below —, and
//! 3. the reference engine, member-for-member,
//!
//! across shard counts {1, 2, 4, 7} — batching, masking and chunking
//! are implementation details the semantics may never observe. Granted
//! batched decisions must be witnessable: the stitched walk of the
//! targeted fixpoint replays through the path automaton.

mod common;

use proptest::prelude::*;
use socialreach_core::BundleStrategy::PerCondition;
use socialreach_core::{
    online, parse_path, query, AccessService, Decision, Deployment, MutateService, PathExpr,
    PolicyStore, ShardedSystem,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 7];

/// A bundle-shaped case: a small pool of path templates, and resources
/// instantiating them under many owners (the regime the masked batch
/// fixpoint amortizes).
#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    /// Path-template pool (texts).
    templates: Vec<String>,
    /// `(owner index, template index)` per resource.
    resources: Vec<(u32, usize)>,
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
        proptest::collection::vec(path_text_strategy(), 1..3),
        proptest::collection::vec((0..16u32, 0..3usize), 1..9),
    )
        .prop_map(|(graph, templates, picks)| {
            let resources = picks
                .into_iter()
                .map(|(owner, t)| (owner, t % templates.len()))
                .collect();
            Case {
                graph,
                templates,
                resources,
            }
        })
}

/// Builds the policy store: one single-condition rule per resource,
/// templates shared across owners, plus one conjunctive two-condition
/// rule on the first resource when two resources exist.
fn build_store(g: &mut SocialGraph, case: &Case) -> (PolicyStore, Vec<(NodeId, PathExpr)>) {
    let n = g.num_nodes() as u32;
    let mut store = PolicyStore::new();
    let mut conds = Vec::new();
    let mut rids = Vec::new();
    for &(owner_ix, t) in &case.resources {
        let owner = NodeId(owner_ix % n);
        let rid = store.register_resource(owner);
        store
            .allow(rid, &case.templates[t], g)
            .expect("generated paths parse");
        conds.push((
            owner,
            parse_path(&case.templates[t], g.vocab_mut()).unwrap(),
        ));
        rids.push(rid);
    }
    if case.resources.len() >= 2 {
        let a = conds[0].clone();
        let b = conds[1].clone();
        store
            .add_rule(socialreach_core::AccessRule {
                resource: rids[0],
                conditions: vec![
                    socialreach_core::AccessCondition {
                        owner: a.0,
                        path: a.1,
                    },
                    socialreach_core::AccessCondition {
                        owner: b.0,
                        path: b.1,
                    },
                ],
            })
            .expect("resource registered");
    }
    (store, conds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched bundle path ≡ the per-condition sharded fixpoint ≡
    /// the single-graph multi-source batch BFS ≡ the single-graph
    /// per-resource audience, across shard counts.
    #[test]
    fn batched_audiences_match_every_oracle(case in case_strategy()) {
        let mut g = case.graph.clone();
        let (store, conds) = build_store(&mut g, &case);
        let rids: Vec<_> = {
            let mut r: Vec<_> = store.resources().map(|(rid, _)| rid).collect();
            r.sort_unstable();
            r
        };

        // Single-graph oracles: the multi-source mask BFS over one
        // snapshot (condition level) and the merged per-resource
        // audiences.
        let snap = g.snapshot();
        let cond_refs: Vec<(NodeId, &PathExpr)> =
            conds.iter().map(|(o, p)| (*o, p)).collect();
        let (single_conds, _) = query::evaluate_bundle_audiences(&g, &snap, &cond_refs);

        for &shards in &SHARD_COUNTS {
            let mut sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(shards, 11));
            sys.adopt_store(store.clone());

            // Condition-level: masked batched fixpoint ≡ single-graph
            // mask BFS ≡ reference engine.
            let (batched_conds, stats) = sys.evaluate_conditions_batched(&cond_refs);
            for (i, (owner, path)) in conds.iter().enumerate() {
                prop_assert_eq!(
                    &batched_conds[i], &single_conds[i],
                    "condition audience: owner={} shards={}", owner, shards
                );
                let truth = online::evaluate_reference(&g, *owner, path, None);
                prop_assert_eq!(
                    &batched_conds[i], &truth.matched,
                    "reference audience: owner={} shards={}", owner, shards
                );
            }
            // The shared-prefix plan runs one fixpoint per
            // 64-condition chunk — even across *distinct* paths, which
            // the old identical-expression grouping kept apart.
            let traversable = cond_refs.iter().filter(|(_, p)| !p.is_empty()).count();
            prop_assert_eq!(
                stats.fixpoints, traversable.div_ceil(64),
                "≤64 conditions share one planned fixpoint (shards={})", shards
            );
            prop_assert!(
                stats.plan_states <= stats.expr_states,
                "prefix sharing can only shrink the plan (shards={})", shards
            );

            // Resource-level: batched ≡ per-condition ≡ the single
            // deployment, through the backend-agnostic harness.
            let batched = sys.service().audience_batch(&rids).unwrap();
            let per_condition = sys.audience_batch_forced(&rids, PerCondition).unwrap().0;
            prop_assert_eq!(&batched, &per_condition, "shards={}", shards);
            let single = Deployment::online().from_graph(&g, store.clone());
            common::assert_services_agree(single.reads(), sys.service(), &rids);
        }
    }

    /// Batched decisions ≡ the single-graph deployment for every
    /// resource × member, and every batched grant is witnessable by a
    /// stitched walk the path automaton accepts.
    #[test]
    fn batched_checks_match_and_grants_are_witnessable(case in case_strategy()) {
        let mut g = case.graph.clone();
        let (store, _) = build_store(&mut g, &case);
        let single = Deployment::online().from_graph(&g, store.clone());
        let rids: Vec<_> = {
            let mut r: Vec<_> = store.resources().map(|(rid, _)| rid).collect();
            r.sort_unstable();
            r
        };
        let requests: Vec<_> = rids
            .iter()
            .flat_map(|&rid| g.nodes().map(move |m| (rid, m)))
            .collect();

        for &shards in &SHARD_COUNTS {
            let mut sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(shards, 23));
            sys.adopt_store(store.clone());
            let decisions = sys.service().check_batch(&requests, 2).unwrap();
            for (&(rid, member), &got) in requests.iter().zip(&decisions) {
                let truth = single.reads().check(rid, member).unwrap();
                prop_assert_eq!(
                    got, truth,
                    "decision: rid={:?} member={} shards={}", rid, member, shards
                );
                if got == Decision::Grant && store.owner_of(rid).unwrap() != member {
                    // Every satisfied condition of some rule must be
                    // witnessable through the stitched targeted path.
                    let witnessed = store.rules_for(rid).iter().any(|rule| {
                        !rule.conditions.is_empty()
                            && rule.conditions.iter().all(|cond| {
                                let out =
                                    sys.evaluate_condition(cond.owner, &cond.path, Some(member));
                                match &out.witness {
                                    Some(w) => {
                                        common::assert_witness_valid(
                                            &g, cond.owner, member, &cond.path, w,
                                        );
                                        true
                                    }
                                    None => false,
                                }
                            })
                    });
                    prop_assert!(
                        witnessed,
                        "grant without witnessable rule: rid={:?} member={} shards={}",
                        rid, member, shards
                    );
                }
            }
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

    let path = sys.parse("friend+[1..]").unwrap();
    let conds = [(o, &path)];
    let (audiences, stats) = sys.evaluate_conditions_batched(&conds);

    // Sanity: everything is reachable from the owner.
    assert_eq!(audiences[0].len(), sys.num_members() - 1);

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
    let total: usize = stats.states_expanded.iter().sum();
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
    let rid = sys.add_resource(o);
    sys.add_rule(rid, "friend+[1..]").unwrap();
    let batched = sys.service().audience_batch(&[rid]).unwrap();
    let per_cond = sys.audience_batch_forced(&[rid], PerCondition).unwrap().0;
    assert_eq!(batched, per_cond, "semantics agree on the ping-pong graph");
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
        batched,
        single.reads().audience_batch(&[single_rid]).unwrap(),
        "the single graph agrees on the ping-pong graph"
    );
}
