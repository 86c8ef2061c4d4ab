//! Differential property tests for the query front-end and the
//! shared-prefix bundle plan: on random graphs × bundle-shaped random
//! policies, the trie-planned bundle evaluation (the one batched read
//! path) must agree condition-for-condition with
//!
//! 1. the per-condition evaluation (reference engine on a single
//!    graph, per-condition fixpoint on a sharded one), and
//! 2. itself across deployments — single, sharded(4) and networked(2)
//!    serve equal answers for the same ad-hoc query bundle —
//!
//! including a bundle past the plan's `u16` node budget, which the
//! read paths bisect into several plans.
//!
//! The openCypher-flavored front-end rides along: rendering a path
//! expression into `MATCH` syntax and re-parsing it is the identity
//! (up to canonicalization), and malformed queries are refused with
//! pinned caret-annotated errors.

use proptest::prelude::*;
use socialreach_core::query::{self, parse_queries_readonly, render_query};
use socialreach_core::{
    online, parse_path, parse_query, BundlePlan, Deployment, PathExpr, ShardedSystem,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];

// ---------------------------------------------------------------------
// Random bundle-shaped cases (prefix sharing arises naturally from the
// small step pool)
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    templates: Vec<String>,
    /// `(owner index, template index)` per condition.
    picks: Vec<(u32, usize)>,
}

fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (3..10usize).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..3usize, 10..60i64), 0..28).prop_map(
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

/// Step texts drawn from a deliberately small pool, so templates share
/// prefixes often — the regime the trie plan exists for.
fn step_text_strategy() -> impl Strategy<Value = String> {
    (0..3usize, 0..3usize, 1..3u32, 0..4usize).prop_map(|(label, dir, lo, shape)| {
        let dir = ["+", "-", "*"][dir];
        let depths = match shape {
            0 => format!("[{lo}]"),
            1 => format!("[{lo}..{}]", lo + 1),
            2 => format!("[{lo}..]"),
            _ => format!("[{lo}..{}]{{age>=30}}", lo + 1),
        };
        format!("{}{}{}", LABELS[label], dir, depths)
    })
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        graph_strategy(),
        proptest::collection::vec(proptest::collection::vec(step_text_strategy(), 1..3), 1..4),
        proptest::collection::vec((0..16u32, 0..4usize), 1..10),
    )
        .prop_map(|(graph, step_lists, picks)| {
            let templates: Vec<String> = step_lists.iter().map(|s| s.join("/")).collect();
            let picks = picks
                .into_iter()
                .map(|(owner, t)| (owner, t % templates.len()))
                .collect();
            Case {
                graph,
                templates,
                picks,
            }
        })
}

fn build_conds(g: &mut SocialGraph, case: &Case) -> Vec<(NodeId, PathExpr)> {
    let n = g.num_nodes() as u32;
    case.picks
        .iter()
        .map(|&(owner_ix, t)| {
            (
                NodeId(owner_ix % n),
                parse_path(&case.templates[t], g.vocab_mut()).expect("generated paths parse"),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trie-planned bundles ≡ the per-condition reference, on single
    /// and sharded(4) deployments.
    #[test]
    fn trie_plan_matches_per_condition(case in case_strategy()) {
        let mut g = case.graph.clone();
        let conds = build_conds(&mut g, &case);
        let cond_refs: Vec<(NodeId, &PathExpr)> =
            conds.iter().map(|(o, p)| (*o, p)).collect();

        // Single graph: trie vs the reference engine.
        let snap = g.snapshot();
        let (trie, single_stats) = query::evaluate_bundle_audiences(&g, &snap, &cond_refs);
        for (i, (owner, path)) in conds.iter().enumerate() {
            let truth = online::evaluate_reference(&g, *owner, path, None);
            prop_assert_eq!(
                &trie[i], &truth.matched,
                "single trie vs reference: owner={}", owner
            );
        }

        // Sharded(4): trie vs the per-condition fixpoint.
        let sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(4, 11));
        let (trie_a, trie_stats) = sys.evaluate_conditions_batched(&cond_refs);
        prop_assert_eq!(&trie_a, &trie, "sharded trie vs single trie");
        for (i, (owner, path)) in conds.iter().enumerate() {
            let per_cond = sys.evaluate_condition(*owner, path, None);
            prop_assert_eq!(
                &trie_a[i], &per_cond.matched,
                "sharded trie vs per-condition: owner={}", owner
            );
        }

        // Census contract: both backends report the sharing census of
        // the plan they ran — the same plan.
        prop_assert!(trie_stats.plan_states <= trie_stats.expr_states);
        prop_assert_eq!(single_stats.plan_states, trie_stats.plan_states);
        prop_assert_eq!(single_stats.expr_states, trie_stats.expr_states);
        prop_assert_eq!(single_stats.traversals, trie_stats.fixpoints);
        if conds.iter().any(|(_, p)| !p.is_empty()) {
            prop_assert!(trie_stats.expr_states > 0, "traversable bundles census the plan");
        }
    }

    /// Rendering a path expression into the `MATCH` syntax and
    /// re-parsing it is the identity, up to canonicalization.
    #[test]
    fn query_render_parse_round_trips(steps in proptest::collection::vec(step_text_strategy(), 1..4)) {
        let mut vocab = socialreach_graph::Vocabulary::new();
        let path = parse_path(&steps.join("/"), &mut vocab).expect("generated paths parse");
        // Every generated step has a single depth interval, so the
        // query syntax can express it.
        let text = render_query(&path, &vocab).expect("single-interval depths render");
        let reparsed = parse_query(&text, &mut vocab)
            .unwrap_or_else(|e| panic!("rendered query must re-parse: {e}\n  {text}"));
        prop_assert_eq!(reparsed.canonical(), path.canonical(), "query: {}", text);
    }
}

/// The same ad-hoc query bundle answers identically on single,
/// sharded(4) and networked(2) deployments — including a query whose
/// relationship type no graph has interned (empty audience, never an
/// error) and an empty-path `MATCH (owner)` (owner-only audience).
#[test]
fn query_bundles_agree_across_deployments() {
    let handles = socialreach_core::remote::spawn_local_fleet(2, false).expect("fleet spawns");
    let addrs: Vec<_> = handles.iter().map(|h| h.addr().clone()).collect();
    let mut backends = vec![
        Deployment::online().build(),
        Deployment::sharded(4, 7).build(),
        Deployment::networked_with(addrs, 7).build(),
    ];

    let mut members = Vec::new();
    for svc in &mut backends {
        let w = svc.writes();
        let names = ["Ava", "Ben", "Cleo", "Dan", "Edith", "Femi"];
        let m: Vec<NodeId> = names.iter().map(|n| w.add_user(n)).collect();
        w.add_mutual_relationship(m[0], "friend", m[1]);
        w.add_mutual_relationship(m[1], "friend", m[2]);
        w.add_relationship(m[2], "friend", m[3]);
        w.add_relationship(m[3], "colleague", m[4]);
        w.add_relationship(m[5], "follows", m[0]);
        w.set_user_attr(m[2], "age", 26i64.into());
        w.set_user_attr(m[3], "age", 17i64.into());
        members = m;
    }

    // Shared prefixes across distinct conditions, both syntaxes, one
    // unknown relationship type, one empty path.
    let texts = [
        "MATCH (owner)-[:friend*1..2]->(v)",
        "MATCH (owner)-[:friend*1..2]->(v)-[:colleague]->(w)",
        "friend+[1..2]{age>=18}",
        "MATCH (owner)<-[:follows]-(v)",
        "MATCH (owner)-[:quarreled_with*1..3]->(v)",
        "MATCH (owner)",
    ];
    let queries: Vec<(NodeId, &str)> = texts
        .iter()
        .enumerate()
        .map(|(i, &t)| (members[i % 2], t))
        .collect();

    let mut seen: Option<Vec<Vec<NodeId>>> = None;
    for svc in &backends {
        let got = svc.reads().query_audience_bundle(&queries).unwrap();
        match &seen {
            None => {
                // Spot-check the reference leg before fanning out.
                assert_eq!(got[4], vec![], "unknown type → empty audience");
                assert_eq!(got[5], vec![members[1]], "empty path → owner only");
                assert!(got[0].contains(&members[2]));
                seen = Some(got);
            }
            Some(expect) => assert_eq!(
                &got,
                expect,
                "{} must match the single-graph answers",
                svc.reads().describe()
            ),
        }
    }
}

/// A bundle needing more trie nodes than the plan's `u16` budget is
/// bisected into plans that fit and served through the same code: on
/// an 8-member ring, 261 conditions of 252 pairwise-distinct steps
/// (65 772 nodes) answer exactly as per-condition evaluation does, on
/// the single graph and on a 2-shard partition, with the census summed
/// over both plans.
#[test]
fn bundles_past_the_plan_node_budget_are_bisected_not_regrouped() {
    let mut g = SocialGraph::new();
    let ring: Vec<NodeId> = (0..8).map(|i| g.add_node(&format!("r{i}"))).collect();
    for i in 0..8 {
        g.connect(ring[i], "friend", ring[(i + 1) % 8]);
        g.set_node_attr(ring[i], "age", 1_000_000i64);
    }
    let conds: Vec<(NodeId, PathExpr)> = (0..261usize)
        .map(|i| {
            let steps: Vec<String> = (0..252)
                .map(|j| format!("friend+[1]{{age>={}}}", i * 252 + j))
                .collect();
            (
                ring[i % 8],
                parse_path(&steps.join("/"), g.vocab_mut()).unwrap(),
            )
        })
        .collect();
    let cond_refs: Vec<(NodeId, &PathExpr)> = conds.iter().map(|(o, p)| (*o, p)).collect();
    let paths: Vec<&PathExpr> = conds.iter().map(|(_, p)| p).collect();
    assert!(BundlePlan::compile(&paths).is_none(), "one plan overflows");

    let snap = g.snapshot();
    let truth: Vec<Vec<NodeId>> = conds
        .iter()
        .map(|(o, p)| online::evaluate_with_snapshot(&g, &snap, *o, p, None).matched)
        .collect();
    // 252 hops around an 8-ring land 4 members on.
    assert_eq!(truth[3], vec![ring[7]]);

    let (single, stats) = query::evaluate_bundle_audiences(&g, &snap, &cond_refs);
    assert_eq!(single, truth, "single graph, bisected");
    assert_eq!(stats.conditions, 261);
    assert_eq!(
        stats.traversals,
        130usize.div_ceil(64) + 131usize.div_ceil(64),
        "each half chunks on its own"
    );
    assert_eq!(stats.expr_states, 261 * 252 * 2, "census summed over plans");
    assert_eq!(stats.plan_states, stats.expr_states, "nothing shared");

    let sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(2, 11));
    let (sharded, sharded_stats) = sys.evaluate_conditions_batched(&cond_refs);
    assert_eq!(sharded, truth, "sharded(2), bisected");
    assert_eq!(sharded_stats.fixpoints, stats.traversals);
    assert_eq!(sharded_stats.expr_states, stats.expr_states);
}

/// Read-only parsing interns nothing: an unknown label in a query must
/// not grow the deployment's vocabulary.
#[test]
fn readonly_parsing_never_grows_the_vocabulary() {
    let mut vocab = socialreach_graph::Vocabulary::new();
    vocab.intern_label("friend");
    let labels_before = vocab.num_labels();
    let parsed = parse_queries_readonly(
        &[
            "MATCH (owner)-[:friend*1..2]->(v)",
            "MATCH (owner)-[:stranger]->(v)",
        ],
        &vocab,
    )
    .unwrap();
    assert!(parsed[0].is_some(), "known vocabulary parses");
    assert!(parsed[1].is_none(), "unknown vocabulary is unsatisfiable");
    assert_eq!(vocab.num_labels(), labels_before, "vocabulary untouched");
}

/// Caret-annotated parse errors are part of the interface: positions
/// and messages are pinned golden, in both syntaxes.
#[test]
fn caret_errors_are_pinned() {
    let golden: [(&str, &str); 4] = [
        (
            "MATCH (owner)-[:friend*1..2->(v)",
            "path syntax error at byte 27: expected ']' to close the relationship pattern\n\
             \x20 MATCH (owner)-[:friend*1..2->(v)\n\
             \x20                            ^",
        ),
        (
            "MATCH (owner {age>=18})-[:friend]->(v)",
            "path syntax error at byte 13: properties on the owner anchor are not supported: \
             the owner is given by the request, not matched\n\
             \x20 MATCH (owner {age>=18})-[:friend]->(v)\n\
             \x20              ^",
        ),
        (
            "MATCH (owner)-[friend]->(v)",
            "path syntax error at byte 15: expected ':' before the relationship type\n\
             \x20 MATCH (owner)-[friend]->(v)\n\
             \x20                ^",
        ),
        (
            "friend+[0]",
            "path syntax error at byte 9: depth levels start at 1\n\
             \x20 friend+[0]\n\
             \x20          ^",
        ),
    ];
    let mut vocab = socialreach_graph::Vocabulary::new();
    for (text, expect) in golden {
        let err = socialreach_core::parse_policy(text, &mut vocab)
            .expect_err("malformed query must be refused");
        assert_eq!(err.to_string(), expect, "golden caret error for {text:?}");
    }
}
