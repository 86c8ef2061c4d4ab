//! The query front-end and the shared-prefix bundle plan. On seeded
//! random cases, a bundle of every condition as an ad-hoc query, in
//! both grammars, answers like each query read alone and like the
//! shared-nothing oracle (`common::oracle`), on the single graph and a
//! 4-shard partition; a fixed query bundle, with an unknown
//! relationship type and an empty path, answers alike on single,
//! sharded and networked deployments. Regressions: a bundle past the
//! plan's `u16` node budget is bisected into several plans and answers
//! like per-condition evaluation; rendering a path expression into
//! `MATCH` syntax and re-parsing it is the identity (up to
//! canonicalization); read-only parsing interns nothing; and malformed
//! queries are refused with pinned caret-annotated errors. Every
//! deployment, wrapper and read shape is `differential_matrix`.

mod common;

use common::oracle;
use proptest::prelude::*;
use socialreach_core::query::{self, parse_queries_readonly, render_query};
use socialreach_core::{
    parse_path, parse_query, BundlePlan, Deployment, PathExpr, PolicyStore, ReadBatch,
};
use socialreach_graph::{Direction, NodeId, SocialGraph};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trie-planned query bundles ≡ per-condition reads ≡ the oracle:
    /// every condition of the case, in both grammars, read in one
    /// bundle and each alone, on the single graph and sharded(4).
    #[test]
    fn trie_plan_matches_per_condition(case in common::cases(), seed in 0..1000u64) {
        let mut queries = Vec::new();
        for c in common::case_conds(&case) {
            let want: Vec<NodeId> = oracle::reach(&case.graph, c).into_iter().collect();
            let texts = std::iter::once(c.text()).chain(c.query());
            queries.extend(texts.map(|t| (c.owner, t, want.clone())));
        }
        let bundle: Vec<(NodeId, &str)> = queries.iter().map(|(o, t, _)| (*o, &t[..])).collect();
        for deployment in [Deployment::online(), Deployment::sharded(4, seed)] {
            let svc = common::serve(&deployment, &case);
            let trie = svc.reads().query_audience_bundle(&bundle).unwrap();
            for ((owner, text, want), got) in queries.iter().zip(&trie) {
                let tag = format!("{text} at {owner} on {}", deployment.describe());
                let alone = svc.reads().query_audience(*owner, text).unwrap();
                prop_assert_eq!(&alone, want, "{} alone", tag);
                prop_assert_eq!(got, want, "{} in the bundle", tag);
            }
        }
    }

    /// Rendering a path expression into the `MATCH` syntax and
    /// re-parsing it is the identity, up to canonicalization; a path
    /// renders exactly when each of its steps' depths is one interval.
    #[test]
    fn query_render_parse_round_trips(text in common::path_texts(1..4, 3)) {
        let mut vocab = socialreach_graph::Vocabulary::new();
        let path = parse_path(&text, &mut vocab).expect("generated paths parse");
        let one_interval = path.steps.iter().all(|s| s.depths.intervals().len() == 1);
        let Some(query) = render_query(&path, &vocab) else {
            prop_assert!(!one_interval, "{} renders", text);
            return Ok(());
        };
        let reparsed = parse_query(&query, &mut vocab)
            .unwrap_or_else(|e| panic!("rendered query must re-parse: {e}\n  {query}"));
        prop_assert_eq!(reparsed.canonical(), path.canonical(), "query: {}", query);
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
/// (65 772 nodes) answer exactly as the oracle does, on the single
/// graph and on a 2-shard partition, with the census summed over both
/// plans.
#[test]
fn bundles_past_the_plan_node_budget_are_bisected_not_regrouped() {
    let mut g = SocialGraph::new();
    let ring: Vec<NodeId> = (0..8).map(|i| g.add_node(&format!("r{i}"))).collect();
    for i in 0..8 {
        g.connect(ring[i], "friend", ring[(i + 1) % 8]);
        g.set_node_attr(ring[i], "age", 1_000_000i64);
    }
    let oracle_conds: Vec<oracle::Cond> = (0..261usize)
        .map(|i| oracle::Cond {
            owner: ring[i % 8],
            steps: (0..252)
                .map(|j| oracle::Step {
                    label: "friend",
                    dir: Direction::Out,
                    depths: vec![(1, Some(1))],
                    min_age: Some((i * 252 + j) as i64),
                })
                .collect(),
        })
        .collect();
    let conds: Vec<(NodeId, PathExpr)> = oracle_conds
        .iter()
        .map(|c| (c.owner, parse_path(&c.text(), g.vocab_mut()).unwrap()))
        .collect();
    let cond_refs: Vec<(NodeId, &PathExpr)> = conds.iter().map(|(o, p)| (*o, p)).collect();
    let paths: Vec<&PathExpr> = conds.iter().map(|(_, p)| p).collect();
    assert!(BundlePlan::compile(&paths).is_none(), "one plan overflows");

    let snap = g.snapshot();
    let truth: Vec<Vec<NodeId>> = oracle_conds
        .iter()
        .map(|c| oracle::reach(&g, c).into_iter().collect())
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

    let texts: Vec<String> = conds.iter().map(|(_, p)| p.to_text(g.vocab())).collect();
    let sharded = Deployment::sharded(2, 11).from_graph(&g, PolicyStore::new());
    let batch = (conds.iter().zip(&texts)).fold(ReadBatch::new(), |b, ((o, _), t)| b.query(*o, t));
    let responses = sharded.reads().read(&batch).unwrap();
    let got: Vec<Vec<NodeId>> = responses
        .iter()
        .map(|r| r.audience.clone().unwrap())
        .collect();
    assert_eq!(got, truth, "sharded(2), bisected");
    assert_eq!(responses[0].stats.traversals, stats.traversals);
    assert_eq!(responses[0].stats.expr_states, stats.expr_states);
    assert_eq!(responses[0].stats.plan_states, stats.plan_states);
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
