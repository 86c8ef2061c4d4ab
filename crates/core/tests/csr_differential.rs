//! Differential property tests for the CSR flat-array online engine:
//! on random graphs × random path expressions, `evaluate` /
//! `evaluate_with_snapshot` (label-partitioned CSR, dense state arrays,
//! swap-buffer frontiers) must return exactly the same decisions,
//! audiences and *valid* witnesses as `evaluate_reference` (the
//! original HashMap/VecDeque product BFS, retained as the executable
//! specification).

use proptest::prelude::*;
use socialreach_core::query::evaluate_plan_audiences;
use socialreach_core::{online, parse_path, BundlePlan, PathExpr};
use socialreach_graph::{NodeId, SocialGraph};

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];

#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    paths: Vec<String>,
}

/// A random labeled multigraph (self-loops and parallel edges welcome)
/// with discriminating ages sprinkled on some members.
fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (2..10usize).prop_flat_map(|n| {
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

/// A random path expression, step by step: label, direction, depth set
/// shape (single / range / list-with-hole / unbounded tail), and an
/// optional endpoint predicate.
fn path_text_strategy() -> impl Strategy<Value = String> {
    let step = (0..3usize, 0..3usize, 1..4u32, 0..3u32, 0..5usize).prop_map(
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
    proptest::collection::vec(step, 1..4).prop_map(|steps| steps.join("/"))
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        graph_strategy(),
        proptest::collection::vec(path_text_strategy(), 1..4),
    )
        .prop_map(|(graph, paths)| Case { graph, paths })
}

fn replay_witness(
    g: &SocialGraph,
    owner: NodeId,
    witness: &[(socialreach_graph::EdgeId, bool)],
) -> NodeId {
    let mut at = owner;
    for &(eid, forward) in witness {
        let rec = g.edge(eid);
        if forward {
            assert_eq!(rec.src, at, "witness hop disconnects");
            at = rec.dst;
        } else {
            assert_eq!(rec.dst, at, "witness hop disconnects");
            at = rec.src;
        }
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_engine_is_decision_equivalent_to_the_reference(case in case_strategy()) {
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("generated paths parse"))
            .collect();
        let snap = g.snapshot();

        for (path, text) in parsed.iter().zip(&case.paths) {
            for owner in g.nodes() {
                let truth = online::evaluate_reference(&g, owner, path, None);
                let fast = online::evaluate_with_snapshot(&g, &snap, owner, path, None);
                prop_assert_eq!(
                    &fast.matched, &truth.matched,
                    "audience mismatch: path={} owner={}", text, owner
                );
                // Identical traversal ⇒ identical state counts.
                prop_assert_eq!(
                    fast.stats.states_visited, truth.stats.states_visited,
                    "state count mismatch: path={} owner={}", text, owner
                );
                // The wrapper (thread-cached snapshot) agrees too.
                let wrapped = online::evaluate(&g, owner, path, None);
                prop_assert_eq!(&wrapped.matched, &truth.matched);

                for requester in g.nodes() {
                    let truth = online::evaluate_reference(&g, owner, path, Some(requester));
                    let fast = online::evaluate_with_snapshot(&g, &snap, owner, path, Some(requester));
                    prop_assert_eq!(
                        fast.granted, truth.granted,
                        "decision mismatch: path={} owner={} requester={}",
                        text, owner, requester
                    );
                    prop_assert_eq!(fast.witness.is_some(), fast.granted);
                    if let Some(w) = &fast.witness {
                        // Valid witness: a connected walk owner ⇝ requester.
                        let end = replay_witness(&g, owner, w);
                        prop_assert_eq!(end, requester, "path={}", text);
                        // Same-length (both BFS, both shortest in hops).
                        let truth_len = truth.witness.as_ref().expect("reference grants too").len();
                        prop_assert_eq!(w.len(), truth_len, "witness length: path={}", text);
                    }
                }
            }
        }
    }

    #[test]
    fn batch_audiences_equal_reference_audiences(case in case_strategy()) {
        // The multi-source plan engine, run as a one-path plan with
        // every owner a condition of it, must agree member-for-member
        // with the reference spec for every owner, including duplicate
        // owners in one chunk (masks must not cross-contaminate).
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("generated paths parse"))
            .collect();
        let snap = g.snapshot();
        let mut owners: Vec<NodeId> = g.nodes().collect();
        owners.push(NodeId(0)); // duplicate source in the same chunk

        for (path, text) in parsed.iter().zip(&case.paths) {
            let plan = BundlePlan::compile(&vec![path; owners.len()]).expect("one chain");
            let batch = evaluate_plan_audiences(&g, &snap, &plan, &owners);
            prop_assert_eq!(batch.audiences.len(), owners.len());
            for (owner, audience) in owners.iter().zip(&batch.audiences) {
                let truth = online::evaluate_reference(&g, *owner, path, None);
                prop_assert_eq!(
                    audience, &truth.matched,
                    "batch audience mismatch: path={} owner={}", text, owner
                );
            }
        }
    }

    #[test]
    fn mutation_during_a_session_is_always_visible(case in case_strategy()) {
        // Evaluate → mutate → evaluate must see the new edge through
        // every entry point (generation invalidation end to end).
        let mut g = case.graph;
        let Some(text) = case.paths.first() else { return Ok(()); };
        let path = parse_path(text, g.vocab_mut()).expect("parses");
        let owner = NodeId(0);
        let _ = online::evaluate(&g, owner, &path, None);
        let label = g.vocab().label(LABELS[0]).unwrap();
        let extra = NodeId((g.num_nodes() - 1) as u32);
        g.add_edge(owner, extra, label);
        let after = online::evaluate(&g, owner, &path, None);
        let truth = online::evaluate_reference(&g, owner, &path, None);
        prop_assert_eq!(after.matched, truth.matched, "path={}", text);
    }
}
