//! Differential property tests for the adaptive read planner: on
//! random graphs × bundle-shaped random policies, a
//! [`PlannedService`] must be observationally identical to the
//! unplanned single-graph deployment in **every** mode — `Adaptive`,
//! `ForcedBatch`, `ForcedPerCondition` — over both backends and shard
//! counts {1, 4}. Strategy choice moves latency, never answers.
//!
//! The suite also pins the forced entry points themselves
//! (`audience_batch_forced` / `check_batch_forced`): every strategy ×
//! plan combination must return the same audiences and decisions as
//! the per-request reference reads, which is the invariant the
//! planner's whole design rests on.

mod common;

use proptest::prelude::*;
use socialreach_core::{
    parse_path, AccessService, BundleStrategy, CheckPlan, Deployment, PathExpr, PlannedService,
    PlannerMode, PolicyStore, ResourceId,
};
use socialreach_graph::{NodeId, SocialGraph};

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];
const MODES: [PlannerMode; 3] = [
    PlannerMode::Adaptive,
    PlannerMode::ForcedBatch,
    PlannerMode::ForcedPerCondition,
];

/// A bundle-shaped case: a small pool of path templates, and resources
/// instantiating them under many owners.
#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    templates: Vec<String>,
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
        proptest::collection::vec((0..16u32, 0..3usize), 1..8),
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

/// One single-condition rule per resource (templates shared across
/// owners) plus a conjunctive two-condition rule on the first resource
/// when two exist — the shape that exercises bundle dedup and the
/// targeted gate's condition counting.
fn build_store(g: &mut SocialGraph, case: &Case) -> PolicyStore {
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
        let (ao, ap) = conds[0].clone();
        let (bo, bp) = conds[1].clone();
        store
            .add_rule(socialreach_core::AccessRule {
                resource: rids[0],
                conditions: vec![
                    socialreach_core::AccessCondition {
                        owner: ao,
                        path: ap,
                    },
                    socialreach_core::AccessCondition {
                        owner: bo,
                        path: bp,
                    },
                ],
            })
            .expect("resource registered");
    }
    store
}

fn sorted_rids(store: &PolicyStore) -> Vec<ResourceId> {
    let mut rids: Vec<_> = store.resources().map(|(rid, _)| rid).collect();
    rids.sort_unstable();
    rids
}

/// The deployments each case runs under: single-graph, one shard
/// (degenerate sharding), four shards (real cross-shard routing).
fn deployments() -> [Deployment; 3] {
    [
        Deployment::online(),
        Deployment::sharded(1, 11),
        Deployment::sharded(4, 11),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adaptive ≡ forced-batch ≡ forced-per-condition ≡ the unplanned
    /// single-graph deployment, on every backend, across repeated
    /// passes (so the adaptive planner is exercised cold, warming, and
    /// warm — including its periodic probe ticks). Explanations from
    /// planned services stay automaton-valid.
    #[test]
    fn planned_reads_agree_across_modes_and_backends(case in case_strategy()) {
        let mut g = case.graph.clone();
        let store = build_store(&mut g, &case);
        let rids = sorted_rids(&store);
        let reference = Deployment::online().from_graph(&g, store.clone());
        let members: Vec<NodeId> = g.nodes().collect();

        for deployment in deployments() {
            for mode in MODES {
                let planned =
                    PlannedService::over(deployment.from_graph(&g, store.clone()), mode);
                // Three passes: pass 1 is cold start, later passes
                // serve from learned profiles (possibly different
                // routes). Answers may never move.
                for _ in 0..3 {
                    common::assert_services_agree(reference.reads(), &planned, &rids);
                }
                // The adaptive planner re-probes its thinner-evidenced
                // arm on every 256th decision: read bundles until the
                // first probe has been served too.
                if mode == PlannerMode::Adaptive {
                    let bundle = reference.reads().audience_batch(&rids).unwrap();
                    while planned.planner().decisions() < 256 {
                        prop_assert_eq!(&planned.audience_batch(&rids).unwrap(), &bundle);
                    }
                }
                // Granted explanations replay through the automaton.
                for &rid in &rids {
                    let conditions: Vec<(NodeId, PathExpr)> = store
                        .rules_for(rid)
                        .iter()
                        .flat_map(|r| r.conditions.iter())
                        .map(|c| (c.owner, c.path.clone()))
                        .collect();
                    for &m in &members {
                        if let Some(explanation) = planned.explain(rid, m).unwrap() {
                            common::assert_explanation_valid(&g, m, &conditions, &explanation);
                        }
                    }
                }
                // The planner really served the reads.
                prop_assert!(planned.planner().decisions() > 0, "mode={mode:?}");
            }
        }
    }

    /// The forced entry points themselves are interchangeable: both
    /// audience strategies and all three check plans return the
    /// reference answers on both backends. (This is the seam the
    /// planner dispatches through — a misprediction must only ever
    /// cost latency.)
    #[test]
    fn forced_routes_agree_on_both_backends(case in case_strategy()) {
        let mut g = case.graph.clone();
        let store = build_store(&mut g, &case);
        let rids = sorted_rids(&store);
        let reference = Deployment::online().from_graph(&g, store.clone());
        let expected_audiences = reference.reads().audience_batch(&rids).unwrap();
        let requests: Vec<(ResourceId, NodeId)> = rids
            .iter()
            .flat_map(|&rid| g.nodes().map(move |m| (rid, m)))
            .collect();
        let expected_decisions: Vec<_> = requests
            .iter()
            .map(|&(rid, m)| reference.reads().check(rid, m).unwrap())
            .collect();

        for deployment in deployments() {
            let svc = deployment.from_graph(&g, store.clone());
            for strategy in [BundleStrategy::Batched, BundleStrategy::PerCondition] {
                let (audiences, _) =
                    svc.reads().audience_batch_forced(&rids, strategy).unwrap();
                prop_assert_eq!(
                    &audiences, &expected_audiences,
                    "audience strategy {:?} on {}", strategy, svc.reads().describe()
                );
            }
            for plan in [
                CheckPlan::Targeted,
                CheckPlan::Audience(BundleStrategy::Batched),
                CheckPlan::Audience(BundleStrategy::PerCondition),
            ] {
                let (decisions, _) =
                    svc.reads().check_batch_forced(&requests, 2, plan).unwrap();
                prop_assert_eq!(
                    &decisions, &expected_decisions,
                    "check plan {:?} on {}", plan, svc.reads().describe()
                );
            }
        }
    }
}
