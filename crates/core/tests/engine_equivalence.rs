//! The central correctness property of the reproduction: the §3
//! join-index engine (all three strategies) computes exactly the same
//! audiences and decisions as the §1 online product BFS, on arbitrary
//! graphs and arbitrary policies; so does the online engine's check,
//! which walks from both ends.

mod common;

use proptest::prelude::*;
use socialreach_core::{
    online, parse_path, AccessEngine, JoinEngineConfig, JoinIndexEngine, JoinStrategy,
    OnlineEngine, PathExpr,
};
use socialreach_graph::SocialGraph;

#[derive(Clone, Debug)]
struct Case {
    graph: SocialGraph,
    paths: Vec<String>,
}

/// Random graphs (see `common::oracle::graph`) and paths from a pool
/// inside the fragment the join engines plan within their budget:
/// bounded depths, one interval per step.
fn case_strategy() -> impl Strategy<Value = Case> {
    let graph = common::graphs(2..9, 0..20, 3);
    let path_pool = prop::sample::subsequence(
        vec![
            "friend+[1]".to_string(),
            "friend-[1]".to_string(),
            "friend*[1]".to_string(),
            "friend+[1,2]".to_string(),
            "friend+[2..3]".to_string(),
            "friend*[1..2]".to_string(),
            "friend+[1]/colleague+[1]".to_string(),
            "friend*[1]/parent-[1]".to_string(),
            "colleague+[1,2]/friend+[1]".to_string(),
            "friend+[1..2]{age>=30}".to_string(),
            "parent+[1]/friend*[1]{age<40}".to_string(),
            "friend+[1]/friend+[1]/friend+[1]".to_string(),
        ],
        1..5,
    );

    (graph, path_pool).prop_map(|(graph, paths)| Case { graph, paths })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_engines_match_online_ground_truth(case in case_strategy()) {
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("pool paths parse"))
            .collect();

        let engines: Vec<JoinIndexEngine> = [
            JoinStrategy::PaperFaithful,
            JoinStrategy::OwnerSeeded,
            JoinStrategy::AdjacencyOnly,
        ]
        .into_iter()
        .map(|strategy| {
            JoinIndexEngine::build(
                &g,
                JoinEngineConfig { strategy, ..JoinEngineConfig::default() },
            )
        })
        .collect();

        for (path, text) in parsed.iter().zip(&case.paths) {
            for owner in g.nodes() {
                let truth = online::evaluate(&g, owner, path, None);
                for engine in &engines {
                    let got = engine.evaluate(&g, owner, path, None).unwrap();
                    prop_assert_eq!(
                        &got.matched,
                        &truth.matched,
                        "{} audience mismatch: path={} owner={}",
                        engine.name(),
                        text,
                        owner
                    );
                }
                // Spot-check the decision API on every possible requester.
                for requester in g.nodes() {
                    let expect = truth.matched.contains(&requester);
                    // The online engine's check, walked from both ends.
                    prop_assert_eq!(
                        OnlineEngine.check(&g, owner, path, requester).unwrap().granted,
                        expect,
                        "check mismatch: path={} owner={} requester={}",
                        text,
                        owner,
                        requester
                    );
                    for engine in &engines {
                        let got = engine
                            .evaluate(&g, owner, path, Some(requester))
                            .unwrap();
                        prop_assert_eq!(
                            got.granted,
                            expect,
                            "{} decision mismatch: path={} owner={} requester={}",
                            engine.name(),
                            text,
                            owner,
                            requester
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn witness_walks_always_replay(case in case_strategy()) {
        let mut g = case.graph;
        let parsed: Vec<PathExpr> = case
            .paths
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).expect("pool paths parse"))
            .collect();
        for path in &parsed {
            for owner in g.nodes() {
                for requester in g.nodes() {
                    let out = online::evaluate(&g, owner, path, Some(requester));
                    if let Some(witness) = out.witness {
                        prop_assert!(out.granted);
                        // The witness must be a connected walk from the
                        // owner to the requester.
                        let mut at = owner;
                        for (eid, forward) in witness {
                            let rec = g.edge(eid);
                            if forward {
                                prop_assert_eq!(rec.src, at);
                                at = rec.dst;
                            } else {
                                prop_assert_eq!(rec.dst, at);
                                at = rec.src;
                            }
                        }
                        prop_assert_eq!(at, requester);
                    } else {
                        prop_assert!(!out.granted);
                    }
                }
            }
        }
    }
}
