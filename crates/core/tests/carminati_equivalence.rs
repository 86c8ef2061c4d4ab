//! Property tests for the Carminati baseline (§4): on arbitrary graphs,
//! the trust-free fragment must coincide with the reachability model's
//! `label dir [1..radius]` audience, and trust thresholds must only ever
//! shrink audiences (monotonicity).

mod common;

use proptest::prelude::*;
use socialreach_core::carminati::{self, CarminatiRule, TrustAggregation};
use socialreach_core::online;
use socialreach_graph::{Direction, NodeId, SocialGraph};

/// Random `friend`/`colleague` graphs (see `common::oracle::graph`)
/// whose every edge carries a trust in tenths.
fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    let trusts = proptest::collection::vec(0..=10u32, 24);
    (common::graphs(2..10, 0..24, 2), trusts).prop_map(|(mut g, trusts)| {
        let edges: Vec<_> = g.edge_ids().collect();
        for (e, trust10) in edges.into_iter().zip(trusts) {
            g.set_edge_attr(e, "trust", trust10 as f64 / 10.0);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trust_free_baseline_equals_path_expression_audience(
        g in graph_strategy(),
        radius in 1..4u32,
        dir_pick in 0..3usize,
    ) {
        let dir = [Direction::Out, Direction::In, Direction::Both][dir_pick];
        let friend = g.vocab().label("friend").unwrap();
        let rule = CarminatiRule {
            label: friend,
            dir,
            max_depth: radius,
            min_trust: 0.0,
            trust_agg: TrustAggregation::Product,
            default_trust: 1.0,
        };
        let path = rule.to_path_expr();
        for owner in g.nodes() {
            let baseline = carminati::evaluate(&g, owner, &rule);
            let ours = online::evaluate(&g, owner, &path, None);
            prop_assert_eq!(
                &baseline.granted,
                &ours.matched,
                "owner {} radius {} dir {:?}",
                owner,
                radius,
                dir
            );
        }
    }

    #[test]
    fn raising_the_trust_threshold_shrinks_audiences(
        g in graph_strategy(),
        radius in 1..4u32,
    ) {
        let friend = g.vocab().label("friend").unwrap();
        let owner = NodeId(0);
        let mut previous: Option<Vec<NodeId>> = None;
        for threshold10 in [0u32, 3, 6, 9] {
            let rule = CarminatiRule {
                label: friend,
                dir: Direction::Both,
                max_depth: radius,
                min_trust: threshold10 as f64 / 10.0,
                trust_agg: TrustAggregation::Product,
                default_trust: 1.0,
            };
            let out = carminati::evaluate(&g, owner, &rule);
            if let Some(prev) = &previous {
                for granted in &out.granted {
                    prop_assert!(
                        prev.contains(granted),
                        "higher threshold granted someone new: {:?}",
                        granted
                    );
                }
            }
            previous = Some(out.granted);
        }
    }

    #[test]
    fn minimum_aggregation_dominates_product(
        g in graph_strategy(),
        radius in 1..4u32,
    ) {
        // Trusts are in [0,1], so min-aggregated trust >= product trust
        // along any walk; hence the min audience ⊇ product audience at
        // equal thresholds.
        let friend = g.vocab().label("friend").unwrap();
        let owner = NodeId(0);
        let base = CarminatiRule {
            label: friend,
            dir: Direction::Both,
            max_depth: radius,
            min_trust: 0.5,
            trust_agg: TrustAggregation::Product,
            default_trust: 1.0,
        };
        let product = carminati::evaluate(&g, owner, &base);
        let min = carminati::evaluate(
            &g,
            owner,
            &CarminatiRule {
                trust_agg: TrustAggregation::Minimum,
                ..base
            },
        );
        for granted in &product.granted {
            prop_assert!(
                min.granted.contains(granted),
                "product-granted {:?} missing under min",
                granted
            );
        }
    }
}
