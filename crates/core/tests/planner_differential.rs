//! The read routes the planner dispatches through are interchangeable:
//! on seeded random cases, both audience strategies and all three check
//! plans, forced on the online and on a sharded deployment, and the
//! planner's forced modes over each, return the shared-nothing oracle's
//! (`common::oracle`) answers, so a misprediction may only ever cost
//! latency. Every mode, deployment and read shape is
//! `differential_matrix`.

mod common;

use proptest::prelude::*;
use socialreach_core::BundleStrategy::{Batched, PerCondition};
use socialreach_core::CheckPlan::{Audience, Targeted};
use socialreach_core::{AccessService, Deployment, PlannedService, PlannerMode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forced entry points and forced planner modes, on both backends,
    /// against the oracle.
    #[test]
    fn forced_routes_agree_on_both_backends(case in common::cases(), seed in 0..1000u64) {
        let (rids, want) = (common::case_rids(&case), common::oracle_audiences(&case));
        let (pairs, granted) = common::oracle_pairs(&case);
        let decide = |reads: &dyn AccessService, plan| {
            let (got, _) = reads.check_batch_forced(&pairs, 2, plan).unwrap();
            got.iter().map(|d| d.is_granted()).collect::<Vec<bool>>()
        };
        for deployment in [Deployment::online(), Deployment::sharded(3, seed)] {
            let svc = common::serve(&deployment, &case);
            let on = deployment.describe();
            for strategy in [Batched, PerCondition] {
                let (got, _) = svc.reads().audience_batch_forced(&rids, strategy).unwrap();
                prop_assert_eq!(&got, &want, "audience strategy {:?} on {}", strategy, on);
            }
            for plan in [Targeted, Audience(Batched), Audience(PerCondition)] {
                let got = decide(svc.reads(), plan);
                prop_assert_eq!(&got, &granted, "check plan {:?} on {}", plan, on);
            }
            for mode in [PlannerMode::ForcedBatch, PlannerMode::ForcedPerCondition] {
                let planned = PlannedService::over(common::serve(&deployment, &case), mode);
                let got = planned.audience_batch(&rids).unwrap();
                prop_assert_eq!(&got, &want, "{:?} audiences on {}", mode, on);
                let got = planned.check_batch(&pairs, 2).unwrap();
                let got: Vec<bool> = got.iter().map(|d| d.is_granted()).collect();
                prop_assert_eq!(&got, &granted, "{:?} checks on {}", mode, on);
            }
        }
    }
}
