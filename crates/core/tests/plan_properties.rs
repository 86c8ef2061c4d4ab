//! Property tests for the §3.1 line-query planner: the expansion must be
//! complete (every authorized depth/orientation combination within the
//! caps appears exactly once) and structurally well-formed.

mod common;

use proptest::prelude::*;
use socialreach_core::{parse_path, plan, PlanConfig};
use socialreach_graph::Vocabulary;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expansion_is_complete_and_duplicate_free(text in common::path_texts(1..4, 2)) {
        let mut vocab = Vocabulary::new();
        let path = parse_path(&text, &mut vocab).expect("generated paths parse");
        let cfg = PlanConfig { max_depth: 6, max_line_queries: 100_000 };
        let Ok(lp) = plan(&path, &cfg) else {
            return Ok(()); // overflow is acceptable; completeness is vacuous
        };

        // Expected query count: product over steps of
        // Σ_{k ∈ depths∩[1..cap]} orientations^k.
        let mut expect: u128 = 1;
        for step in &path.steps {
            let orients: u128 = match step.dir {
                socialreach_graph::Direction::Both => 2,
                _ => 1,
            };
            let mut per_step: u128 = 0;
            for k in step.depths.depths_up_to(cfg.max_depth) {
                per_step += orients.pow(k);
            }
            expect *= per_step;
        }
        prop_assert_eq!(lp.queries.len() as u128, expect, "path {}", text);

        // Structural checks per query.
        for q in &lp.queries {
            prop_assert_eq!(q.hops.len(), q.step_of.len());
            // step_of is non-decreasing and covers all steps in order
            prop_assert!(q.step_of.windows(2).all(|w| w[0] <= w[1]));
            let mut seen: Vec<u16> = q.step_of.clone();
            seen.dedup();
            let all: Vec<u16> = (0..path.steps.len() as u16).collect();
            prop_assert_eq!(seen, all, "every step contributes a run");
            // each hop's label matches its owning step
            for (i, &(label, _)) in q.hops.iter().enumerate() {
                prop_assert_eq!(label, path.steps[q.step_of[i] as usize].label);
            }
            // run lengths are authorized depths
            for (pos, step_idx) in q.step_end_positions() {
                let run_len = q.step_of.iter().filter(|&&s| s == step_idx).count() as u32;
                prop_assert!(
                    path.steps[step_idx as usize].depths.contains(run_len)
                        || lp.truncated,
                    "run of {} hops at step {} must be authorized (pos {})",
                    run_len, step_idx, pos
                );
            }
        }
    }

    #[test]
    fn truncation_flag_iff_unbounded_depth(text in common::path_texts(1..4, 2)) {
        let mut vocab = Vocabulary::new();
        let path = parse_path(&text, &mut vocab).expect("parses");
        let cfg = PlanConfig { max_depth: 6, max_line_queries: 100_000 };
        if let Ok(lp) = plan(&path, &cfg) {
            // Bounded depth sets within the cap are never truncated.
            let has_unbounded = path.has_unbounded_depth();
            let beyond_cap = path
                .steps
                .iter()
                .any(|s| s.depths.max_depth().is_some_and(|m| m > cfg.max_depth));
            if !has_unbounded && !beyond_cap {
                prop_assert!(!lp.truncated, "{}", text);
            }
            if has_unbounded {
                prop_assert!(lp.truncated, "{}", text);
            }
        }
    }
}
