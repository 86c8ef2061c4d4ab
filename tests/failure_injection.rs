//! Failure injection: malformed inputs, degenerate graphs, and limit
//! boundaries. The policy layer must fail *closed* and fail *loudly*
//! (typed errors), never panic or silently grant.

use socialreach::core::{plan, PlanConfig};
use socialreach::{
    parse_path, AccessControlSystem, AccessService, Decision, Deployment, EvalError, Explanation,
    JoinEngineConfig, JoinIndexEngine, JoinStrategy, MutateService, PathExpr, SocialGraph,
};

// ---------------------------------------------------------------------
// Parser abuse
// ---------------------------------------------------------------------

#[test]
fn parser_rejects_garbage_without_panicking() {
    let garbage = [
        "",
        " ",
        "/",
        "//",
        "[1]",
        "{x=1}",
        "friend+[",
        "friend+[]",
        "friend+[,]",
        "friend+[1,]",
        "friend+[..]",
        "friend+[..3]",
        "friend{",
        "friend{}",
        "friend{=}",
        "friend{a==}",
        "friend{a=\"",
        "friend++",
        "friend+-",
        "friend/",
        "friend+[999999999999999999]",
        "friend+[0..0]",
        "friend*{a~}",
        "🦀+[1]",
    ];
    for text in garbage {
        let mut vocab = socialreach::graph::Vocabulary::new();
        let result = parse_path(text, &mut vocab);
        assert!(
            result.is_err(),
            "{text:?} should be rejected, got {result:?}"
        );
    }
}

#[test]
fn parse_error_positions_are_in_bounds() {
    for text in ["friend+[", "friend korea", "friend{age>}"] {
        let mut vocab = socialreach::graph::Vocabulary::new();
        let err = parse_path(text, &mut vocab).unwrap_err();
        assert!(
            err.pos <= text.len(),
            "position {} beyond {text:?}",
            err.pos
        );
        // Display must not panic on any position.
        let _ = err.to_string();
    }
}

// ---------------------------------------------------------------------
// Degenerate graphs
// ---------------------------------------------------------------------

#[test]
fn empty_graph_everything_denies_cleanly() {
    let mut sys = AccessControlSystem::new_indexed();
    let ghost = sys.add_user("OnlyUser");
    let rid = sys.add_resource(ghost);
    sys.add_rule(rid, "friend+[1..]").unwrap();
    // No edges at all: nobody but the owner.
    assert_eq!(sys.service().check(rid, ghost).unwrap(), Decision::Grant);
    assert_eq!(sys.service().audience(rid).unwrap(), vec![ghost]);
}

#[test]
fn self_loops_are_handled_by_every_engine() {
    // A member who "friends" themselves: walks may traverse the loop
    // repeatedly; engines must agree and terminate.
    let mut g = SocialGraph::new();
    let a = g.add_node("Narcissus");
    let b = g.add_node("Echo");
    let friend = g.intern_label("friend");
    g.add_edge(a, a, friend);
    g.add_edge(a, b, friend);
    let path = parse_path("friend+[3]", g.vocab_mut()).unwrap();

    let truth = socialreach::online::evaluate(&g, a, &path, None);
    for strategy in [
        JoinStrategy::PaperFaithful,
        JoinStrategy::OwnerSeeded,
        JoinStrategy::AdjacencyOnly,
    ] {
        let engine = JoinIndexEngine::build(
            &g,
            JoinEngineConfig {
                strategy,
                ..JoinEngineConfig::default()
            },
        );
        let got = socialreach::AccessEngine::audience(&engine, &g, a, &path).unwrap();
        assert_eq!(got.members, truth.matched, "strategy {strategy:?}");
    }
    // loop³ ends on Narcissus, loop²·out ends on Echo: both match.
    assert_eq!(truth.matched, vec![a, b]);
}

#[test]
fn parallel_edges_count_as_distinct_relationships() {
    let mut g = SocialGraph::new();
    let a = g.add_node("A");
    let b = g.add_node("B");
    let friend = g.intern_label("friend");
    g.add_edge(a, b, friend);
    g.add_edge(a, b, friend); // duplicate tie
    let path = parse_path("friend+[1]", g.vocab_mut()).unwrap();
    let out = socialreach::online::evaluate(&g, a, &path, None);
    assert_eq!(out.matched, vec![b], "audience is a set, not a bag");
}

#[test]
fn isolated_owner_with_reverse_policy() {
    let mut g = SocialGraph::new();
    let a = g.add_node("A");
    let b = g.add_node("B");
    g.intern_label("friend");
    let path = parse_path("friend-[1,2]", g.vocab_mut()).unwrap();
    let out = socialreach::online::evaluate(&g, a, &path, Some(b));
    assert!(!out.granted);
}

// ---------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------

#[test]
fn plan_overflow_is_a_typed_error_not_a_hang() {
    let mut vocab = socialreach::graph::Vocabulary::new();
    // 4 both-direction steps of depth 4 = 2^16 orientation vectors.
    let path = parse_path("friend*[4]/friend*[4]/friend*[4]/friend*[4]", &mut vocab).unwrap();
    let err = plan(
        &path,
        &PlanConfig {
            max_depth: 8,
            max_line_queries: 1000,
        },
    )
    .unwrap_err();
    assert!(matches!(err, EvalError::PlanOverflow { .. }));
}

#[test]
fn tuple_overflow_denies_nothing_silently() {
    // A dense bidirectional clique with a tiny budget: the engine must
    // surface TupleOverflow, not return a partial (wrong) decision.
    let mut g = SocialGraph::new();
    let nodes: Vec<_> = (0..8).map(|i| g.add_node(&format!("u{i}"))).collect();
    let f = g.intern_label("friend");
    for &x in &nodes {
        for &y in &nodes {
            if x != y {
                g.add_edge(x, y, f);
            }
        }
    }
    let path = parse_path("friend+[4]", g.vocab_mut()).unwrap();
    let engine = JoinIndexEngine::build(
        &g,
        JoinEngineConfig {
            strategy: JoinStrategy::PaperFaithful,
            max_tuples: 100,
            ..JoinEngineConfig::default()
        },
    );
    let err = engine.evaluate(&g, nodes[0], &path, None).unwrap_err();
    assert!(matches!(err, EvalError::TupleOverflow { limit: 100 }));
}

#[test]
fn unknown_labels_in_policies_deny_but_do_not_error() {
    // A policy can reference a relationship type no edge carries yet:
    // it simply matches nobody (fail closed) — and starts matching once
    // such edges appear.
    let mut sys = AccessControlSystem::new_online();
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    sys.add_relationship(a, "friend", b);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "mentor+[1]").unwrap();
    assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Deny);
    sys.add_relationship(a, "mentor", b);
    assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Grant);
}

#[test]
fn deep_unbounded_policy_terminates_on_cyclic_graphs() {
    // friend+[1..] over a cycle: the online engine's saturation must
    // terminate; the join planner truncates at max_depth.
    let mut sys = AccessControlSystem::new_online();
    let users: Vec<_> = (0..10).map(|i| sys.add_user(&format!("u{i}"))).collect();
    for i in 0..10 {
        sys.add_relationship(users[i], "friend", users[(i + 1) % 10]);
    }
    let rid = sys.add_resource(users[0]);
    sys.add_rule(rid, "friend+[1..]").unwrap();
    for &u in &users {
        assert_eq!(sys.service().check(rid, u).unwrap(), Decision::Grant);
    }
}

// ---------------------------------------------------------------------
// The same failure modes through the deployment-agnostic traits
// ---------------------------------------------------------------------

/// The deployment shapes the fail-closed scenarios below must hold on
/// — notably the sharded serving layer, whose error paths cross shard
/// boundaries.
fn trait_deployments() -> Vec<Deployment> {
    vec![
        Deployment::online(),
        Deployment::sharded(1, 3),
        Deployment::sharded(4, 3),
    ]
}

#[test]
fn garbage_rules_are_rejected_through_every_deployment() {
    // `add_rule` is the trait-level parser surface: every garbage
    // expression must come back as a typed error on every backend —
    // and a rejected rule must leave no trace (decisions unchanged).
    let garbage = [
        "",
        "friend+[",
        "friend+[]",
        "friend{a==}",
        "friend++",
        "🦀+[1]",
    ];
    for deployment in trait_deployments() {
        let mut svc = deployment.build();
        let (b, rid) = {
            let w = svc.writes();
            let a = w.add_user("A");
            let b = w.add_user("B");
            w.add_relationship(a, "friend", b);
            (b, w.add_resource(a))
        };
        let label = svc.reads().describe();
        for text in garbage {
            assert!(
                svc.writes().add_rule(rid, text).is_err(),
                "{text:?} accepted by {label}"
            );
        }
        assert_eq!(
            svc.reads().check(rid, b).unwrap(),
            Decision::Deny,
            "rejected rules must not leak into decisions ({})",
            svc.reads().describe()
        );
    }
}

/// `steps` outgoing `friend` hops, in classic or `MATCH` syntax, plus
/// the byte offset where the last step starts.
fn long_policy(steps: usize, cypher: bool) -> (String, usize) {
    let (head, step, sep) = if cypher {
        ("MATCH (o)", "-[:friend]->(v)", "")
    } else {
        ("", "friend+", "/")
    };
    let body = vec![step; steps].join(sep);
    let text = format!("{head}{body}");
    let last = text.len() - step.len();
    (text, last)
}

#[test]
fn over_long_paths_are_refused_at_parse_time_never_truncated() {
    // Engines address a path's steps in a `u16` slot. A budget-sized
    // path must evaluate exactly; one step more must be a typed,
    // caret-anchored refusal in both syntaxes on every backend — never
    // a wrapped step index (a wrong answer) or a panic on the next read.
    let budget = PathExpr::MAX_STEPS;
    for deployment in trait_deployments() {
        let mut svc = deployment.build();
        let ring: Vec<_> = (0..8)
            .map(|i| svc.writes().add_user(&format!("u{i}")))
            .collect();
        for i in 0..8 {
            svc.writes()
                .add_relationship(ring[i], "friend", ring[(i + 1) % 8]);
        }
        let rid = svc.writes().add_resource(ring[0]);
        svc.writes()
            .add_rule(rid, &long_policy(budget, false).0)
            .unwrap();
        let label = svc.reads().describe();

        // `budget` hops around an 8-ring end on member `budget % 8`.
        let end = ring[budget % 8];
        let decisions = |svc: &dyn AccessService| -> Vec<Decision> {
            ring.iter().map(|&u| svc.check(rid, u).unwrap()).collect()
        };
        let before = decisions(svc.reads());
        for (&u, &d) in ring.iter().zip(&before) {
            let expect = u == ring[0] || u == end;
            assert_eq!(d.is_granted(), expect, "{u:?} on {label}");
        }
        assert_eq!(svc.reads().audience(rid).unwrap(), vec![ring[0], end]);
        match svc.reads().explain(rid, end).unwrap() {
            Some(Explanation::Rule { walks }) => {
                assert_eq!(walks[0].hops.len(), budget, "{label}")
            }
            other => panic!("expected a {budget}-hop walk on {label}, got {other:?}"),
        }

        for cypher in [false, true] {
            let (text, last_step) = long_policy(budget + 1, cypher);
            for err in [
                svc.writes().add_rule(rid, &text).unwrap_err(),
                svc.reads().query_audience(ring[0], &text).unwrap_err(),
            ] {
                let EvalError::Parse(e) = err else {
                    panic!("expected a parse error on {label}, got {err:?}");
                };
                assert_eq!(e.pos, last_step, "caret at the step past the budget");
                assert!(e.message.contains("at most 65535 steps"), "{}", e.message);
            }
        }
        assert_eq!(
            decisions(svc.reads()),
            before,
            "refused rules leave no trace"
        );
        assert_eq!(svc.reads().audience(rid).unwrap(), vec![ring[0], end]);
    }
}

#[test]
fn garbage_rules_are_never_persisted_by_the_durable_decorator() {
    // The WAL logs only validated operations: a rejected rule leaves
    // the log untouched, so recovery can never replay it.
    let dir = std::env::temp_dir().join(format!("srdur-failinj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut svc = Deployment::sharded(3, 3).durable(&dir).unwrap();
        let a = svc.writes().add_user("A");
        let rid = svc.writes().add_resource(a);
        let before = svc.wal_records();
        assert!(svc.writes().add_rule(rid, "friend+[").is_err());
        assert_eq!(svc.wal_records(), before, "a rejected rule was logged");
    }
    let recovered = Deployment::sharded(3, 3).durable(&dir).unwrap();
    assert_eq!(recovered.wal_records(), 2);
    assert_eq!(recovered.reads().num_members(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_graph_denies_cleanly_on_every_deployment() {
    for deployment in trait_deployments() {
        let mut svc = deployment.build();
        let ghost = svc.writes().add_user("OnlyUser");
        let rid = svc.writes().add_resource(ghost);
        svc.writes().add_rule(rid, "friend+[1..8]").unwrap();
        let reads: &dyn AccessService = svc.reads();
        assert_eq!(reads.check(rid, ghost).unwrap(), Decision::Grant);
        assert_eq!(reads.audience(rid).unwrap(), vec![ghost]);
    }
}

#[test]
fn unknown_labels_deny_but_do_not_error_on_every_deployment() {
    for deployment in trait_deployments() {
        let mut svc = deployment.build();
        let a = svc.writes().add_user("A");
        let b = svc.writes().add_user("B");
        svc.writes().add_relationship(a, "friend", b);
        let rid = svc.writes().add_resource(a);
        svc.writes().add_rule(rid, "mentor+[1]").unwrap();
        assert_eq!(svc.reads().check(rid, b).unwrap(), Decision::Deny);
        svc.writes().add_relationship(a, "mentor", b);
        assert_eq!(svc.reads().check(rid, b).unwrap(), Decision::Grant);
    }
}

#[test]
fn deep_bounded_policies_terminate_on_cyclic_graphs_on_every_deployment() {
    // A friend cycle with a deep bounded policy: the cross-shard
    // fixpoint must converge (visited-state dedup), not ping-pong
    // around the ring forever.
    for deployment in trait_deployments() {
        let mut svc = deployment.build();
        let users: Vec<_> = (0..10)
            .map(|i| svc.writes().add_user(&format!("u{i}")))
            .collect();
        for i in 0..10 {
            svc.writes()
                .add_relationship(users[i], "friend", users[(i + 1) % 10]);
        }
        let rid = svc.writes().add_resource(users[0]);
        svc.writes().add_rule(rid, "friend+[1..32]").unwrap();
        for &u in &users {
            assert_eq!(
                svc.reads().check(rid, u).unwrap(),
                Decision::Grant,
                "cycle member on {}",
                svc.reads().describe()
            );
        }
    }
}

#[test]
fn attribute_type_confusion_fails_closed_on_every_deployment() {
    for deployment in trait_deployments() {
        let mut svc = deployment.build();
        let a = svc.writes().add_user("A");
        let b = svc.writes().add_user("B");
        svc.writes().add_relationship(a, "friend", b);
        svc.writes().set_user_attr(b, "age", "twenty-six".into());
        let rid = svc.writes().add_resource(a);
        svc.writes().add_rule(rid, "friend+[1]{age>=18}").unwrap();
        assert_eq!(
            svc.reads().check(rid, b).unwrap(),
            Decision::Deny,
            "text 'age' must not satisfy a numeric predicate ({})",
            svc.reads().describe()
        );
    }
}

#[test]
fn attribute_type_confusion_fails_closed() {
    let mut sys = AccessControlSystem::new_online();
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    sys.add_relationship(a, "friend", b);
    sys.set_user_attr(b, "age", "twenty-six".into()); // text, not a number
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend+[1]{age>=18}").unwrap();
    assert_eq!(
        sys.service().check(rid, b).unwrap(),
        Decision::Deny,
        "text 'age' must not satisfy a numeric predicate"
    );
}
