//! Facade-level integration tests: full scenarios through
//! `AccessControlSystem`, cross-engine agreement on generated
//! workloads, serde persistence, and failure handling.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socialreach::workload::{generate_policies, uniform_requests, GraphSpec, PolicyWorkloadConfig};
use socialreach::{
    AccessControlSystem, Decision, Enforcer, EngineChoice, JoinEngineConfig, JoinIndexEngine,
    JoinStrategy, MutateService, OnlineEngine, PolicyStore,
};

#[test]
fn engines_agree_on_a_generated_workload() {
    let mut g = GraphSpec::ba_osn(120, 77).build();
    let mut store = PolicyStore::new();
    let mut rng = StdRng::seed_from_u64(78);
    let cfg = PolicyWorkloadConfig {
        num_resources: 12,
        out_prob: 0.6,
        deep_prob: 0.3,
        ..PolicyWorkloadConfig::default()
    };
    let rids = generate_policies(&mut g, &mut store, &cfg, &mut rng);
    let requests = uniform_requests(&g, &store, &rids, 60, &mut rng);

    let online = Enforcer::new(OnlineEngine);
    let indexed = Enforcer::new(JoinIndexEngine::build(
        &g,
        JoinEngineConfig {
            strategy: JoinStrategy::AdjacencyOnly,
            ..JoinEngineConfig::default()
        },
    ));
    for r in &requests {
        let d1 = online
            .check_access(&g, &store, r.resource, r.requester)
            .expect("online ok");
        let d2 = indexed
            .check_access(&g, &store, r.resource, r.requester)
            .expect("indexed ok");
        assert_eq!(d1, d2, "engines disagree on {r:?}");
        assert_eq!(d1 == Decision::Grant, r.expect_grant, "ground truth");
    }
}

#[test]
fn multi_rule_multi_condition_policies_compose() {
    let mut sys = AccessControlSystem::new_online();
    let alice = sys.add_user("Alice");
    let bob = sys.add_user("Bob");
    let carol = sys.add_user("Carol");
    let dave = sys.add_user("Dave");
    sys.add_relationship(alice, "friend", bob);
    sys.add_relationship(bob, "friend", carol);
    sys.add_relationship(alice, "colleague", dave);
    sys.add_relationship(dave, "friend", carol);

    // Resource with two alternative audiences:
    //   rule 1: direct friends,
    //   rule 2: colleagues' friends.
    let doc = sys.add_resource(alice);
    sys.add_rule(doc, "friend+[1]").expect("rule 1");
    sys.add_rule(doc, "colleague+[1]/friend+[1]")
        .expect("rule 2");

    assert_eq!(sys.service().check(doc, bob).unwrap(), Decision::Grant); // rule 1
    assert_eq!(sys.service().check(doc, carol).unwrap(), Decision::Grant); // rule 2
    assert_eq!(sys.service().check(doc, dave).unwrap(), Decision::Deny); // neither

    let audience = sys.service().audience(doc).unwrap();
    let names: Vec<&str> = audience.iter().map(|&n| sys.graph().node_name(n)).collect();
    assert_eq!(names, vec!["Alice", "Bob", "Carol"]);
}

#[test]
fn policy_changes_take_effect_immediately() {
    for choice in [
        EngineChoice::Online,
        EngineChoice::JoinIndex(JoinEngineConfig::default()),
    ] {
        let mut sys = AccessControlSystem::new(choice);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        sys.add_relationship(alice, "friend", bob);
        let rid = sys.add_resource(alice);
        assert_eq!(
            sys.service().check(rid, bob).unwrap(),
            Decision::Deny,
            "private"
        );
        sys.add_rule(rid, "friend+[1]").unwrap();
        assert_eq!(
            sys.service().check(rid, bob).unwrap(),
            Decision::Grant,
            "after allow"
        );
    }
}

#[test]
fn graph_and_policies_round_trip_through_serde() {
    let mut g = GraphSpec::ba_osn(60, 5).build();
    let mut store = PolicyStore::new();
    let mut rng = StdRng::seed_from_u64(6);
    let rids = generate_policies(
        &mut g,
        &mut store,
        &PolicyWorkloadConfig {
            num_resources: 5,
            ..PolicyWorkloadConfig::default()
        },
        &mut rng,
    );

    let g_json = serde_json::to_string(&g).expect("graph serializes");
    let store_json = serde_json::to_string(&store).expect("store serializes");
    let mut g2: socialreach::SocialGraph = serde_json::from_str(&g_json).expect("graph parses");
    g2.rebuild_lookups();
    let store2: PolicyStore = serde_json::from_str(&store_json).expect("store parses");

    assert_eq!(g2.num_nodes(), g.num_nodes());
    assert_eq!(g2.num_edges(), g.num_edges());
    assert_eq!(store2.num_rules(), store.num_rules());

    // Decisions must be identical on the revived state.
    let online = Enforcer::new(OnlineEngine);
    let requests = uniform_requests(&g, &store, &rids, 30, &mut rng);
    for r in &requests {
        let before = online
            .check_access(&g, &store, r.resource, r.requester)
            .unwrap();
        let after = online
            .check_access(&g2, &store2, r.resource, r.requester)
            .unwrap();
        assert_eq!(before, after);
    }
}

#[test]
fn deny_by_default_and_owner_override_hold_for_every_engine() {
    for choice in [
        EngineChoice::Online,
        EngineChoice::JoinIndex(JoinEngineConfig::default()),
    ] {
        let mut sys = AccessControlSystem::new(choice);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        let rid = sys.add_resource(alice);
        assert_eq!(
            sys.service().check(rid, alice).unwrap(),
            Decision::Grant,
            "owner"
        );
        assert_eq!(
            sys.service().check(rid, bob).unwrap(),
            Decision::Deny,
            "stranger"
        );
    }
}

#[test]
fn unbounded_depth_agrees_between_online_and_truncated_index() {
    // On a short-diameter graph the planner's max_depth cap is not a
    // truncation in practice: decisions agree with the exact engine.
    let mut sys_online = AccessControlSystem::new_online();
    let mut sys_indexed = AccessControlSystem::new_indexed();
    for sys in [&mut sys_online, &mut sys_indexed] {
        let a = sys.add_user("a");
        let b = sys.add_user("b");
        let c = sys.add_user("c");
        let d = sys.add_user("d");
        sys.add_relationship(a, "friend", b);
        sys.add_relationship(b, "friend", c);
        sys.add_relationship(c, "friend", d);
        let rid = sys.add_resource(a);
        sys.add_rule(rid, "friend+[1..]").unwrap();
        let target = sys.user("d").unwrap();
        assert_eq!(sys.service().check(rid, target).unwrap(), Decision::Grant);
    }
}

#[test]
fn malformed_policy_is_rejected_with_position() {
    let mut sys = AccessControlSystem::new_online();
    let alice = sys.add_user("Alice");
    let rid = sys.add_resource(alice);
    let err = sys.add_rule(rid, "friend+[2..1]").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("empty depth range"), "got: {msg}");
}
