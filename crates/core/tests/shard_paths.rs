//! Cross-shard path regressions: hand-built graphs (with explicitly
//! pinned placements) where the only satisfying walks cross shard
//! boundaries a known number of times — once, twice, N times, with
//! label changes and direction reversals *at* the boundary — plus the
//! guarantee that members whose every relationship is cross-shard
//! ("boundary-only" members) still appear in audiences.

mod common;

use socialreach_core::{
    online, parse_path, Decision, Deployment, Explanation, MutateService, PolicyStore,
    ShardedSystem,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};

/// Pins `names[i]` to `shards[i]`, everyone else hashed.
fn pinned(shard_count: u32, names: &[&str], shards: &[u32]) -> ShardAssignment {
    ShardAssignment::explicit(
        shard_count,
        0,
        names
            .iter()
            .zip(shards)
            .map(|(n, &s)| (n.to_string(), s))
            .collect(),
    )
}

#[test]
fn single_crossing_grants_and_appears_in_audience() {
    // A(s0) -friend-> B(s1): the one satisfying walk crosses once.
    let mut sys = ShardedSystem::with_assignment(pinned(2, &["A", "B"], &[0, 1]));
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    sys.add_relationship(a, "friend", b);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend+[1]").unwrap();
    assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Grant);
    assert_eq!(sys.service().audience(rid).unwrap(), vec![a, b]);
    assert_eq!(sys.boundary().len(), 1);
}

#[test]
fn double_crossing_out_and_back() {
    // A(s0) -friend-> B(s1) -friend-> C(s0): the walk leaves shard 0
    // and comes back — two crossings, target on the owner's own shard.
    let mut sys = ShardedSystem::with_assignment(pinned(2, &["A", "B", "C"], &[0, 1, 0]));
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    let c = sys.add_user("C");
    sys.add_relationship(a, "friend", b);
    sys.add_relationship(b, "friend", c);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend+[2]").unwrap();
    assert_eq!(sys.boundary().len(), 2, "both hops cross");
    assert_eq!(sys.service().check(rid, c).unwrap(), Decision::Grant);
    assert_eq!(
        sys.service().check(rid, b).unwrap(),
        Decision::Deny,
        "depth hole: exactly two hops required"
    );
    assert_eq!(sys.service().audience(rid).unwrap(), vec![a, c]);
    // The stitched explanation covers the full out-and-back walk.
    let lines = sys
        .service()
        .explain_lines(rid, c)
        .unwrap()
        .expect("granted");
    assert_eq!(lines[0], "A -friend-> B -friend-> C");
}

#[test]
fn n_crossings_along_a_zigzag_chain() {
    // u0(s0) → u1(s1) → u2(s2) → u3(s3) → u4(s0) → u5(s1): every hop
    // crosses a boundary (5 crossings over 4 shards).
    let names: Vec<String> = (0..6).map(|i| format!("u{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let placement: Vec<u32> = (0..6).map(|i| i % 4).collect();
    let mut sys = ShardedSystem::with_assignment(pinned(4, &name_refs, &placement));
    let members: Vec<_> = names.iter().map(|n| sys.add_user(n)).collect();
    for w in members.windows(2) {
        sys.add_relationship(w[0], "friend", w[1]);
    }
    let rid = sys.add_resource(members[0]);
    sys.add_rule(rid, "friend+[1..5]").unwrap();
    assert_eq!(sys.boundary().len(), 5, "every hop is a boundary edge");
    for &m in &members[1..] {
        assert_eq!(
            sys.service().check(rid, m).unwrap(),
            Decision::Grant,
            "member {m:?}"
        );
    }
    assert_eq!(sys.service().audience(rid).unwrap(), members);
    // The witness for the far end walks all five boundary edges.
    let path = sys_parse(&sys, "friend+[1..5]");
    let eval = sys.evaluate_condition(members[0], &path, Some(members[5]));
    assert!(eval.granted);
    assert_eq!(eval.witness.expect("granted").len(), 5);
}

/// Parses `text` against a clone of the system's master vocabulary
/// (tests only need label ids that already exist in the system).
fn sys_parse(sys: &ShardedSystem, text: &str) -> socialreach_core::PathExpr {
    let mut vocab = sys.vocab().clone();
    socialreach_core::parse_path(text, &mut vocab).expect("test path parses")
}

#[test]
fn label_change_at_the_boundary() {
    // A(s0) -friend-> B(s1) -colleague-> C(s0): the step transition
    // (friend → colleague) happens at B, a remote member — the ε-move
    // fires at a ghost and must be exported mid-path.
    let mut sys = ShardedSystem::with_assignment(pinned(2, &["A", "B", "C"], &[0, 1, 0]));
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    let c = sys.add_user("C");
    sys.add_relationship(a, "friend", b);
    sys.add_relationship(b, "colleague", c);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend+[1]/colleague+[1]").unwrap();
    assert_eq!(sys.service().check(rid, c).unwrap(), Decision::Grant);
    assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Deny);
    assert_eq!(sys.service().audience(rid).unwrap(), vec![a, c]);
    let lines = sys
        .service()
        .explain_lines(rid, c)
        .unwrap()
        .expect("granted");
    assert_eq!(lines[0], "A -friend-> B -colleague-> C");
}

#[test]
fn direction_reversal_across_the_boundary() {
    // Edge B(s1) -friend-> A(s0); path friend-[1] traverses it against
    // its orientation, across the boundary.
    let mut sys = ShardedSystem::with_assignment(pinned(2, &["A", "B"], &[0, 1]));
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    sys.add_relationship(b, "friend", a);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend-[1]").unwrap();
    assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Grant);
    assert_eq!(sys.service().audience(rid).unwrap(), vec![a, b]);
    let lines = sys
        .service()
        .explain_lines(rid, b)
        .unwrap()
        .expect("granted");
    assert_eq!(lines[0], "A <-friend- B");
}

#[test]
fn boundary_only_members_appear_in_audiences() {
    // B's *only* relationships are cross-shard (it is a ghost on both
    // neighbors' shards); it must still be found as an audience member,
    // and walks through it must still complete.
    let mut sys = ShardedSystem::with_assignment(pinned(3, &["A", "B", "C"], &[0, 1, 2]));
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    let c = sys.add_user("C");
    sys.add_relationship(a, "friend", b);
    sys.add_relationship(b, "friend", c);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend+[1,2]").unwrap();
    let stats = sys.shard_stats();
    assert_eq!(stats[1].members, 1, "B homes on shard 1");
    assert_eq!(stats[1].ghosts, 2, "A and C ghost onto B's shard");
    assert_eq!(
        sys.service().audience(rid).unwrap(),
        vec![a, b, c],
        "the boundary-only member and the member beyond it both match"
    );
    assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Grant);
    assert_eq!(sys.service().check(rid, c).unwrap(), Decision::Grant);
}

#[test]
fn unbounded_depth_circulates_across_shards() {
    // A ring spanning two shards with friend*[2..]: reachability must
    // keep circulating through boundary exports until saturation.
    let mut sys = ShardedSystem::with_assignment(pinned(2, &["A", "B", "C", "D"], &[0, 1, 0, 1]));
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    let c = sys.add_user("C");
    let d = sys.add_user("D");
    sys.add_relationship(a, "friend", b);
    sys.add_relationship(b, "friend", c);
    sys.add_relationship(c, "friend", d);
    sys.add_relationship(d, "friend", a);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend+[2..]").unwrap();
    // Everyone (including A itself, 4 hops around) is ≥ 2 hops away.
    assert_eq!(sys.service().audience(rid).unwrap(), vec![a, b, c, d]);
    assert_eq!(
        sys.service().check(rid, b).unwrap(),
        Decision::Grant,
        "B is 5 hops around the ring"
    );
}

#[test]
fn ghost_attribute_predicates_gate_mid_walk_completion() {
    // friend+[1]{age>=30}/colleague+[1]: the age predicate evaluates at
    // B — remote from the owner's shard — at a step boundary.
    let mut sys = ShardedSystem::with_assignment(pinned(2, &["A", "B", "C"], &[0, 1, 0]));
    let a = sys.add_user("A");
    let b = sys.add_user("B");
    let c = sys.add_user("C");
    sys.add_relationship(a, "friend", b);
    sys.add_relationship(b, "colleague", c);
    let rid = sys.add_resource(a);
    sys.add_rule(rid, "friend+[1]{age>=30}/colleague+[1]")
        .unwrap();
    sys.set_user_attr(b, "age", 20i64.into());
    assert_eq!(sys.service().check(rid, c).unwrap(), Decision::Deny);
    sys.set_user_attr(b, "age", 31i64.into());
    assert_eq!(
        sys.service().check(rid, c).unwrap(),
        Decision::Grant,
        "the ghost replica sees the updated attribute"
    );
}

#[test]
fn astronomical_depths_check_and_explain_on_the_sparse_engine() {
    // friend+[1..4000000] needs ~4·10⁶ depth layers, past the flat
    // engine's caps: every shard runs the sparse plan variant, so its
    // early exit and its parent chains decide and explain. The graph is
    // a DAG, so no walk is longer than a few hops.
    let mut g = SocialGraph::new();
    let m: Vec<NodeId> = (0..8).map(|i| g.add_node(&format!("u{i}"))).collect();
    for (s, d) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (0, 5),
        (5, 3),
        (2, 6),
        (7, 0),
    ] {
        g.connect(m[s], "friend", m[d]);
    }
    let text = "friend+[1..4000000]";
    let path = parse_path(text, g.vocab_mut()).unwrap();
    let mut store = PolicyStore::new();
    let rid = store.register_resource(m[0]);
    store.allow(rid, text, &mut g).unwrap();

    let fleet = socialreach_core::remote::spawn_local_fleet(2, false).expect("fleet spawns");
    let addrs: Vec<_> = fleet.iter().map(|h| h.addr().clone()).collect();
    for deployment in [
        Deployment::sharded(1, 5),
        Deployment::sharded(2, 5),
        Deployment::networked_with(addrs, 5),
    ] {
        let svc = deployment.from_graph(&g, store.clone());
        let tag = deployment.describe();
        for requester in g.nodes() {
            let truth = online::evaluate_reference(&g, m[0], &path, Some(requester));
            let expect = if truth.granted || requester == m[0] {
                Decision::Grant
            } else {
                Decision::Deny
            };
            let decision = svc.reads().check(rid, requester).unwrap();
            assert_eq!(decision, expect, "{tag}: check of {requester}");
            match svc.reads().explain(rid, requester).unwrap() {
                Some(Explanation::Rule { walks }) => {
                    assert!(truth.granted, "{tag}: a walk for {requester}");
                    for walk in walks {
                        common::assert_witness_valid(&g, m[0], requester, &path, &walk.hops);
                    }
                }
                Some(Explanation::Ownership { owner }) => assert_eq!(owner, requester),
                None => assert_eq!(expect, Decision::Deny, "{tag}: explain of {requester}"),
            }
        }
    }
}
