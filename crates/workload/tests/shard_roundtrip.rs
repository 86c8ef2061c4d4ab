//! Shard-placement round-trip through the workload interchange format:
//! serializing a graph to an edge list and reading it back must leave
//! every member on the same shard (placement hashes *names*, not
//! insertion order), and the sharded system rebuilt from the
//! round-tripped graph must agree decision-for-decision.

use socialreach_core::{PolicyStore, ShardedSystem};
use socialreach_graph::{NodeId, ShardAssignment};
use socialreach_workload::{read_edge_list, write_edge_list, CrossShardTopology, GraphSpec};

#[test]
fn placement_survives_an_edge_list_round_trip() {
    let g = GraphSpec::ba_osn(120, 17).build();
    let text = write_edge_list(&g);
    let mut back = read_edge_list(&text, "friend").expect("round-trip parses");
    back.rebuild_lookups();

    let assignment = ShardAssignment::hashed(4, 23);
    let original = ShardedSystem::from_graph(&g, assignment.clone());
    let rebuilt = ShardedSystem::from_graph(&back, assignment);

    // Same member → shard mapping, keyed by name (ids may permute).
    for v in g.nodes() {
        let name = g.node_name(v);
        let b = back.node_by_name(name).expect("member survives");
        assert_eq!(
            original.member_shard(v),
            rebuilt.member_shard(b),
            "member {name} moved shards across the round trip"
        );
    }
    // Same boundary census: the same ties cross the same placements.
    let crossing = |sys: &ShardedSystem| {
        let home = |m| sys.member_shard(m);
        let log = sys.edge_log().iter();
        log.filter(|&&(s, _, d)| home(s) != home(d)).count()
    };
    assert_eq!(crossing(&original), crossing(&rebuilt));
}

#[test]
fn decisions_agree_after_the_round_trip() {
    let spec = CrossShardTopology {
        nodes: 60,
        edges: 200,
        assignment: ShardAssignment::hashed(3, 9),
        cross_fraction: 0.6,
    };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    let ties = spec.generate(&mut rng);
    let mut g = socialreach_graph::SocialGraph::new();
    for name in spec.member_names() {
        g.add_node(&name);
    }
    let friend = g.intern_label("friend");
    for (a, b) in ties {
        g.add_edge(NodeId(a), NodeId(b), friend);
    }

    let text = write_edge_list(&g);
    let mut back = read_edge_list(&text, "friend").expect("round-trip parses");
    back.rebuild_lookups();

    let mut original = ShardedSystem::from_graph(&g, spec.assignment.clone());
    let mut rebuilt = ShardedSystem::from_graph(&back, spec.assignment.clone());

    let mut store_a = PolicyStore::new();
    let owner_a = NodeId(0); // "u0" in both (first edge-list appearance order may differ)
    let owner_name = g.node_name(owner_a).to_owned();
    let rid_a = store_a.register_resource(owner_a);
    store_a.allow(rid_a, "friend*[1..3]", &mut g).unwrap();
    original.adopt_store(store_a);

    let owner_b = back.node_by_name(&owner_name).expect("owner survives");
    let mut store_b = PolicyStore::new();
    let rid_b = store_b.register_resource(owner_b);
    store_b.allow(rid_b, "friend*[1..3]", &mut back).unwrap();
    rebuilt.adopt_store(store_b);

    // Audiences agree as *name sets*.
    let names_of = |sys: &ShardedSystem, members: &[NodeId]| -> Vec<String> {
        let mut v: Vec<String> = members
            .iter()
            .map(|&m| sys.member_name(m).to_owned())
            .collect();
        v.sort();
        v
    };
    let aud_a = original.service().audience(rid_a).unwrap();
    let aud_b = rebuilt.service().audience(rid_b).unwrap();
    assert_eq!(names_of(&original, &aud_a), names_of(&rebuilt, &aud_b));

    // Spot-check decisions by name.
    for i in 0..60 {
        let name = format!("u{i}");
        let ma = original.user(&name).unwrap();
        let mb = rebuilt.user(&name).unwrap();
        assert_eq!(
            original.service().check(rid_a, ma).unwrap(),
            rebuilt.service().check(rid_b, mb).unwrap(),
            "decision for {name}"
        );
    }
}
