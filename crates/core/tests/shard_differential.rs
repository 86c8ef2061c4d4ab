//! The sharded serving layer against the single graph and the
//! shared-nothing oracle (`common::oracle`), on seeded random cases:
//! across shard counts {1, 2, 4, 7} (and a networked(2) fleet behind
//! loopback TCP) a sharded deployment returns the single graph's
//! decisions and audiences, explains each grant with walks the oracle
//! replays, and reaches each condition's oracle audience. The hashed
//! placement is seeded and stable, so two independently built systems
//! place every member alike and answer alike. Every wrapper, read
//! shape and write-after-read leg is `differential_matrix`.

mod common;

use common::oracle;
use proptest::prelude::*;
use socialreach_core::remote::spawn_local_fleet;
use socialreach_core::{Decision, Deployment, PolicyStore, ShardedSystem};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};

const SHARDS: [u32; 4] = [1, 2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decisions, audiences, batched reads and explain grant-ness: every
    /// sharded deployment, and a networked(2) fleet, answers like the
    /// single-graph deployment, whose audiences are the oracle's.
    #[test]
    fn sharded_decisions_and_audiences_match_single_graph(
        case in common::cases(),
        seed in 0..1000u64,
    ) {
        let rids = common::case_rids(&case);
        let single = common::serve(&Deployment::online(), &case);
        let want = common::oracle_audiences(&case);
        prop_assert_eq!(single.reads().audience_batch(&rids).unwrap(), want);
        for k in SHARDS {
            let sharded = common::serve(&Deployment::sharded(k, seed), &case);
            common::assert_services_agree(single.reads(), sharded.reads(), &rids);
        }
        let fleet = spawn_local_fleet(2, false).expect("fleet spawns");
        let addrs = fleet.iter().map(|h| h.addr().clone()).collect();
        let networked = common::serve(&Deployment::networked_with(addrs, seed), &case);
        common::assert_services_agree(single.reads(), networked.reads(), &rids);
    }

    /// Witnesses: on every shard count, each grant is explained by walks
    /// the oracle replays from the conditions' owners, and no deny is.
    #[test]
    fn sharded_witnesses_are_valid_accepting_walks(
        case in common::cases(),
        seed in 0..1000u64,
    ) {
        for k in SHARDS {
            let sharded = common::serve(&Deployment::sharded(k, seed), &case);
            common::assert_explains(sharded.reads(), &case, &format!("sharded({k})"));
        }
    }

    /// Condition audiences: each condition of the case, read alone as an
    /// ad-hoc query in both grammars, reaches exactly the oracle's
    /// members on every shard count.
    #[test]
    fn sharded_condition_audiences_match_reference(case in common::cases(), seed in 0..1000u64) {
        for k in SHARDS {
            let sharded = common::serve(&Deployment::sharded(k, seed), &case);
            for c in common::case_conds(&case) {
                let want: Vec<NodeId> = oracle::reach(&case.graph, c).into_iter().collect();
                for text in std::iter::once(c.text()).chain(c.query()) {
                    let got = sharded.reads().query_audience(c.owner, &text).unwrap();
                    prop_assert_eq!(&got, &want, "{} at {} on sharded({})", text, c.owner, k);
                }
            }
        }
    }
}

/// Placement determinism: two independently built systems place every
/// member identically (the hash is seeded and stable), and decisions
/// come out the same run to run.
#[test]
fn placement_and_decisions_are_reproducible() {
    let build = || {
        let mut g = SocialGraph::new();
        for i in 0..40 {
            g.add_node(&format!("u{i}"));
        }
        let friend = g.intern_label("friend");
        for i in 0..39u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), friend);
        }
        let mut store = PolicyStore::new();
        let rid = store.register_resource(NodeId(0));
        store.allow(rid, "friend+[1..4]", &mut g).unwrap();
        let mut sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(4, 99));
        sys.adopt_store(store);
        (sys, rid)
    };
    let (a, rid) = build();
    let (b, _) = build();
    for m in 0..40u32 {
        assert_eq!(a.member_shard(NodeId(m)), b.member_shard(NodeId(m)));
    }
    assert_eq!(
        a.service().audience(rid).unwrap(),
        b.service().audience(rid).unwrap()
    );
    for m in 0..40u32 {
        assert_eq!(
            a.service().check(rid, NodeId(m)).unwrap(),
            b.service().check(rid, NodeId(m)).unwrap()
        );
    }
    assert_eq!(
        a.service().check(rid, NodeId(4)).unwrap(),
        Decision::Grant,
        "u4 is 4 friend-hops from u0"
    );
}
