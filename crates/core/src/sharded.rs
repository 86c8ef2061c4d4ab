//! `ShardedSystem` — the partitioned coordinator over in-process
//! shards.
//!
//! The single graph ([`crate::AccessControlSystem`]) publishes one
//! `Arc<CsrSnapshot>` per epoch of one graph. This backend scales the
//! read path out: members are hash-partitioned across N shards, each a
//! `ShardCore` with a graph and an epoch-published snapshot of its own
//! (the same crate-private publisher), reached by a direct call through
//! the in-process link. Placement, ghost replicas, the cross-shard masked
//! fixpoint and witness stitching are the coordinator's
//! ([`crate::coordinator`], shared with [`crate::NetworkedSystem`]).

use crate::coordinator::Partitioned;
pub use crate::coordinator::ShardStats;
use crate::link::LocalLink;

/// The sharded serving façade: the [`crate::AccessControlSystem`] API
/// over N hash-partitioned in-process shards (see
/// [`crate::coordinator`] for placement and the cross-shard read
/// algorithm).
pub type ShardedSystem = Partitioned<LocalLink>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EvalError;
    use crate::policy::{Decision, PolicyStore, ResourceId};
    use crate::service::MutateService;
    use socialreach_graph::shard::ShardAssignment;
    use socialreach_graph::SocialGraph;

    /// The system.rs fixture, sharded: Alice→Bob→Carol chained friends,
    /// Carol→Dave colleague, a resource of Alice's with `friend+[1,2]`.
    fn populated(shards: u32) -> (ShardedSystem, ResourceId) {
        let mut sys = ShardedSystem::new(shards, 7);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        let carol = sys.add_user("Carol");
        let dave = sys.add_user("Dave");
        sys.add_relationship(alice, "friend", bob);
        sys.add_relationship(bob, "friend", carol);
        sys.add_relationship(carol, "colleague", dave);
        let rid = sys.add_resource(alice);
        sys.add_rule(rid, "friend+[1,2]").unwrap();
        (sys, rid)
    }

    #[test]
    fn decisions_match_the_unsharded_semantics_across_shard_counts() {
        for shards in [1, 2, 3, 5] {
            let (sys, rid) = populated(shards);
            let bob = sys.user("Bob").unwrap();
            let carol = sys.user("Carol").unwrap();
            let dave = sys.user("Dave").unwrap();
            assert_eq!(
                sys.service().check(rid, bob).unwrap(),
                Decision::Grant,
                "{shards}"
            );
            assert_eq!(
                sys.service().check(rid, carol).unwrap(),
                Decision::Grant,
                "{shards}"
            );
            assert_eq!(
                sys.service().check(rid, dave).unwrap(),
                Decision::Deny,
                "{shards}"
            );
        }
    }

    #[test]
    fn audience_matches_across_shard_counts() {
        for shards in [1, 2, 3, 5] {
            let (sys, rid) = populated(shards);
            let names: Vec<&str> = sys
                .service()
                .audience(rid)
                .unwrap()
                .iter()
                .map(|&n| sys.member_name(n))
                .collect();
            assert_eq!(names, vec!["Alice", "Bob", "Carol"], "shards {shards}");
        }
    }

    #[test]
    fn members_land_on_their_assigned_shards() {
        let (sys, _) = populated(4);
        for name in ["Alice", "Bob", "Carol", "Dave"] {
            let m = sys.user(name).unwrap();
            assert_eq!(sys.member_shard(m), sys.assignment().shard_of(name));
        }
        let census: usize = sys.shard_stats().iter().map(|s| s.members).sum();
        assert_eq!(census, 4);
    }

    #[test]
    fn boundary_table_records_cross_shard_edges() {
        // Pin everyone to alternating shards so every edge crosses.
        let a = ShardAssignment::explicit(
            2,
            0,
            vec![
                ("Alice".into(), 0),
                ("Bob".into(), 1),
                ("Carol".into(), 0),
                ("Dave".into(), 1),
            ],
        );
        let mut sys = ShardedSystem::with_assignment(a);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        let carol = sys.add_user("Carol");
        let dave = sys.add_user("Dave");
        sys.add_relationship(alice, "friend", bob);
        sys.add_relationship(bob, "friend", carol);
        sys.add_relationship(carol, "colleague", dave);
        let crossing = sys
            .edge_log()
            .iter()
            .filter(|&&(s, _, d)| sys.member_shard(s) != sys.member_shard(d))
            .count();
        assert_eq!(crossing, 3, "every edge crosses");
        let stats = sys.shard_stats();
        assert_eq!(stats[0].members, 2);
        assert_eq!(stats[1].members, 2);
        assert!(stats[0].ghosts > 0 && stats[1].ghosts > 0);
        let rid = sys.add_resource(alice);
        sys.add_rule(rid, "friend+[1,2]").unwrap();
        assert_eq!(sys.service().check(rid, carol).unwrap(), Decision::Grant);
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Deny);
        let audience: Vec<&str> = sys
            .service()
            .audience(rid)
            .unwrap()
            .iter()
            .map(|&n| sys.member_name(n))
            .collect();
        assert_eq!(audience, vec!["Alice", "Bob", "Carol"]);
    }

    #[test]
    fn explain_stitches_a_walk_across_shards() {
        let a = ShardAssignment::explicit(2, 0, vec![("Alice".into(), 0), ("Carol".into(), 1)]);
        let mut sys = ShardedSystem::with_assignment(a);
        let alice = sys.add_user("Alice");
        let bob = sys.add_user("Bob");
        let carol = sys.add_user("Carol");
        sys.add_relationship(alice, "friend", bob);
        sys.add_relationship(bob, "friend", carol);
        let rid = sys.add_resource(alice);
        sys.add_rule(rid, "friend+[1,2]").unwrap();
        let lines = sys
            .service()
            .explain_lines(rid, carol)
            .unwrap()
            .expect("granted");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("Alice"));
        assert!(lines[0].contains("-friend->"));
        assert!(lines[0].ends_with("Carol"), "{}", lines[0]);
        assert!(sys.service().explain_lines(rid, bob).unwrap().is_some());
        assert_eq!(
            sys.service().explain_lines(rid, alice).unwrap().unwrap()[0],
            "Alice owns the resource"
        );
    }

    #[test]
    fn appends_republish_shards_incrementally() {
        let (mut sys, rid) = populated(2);
        let dave = sys.user("Dave").unwrap();
        assert_eq!(sys.service().check(rid, dave).unwrap(), Decision::Deny);
        let epochs_before = sys.snapshot_epochs();
        assert!(epochs_before.iter().all(|&e| e >= 1), "reads published");
        let alice = sys.user("Alice").unwrap();
        sys.add_relationship(alice, "friend", dave);
        assert_eq!(
            sys.service().check(rid, dave).unwrap(),
            Decision::Grant,
            "post-append reads see the new edge"
        );
        let epochs_after = sys.snapshot_epochs();
        assert!(
            epochs_after.iter().zip(&epochs_before).any(|(a, b)| a > b),
            "the touched shard republished"
        );
    }

    #[test]
    fn cache_and_batch_mirror_the_facade() {
        let (sys, rid) = populated(3);
        let bob = sys.user("Bob").unwrap();
        let dave = sys.user("Dave").unwrap();
        sys.service().check(rid, bob).unwrap();
        sys.service().check(rid, bob).unwrap();
        assert_eq!(sys.service().cache_stats(), (1, 1));
        let requests: Vec<_> = (0..30)
            .map(|i| (rid, if i % 2 == 0 { bob } else { dave }))
            .collect();
        let sequential: Vec<Decision> = requests
            .iter()
            .map(|&(r, u)| sys.service().check(r, u).unwrap())
            .collect();
        for threads in [1, 2, 4] {
            assert_eq!(
                sys.service().check_batch(&requests, threads).unwrap(),
                sequential
            );
        }
        assert!(matches!(
            sys.service().check(ResourceId(99), bob),
            Err(EvalError::UnknownResource(99))
        ));
    }

    #[test]
    fn from_graph_preserves_ids_and_decisions() {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        g.connect(a, "friend", b);
        g.connect(b, "colleague", c);
        g.set_node_attr(c, "age", 44i64);
        let mut store = PolicyStore::new();
        let rid = store.register_resource(a);
        store
            .allow(rid, "friend+[1]/colleague+[1]{age>=40}", &mut g)
            .unwrap();

        let mut sys = ShardedSystem::from_graph(&g, ShardAssignment::hashed(3, 1));
        sys.adopt_store(store.clone());
        assert_eq!(sys.num_members(), 3);
        assert_eq!(sys.num_edges(), 2);
        assert_eq!(sys.user("Carol").unwrap(), c);
        assert_eq!(sys.service().check(rid, c).unwrap(), Decision::Grant);
        assert_eq!(sys.service().check(rid, b).unwrap(), Decision::Deny);
        let audience = sys.service().audience(rid).unwrap();
        assert_eq!(audience, vec![a, c]);
    }

    #[test]
    fn ghost_attributes_stay_synchronized() {
        // Predicate at a boundary member: the ghost replica must see
        // attribute updates made after the ghost materialized.
        let a = ShardAssignment::explicit(2, 0, vec![("A".into(), 0), ("B".into(), 1)]);
        let mut sys = ShardedSystem::with_assignment(a);
        let x = sys.add_user("A");
        let y = sys.add_user("B");
        sys.add_relationship(x, "friend", y); // materializes ghosts
        sys.set_user_attr(y, "age", 20i64.into()); // after ghost creation
        let rid = sys.add_resource(x);
        sys.add_rule(rid, "friend+[1]{age>=30}").unwrap();
        assert_eq!(sys.service().check(rid, y).unwrap(), Decision::Deny);
        sys.set_user_attr(y, "age", 35i64.into());
        assert_eq!(sys.service().check(rid, y).unwrap(), Decision::Grant);
        // Answers alone cannot tell: a ghost exports its arrival states
        // before its predicates run, and the home copy re-evaluates
        // them. So look at the copies themselves.
        let age = sys.vocab().attr("age").unwrap();
        let copies: Vec<_> = sys
            .links
            .iter()
            .filter(|l| l.core.local_of(y.0).is_some())
            .map(|l| l.core.attrs(y.0).get(age).cloned())
            .collect();
        assert_eq!(copies, vec![Some(35i64.into()); 2], "home and ghost");
        let lines = sys
            .service()
            .explain_lines(rid, y)
            .unwrap()
            .expect("granted");
        assert_eq!(lines[0], "A -friend-> B");
    }
}
