//! Differential crash-recovery suite: a service recovered from disk
//! (snapshot + WAL-suffix replay, in every combination) must be
//! indistinguishable — decision for decision, audience for audience,
//! witness for witness — from a twin that executed the same script
//! and never crashed. Runs against both deployment shapes behind
//! [`Deployment::durable`]: a single epoch-published graph and a
//! sharded system, plus the cross pair (recovered sharded vs.
//! never-crashed single) and, for the exported state, a networked
//! fleet.

mod common;

use common::DataDir;

use socialreach_core::remote::spawn_local_fleet;
use socialreach_core::{
    AccessRule, Deployment, DurableService, MutateService, Mutation, PolicyStore, ResourceId,
    ServiceInstance,
};
use socialreach_graph::{AttrKey, AttrValue, LabelId, NodeId, SocialGraph};
use std::borrow::Cow;

/// A unique, self-cleaning data directory per test.
/// The deployment shapes recovery must be transparent for.
fn deployments() -> Vec<Deployment> {
    vec![Deployment::online(), Deployment::sharded(3, 3)]
}

/// First half of the population script (the part a snapshot covers in
/// the split tests). Mutual relationships are avoided so one
/// mutation call is one WAL record.
fn populate_first_half(svc: &mut dyn MutateService) -> Vec<ResourceId> {
    let names = [
        "Ava", "Ben", "Cleo", "Dan", "Edith", "Femi", "Gus", "Hana", "Ivan", "June",
    ];
    let m: Vec<_> = names.iter().map(|n| svc.add_user(n)).collect();
    for w in m[..5].windows(2) {
        svc.add_relationship(w[0], "friend", w[1]);
    }
    svc.add_relationship(m[4], "colleague", m[5]);
    svc.add_relationship(m[5], "colleague", m[6]);
    svc.add_relationship(m[8], "follows", m[0]);
    svc.add_relationship(m[9], "follows", m[8]);
    for (i, age) in [(0usize, 34i64), (2, 26), (3, 17), (8, 52)] {
        svc.set_user_attr(m[i], "age", age.into());
    }
    let album = svc.add_resource(m[0]);
    svc.add_rule(album, "friend+[1,2]{age>=18}").unwrap();
    let memo = svc.add_resource(m[4]);
    svc.add_rule(memo, "colleague*[1..3]").unwrap();
    vec![album, memo]
}

/// Second half: more structure, a disjunctive resource, a private
/// resource, and an attribute overwrite.
fn populate_second_half(svc: &mut dyn MutateService) -> Vec<ResourceId> {
    let ben = svc.resolve_user_or_add(svc_name(1));
    let ava = svc.resolve_user_or_add(svc_name(0));
    let kim = svc.add_user("Kim");
    svc.add_relationship(kim, "friend", ben);
    svc.add_relationship(ben, "friend", kim);
    svc.set_user_attr(kim, "age", 19i64.into());
    svc.set_user_attr(ava, "age", 35i64.into()); // overwrite
    let feed = svc.add_resource(ava);
    svc.add_rule(feed, "friend+[1..4]").unwrap();
    svc.add_rule(feed, "follows-[1,2]").unwrap();
    let diary = svc.add_resource(kim); // private: no rules
    vec![feed, diary]
}

fn svc_name(i: usize) -> &'static str {
    ["Ava", "Ben", "Cleo", "Dan", "Edith"][i]
}

/// `MutateService` has no lookup, so the second half re-derives ids it
/// needs through this tiny extension.
trait ResolveOrAdd {
    fn resolve_user_or_add(&mut self, name: &str) -> socialreach_graph::NodeId;
}

impl ResolveOrAdd for dyn MutateService + '_ {
    fn resolve_user_or_add(&mut self, name: &str) -> socialreach_graph::NodeId {
        // The scripts are deterministic: the first half always created
        // these members, with ids equal to their position.
        match name {
            "Ava" => socialreach_graph::NodeId(0),
            "Ben" => socialreach_graph::NodeId(1),
            _ => self.add_user(name),
        }
    }
}

fn populate_all(svc: &mut dyn MutateService) -> Vec<ResourceId> {
    let mut rids = populate_first_half(svc);
    rids.extend(populate_second_half(svc));
    rids
}

/// A never-crashed twin of the full script on the same deployment.
fn never_crashed(deployment: &Deployment) -> (ServiceInstance, Vec<ResourceId>) {
    let mut svc = deployment.build();
    let rids = populate_all(svc.writes());
    (svc, rids)
}

#[test]
fn wal_only_recovery_matches_never_crashed() {
    for deployment in deployments() {
        let dir = DataDir::new("walonly");
        let rids = {
            let mut svc = deployment.durable(&dir.0).unwrap();
            populate_all(svc.writes())
        }; // drop without snapshot = crash with a complete log

        let recovered = deployment.durable(&dir.0).unwrap();
        let report = recovered.recovery_report();
        assert!(report.snapshot_loaded.is_none(), "no snapshot was written");
        assert_eq!(report.records_replayed, report.wal_records);
        assert!(report.torn_tail.is_none());

        let (reference, ref_rids) = never_crashed(&deployment);
        assert_eq!(rids, ref_rids, "deterministic resource ids");
        common::assert_services_agree(reference.reads(), recovered.reads(), &rids);
    }
}

#[test]
fn snapshot_only_recovery_replays_nothing() {
    for deployment in deployments() {
        let dir = DataDir::new("snaponly");
        let rids = {
            let mut svc = deployment.durable(&dir.0).unwrap();
            let rids = populate_all(svc.writes());
            svc.snapshot().unwrap();
            rids
        };

        let recovered = deployment.durable(&dir.0).unwrap();
        let report = recovered.recovery_report();
        let (name, covered) = report
            .snapshot_loaded
            .clone()
            .expect("the snapshot is loaded");
        assert_eq!(covered, report.wal_records, "snapshot covers the full log");
        assert!(name.starts_with("snap-"));
        assert_eq!(report.records_replayed, 0);

        let (reference, _) = never_crashed(&deployment);
        common::assert_services_agree(reference.reads(), recovered.reads(), &rids);
    }
}

#[test]
fn snapshot_plus_wal_suffix_recovery() {
    for deployment in deployments() {
        let dir = DataDir::new("snapsuffix");
        let rids = {
            let mut svc = deployment.durable(&dir.0).unwrap();
            let mut rids = populate_first_half(svc.writes());
            svc.snapshot().unwrap();
            rids.extend(populate_second_half(svc.writes()));
            rids
        };

        let recovered = deployment.durable(&dir.0).unwrap();
        let report = recovered.recovery_report();
        let (_, covered) = report.snapshot_loaded.clone().expect("snapshot loaded");
        assert!(covered < report.wal_records, "a suffix remained to replay");
        assert_eq!(report.records_replayed, report.wal_records - covered);

        let (reference, _) = never_crashed(&deployment);
        common::assert_services_agree(reference.reads(), recovered.reads(), &rids);
    }
}

#[test]
fn recovery_is_idempotent() {
    for deployment in deployments() {
        let dir = DataDir::new("idem");
        let rids = {
            let mut svc = deployment.durable(&dir.0).unwrap();
            let rids = populate_first_half(svc.writes());
            svc.snapshot().unwrap();
            rids
        };
        let first = deployment.durable(&dir.0).unwrap();
        let second = deployment.durable(&dir.0).unwrap();
        common::assert_services_agree(first.reads(), second.reads(), &rids);
    }
}

#[test]
fn post_recovery_writes_persist_across_another_recovery() {
    for deployment in deployments() {
        let dir = DataDir::new("postwrite");
        {
            let mut svc = deployment.durable(&dir.0).unwrap();
            populate_first_half(svc.writes());
            svc.snapshot().unwrap();
        }
        // Recover, keep writing (the WAL keeps appending after the
        // truncation-safe reopen), crash again.
        let rids = {
            let mut svc: DurableService = deployment.durable(&dir.0).unwrap();
            let mut rids = vec![
                socialreach_core::ResourceId(0),
                socialreach_core::ResourceId(1),
            ];
            rids.extend(populate_second_half(svc.writes()));
            rids
        };

        let recovered = deployment.durable(&dir.0).unwrap();
        let (reference, ref_rids) = never_crashed(&deployment);
        assert_eq!(rids, ref_rids);
        common::assert_services_agree(reference.reads(), recovered.reads(), &rids);
    }
}

#[test]
fn recovered_sharded_agrees_with_never_crashed_single() {
    let sharded = Deployment::sharded(4, 3);
    let dir = DataDir::new("cross");
    let rids = {
        let mut svc = sharded.durable(&dir.0).unwrap();
        let mut r = populate_first_half(svc.writes());
        svc.snapshot().unwrap();
        r.extend(populate_second_half(svc.writes()));
        r
    };
    let recovered = sharded.durable(&dir.0).unwrap();
    let (reference, _) = never_crashed(&Deployment::online());
    common::assert_services_agree(reference.reads(), recovered.reads(), &rids);
}

/// Everything a snapshot persists, in comparable form: the vocabulary
/// (labels, attribute keys), each member's name and attributes in id
/// order, the edge list in order, and each resource's owner and rules.
#[derive(Debug, PartialEq)]
struct Exported {
    labels: Vec<String>,
    attr_keys: Vec<String>,
    members: Vec<(String, Vec<(AttrKey, AttrValue)>)>,
    edges: Vec<(NodeId, LabelId, NodeId)>,
    resources: Vec<(ResourceId, NodeId, Vec<AccessRule>)>,
}

fn exported((g, store): (Cow<'_, SocialGraph>, &PolicyStore)) -> Exported {
    let vocab = g.vocab();
    let mut resources: Vec<_> = store
        .resources()
        .map(|(rid, owner)| (rid, owner, store.rules_for(rid).to_vec()))
        .collect();
    resources.sort_by_key(|r| r.0);
    Exported {
        labels: vocab.labels().map(|(_, name)| name.to_owned()).collect(),
        attr_keys: (0..vocab.num_attrs())
            .map(|i| vocab.attr_name(AttrKey::from_index(i)).to_owned())
            .collect(),
        members: g
            .nodes()
            .map(|n| {
                let attrs = g.node_attrs(n).iter().map(|(k, v)| (k, v.clone()));
                (g.node_name(n).to_owned(), attrs.collect())
            })
            .collect(),
        edges: g.edges().map(|(_, e)| (e.src, e.label, e.dst)).collect(),
        resources,
    }
}

#[test]
fn exported_state_matches_a_never_crashed_single_twin() {
    // The backend is the only copy of the durable state, so what it
    // exports — and snapshots persist — must be the single graph's own
    // state, id for id and in order, on every deployment shape, through
    // a snapshot and a recovery. A rule refused after its parser met a
    // new label leaves no trace in the vocabulary, so the snapshot taken
    // after it and the recovered state both equal the twin's.
    let refused = Mutation::AddRule {
        resource: ResourceId(0),
        path: "acquaintance+[1]/friend+[0]".to_owned(),
    };
    let suffix = Mutation::AddRelationship {
        src: NodeId(7),
        label: "mentor".to_owned(),
        dst: NodeId(2),
    };
    let mut twin = Deployment::online().build();
    for m in common::export_script() {
        twin.apply(&m).unwrap();
    }
    twin.apply(&refused)
        .expect_err("a malformed depth is refused");
    twin.apply(&suffix).unwrap();
    let want = exported(twin.canonical());
    assert!(
        !want.labels.contains(&"acquaintance".to_owned()),
        "the refused rule interned its label: {:?}",
        want.labels
    );

    let fleets = [
        spawn_local_fleet(2, false).expect("fleet spawns"),
        spawn_local_fleet(2, false).expect("fleet spawns"),
    ];
    let addrs = |i: usize| fleets[i].iter().map(|h| h.addr().clone()).collect();
    let shapes = [
        (Deployment::online(), Deployment::online()),
        (Deployment::sharded(3, 3), Deployment::sharded(3, 3)),
        (
            Deployment::networked(addrs(0)),
            Deployment::networked(addrs(1)),
        ),
    ];
    for (live, reopened) in shapes {
        let dir = DataDir::new("exported");
        {
            let mut svc = live.durable(&dir.0).unwrap();
            for m in common::export_script() {
                svc.apply(&m).unwrap();
            }
            svc.apply(&refused)
                .expect_err("a malformed depth is refused");
            let labels = exported(svc.canonical()).labels;
            assert!(
                !labels.contains(&"acquaintance".to_owned()),
                "{} kept the refused rule's label: {labels:?}",
                live.describe()
            );
            svc.snapshot().unwrap();
            svc.apply(&suffix).unwrap();
            assert_eq!(exported(svc.canonical()), want, "{} live", live.describe());
        }
        let recovered = reopened.durable(&dir.0).unwrap();
        assert_eq!(recovered.recovery_report().records_replayed, 1);
        assert_eq!(
            exported(recovered.canonical()),
            want,
            "{} recovered",
            live.describe()
        );
        let rids: Vec<ResourceId> = want.resources.iter().map(|r| r.0).collect();
        common::assert_services_agree(twin.reads(), recovered.reads(), &rids);
    }
}
