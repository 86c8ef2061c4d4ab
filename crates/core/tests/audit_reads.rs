//! Point-in-time audit reads over the durable history. The contract:
//! for **every** position `k` of a mutation stream,
//! [`Deployment::durable_at`] must be differentially identical to a
//! twin built incrementally from the first `k` records — across
//! deployment shapes, with and without snapshots seeding the replay —
//! and the `history` / `audience_diff` surfaces must agree with what
//! the log actually recorded.

mod common;

use common::DataDir;

use proptest::prelude::*;
use socialreach_core::{
    read_history, AuditError, Deployment, DurabilityError, MutateService, Mutation, ResourceId,
    ServiceInstance,
};
use socialreach_graph::NodeId;

// Shorthands for the scripts below. Every scripted mutation is valid
// against the state built by the ones before it, so applying a prefix
// logs exactly one WAL record per mutation on every backend.

fn user(name: &str) -> Mutation {
    Mutation::AddUser {
        name: name.to_owned(),
    }
}

fn age(user: u32, age: i64) -> Mutation {
    Mutation::SetUserAttr {
        user: NodeId(user),
        key: "age".to_owned(),
        value: age.into(),
    }
}

fn edge(src: u32, label: &str, dst: u32) -> Mutation {
    Mutation::AddRelationship {
        src: NodeId(src),
        label: label.to_owned(),
        dst: NodeId(dst),
    }
}

fn share(owner: u32) -> Mutation {
    Mutation::AddResource {
        owner: NodeId(owner),
    }
}

fn rule(resource: u64, path: &str) -> Mutation {
    Mutation::AddRule {
        resource: ResourceId(resource),
        path: path.to_owned(),
    }
}

/// The resources that exist after the first `k` ops.
fn rids(ops: &[Mutation]) -> Vec<ResourceId> {
    (0..ops
        .iter()
        .filter(|op| matches!(op, Mutation::AddResource { .. }))
        .count() as u64)
        .map(ResourceId)
        .collect()
}

/// A twin built incrementally from the first `k` ops, never persisted.
fn prefix_twin(deployment: &Deployment, ops: &[Mutation]) -> ServiceInstance {
    let mut twin = deployment.build();
    for op in ops {
        twin.apply(op).unwrap();
    }
    twin
}

/// A deterministic audit script whose audiences *change over time*:
/// the age-gated rule grants Ben, a later attribute overwrite revokes
/// him, and a late edge admits Dan.
fn audit_script() -> Vec<Mutation> {
    vec![
        user("Ava"),                      // 0
        user("Ben"),                      // 1
        user("Cleo"),                     // 2
        user("Dan"),                      // 3
        edge(0, "friend", 1),             // 4
        edge(1, "friend", 2),             // 5
        age(1, 25),                       // 6
        age(2, 30),                       // 7
        share(0),                         // 8
        rule(0, "friend+[1,2]{age>=18}"), // 9 — Ben, Cleo can see
        age(1, 15),                       // 10 — Ben revoked
        edge(0, "friend", 3),             // 11
        age(3, 40),                       // 12 — Dan admitted
        share(3),                         // 13
        rule(1, "friend-[1,2]"),          // 14
    ]
}

fn deployments() -> Vec<Deployment> {
    vec![Deployment::online(), Deployment::sharded(4, 7)]
}

/// Populates a durable directory with `ops`, taking a snapshot after
/// `snapshot_after` records so later positions recover snapshot-seeded
/// while earlier ones must skip the too-new snapshot.
fn populate(deployment: &Deployment, dir: &DataDir, ops: &[Mutation], snapshot_after: usize) {
    let mut svc = deployment.durable(&dir.0).unwrap();
    for (i, op) in ops.iter().enumerate() {
        svc.apply(op).unwrap();
        if i + 1 == snapshot_after {
            svc.snapshot().unwrap();
        }
    }
}

#[test]
fn every_position_matches_an_incremental_twin() {
    let ops = audit_script();
    for deployment in deployments() {
        let dir = DataDir::new("sweep");
        populate(&deployment, &dir, &ops, ops.len() / 2);
        for k in 0..=ops.len() {
            let at = deployment.durable_at(&dir.0, k as u64).unwrap();
            let twin = prefix_twin(&deployment, &ops[..k]);
            common::assert_services_agree(twin.reads(), at.reads(), &rids(&ops[..k]));
        }
    }
}

#[test]
fn positions_bracket_the_record_that_changed_the_answer() {
    // Position k is the state *before* record k applies: the rule at
    // position 9 is invisible at durable_at(9) and live at
    // durable_at(10); the age overwrite at position 10 revokes Ben one
    // position later.
    let ops = audit_script();
    let deployment = Deployment::online();
    let dir = DataDir::new("bracket");
    populate(&deployment, &dir, &ops, 0);
    let album = ResourceId(0);
    let ben = NodeId(1);

    let before_rule = deployment.durable_at(&dir.0, 9).unwrap();
    assert!(!before_rule.reads().audience(album).unwrap().contains(&ben));
    let after_rule = deployment.durable_at(&dir.0, 10).unwrap();
    assert!(after_rule.reads().audience(album).unwrap().contains(&ben));
    let after_revoke = deployment.durable_at(&dir.0, 11).unwrap();
    assert!(!after_revoke.reads().audience(album).unwrap().contains(&ben));
}

#[test]
fn history_enumerates_the_log_in_order() {
    let ops = audit_script();
    let deployment = Deployment::online();
    let dir = DataDir::new("history");
    populate(&deployment, &dir, &ops, 0);

    let history = read_history(&dir.0).unwrap();
    assert_eq!(history.len(), ops.len());
    for (i, (entry, op)) in history.iter().zip(&ops).enumerate() {
        assert_eq!(entry.position, i as u64);
        assert_eq!(entry.record, *op, "position {i}");
    }

    // The service's own view of its history is the module function's.
    let svc = deployment.durable(&dir.0).unwrap();
    assert_eq!(svc.history().unwrap(), history);
}

#[test]
fn audience_diff_reports_entered_left_and_retained() {
    let ops = audit_script();
    let deployment = Deployment::online();
    let dir = DataDir::new("diff");
    populate(&deployment, &dir, &ops, 0);
    let album = ResourceId(0);
    let (ben, cleo, dan) = (NodeId(1), NodeId(2), NodeId(3));

    // After the rule landed (position 10) vs the present: Ben's age
    // overwrite revoked him, the new edge + age admitted Dan, Cleo
    // stayed.
    let diff = deployment
        .audience_diff(&dir.0, album, 10, ops.len() as u64)
        .unwrap();
    assert_eq!(diff.left, vec![ben]);
    assert_eq!(diff.entered, vec![dan]);
    assert!(diff.retained.contains(&cleo));

    // The diff is exactly the set difference of the two recovered
    // audiences.
    let at = |k: u64| {
        deployment
            .durable_at(&dir.0, k)
            .unwrap()
            .reads()
            .audience(album)
            .unwrap()
    };
    let (before, after) = (at(10), at(ops.len() as u64));
    let entered: Vec<_> = after
        .iter()
        .copied()
        .filter(|m| !before.contains(m))
        .collect();
    let left: Vec<_> = before
        .iter()
        .copied()
        .filter(|m| !after.contains(m))
        .collect();
    let retained: Vec<_> = after
        .iter()
        .copied()
        .filter(|m| before.contains(m))
        .collect();
    assert_eq!(diff.entered, entered);
    assert_eq!(diff.left, left);
    assert_eq!(diff.retained, retained);

    // From before the resource existed, everyone entered: a resource
    // has no audience before it is shared.
    let genesis = deployment
        .audience_diff(&dir.0, album, 0, ops.len() as u64)
        .unwrap();
    assert!(genesis.left.is_empty() && genesis.retained.is_empty());
    assert_eq!(genesis.entered, after);
}

#[test]
fn positions_outside_the_history_are_typed_refusals() {
    let ops = audit_script();
    let deployment = Deployment::online();
    let dir = DataDir::new("range");
    populate(&deployment, &dir, &ops, 0);
    let n = ops.len() as u64;

    match deployment.durable_at(&dir.0, n + 1) {
        Err(DurabilityError::PositionBeyondHistory {
            requested,
            available,
            ..
        }) => {
            assert_eq!((requested, available), (n + 1, n));
        }
        Err(other) => panic!("expected PositionBeyondHistory, got {other:?}"),
        Ok(_) => panic!("a position past the history must not recover"),
    }
    match deployment.audience_diff(&dir.0, ResourceId(0), 0, n + 5) {
        Err(AuditError::Durability(DurabilityError::PositionBeyondHistory { .. })) => {}
        other => panic!("expected a typed durability refusal, got {other:?}"),
    }
}

// --- generated mutation streams ------------------------------------

/// A raw, possibly-inapplicable mutation; [`materialize`] grounds it
/// against the running counts so every materialized op is valid.
#[derive(Clone, Debug)]
enum RawOp {
    User,
    Age { pick: u32, age: i64 },
    Edge { src: u32, label: usize, dst: u32 },
    Share { owner: u32 },
    Rule { pick: u32, template: usize },
}

const LABELS: [&str; 3] = ["friend", "colleague", "follows"];
const RULES: [&str; 4] = [
    "friend+[1,2]",
    "friend+[1..3]{age>=18}",
    "colleague*[1,2]",
    "follows-[1]",
];

fn raw_op_strategy() -> impl Strategy<Value = RawOp> {
    // Weighted kinds: 0..=3 user, 4..=5 age, 6..=9 edge, 10..=11
    // share, 12 rule (the shim has no `prop_oneof!`, so one tuple
    // strategy folds the choice and its parameters together).
    (0u32..13, 0u32..1 << 20, 0u32..1 << 20, 10i64..60).prop_map(|(kind, a, b, age)| match kind {
        0..=3 => RawOp::User,
        4..=5 => RawOp::Age { pick: a, age },
        6..=9 => RawOp::Edge {
            src: a,
            label: (b % LABELS.len() as u32) as usize,
            dst: b,
        },
        10..=11 => RawOp::Share { owner: a },
        _ => RawOp::Rule {
            pick: a,
            template: (b % RULES.len() as u32) as usize,
        },
    })
}

/// Grounds a raw stream: indexes wrap modulo the live counts, ops with
/// no valid target yet are dropped, self-edges are skipped. The result
/// is a stream where op `i` is exactly WAL record `i`.
fn materialize(raw: &[RawOp]) -> Vec<Mutation> {
    let mut users = 0u32;
    let mut resources = 0u64;
    let mut ops = Vec::new();
    for op in raw {
        match *op {
            RawOp::User => {
                ops.push(user(&format!("m{users}")));
                users += 1;
            }
            RawOp::Age { pick, age } if users > 0 => {
                ops.push(self::age(pick % users, age));
            }
            RawOp::Edge { src, label, dst } if users > 0 => {
                let (src, dst) = (src % users, dst % users);
                if src != dst {
                    ops.push(edge(src, LABELS[label], dst));
                }
            }
            RawOp::Share { owner } if users > 0 => {
                ops.push(share(owner % users));
                resources += 1;
            }
            RawOp::Rule { pick, template } if resources > 0 => {
                ops.push(rule(u64::from(pick) % resources, RULES[template]));
            }
            _ => {}
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Prefix-replay determinism on generated streams: every position
    /// of every generated history equals its incremental twin, on both
    /// the single-graph and the sharded(4) backend, with a mid-stream
    /// snapshot seeding half the recoveries.
    #[test]
    fn durable_at_equals_prefix_twin_on_generated_streams(
        raw in proptest::collection::vec(raw_op_strategy(), 8..28)
    ) {
        let ops = materialize(&raw);
        for deployment in deployments() {
            let dir = DataDir::new("prop");
            populate(&deployment, &dir, &ops, ops.len() / 2);
            for k in 0..=ops.len() {
                let at = deployment.durable_at(&dir.0, k as u64).unwrap();
                let twin = prefix_twin(&deployment, &ops[..k]);
                common::assert_services_agree(twin.reads(), at.reads(), &rids(&ops[..k]));
            }
        }
    }
}
