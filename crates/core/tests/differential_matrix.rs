//! The differential matrix: every deployment, behind every wrapper,
//! answers every read shape exactly as the shared-nothing oracle
//! (`common::oracle`) does, on seeded random cases.
//!
//! * Deployments: `online`, `sharded` over 1, 2, 4 and 7 shards, and
//!   `networked(2)`, a fleet of two shard servers over loopback TCP.
//! * Wrappers: bare, durable and planned, one test each.
//! * Read shapes, each one [`ReadBatch`]: checks under the default route
//!   and each `CheckPlan`; audiences under the default strategy and
//!   each `BundleStrategy`; explains, every walk replayed by the
//!   oracle; and ad-hoc queries in both grammars.
//! * Writes after the first read: a member joins with an edge that
//!   extends a condition's first step, then a rule is added; every
//!   shape is read again after each.
//!
//! Metamorphic relations run on every deployment's own answers: the
//! joining member and edge turn no grant into a deny, the added rule
//! shrinks no audience, and widening a query's last step by one level
//! shrinks no audience.
//!
//! Bare and planned legs load the case with `Deployment::from_graph`,
//! conjunctions across owners and rules without conditions included.
//! Durable legs are written only through [`Mutation`], whose `AddRule`
//! carries one path anchored at the resource owner, so they run the
//! case's one-condition rules at the owner.

mod common;

use common::oracle::{self, Case, Cond};
use common::{Wrap, Wrapped};
use proptest::prelude::*;
use socialreach_core::BundleStrategy::{Batched, PerCondition};
use socialreach_core::CheckPlan::{Audience, Targeted};
use socialreach_core::{
    AccessService, Applied, Deployment, Mutation, PlannerMode, ReadBatch, ResourceId, ShardHandle,
};
use socialreach_graph::{Direction, NodeId};
use std::iter;

const SHARDS: [u32; 4] = [1, 2, 4, 7];

/// One deployment under test, the case as it was written into it, and
/// the fleet it must outlive.
struct Leg {
    svc: Wrapped,
    case: Case,
    _fleet: Vec<ShardHandle>,
}

impl Leg {
    fn reads(&self) -> &dyn AccessService {
        self.svc.reads()
    }

    /// Applies `writes` to the deployment and the same change, `next`,
    /// to the case.
    fn write(&mut self, writes: &[Mutation], next: Case) {
        for m in writes {
            let applied = self.svc.writes().apply(m);
            let applied = applied.unwrap_or_else(|e| panic!("{m}: {e}"));
            if let Applied::Member(id) = applied {
                assert_eq!(id.index(), self.case.graph.num_nodes(), "{m}");
            }
        }
        self.case = next;
    }
}

/// The matrix's deployments, placed by `seed`; a networked one brings
/// up its own fleet, which serves exactly one router.
fn deployments(seed: u64) -> impl Iterator<Item = (Deployment, Vec<ShardHandle>)> {
    let fleet = move || {
        let handles = socialreach_core::remote::spawn_local_fleet(2, false).expect("fleet spawns");
        let addrs = handles.iter().map(|h| h.addr().clone()).collect();
        (Deployment::networked_with(addrs, seed), handles)
    };
    let in_process =
        iter::once(Deployment::online()).chain(SHARDS.map(|k| Deployment::sharded(k, seed)));
    in_process
        .map(|d| (d, Vec::new()))
        .chain(iter::once_with(fleet))
}

/// The case as [`Mutation`]s, keeping only the rules `AddRule` can
/// carry; returns them and the case they write.
fn mutations(case: &Case) -> (Vec<Mutation>, Case) {
    let g = &case.graph;
    let mut out: Vec<Mutation> = g
        .nodes()
        .map(|m| Mutation::AddUser {
            name: g.node_name(m).to_owned(),
        })
        .collect();
    for user in g.nodes() {
        if let Some(value) = g.node_attr_by_name(user, "age") {
            let (key, value) = ("age".to_owned(), value.clone());
            out.push(Mutation::SetUserAttr { user, key, value });
        }
    }
    for (_, e) in g.edges() {
        let label = g.vocab().label_name(e.label).to_owned();
        out.push(Mutation::AddRelationship {
            src: e.src,
            label,
            dst: e.dst,
        });
    }
    let mut kept = case.clone();
    for (rid, res) in kept.resources.iter_mut().enumerate() {
        out.push(Mutation::AddResource { owner: res.owner });
        res.rules
            .retain(|rule| matches!(&rule[..], [c] if c.owner == res.owner));
        for rule in &res.rules {
            let (resource, path) = (ResourceId(rid as u64), rule[0].text());
            out.push(Mutation::AddRule { resource, path });
        }
    }
    (out, kept)
}

/// `case` in `deployment` behind `wrap`: loaded with `from_graph`, or
/// for a durable one written through [`Mutation`]s.
fn leg(deployment: Deployment, _fleet: Vec<ShardHandle>, wrap: Wrap, case: &Case) -> Leg {
    if let Wrap::Durable = wrap {
        let (writes, case) = mutations(case);
        let mut svc = Wrapped::new(&deployment, wrap, None);
        for m in &writes {
            svc.writes().apply(m).unwrap_or_else(|e| panic!("{m}: {e}"));
        }
        return Leg { svc, case, _fleet };
    }
    let (g, store) = common::load(case);
    let svc = Wrapped::new(&deployment, wrap, Some((&g, store)));
    Leg {
        svc,
        case: case.clone(),
        _fleet,
    }
}

/// `cond` with the first closed item of its last step one level wider.
fn widened(cond: &Cond) -> Option<Cond> {
    let mut wide = cond.clone();
    let last = wide.steps.last_mut()?;
    let item = last.depths.iter_mut().find(|d| d.1.is_some())?;
    item.1 = item.1.map(|hi| hi + 1);
    Some(wide)
}

/// Reads every shape from the leg and compares each answer with the
/// oracle's. Returns the leg's own audiences.
fn assert_reads(leg: &Leg, tag: &str) -> Vec<Vec<NodeId>> {
    let (case, reads) = (&leg.case, leg.reads());
    let g = &case.graph;
    let want = common::oracle_audiences(case);
    let (pairs, granted) = common::oracle_pairs(case);
    let read = |batch: ReadBatch| reads.read(&batch).unwrap_or_else(|e| panic!("{tag}: {e}"));

    let checks = pairs
        .iter()
        .fold(ReadBatch::new(), |b, &(r, m)| b.check(r, m));
    for plan in [
        None,
        Some(Targeted),
        Some(Audience(Batched)),
        Some(Audience(PerCondition)),
    ] {
        let got = read(ReadBatch {
            plan,
            ..checks.clone()
        });
        let got: Vec<bool> = got
            .iter()
            .map(|r| r.decision.unwrap().is_granted())
            .collect();
        assert_eq!(got, granted, "{tag}: checks of {pairs:?} under {plan:?}");
    }

    let audiences = common::case_rids(case)
        .into_iter()
        .fold(ReadBatch::new(), |b, r| b.audience(r));
    let mut own = Vec::new();
    for strategy in [None, Some(Batched), Some(PerCondition)] {
        let got = read(ReadBatch {
            strategy,
            ..audiences.clone()
        });
        let stats = got.first().map(|r| r.stats).unwrap_or_default();
        assert!(stats.plan_states <= stats.expr_states, "{tag}: {stats:?}");
        own = got.into_iter().map(|r| r.audience.unwrap()).collect();
        assert_eq!(own, want, "{tag}: audiences under {strategy:?}");
    }

    common::assert_explains(reads, case, tag);

    // Each condition in both grammars, and with its last step one level
    // wider.
    let conds = common::case_conds(case);
    let (mut texts, mut widenings) = (Vec::new(), Vec::new());
    for &c in &conds {
        let narrow = texts.len();
        texts.push((c.clone(), c.text()));
        texts.extend(c.query().map(|q| (c.clone(), q)));
        if let Some(w) = widened(c) {
            widenings.push((narrow, texts.len()));
            texts.push((w.clone(), w.text()));
        }
    }
    // The empty path reaches its owner; a label no edge carries, nobody.
    let owner = case.resources[0].owner;
    let stranger = common::step("stranger", Direction::Out, &[(1, Some(3))], None);
    let stranger = Cond {
        owner,
        steps: vec![stranger],
    };
    texts.push((
        Cond {
            owner,
            steps: Vec::new(),
        },
        "MATCH (owner)".to_owned(),
    ));
    texts.push((stranger.clone(), stranger.text()));
    let got = read(
        texts
            .iter()
            .fold(ReadBatch::new(), |b, (c, t)| b.query(c.owner, t)),
    );
    let got: Vec<Vec<NodeId>> = got.into_iter().map(|r| r.audience.unwrap()).collect();
    for ((c, text), got) in texts.iter().zip(&got) {
        let want: Vec<NodeId> = oracle::reach(g, c).into_iter().collect();
        assert_eq!(got, &want, "{tag}: query {text:?} at {}", c.owner);
    }
    for (narrow, wide) in widenings {
        let shrank = got[narrow].iter().any(|m| !got[wide].contains(m));
        assert!(!shrank, "{tag}: widening {} shrank", texts[narrow].1);
    }
    own
}

/// The first condition of the case, or a one-hop friendship at the
/// first resource's owner.
fn first_cond(case: &Case) -> Cond {
    let found = case
        .resources
        .iter()
        .flat_map(|r| r.rules.iter().flatten())
        .next();
    found.cloned().unwrap_or_else(|| Cond {
        owner: case.resources[0].owner,
        steps: vec![common::step("friend", Direction::Out, &[(1, None)], None)],
    })
}

/// A member joins, aged 40, with an edge that one hop of the first
/// condition's first step takes from its owner.
fn joining(case: &Case) -> (Vec<Mutation>, Case) {
    let mut next = case.clone();
    let c = first_cond(case);
    let name = format!("u{}", case.graph.num_nodes());
    let joiner = next.graph.add_node(&name);
    next.graph.set_node_attr(joiner, "age", 40i64);
    let (src, dst) = match c.steps[0].dir {
        Direction::In => (joiner, c.owner),
        _ => (c.owner, joiner),
    };
    let label = c.steps[0].label;
    next.graph.connect(src, label, dst);
    let writes = vec![
        Mutation::AddUser { name },
        Mutation::SetUserAttr {
            user: joiner,
            key: "age".to_owned(),
            value: 40i64.into(),
        },
        Mutation::AddRelationship {
            src,
            label: label.to_owned(),
            dst,
        },
    ];
    (writes, next)
}

/// A rule on the first resource: the first condition's path at its owner.
fn ruling(case: &Case) -> (Vec<Mutation>, Case) {
    let mut next = case.clone();
    let res = &mut next.resources[0];
    let cond = Cond {
        owner: res.owner,
        ..first_cond(case)
    };
    let write = Mutation::AddRule {
        resource: ResourceId(0),
        path: cond.text(),
    };
    res.rules.push(vec![cond]);
    (vec![write], next)
}

/// One case through every deployment behind `wrap`.
fn run(case: &Case, seed: u64, wrap: Wrap) {
    for (deployment, fleet) in deployments(seed) {
        let tag = format!("{wrap:?} over {}", deployment.describe());
        let mut leg = leg(deployment, fleet, wrap, case);
        let before = assert_reads(&leg, &tag);

        let (writes, next) = joining(&leg.case);
        leg.write(&writes, next);
        let grown = assert_reads(&leg, &format!("{tag}, after a member joined"));
        for (b, a) in before.iter().zip(&grown) {
            assert!(
                b.iter().all(|m| a.contains(m)),
                "{tag}: a joining member revoked a grant"
            );
        }

        let (writes, next) = ruling(&leg.case);
        leg.write(&writes, next);
        let ruled = assert_reads(&leg, &format!("{tag}, after a rule was added"));
        let (a, r) = (&grown[0], &ruled[0]);
        assert!(
            a.iter().all(|m| r.contains(m)),
            "{tag}: an added rule shrank an audience"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bare deployments loaded with `from_graph`.
    #[test]
    fn bare_deployments_answer_like_the_oracle(case in common::cases(), seed in 0..1000u64) {
        run(&case, seed, Wrap::Bare);
    }

    /// Durable deployments written through `Mutation`.
    #[test]
    fn durable_deployments_answer_like_the_oracle(case in common::cases(), seed in 0..1000u64) {
        run(&case, seed, Wrap::Durable);
    }

    /// Planned deployments loaded with `from_graph`, under a mode drawn
    /// per case.
    #[test]
    fn planned_deployments_answer_like_the_oracle(
        case in common::cases(),
        seed in 0..1000u64,
        mode in 0..3usize,
    ) {
        let mode = [PlannerMode::Adaptive, PlannerMode::ForcedBatch, PlannerMode::ForcedPerCondition][mode];
        run(&case, seed, Wrap::Planned(mode));
    }
}
