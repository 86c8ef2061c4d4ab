//! The four workloads: which backend, how large, and what one round
//! of the closed loop issues.

use crate::backend::{Kind, Service};
use crate::inputs::{Stream, HUBS, RESOURCES};
use crate::stats::Digest;
use socialreach_core::{Decision, EvalError, MutateService, ResourceId};
use socialreach_graph::NodeId;
use std::time::Instant;

/// One workload: a backend, a size and the fixed composition of a
/// round. One caller thread issues a round's ops one after another and
/// waits for each answer (closed loop).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub members: usize,
    /// Checks per round.
    checks: usize,
    /// Bundles per round (feed) — a churn round has at most one.
    bundles: usize,
    /// Rounds between bundles, shares and hub reads; 1 on the feeds.
    bundle_every: usize,
    hub_every: usize,
    /// Whether a round opens with a write.
    writes: bool,
    /// Untimed rounds before the timed phase (≈ 5 % of a run).
    pub warmup_rounds: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "feed_single",
        kind: Kind::Single,
        members: 100_000,
        checks: 2000,
        bundles: 20,
        bundle_every: 1,
        hub_every: 1,
        writes: false,
        warmup_rounds: 8,
    },
    Workload {
        name: "feed_sharded",
        kind: Kind::Sharded,
        members: 100_000,
        checks: 100,
        bundles: 10,
        bundle_every: 1,
        hub_every: 1,
        writes: false,
        warmup_rounds: 3,
    },
    Workload {
        name: "feed_networked",
        kind: Kind::Networked,
        members: 3_000,
        checks: 120,
        bundles: 6,
        bundle_every: 1,
        hub_every: 1,
        writes: false,
        warmup_rounds: 2,
    },
    Workload {
        name: "churn_durable",
        kind: Kind::Durable,
        members: 100_000,
        checks: 8,
        bundles: 1,
        bundle_every: 5,
        hub_every: 25,
        writes: true,
        warmup_rounds: 100,
    },
];

/// Members of every workload under `--quick`.
pub const QUICK_MEMBERS: usize = 1000;

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

#[derive(Clone, Debug)]
pub enum Op {
    Check {
        rid: ResourceId,
        who: NodeId,
        /// First read after a write: pays the republication.
        after_write: bool,
    },
    Bundle(Vec<ResourceId>),
    Hub(ResourceId),
    Befriend(NodeId, NodeId),
    Share {
        owner: NodeId,
        rule: &'static str,
    },
}

impl Op {
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Check { .. } | Op::Bundle(_) | Op::Hub(_))
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Decision(Decision),
    Audiences(Vec<Vec<NodeId>>),
    Written,
}

impl Answer {
    /// Folds the answer into a digest: decisions and audience lengths.
    pub fn digest_into(&self, d: &mut Digest) {
        match self {
            Answer::Decision(x) => d.push(x.is_granted() as u64),
            Answer::Audiences(all) => all.iter().for_each(|a| d.push(a.len() as u64)),
            Answer::Written => {}
        }
    }
}

/// Sends a write through the write seam.
pub fn write(svc: &mut dyn MutateService, op: &Op) -> Result<Answer, EvalError> {
    match op {
        Op::Befriend(a, b) => {
            svc.add_relationship(*a, "friend", *b);
            Ok(Answer::Written)
        }
        Op::Share { owner, rule } => {
            let rid = svc.add_resource(*owner);
            svc.add_rule(rid, rule).map(|()| Answer::Written)
        }
        _ => unreachable!("reads go through AccessService"),
    }
}

/// Sends one op through the public seam; returns the answer and the
/// time the seam call took, in ns.
pub fn execute(svc: &mut Service, op: &Op) -> (Result<Answer, EvalError>, u64) {
    let start = Instant::now();
    let answer = match op {
        Op::Check { rid, who, .. } => svc.reads().check(*rid, *who).map(Answer::Decision),
        Op::Bundle(rids) => svc.reads().audience_batch(rids).map(Answer::Audiences),
        Op::Hub(rid) => svc
            .reads()
            .audience(*rid)
            .map(|a| Answer::Audiences(vec![a])),
        Op::Befriend(..) | Op::Share { .. } => write(svc.writes(), op),
    };
    (answer, start.elapsed().as_nanos() as u64)
}

/// Generates rounds of one workload from a request stream.
pub struct Rounds<'a> {
    workload: Workload,
    stream: Stream<'a>,
    round: usize,
    shared: u64,
}

impl<'a> Rounds<'a> {
    pub fn new(workload: Workload, stream: Stream<'a>) -> Rounds<'a> {
        Rounds {
            workload,
            stream,
            round: 0,
            shared: 0,
        }
    }

    /// The fixed sample every workload answers first and checks
    /// against its oracles: the head of the check, bundle and hub
    /// streams (1 000 reads).
    pub fn sample(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(1000);
        for _ in 0..950 {
            let (rid, who) = self.stream.check();
            ops.push(Op::Check {
                rid,
                who,
                after_write: false,
            });
        }
        ops.extend((0..40).map(|_| Op::Bundle(self.stream.bundle())));
        ops.extend((0..10).map(|_| Op::Hub(self.stream.hub())));
        ops
    }

    /// The next round's ops, in issue order.
    pub fn next_round(&mut self) -> Vec<Op> {
        let w = self.workload;
        let i = self.round;
        self.round += 1;
        let mut ops = Vec::with_capacity(w.checks + w.bundles + 3);
        let bundle_round = i.is_multiple_of(w.bundle_every);
        let mut fresh = None;
        if w.writes {
            let (a, b) = self.stream.friendship();
            ops.push(Op::Befriend(a, b));
            if bundle_round {
                let (owner, rule) = self.stream.fresh_resource();
                ops.push(Op::Share { owner, rule });
                fresh = Some((ResourceId((RESOURCES + HUBS) as u64 + self.shared), owner));
                self.shared += 1;
            }
        }
        let bundles = if bundle_round { w.bundles } else { 0 };
        let checks_per_bundle = w.checks / w.bundles;
        for c in 0..w.checks {
            let (rid, who) = match fresh.take() {
                Some((rid, owner)) => self.stream.check_of(rid, owner),
                None => self.stream.check(),
            };
            ops.push(Op::Check {
                rid,
                who,
                after_write: w.writes && c == 0,
            });
            if (c + 1) % checks_per_bundle == 0 && (c + 1) / checks_per_bundle <= bundles {
                ops.push(Op::Bundle(self.stream.bundle()));
            }
        }
        if i.is_multiple_of(w.hub_every) {
            ops.push(Op::Hub(self.stream.hub()));
        }
        ops
    }
}
