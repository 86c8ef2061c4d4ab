//! Shared plumbing of the serving-layer test suites: equivalence
//! checks generic over **any two** [`AccessService`] implementations,
//! the path-automaton witness replay, and a raw shard-protocol client.
//!
//! The equivalence harness never names a backend — a future deployment
//! (e.g. the ROADMAP's distributed-transport shards) is testable
//! against the existing ones the day it implements the trait.
#![allow(dead_code)] // each test binary uses the slice it needs

use socialreach_core::remote::frame::{read_frame, write_frame};
use socialreach_core::remote::proto::{
    decode_response, encode_request, Request, Response, SessionSpec, WireMatch, WireRefusal,
    PROTOCOL_VERSION,
};
use socialreach_core::{
    AccessService, Decision, Explanation, PathExpr, ResourceId, ShardAddr, WalkHop,
};
use socialreach_graph::shard::{MaskedExport, MaskedStateKey};
use socialreach_graph::{NodeId, SocialGraph};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Asserts two serving backends agree on **every** observable read of
/// the given resources: per-member decisions, per-resource audiences,
/// batched audiences, batched decisions, and explain grant-ness.
/// `reference` and `candidate` must serve the same membership.
pub fn assert_services_agree(
    reference: &dyn AccessService,
    candidate: &dyn AccessService,
    rids: &[ResourceId],
) {
    assert_eq!(
        reference.num_members(),
        candidate.num_members(),
        "{} vs {}: membership census",
        reference.describe(),
        candidate.describe()
    );
    let members: Vec<NodeId> = (0..reference.num_members() as u32).map(NodeId).collect();
    let tag = || format!("{} vs {}", reference.describe(), candidate.describe());

    // Per-resource audiences and per-member decisions.
    for &rid in rids {
        let expect = reference.audience(rid).expect("reference audience");
        let got = candidate.audience(rid).expect("candidate audience");
        assert_eq!(got, expect, "audience mismatch: rid={rid:?} ({})", tag());
        for &m in &members {
            let expect = reference.check(rid, m).expect("reference check");
            let got = candidate.check(rid, m).expect("candidate check");
            assert_eq!(
                got,
                expect,
                "decision mismatch: rid={rid:?} member={m} ({})",
                tag()
            );
            // Explain agrees with the decision on both sides.
            let explained = candidate.explain(rid, m).expect("candidate explain");
            assert_eq!(
                explained.is_some(),
                got == Decision::Grant,
                "explain/decision divergence: rid={rid:?} member={m} ({})",
                tag()
            );
        }
    }

    // Batched reads match the per-request truth on both backends.
    let bundle_expect = reference.audience_batch(rids).expect("reference bundle");
    let bundle_got = candidate.audience_batch(rids).expect("candidate bundle");
    assert_eq!(bundle_got, bundle_expect, "bundle audiences ({})", tag());
    let requests: Vec<(ResourceId, NodeId)> = rids
        .iter()
        .flat_map(|&rid| members.iter().map(move |&m| (rid, m)))
        .collect();
    let decisions_expect = reference
        .check_batch(&requests, 2)
        .expect("reference batch");
    let decisions_got = candidate
        .check_batch(&requests, 2)
        .expect("candidate batch");
    assert_eq!(
        decisions_got,
        decisions_expect,
        "batched decisions ({})",
        tag()
    );
}

/// Checks a witness walk: a connected walk `owner ⇝ requester` whose
/// hops are real edges of the reference graph and whose
/// label/direction/depth sequence is accepted by the path automaton
/// (NFA over `(step, depth)` states with ε-completions between steps).
/// Returns the violation, or `None` when the walk is valid.
pub fn witness_violation(
    g: &SocialGraph,
    owner: NodeId,
    requester: NodeId,
    path: &PathExpr,
    witness: &[WalkHop],
) -> Option<String> {
    // 1. Each hop is an edge of the reference graph and the walk chains.
    let mut at = owner;
    for hop in witness {
        let exists = g
            .edges()
            .any(|(_, r)| r.src == hop.src && r.dst == hop.dst && r.label == hop.label);
        if !exists {
            return Some(format!("hop {hop:?} is not an edge of the graph"));
        }
        let (from, to) = if hop.forward {
            (hop.src, hop.dst)
        } else {
            (hop.dst, hop.src)
        };
        if from != at {
            return Some(format!("witness disconnects at {hop:?}"));
        }
        at = to;
    }
    if at != requester {
        return Some("witness does not end at the requester".to_owned());
    }

    // 2. The hop sequence is accepted by the path automaton.
    let steps = &path.steps;
    // Saturation point of a depth set (all deeper depths equivalent),
    // from the public interval view.
    let sat: Vec<u32> = steps
        .iter()
        .map(|s| {
            let &(lo, hi) = s.depths.intervals().last().expect("non-empty depth set");
            hi.unwrap_or(lo)
        })
        .collect();
    let completes = |i: usize, d: u32, node: NodeId| {
        d >= 1
            && steps[i].depths.contains(d)
            && steps[i].conds.iter().all(|c| c.eval(g.node_attrs(node)))
    };
    let close = |states: &mut Vec<(usize, u32)>, node: NodeId| {
        let mut k = 0;
        while k < states.len() {
            let (i, d) = states[k];
            if i + 1 < steps.len() && completes(i, d, node) && !states.contains(&(i + 1, 0)) {
                states.push((i + 1, 0));
            }
            k += 1;
        }
    };
    let mut states: Vec<(usize, u32)> = vec![(0, 0)];
    let mut at = owner;
    for hop in witness {
        close(&mut states, at);
        let (label, forward) = (hop.label, hop.forward);
        let mut next: Vec<(usize, u32)> = Vec::new();
        for &(i, d) in &states {
            let step = &steps[i];
            if step.label != label {
                continue;
            }
            let dir_ok = match step.dir {
                socialreach_graph::Direction::Out => forward,
                socialreach_graph::Direction::In => !forward,
                socialreach_graph::Direction::Both => true,
            };
            if !dir_ok {
                continue;
            }
            if d < sat[i] || step.depths.is_unbounded() {
                let nd = (d + 1).min(sat[i]);
                if !next.contains(&(i, nd)) {
                    next.push((i, nd));
                }
            }
        }
        states = next;
        if states.is_empty() {
            return Some(format!("witness hop {hop:?} matches no step"));
        }
        at = if forward { hop.dst } else { hop.src };
    }
    if states
        .iter()
        .any(|&(i, d)| i == steps.len() - 1 && completes(i, d, at))
    {
        None
    } else {
        Some("witness walk does not complete the path at the requester".to_owned())
    }
}

/// Panicking wrapper of [`witness_violation`] for suites that know the
/// unique condition a walk must satisfy.
pub fn assert_witness_valid(
    g: &SocialGraph,
    owner: NodeId,
    requester: NodeId,
    path: &PathExpr,
    witness: &[WalkHop],
) {
    if let Some(violation) = witness_violation(g, owner, requester, path, witness) {
        panic!("{violation}");
    }
}

/// Validates every walk of a granted [`Explanation`] against the
/// reference graph: each walk must reach `requester` and be accepted
/// by the automaton of a rule condition it claims to satisfy (matched
/// by the walk's `start` owner; `conditions` are the resource's
/// `(owner, path)` pairs).
pub fn assert_explanation_valid(
    g: &SocialGraph,
    requester: NodeId,
    conditions: &[(NodeId, PathExpr)],
    explanation: &Explanation,
) {
    match explanation {
        Explanation::Ownership { .. } => {}
        Explanation::Rule { walks } => {
            assert!(!walks.is_empty(), "a rule grant carries walks");
            for walk in walks {
                // Several conditions can share an owner; at least one
                // must accept the walk.
                let accepted = conditions.iter().any(|(owner, path)| {
                    *owner == walk.start
                        && witness_violation(g, *owner, requester, path, &walk.hops).is_none()
                });
                assert!(
                    accepted,
                    "no condition of the rule accepts walk from {}",
                    walk.start
                );
            }
        }
    }
}

/// A blocking client speaking the shard protocol directly (no router),
/// over either transport.
pub struct RawClient {
    stream: Box<dyn RawStream>,
}

pub trait RawStream: Read + Write + Send {}
impl<T: Read + Write + Send> RawStream for T {}

impl RawClient {
    /// Dials `addr` and completes the handshake.
    pub fn dial(addr: &ShardAddr) -> RawClient {
        let patience = Some(Duration::from_secs(10));
        let stream: Box<dyn RawStream> = match addr {
            ShardAddr::Tcp(a) => {
                let s = TcpStream::connect(a).expect("dial shard");
                s.set_read_timeout(patience).unwrap();
                Box::new(s)
            }
            ShardAddr::Unix(p) => {
                let s = UnixStream::connect(p).expect("dial shard");
                s.set_read_timeout(patience).unwrap();
                Box::new(s)
            }
        };
        let mut c = RawClient { stream };
        match c.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        }) {
            Response::Hello { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected Hello, got {other:?}"),
        }
        c
    }

    pub fn call(&mut self, req: &Request) -> Response {
        write_frame(&mut self.stream, &encode_request(req)).expect("write");
        let payload = read_frame(&mut self.stream).expect("read");
        decode_response(&payload).expect("decode")
    }

    /// One round of session `eval`, unstopped; `open` makes it the
    /// session's first. Returns the matches and exports, or the
    /// shard's refusal.
    pub fn round(
        &mut self,
        eval: u64,
        open: Option<SessionSpec>,
        seeds: Vec<MaskedExport>,
    ) -> Result<(Vec<WireMatch>, Vec<MaskedExport>), WireRefusal> {
        let stop = None;
        let req = match open {
            Some(session) => Request::OpenRound {
                eval,
                session,
                seeds,
                stop,
            },
            None => Request::Round { eval, seeds, stop },
        };
        match self.call(&req) {
            Response::Round {
                matched, exports, ..
            } => Ok((matched, exports)),
            Response::Refused(refusal) => Err(refusal),
            other => panic!("expected Round, got {other:?}"),
        }
    }
}

/// A seed at `member`'s start state (step 0, depth 0, word 0).
pub fn start_seed(member: u32, mask: u64) -> MaskedExport {
    MaskedExport {
        key: MaskedStateKey {
            member,
            step: 0,
            depth: 0,
            word: 0,
        },
        mask,
    }
}
