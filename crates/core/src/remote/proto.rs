//! The request/response vocabulary between a router and its shard
//! servers.
//!
//! Messages are serde-encoded (JSON through the vendored shim — the
//! same encoding the WAL uses, deterministic and self-describing) and
//! travel inside the CRC frames of [`super::frame`]. The traversal
//! vocabulary is **not** new: boundary exports ride the exact
//! [`MaskedExport`] /
//! [`MaskedStateKey`](socialreach_graph::shard::MaskedStateKey) types
//! the in-process sharded router moves between shards, with `key.member` in deployment-global
//! member ids (each server translates to its local node space at the
//! edge).
//!
//! Two invariants every handler relies on:
//!
//! * **Member coordinates on the wire are global.** Servers keep a
//!   `global → local` map and never leak local ids.
//! * **Epochs fence every state-changing exchange.** Mutations travel
//!   as a two-phase `Prepare`/`Commit` (or `Abort`) carrying the new
//!   epoch; evaluations open with the epoch the router believes is
//!   current and are refused on mismatch, so a half-committed fleet
//!   can never serve a mixed-epoch read.
//!
//! A read exchanges one request frame and one response frame per lane
//! and round, and nothing else. A lane's first round is an
//! [`Request::OpenRound`]: it carries the lane's [`SessionSpec`] and is
//! answered by that round's result, or by the open's refusal. Later
//! rounds are plain [`Request::Round`]s. A session belongs to the
//! connection that opened it and lives until that connection opens its
//! next session or closes, so there is no close message either.

use serde::{Deserialize, Serialize};
use socialreach_graph::shard::MaskedExport;
use socialreach_graph::AttrValue;

/// Wire-protocol version, checked in the `Hello` handshake. Bump on
/// any incompatible message change (the golden-bytes pins in the
/// round-trip suite catch accidental ones).
pub const PROTOCOL_VERSION: u32 = 3;

/// One shard-local mutation, shipped inside a `Prepare` batch. All
/// member ids are global; names ride along because each shard interns
/// labels/attrs by name in router-synchronized order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ShardOp {
    /// Materialize a member (home copy or ghost replica) on the shard.
    AddNode {
        /// Global member id.
        global: u32,
        /// Display name.
        name: String,
        /// Whether this copy is a ghost replica (never reported as an
        /// audience member; the seeded BFS's export watch set).
        ghost: bool,
    },
    /// Set an attribute on the shard's copy of a member.
    SetAttr {
        /// Global member id.
        global: u32,
        /// Attribute key name.
        key: String,
        /// The value.
        value: AttrValue,
    },
    /// Add a directed edge between two copies the shard holds.
    AddEdge {
        /// Global id of the source member.
        src: u32,
        /// Relationship label name.
        label: String,
        /// Global id of the target member.
        dst: u32,
    },
}

/// What an evaluation session runs, sent with the lane's first round
/// ([`Request::OpenRound`]): the plan the router compiled, shipped
/// whole — one 64-condition chunk of a bundle's **shared-prefix trie
/// plan** ([`crate::query::BundlePlan`]), or a targeted read's one-path
/// plan. Round seeds carry *plan node ids* in the `step` slot of their
/// masked keys. The shard parses each node's step and compiles nothing.
/// Refused unless `epoch` matches the shard's published epoch (the read
/// half of the fence).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// The epoch the router expects the shard to serve.
    pub epoch: u64,
    /// The plan's nodes with this chunk's condition masks baked in;
    /// vector index is the plan node id.
    pub nodes: Vec<WirePlanNode>,
    /// Mask word this evaluation's bits live in.
    pub word: u32,
    /// A targeted read's one-path plan: only such a session takes a
    /// stop member or answers `Trace`.
    pub one_path: bool,
    /// Build the engine with first-arrival parent tracking (the
    /// `explain` path; a one-path session only).
    pub parents: bool,
}

/// A router → shard request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake: the first message on every connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Intern label/attr names in router order, so interned ids agree
    /// between the router and every shard (witness hops carry label
    /// ids). Idempotent: names already interned keep their ids.
    Intern {
        /// Label names to intern, in master-vocabulary order.
        labels: Vec<String>,
        /// Attribute key names to intern, in master-vocabulary order.
        attrs: Vec<String>,
    },
    /// Phase one of the epoch fence: stage `ops` for `epoch` without
    /// applying them. `epoch` must exceed the shard's current epoch
    /// (a restarted shard catches up through jumped prepares, each of
    /// at most [`super::MAX_EPOCH_OPS`] ops).
    Prepare {
        /// The epoch the ops will publish as.
        epoch: u64,
        /// The staged mutations, applied atomically at commit.
        ops: Vec<ShardOp>,
    },
    /// Phase two: apply the staged ops and publish `epoch`.
    /// Idempotent when the shard is already at `epoch`.
    Commit {
        /// The epoch being committed.
        epoch: u64,
    },
    /// Roll back a staged prepare.
    Abort {
        /// The epoch being abandoned.
        epoch: u64,
    },
    /// A lane's first round: drops the connection's previous session,
    /// opens `session` on this connection under the name `eval`, then
    /// runs the round exactly as [`Request::Round`] does and answers
    /// with its response. An open the shard cannot serve (epoch fence,
    /// unparsable or multi-step node text, uninterned vocabulary, an
    /// empty plan, a child id out of range, parent tracking on a
    /// bundle-plan session) is answered with the refusal instead, and
    /// leaves no session.
    OpenRound {
        /// The evaluation id: the session's name.
        eval: u64,
        /// What the session runs.
        session: SessionSpec,
        /// The seeds, as in [`Request::Round`].
        seeds: Vec<MaskedExport>,
        /// The early-exit target, as in [`Request::Round`].
        stop: Option<u32>,
    },
    /// Deliver one batch of masked seeds to the connection's open
    /// session and run the shard's slice of the fixpoint round. Seeds
    /// are [`MaskedExport`]s in global coordinates; the engine's
    /// visited state persists across rounds, so re-delivered bits are
    /// harmlessly absorbed (duplicate batches can never double-report).
    Round {
        /// The evaluation id; any id but the connection's open
        /// session's is refused.
        eval: u64,
        /// The seeds (global member coordinates + condition bits).
        seeds: Vec<MaskedExport>,
        /// Early-exit target: global member id whose final-step
        /// completion stops the run (set only on the member's home
        /// shard).
        stop: Option<u32>,
    },
    /// Walk an evaluation's parent chain back from a product state to
    /// the seed that started its local segment (witness stitching).
    Trace {
        /// The evaluation id.
        eval: u64,
        /// Global member id of the traced state.
        member: u32,
        /// Plan node id of the traced state (a one-path plan's step
        /// index).
        step: u16,
        /// Saturated depth of the traced state.
        depth: u32,
    },
    /// Size census of the shard.
    Census,
    /// Ask the server process to shut down.
    Shutdown,
}

/// One node of a shipped plan ([`SessionSpec`]): a single-step path
/// expression in canonical text plus the trie edges and this chunk's
/// condition masks. The wire plan is chunk-specific — one evaluation
/// session serves one 64-condition mask word, so the masks ride with
/// the nodes instead of a separate message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WirePlanNode {
    /// The node's step as a one-step path expression in canonical text
    /// ([`crate::path::PathExpr::to_text`]); the shard parses it
    /// against its synchronized vocabulary.
    pub step: String,
    /// Plan node ids of the trie children (divergence points fork the
    /// condition masks).
    pub children: Vec<u16>,
    /// Condition bits whose chains pass through this node (the ε-fork
    /// filter).
    pub mask: u64,
    /// Condition bits that accept upon completing this node.
    pub accept: u64,
}

/// One member that completed the final path step, with the condition
/// bits that newly matched them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireMatch {
    /// Global member id.
    pub member: u32,
    /// Newly matched condition bits (within the evaluation's word).
    pub mask: u64,
}

/// One hop of a witness walk segment, in global member ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireHop {
    /// Global id of the edge's source member.
    pub src: u32,
    /// Global id of the edge's target member.
    pub dst: u32,
    /// Interned relationship label (router-synchronized id space).
    pub label: u16,
    /// Whether the hop follows the edge's orientation.
    pub forward: bool,
}

/// A typed shard-side refusal. Distinct from transport failures: the
/// connection stays healthy, the request was simply not servable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireRefusal {
    /// Protocol versions disagree.
    Version {
        /// The shard's [`PROTOCOL_VERSION`].
        shard: u32,
        /// The version the client announced.
        requested: u32,
    },
    /// The epoch fence refused the request.
    EpochMismatch {
        /// The shard's published epoch.
        shard_epoch: u64,
        /// The epoch the request carried.
        requested: u64,
    },
    /// The evaluation id is not this connection's open session: it was
    /// never opened here, a later open replaced it, or a commit
    /// invalidated it.
    UnknownEval {
        /// The offending evaluation id.
        eval: u64,
    },
    /// A global member id the shard holds no copy of.
    UnknownMember {
        /// The offending global member id.
        member: u32,
    },
    /// The request was malformed or violated a protocol invariant.
    BadRequest {
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl std::fmt::Display for WireRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireRefusal::Version { shard, requested } => {
                write!(
                    f,
                    "protocol version mismatch (shard {shard}, client {requested})"
                )
            }
            WireRefusal::EpochMismatch {
                shard_epoch,
                requested,
            } => write!(
                f,
                "epoch fence refused (shard at {shard_epoch}, request for {requested})"
            ),
            WireRefusal::UnknownEval { eval } => write!(f, "unknown evaluation id {eval}"),
            WireRefusal::UnknownMember { member } => {
                write!(f, "shard holds no copy of member {member}")
            }
            WireRefusal::BadRequest { detail } => write!(f, "bad request: {detail}"),
        }
    }
}

/// A shard → router response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    Hello {
        /// The shard's [`PROTOCOL_VERSION`].
        version: u32,
        /// The shard's published epoch (0 on a fresh process — the
        /// router reads this to decide whether to replay its op log).
        epoch: u64,
        /// Member copies the shard holds (home + ghosts).
        nodes: u64,
    },
    /// Generic acknowledgement (`Intern`, `Shutdown`).
    Ok,
    /// `Prepare` staged.
    Prepared {
        /// The staged epoch.
        epoch: u64,
    },
    /// `Commit` applied (or was already applied).
    Committed {
        /// The published epoch.
        epoch: u64,
    },
    /// `Abort` dropped the staged ops (or there was nothing staged).
    Aborted {
        /// The abandoned epoch.
        epoch: u64,
    },
    /// One shard round of the masked fixpoint (answers both
    /// `OpenRound` and `Round`).
    Round {
        /// Members newly completing the final step (ghost copies
        /// already filtered — only home members are reported).
        matched: Vec<WireMatch>,
        /// Newly exported boundary states, in global coordinates.
        exports: Vec<MaskedExport>,
        /// Early-exit coordinate when the `stop` member completed the
        /// final step during this run.
        hit: Option<(u16, u32)>,
        /// Product states expanded by this run.
        states_expanded: u64,
    },
    /// One traced witness segment.
    Traced {
        /// The hops from the segment's seed to the traced state, in
        /// walk order.
        hops: Vec<WireHop>,
        /// Global member id of the seed the segment started from.
        seed_member: u32,
        /// Step index of that seed.
        seed_step: u16,
        /// Saturated depth of that seed.
        seed_depth: u32,
    },
    /// The shard's size census.
    Census {
        /// Members homed on the shard.
        members: u64,
        /// Ghost replicas held.
        ghosts: u64,
        /// Edges in the shard graph.
        edges: u64,
        /// Published epoch.
        epoch: u64,
    },
    /// A typed refusal.
    Refused(WireRefusal),
}

/// Encodes a request for framing.
pub fn encode_request(req: &Request) -> Vec<u8> {
    serde_json::to_string(req)
        .expect("requests serialize (no non-finite floats)")
        .into_bytes()
}

/// Decodes a request payload.
pub fn decode_request(bytes: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| format!("{e:?}"))
}

/// Encodes a response for framing.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp)
        .expect("responses serialize (no non-finite floats)")
        .into_bytes()
}

/// Decodes a response payload.
pub fn decode_response(bytes: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialreach_graph::shard::MaskedStateKey;

    #[test]
    fn requests_round_trip() {
        let seeds = vec![MaskedExport {
            key: MaskedStateKey {
                member: 7,
                step: 2,
                depth: 9,
                word: 1,
            },
            mask: 0b1011,
        }];
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Intern {
                labels: vec!["friend".into()],
                attrs: vec!["age".into()],
            },
            Request::Prepare {
                epoch: 3,
                ops: vec![
                    ShardOp::AddNode {
                        global: 7,
                        name: "Grace".into(),
                        ghost: true,
                    },
                    ShardOp::SetAttr {
                        global: 7,
                        key: "age".into(),
                        value: AttrValue::Int(44),
                    },
                    ShardOp::AddEdge {
                        src: 7,
                        label: "friend".into(),
                        dst: 9,
                    },
                ],
            },
            Request::OpenRound {
                eval: 11,
                session: SessionSpec {
                    epoch: 3,
                    nodes: vec![
                        WirePlanNode {
                            step: "friend+[1..2]".into(),
                            children: vec![1],
                            mask: 0b11,
                            accept: 0b01,
                        },
                        WirePlanNode {
                            step: "colleague+[1]".into(),
                            children: vec![],
                            mask: 0b10,
                            accept: 0b10,
                        },
                    ],
                    word: 0,
                    one_path: false,
                    parents: false,
                },
                seeds: seeds.clone(),
                stop: None,
            },
            Request::Round {
                eval: 12,
                seeds,
                stop: Some(9),
            },
        ];
        for req in reqs {
            let enc = encode_request(&req);
            assert_eq!(decode_request(&enc).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Hello {
                version: PROTOCOL_VERSION,
                epoch: 0,
                nodes: 0,
            },
            Response::Round {
                matched: vec![WireMatch { member: 4, mask: 1 }],
                exports: vec![],
                hit: Some((2, 3)),
                states_expanded: 17,
            },
            Response::Traced {
                hops: vec![WireHop {
                    src: 1,
                    dst: 2,
                    label: 0,
                    forward: false,
                }],
                seed_member: 1,
                seed_step: 0,
                seed_depth: 0,
            },
            Response::Refused(WireRefusal::EpochMismatch {
                shard_epoch: 4,
                requested: 5,
            }),
        ];
        for resp in resps {
            let enc = encode_response(&resp);
            assert_eq!(decode_response(&enc).unwrap(), resp);
        }
    }
}
