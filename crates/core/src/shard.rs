//! `ShardCore` — the one definition of a shard, in process or behind a
//! socket.
//!
//! A shard holds a [`SocialGraph`] of its home members and of ghost
//! replicas of remote members, in **shard-local** node ids, with the
//! tables that translate between local ids and global member ids, and
//! a [`Publisher`] of its CSR snapshots, which patches each new epoch
//! from the last (every write a shard takes is an append). The in-process link of the
//! partitioned coordinator owns one `ShardCore` and calls it directly;
//! a shard server owns one behind a lock and calls it from the request
//! dispatch. Both reach it through the same typed appliers and the same
//! read half: [`ShardCore::open`] a [`Session`], run
//! [`ShardCore::round`]s of it, and [`ShardCore::trace`] a parent chain.

use crate::coordinator::ShardStats;
use crate::fixpoint::{LaneRound, StateKey};
use crate::online::MaskedSeedState;
use crate::publish::Publisher;
use crate::query::{self, ChunkMasks, PlanBatchState, PlanNode};
use crate::remote::proto::{WireMatch, WireRefusal};
use crate::service::WalkHop;
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::shard::{MaskedExport, MaskedStateKey};
use socialreach_graph::{AttrKey, AttrMap, AttrValue, LabelId, NodeId, SocialGraph, Vocabulary};
use std::borrow::Cow;
use std::sync::Arc;

/// The `locals` entry of a member the shard holds no copy of.
const NO_COPY: u32 = u32::MAX;

/// One partition: home members and ghost replicas, their global ids,
/// and the published snapshot.
pub(crate) struct ShardCore {
    graph: SocialGraph,
    snapshots: Publisher,
    /// Local node index → global member id.
    globals: Vec<NodeId>,
    /// Local node index → is this copy a ghost replica (the seeded
    /// BFS's export watch set; ghosts are never reported as matches —
    /// only a member's home shard speaks for them).
    ghost: Vec<bool>,
    /// Global member id → local node index, or [`NO_COPY`]: a dense
    /// table, so a seed translates in O(1).
    locals: Vec<u32>,
}

/// An open evaluation on one shard: the snapshot it pinned and the
/// round-persistent plan engine over what it runs — borrowed from the
/// caller in process, owned (parsed from the wire) in a shard
/// server's session. Seeds carry plan node ids in the `step` slot —
/// step indexes, for a one-path plan.
pub(crate) struct Session<'a> {
    snap: Arc<CsrSnapshot>,
    engine: PlanBatchState,
    nodes: Cow<'a, [PlanNode]>,
    masks: Cow<'a, ChunkMasks>,
    word: u32,
    /// Opened for one path (a targeted read) rather than for a
    /// bundle-plan chunk: only such a session takes a stop member or
    /// answers a trace.
    one_path: bool,
}

/// One traced parent chain: its hops in global ids, in walk order, and
/// the seed it started from.
pub(crate) type Traced = (Vec<WalkHop>, StateKey);

impl ShardCore {
    /// An empty shard. Every write it takes is an append, so its
    /// snapshots publish incrementally.
    pub(crate) fn new() -> Self {
        ShardCore {
            graph: SocialGraph::new(),
            snapshots: Publisher::default(),
            globals: Vec::new(),
            ghost: Vec::new(),
            locals: Vec::new(),
        }
    }

    /// The shard's copy of `member`, if it holds one.
    pub(crate) fn local_of(&self, member: u32) -> Option<NodeId> {
        match self.locals.get(member as usize) {
            Some(&l) if l != NO_COPY => Some(NodeId(l)),
            _ => None,
        }
    }

    /// The shard's vocabulary (a prefix-aligned copy of the master's).
    pub(crate) fn vocab(&self) -> &Vocabulary {
        self.graph.vocab()
    }

    /// Interns label and attribute-key names, in order. (Interning
    /// never advances the graph's generation, so the published snapshot
    /// stays valid.)
    pub(crate) fn intern<'n>(
        &mut self,
        labels: impl IntoIterator<Item = &'n str>,
        attrs: impl IntoIterator<Item = &'n str>,
    ) {
        for name in labels {
            self.graph.intern_label(name);
        }
        for name in attrs {
            self.graph.intern_attr(name);
        }
    }

    /// Interns the suffix of `master` this shard has not seen, so
    /// interned ids agree with it.
    pub(crate) fn sync_vocab(&mut self, master: &Vocabulary) {
        let (labels, attrs) = (self.vocab().num_labels(), self.vocab().num_attrs());
        self.intern(
            (labels..master.num_labels()).map(|i| master.label_name(LabelId::from_index(i))),
            (attrs..master.num_attrs()).map(|i| master.attr_name(AttrKey::from_index(i))),
        );
    }

    /// Adds a copy of `member` — its home copy, or a ghost replica.
    pub(crate) fn add_node(&mut self, member: u32, name: &str, ghost: bool) {
        let local = self.graph.add_node(name);
        self.globals.push(NodeId(member));
        self.ghost.push(ghost);
        if self.locals.len() <= member as usize {
            self.locals.resize(member as usize + 1, NO_COPY);
        }
        self.locals[member as usize] = local.0;
    }

    /// Sets an attribute on the shard's copy of `member`.
    pub(crate) fn set_attr(&mut self, member: u32, key: AttrKey, value: AttrValue) {
        let local = self.copy(member);
        self.graph.set_node_attr_key(local, key, value);
    }

    /// Adds the edge `src --label--> dst` between two copies the shard
    /// holds.
    pub(crate) fn add_edge(&mut self, src: u32, label: LabelId, dst: u32) {
        let (s, d) = (self.copy(src), self.copy(dst));
        self.graph.add_edge(s, d, label);
    }

    /// The attribute tuple of the shard's copy of `member`.
    pub(crate) fn attrs(&self, member: u32) -> &AttrMap {
        self.graph.node_attrs(self.copy(member))
    }

    fn copy(&self, member: u32) -> NodeId {
        self.local_of(member)
            .expect("writes name members the shard holds a copy of")
    }

    /// Size census: home members, ghost replicas, edges.
    pub(crate) fn census(&self) -> ShardStats {
        let ghosts = self.ghost.iter().filter(|&&g| g).count();
        ShardStats {
            members: self.ghost.len() - ghosts,
            ghosts,
            edges: self.graph.num_edges(),
        }
    }

    /// Snapshot publications so far (see [`Publisher::epoch`]).
    pub(crate) fn snapshot_epoch(&self) -> u64 {
        self.snapshots.epoch()
    }

    /// Opens an evaluation of `nodes` under the chunk `masks` in mask
    /// `word`, over a snapshot published for the current topology.
    /// `one_path` sessions run one path and take a stop member;
    /// `parents` tracks first-arrival parents so a grant can be traced.
    pub(crate) fn open<'a>(
        &self,
        nodes: Cow<'a, [PlanNode]>,
        masks: Cow<'a, ChunkMasks>,
        word: u32,
        one_path: bool,
        parents: bool,
    ) -> Session<'a> {
        let snap = self.snapshots.current(&self.graph);
        let engine = if parents {
            PlanBatchState::with_parents(&self.graph, &snap, &nodes)
        } else {
            PlanBatchState::new(&self.graph, &snap, &nodes)
        };
        Session {
            snap,
            engine,
            nodes,
            masks,
            word,
            one_path,
        }
    }

    /// Runs one round of `session`: translates the seeds (global ids,
    /// as routed) into the shard's node space, drains the engine's
    /// frontier, and reports matches and exports back in global ids.
    /// Seeds and the stop member come from outside the shard — a word
    /// the session was not opened for, a member the shard holds no copy
    /// of, a plan node past the session's plan, a depth past its node's
    /// saturation, a stop on a bundle-plan session or at a ghost are
    /// refused, never evaluated.
    pub(crate) fn round(
        &self,
        session: &mut Session<'_>,
        seeds: &[MaskedExport],
        stop: Option<u32>,
    ) -> Result<LaneRound, WireRefusal> {
        let word = session.word;
        let mut local_seeds: Vec<MaskedSeedState> = Vec::with_capacity(seeds.len());
        for e in seeds {
            if e.key.word != word {
                return Err(WireRefusal::BadRequest {
                    detail: format!(
                        "seed word {} does not match the session's word {word}",
                        e.key.word
                    ),
                });
            }
            let Some(node) = session.nodes.get(usize::from(e.key.step)) else {
                return Err(WireRefusal::BadRequest {
                    detail: format!("seed plan node {} is past the plan", e.key.step),
                });
            };
            // Exported depths are saturated; a deeper one would be
            // served as saturated, and complete where it must not.
            if e.key.depth > node.step.depths.saturation() {
                return Err(WireRefusal::BadRequest {
                    detail: format!(
                        "seed depth {} is past plan node {}'s saturation",
                        e.key.depth, e.key.step
                    ),
                });
            }
            let local = self
                .local_of(e.key.member)
                .ok_or(WireRefusal::UnknownMember {
                    member: e.key.member,
                })?;
            local_seeds.push((local, e.key.step, e.key.depth, e.mask));
        }
        if stop.is_some() && !session.one_path {
            return Err(WireRefusal::BadRequest {
                detail: "plan sessions serve audience fixpoints only (no stop target)".to_owned(),
            });
        }
        let stop_local = match stop {
            Some(m) => match self.local_of(m) {
                Some(l) if !self.ghost[l.index()] => Some(l),
                Some(_) => {
                    return Err(WireRefusal::BadRequest {
                        detail: format!("stop member {m} is a ghost on this shard"),
                    })
                }
                None => return Err(WireRefusal::UnknownMember { member: m }),
            },
            None => None,
        };
        let out = query::evaluate_plan_batch_seeded(
            &self.graph,
            &session.snap,
            &session.nodes,
            &session.masks,
            &mut session.engine,
            &local_seeds,
            &self.ghost,
            stop_local,
        );
        Ok(LaneRound {
            matched: out
                .matched
                .iter()
                .filter(|(m, _)| !self.ghost[m.index()])
                .map(|&(m, bits)| WireMatch {
                    member: self.globals[m.index()].0,
                    mask: bits,
                })
                .collect(),
            exports: out
                .exports
                .iter()
                .map(|&(m, step, depth, bits)| MaskedExport {
                    key: MaskedStateKey {
                        member: self.globals[m.index()].0,
                        step,
                        depth,
                        word,
                    },
                    mask: bits,
                })
                .collect(),
            hit: out.hit,
            states_expanded: out.stats.states_visited as u64,
        })
    }

    /// Walks `session`'s parent chain back from the state `(member,
    /// step, depth)` — at the shard's copy of `member` — to the seed it
    /// started from.
    pub(crate) fn trace(
        &self,
        session: &Session<'_>,
        member: u32,
        step: u16,
        depth: u32,
    ) -> Result<Traced, WireRefusal> {
        let local = self
            .local_of(member)
            .ok_or(WireRefusal::UnknownMember { member })?;
        if !session.one_path {
            return Err(WireRefusal::BadRequest {
                detail: "plan sessions keep no parent chains (trace a linear session)".to_owned(),
            });
        }
        let Some((hops, (seed, seed_step, seed_depth))) = session.engine.trace(local, step, depth)
        else {
            return Err(WireRefusal::BadRequest {
                detail: format!(
                    "state (member {member}, step {step}, depth {depth}) has no parent-tracked \
                     trace on this shard"
                ),
            });
        };
        let hops = hops
            .iter()
            .map(|&(eid, forward)| {
                let rec = self.graph.edge(eid);
                WalkHop {
                    src: self.globals[rec.src.index()],
                    dst: self.globals[rec.dst.index()],
                    label: rec.label,
                    forward,
                }
            })
            .collect();
        Ok((hops, (self.globals[seed.index()].0, seed_step, seed_depth)))
    }
}
