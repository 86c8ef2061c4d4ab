//! `ShardLink` — how the partitioned coordinator reaches one shard.
//!
//! [`crate::Partitioned`] keeps placement, names, ghost lists and the
//! edge log; everything a shard holds is behind its link. A link
//! does two things. It opens a [`ShardLane`] per read, which runs the
//! read's rounds on its shard for the one fixpoint driver
//! (`crate::fixpoint`). And it takes typed writes in global member ids,
//! interned [`LabelId`]s and [`AttrKey`]s, which it applies or stages
//! for the next [`ShardLink::flush`].
//!
//! There are two links. [`LocalLink`] owns a [`ShardCore`] and is
//! reached by a direct call: a lane borrows its plan and masks, and a
//! write applies at once, so a flush has nothing to do. The remote link
//! (`crate::remote`) owns a pool of connections to a shard server, and
//! stages writes as wire `ShardOp`s that a flush commits across the
//! fleet through the two-phase epoch fence.

use crate::coordinator::{Mark, Partitioned, ShardStats};
use crate::error::EvalError;
use crate::fixpoint::{LaneRound, ShardLane, StateKey};
use crate::query::{BundlePlan, ChunkMasks};
use crate::shard::{Session, ShardCore, Traced};
use crate::ShardedSystem;
use socialreach_graph::shard::{MaskedExport, ShardAssignment};
use socialreach_graph::{AttrKey, AttrMap, AttrValue, LabelId, NodeId, SocialGraph, Vocabulary};
use std::borrow::Cow;
use std::convert::Infallible;

/// What every lane of one read runs: one 64-condition chunk of a
/// compiled bundle plan, or the one-path plan of a targeted read's
/// condition.
#[derive(Clone, Copy)]
pub struct Program<'a> {
    /// The plan the lanes traverse.
    pub plan: &'a BundlePlan,
    /// The chunk's ε-fork/accept masks.
    pub masks: &'a ChunkMasks,
    /// The mask word the chunk's bits live in.
    pub word: u32,
    /// `plan` is a targeted read's one-path plan: its lanes take a
    /// stop member.
    pub one_path: bool,
    /// Track first-arrival parents, so a grant can be traced.
    pub parents: bool,
}

/// One write to the shards, in global member ids and interned ids.
#[derive(Clone, Copy)]
pub enum Write<'a> {
    /// A copy of `member` on `shard`: its home copy when `home` is
    /// `None`, else a ghost carrying the attribute tuple of its copy on
    /// shard `home`.
    Node {
        shard: u32,
        member: NodeId,
        name: &'a str,
        home: Option<u32>,
    },
    /// `key` set on every copy of `member`: on `home` first, then on
    /// each of `ghosts` in order.
    Attr {
        member: NodeId,
        home: u32,
        ghosts: &'a [u32],
        key: AttrKey,
        value: &'a AttrValue,
    },
    /// `src --label--> dst` on `shard`, which holds a copy of both.
    Edge {
        shard: u32,
        src: NodeId,
        label: LabelId,
        dst: NodeId,
    },
}

/// One shard, as the coordinator reaches it (see the module docs).
/// Writes name the fleet — every link plus the fleet-wide state kept
/// beside them — since a ghost copies its attributes from the member's
/// home shard and a remote epoch spans every shard.
pub trait ShardLink: Sized + Send + Sync {
    /// State the links of one fleet share.
    type Fleet: Send + Sync;
    /// Why a read or a flush can fail.
    type Error: Into<EvalError>;
    /// A read's lane to this link's shard.
    type Lane<'a>: ShardLane<Error = Self::Error>
    where
        Self: 'a;

    /// The deployment's name in [`crate::AccessService::describe`].
    const KIND: &'static str;

    /// One unopened lane per link for a read running `program`.
    fn lanes<'a>(
        links: &'a [Self],
        fleet: &'a Self::Fleet,
        vocab: &'a Vocabulary,
        program: Program<'a>,
    ) -> Vec<Self::Lane<'a>>;

    /// Runs one read (retried as the link's failure model allows).
    fn read<T>(attempt: impl Fn() -> Result<T, Self::Error>) -> Result<T, EvalError>;

    /// The attribute tuple of `member`, whose home shard is `home`, as
    /// of the last write.
    fn attrs<'a>(
        links: &'a [Self],
        fleet: &'a Self::Fleet,
        home: u32,
        member: NodeId,
    ) -> &'a AttrMap;

    /// Lets the shards intern the master vocabulary's new names before
    /// a write or a read names them.
    fn sync_vocab(links: &mut [Self], vocab: &Vocabulary);

    /// Applies or stages one write, made when the coordinator's
    /// metadata stood at `mark`.
    fn write(
        links: &mut [Self],
        fleet: &mut Self::Fleet,
        vocab: &Vocabulary,
        write: Write<'_>,
        mark: Mark,
    );

    /// Makes the staged writes visible to reads: while a full batch is
    /// staged, and with `all` the remainder too. Each write carried the
    /// coordinator's [`Mark`] as of that write; on `Err` the writes that
    /// could not be made visible are dropped and the error carries the
    /// mark of the last one that was, to roll the coordinator back to.
    fn flush(
        links: &mut [Self],
        fleet: &mut Self::Fleet,
        vocab: &Vocabulary,
        all: bool,
    ) -> Result<(), (Self::Error, Mark)>;
}

/// The in-process link: one [`ShardCore`], reached by a direct call.
pub struct LocalLink {
    pub(crate) core: ShardCore,
}

impl LocalLink {
    pub(crate) fn new() -> Self {
        LocalLink {
            core: ShardCore::new(),
        }
    }
}

impl ShardLink for LocalLink {
    type Fleet = ();
    type Error = Infallible;
    type Lane<'a> = CoreLane<'a>;

    const KIND: &'static str = "sharded";

    fn lanes<'a>(
        links: &'a [Self],
        _: &'a (),
        _: &'a Vocabulary,
        program: Program<'a>,
    ) -> Vec<CoreLane<'a>> {
        links
            .iter()
            .map(|link| CoreLane {
                core: &link.core,
                program,
                session: None,
                sent: None,
            })
            .collect()
    }

    fn read<T>(attempt: impl Fn() -> Result<T, Infallible>) -> Result<T, EvalError> {
        let Ok(out) = attempt();
        Ok(out)
    }

    fn attrs<'a>(links: &'a [Self], _: &'a (), home: u32, member: NodeId) -> &'a AttrMap {
        links[home as usize].core.attrs(member.0)
    }

    fn sync_vocab(links: &mut [Self], vocab: &Vocabulary) {
        for link in links {
            link.core.sync_vocab(vocab);
        }
    }

    fn write(links: &mut [Self], _: &mut (), _: &Vocabulary, write: Write<'_>, _: Mark) {
        match write {
            Write::Node {
                shard,
                member,
                name,
                home,
            } => {
                let tuple: Vec<(AttrKey, AttrValue)> = home.map_or_else(Vec::new, |home| {
                    let attrs = Self::attrs(links, &(), home, member);
                    attrs.iter().map(|(k, v)| (k, v.clone())).collect()
                });
                let core = &mut links[shard as usize].core;
                core.add_node(member.0, name, home.is_some());
                for (key, value) in tuple {
                    core.set_attr(member.0, key, value);
                }
            }
            Write::Attr {
                member,
                home,
                ghosts,
                key,
                value,
            } => {
                for &shard in std::iter::once(&home).chain(ghosts) {
                    links[shard as usize]
                        .core
                        .set_attr(member.0, key, value.clone());
                }
            }
            Write::Edge {
                shard,
                src,
                label,
                dst,
            } => links[shard as usize].core.add_edge(src.0, label, dst.0),
        }
    }

    /// Every write applied when it was made.
    fn flush(
        _: &mut [Self],
        _: &mut (),
        _: &Vocabulary,
        _: bool,
    ) -> Result<(), (Infallible, Mark)> {
        Ok(())
    }
}

impl ShardedSystem {
    /// A system of `shards` hash-partitioned shards (placement seeded
    /// by `seed`; see [`ShardAssignment::hashed`]).
    pub fn new(shards: u32, seed: u64) -> Self {
        Self::with_assignment(ShardAssignment::hashed(shards, seed))
    }

    /// A system with an explicit placement function.
    pub fn with_assignment(assignment: ShardAssignment) -> Self {
        let links = (0..assignment.shards()).map(|_| LocalLink::new()).collect();
        Partitioned::over(assignment, links, ())
    }

    /// Ingests an existing graph: same member ids (insertion order),
    /// same label/attr-key ids, same edge order. A policy store built
    /// against `g` can then be adopted verbatim with
    /// [`ShardedSystem::adopt_store`].
    pub fn from_graph(g: &SocialGraph, assignment: ShardAssignment) -> Self {
        let Ok(sys) = Self::with_assignment(assignment).load(g);
        sys
    }

    /// Per-shard size census.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.links.iter().map(|l| l.core.census()).collect()
    }

    /// Per-shard snapshot publication epochs (mirrors
    /// [`crate::AccessControlSystem::snapshot_epoch`] per shard).
    pub fn snapshot_epochs(&self) -> Vec<u64> {
        self.links.iter().map(|l| l.core.snapshot_epoch()).collect()
    }
}

/// The in-process [`ShardLane`]: a [`LocalLink`]'s shard, for one read.
/// Its session opens with its first round — shards a traversal never
/// touches never take a mask scratch — over the read's plan and masks,
/// borrowed.
pub struct CoreLane<'a> {
    core: &'a ShardCore,
    program: Program<'a>,
    session: Option<Session<'a>>,
    /// The round `send` ran, until `recv` hands it over.
    sent: Option<LaneRound>,
}

impl ShardLane for CoreLane<'_> {
    type Error = Infallible;

    /// Runs the round here, on the driver's thread.
    fn send(&mut self, seeds: &[MaskedExport], stop: Option<u32>) -> Result<(), Infallible> {
        let (core, p) = (self.core, self.program);
        let session = self.session.get_or_insert_with(|| {
            core.open(
                Cow::Borrowed(&p.plan.nodes),
                Cow::Borrowed(p.masks),
                p.word,
                p.one_path,
                p.parents,
            )
        });
        self.sent = Some(
            core.round(session, seeds, stop)
                .expect("the driver routes seeds and stops to their members' home shards"),
        );
        Ok(())
    }

    fn recv(&mut self) -> Result<LaneRound, Infallible> {
        Ok(self.sent.take().expect("received after a send"))
    }

    fn trace(&mut self, member: u32, step: u16, depth: u32) -> Result<Traced, Infallible> {
        let session = self.session.as_ref().expect("a traced lane opened");
        Ok(self
            .core
            .trace(session, member, step, depth)
            .expect("a granting chain is parent-tracked"))
    }

    fn stray_seed(&self, seed: StateKey) -> Infallible {
        unreachable!("seed {seed:?} was never forwarded: every imported seed has an exporter")
    }

    /// Nothing to close: the engine dies with the lane, and its drop —
    /// on the driver thread — returns the scratch to that thread's pool.
    fn end(&mut self) {}
}
