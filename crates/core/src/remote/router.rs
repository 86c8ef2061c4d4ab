//! The remote link: the partitioned coordinator over shard servers.
//!
//! [`NetworkedSystem`] is the coordinator [`crate::ShardedSystem`] runs
//! in process ([`crate::coordinator`]) over remote links: each shard's
//! `ShardCore` lives in a server process ([`super::ShardServer`]). A
//! [`RemoteLink`] owns the shard's endpoint, its pool of idle
//! connections, how much of the master vocabulary the shard has
//! acknowledged, and its op log; the fleet beside the links owns the
//! epoch, the ops staged for the next one, and each member's attribute
//! tuple (to make ghosts with).
//!
//! Writes stage one [`ShardOp`] per shard copy they touch and commit
//! through the epoch fence (see [`super`]) in epochs of at most
//! [`MAX_EPOCH_OPS`] ops. When an epoch cannot commit, its ops and every
//! op staged after them are dropped, the tuples they changed restored,
//! and the coordinator rolls back to the last committed op.
//!
//! A read checks one connection out per shard it reaches and keeps it
//! for every round and `Trace` of the read, since the shard-side
//! session lives on it; the connection goes back only if every exchange
//! on it completed, so readers never wait on each other. An empty pool
//! dials through `revive` (handshake, full vocabulary, op-log catch-up
//! in jumps of at most [`MAX_EPOCH_OPS`] ops). On a retryable failure
//! the whole read re-runs once with fresh evaluation ids.

use super::frame::{self, FrameError};
use super::proto::{self, Request, Response, SessionSpec, ShardOp, PROTOCOL_VERSION};
use super::{Conn, RemoteError, ShardAddr, DEFAULT_READ_TIMEOUT, MAX_EPOCH_OPS, MAX_ROUND_EXPORTS};
use crate::coordinator::{Mark, Partitioned};
use crate::error::EvalError;
use crate::fixpoint::{LaneRound, ShardLane, StateKey};
use crate::link::{Program, ShardLink, Write};
use crate::path::PathExpr;
use crate::policy::PolicyStore;
use crate::service::WalkHop;
use crate::shard::Traced;
use parking_lot::Mutex;
use socialreach_graph::shard::{MaskedExport, ShardAssignment};
use socialreach_graph::{AttrKey, AttrMap, AttrValue, LabelId, NodeId, SocialGraph, Vocabulary};
use std::io;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One dialed shard connection.
struct ShardClient {
    conn: Conn,
    addr: String,
}

impl ShardClient {
    /// Dials, handshakes, and returns the client plus the shard's
    /// published epoch.
    fn connect(addr: &ShardAddr, timeout: Duration) -> Result<(ShardClient, u64), RemoteError> {
        let text = addr.to_string();
        let conn = Conn::dial(addr).map_err(|e| RemoteError::Connect {
            addr: text.clone(),
            detail: e.to_string(),
        })?;
        conn.set_read_timeout(Some(timeout))
            .map_err(|e| RemoteError::Connect {
                addr: text.clone(),
                detail: e.to_string(),
            })?;
        let mut client = ShardClient { conn, addr: text };
        match client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Hello { epoch, .. } => Ok((client, epoch)),
            Response::Refused(refusal) => Err(RemoteError::Refused {
                addr: client.addr,
                refusal,
            }),
            other => Err(client.unexpected("Hello", &other)),
        }
    }

    /// One request/response exchange on the framed stream.
    fn call(&mut self, req: &Request) -> Result<Response, RemoteError> {
        self.send(req)?;
        self.recv()
    }

    /// [`ShardClient::call`] with a typed refusal lifted into the
    /// error.
    fn exchange(&mut self, req: &Request) -> Result<Response, RemoteError> {
        match self.call(req)? {
            Response::Refused(refusal) => Err(self.refused(refusal)),
            resp => Ok(resp),
        }
    }

    /// Writes one request frame.
    fn send(&mut self, req: &Request) -> Result<(), RemoteError> {
        frame::write_frame(&mut self.conn, &proto::encode_request(req))
            .map_err(|e| self.classify(e))
    }

    /// Reads one response frame.
    fn recv(&mut self) -> Result<Response, RemoteError> {
        let payload = frame::read_frame(&mut self.conn).map_err(|e| self.classify(e))?;
        proto::decode_response(&payload).map_err(|detail| RemoteError::Protocol {
            addr: self.addr.clone(),
            detail,
        })
    }

    fn refused(&self, refusal: proto::WireRefusal) -> RemoteError {
        RemoteError::Refused {
            addr: self.addr.clone(),
            refusal,
        }
    }

    /// Maps a frame-layer failure to the typed remote error.
    fn classify(&self, e: FrameError) -> RemoteError {
        let addr = self.addr.clone();
        match e {
            FrameError::Io(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                RemoteError::Timeout { addr }
            }
            FrameError::Io(e) => RemoteError::Io {
                addr,
                detail: e.to_string(),
            },
            FrameError::Closed => RemoteError::Io {
                addr,
                detail: "connection closed mid-exchange".to_owned(),
            },
            FrameError::Torn { got, wanted } => RemoteError::Io {
                addr,
                detail: format!("torn frame ({got} of {wanted} bytes)"),
            },
            FrameError::Corrupt { detail } => RemoteError::Corrupt { addr, detail },
        }
    }

    fn unexpected(&self, wanted: &str, got: &Response) -> RemoteError {
        RemoteError::Protocol {
            addr: self.addr.clone(),
            detail: format!("expected a {wanted} response, got {got:?}"),
        }
    }
}

/// Evaluation ids, unique in the process: a shard names a connection's
/// session by one.
static NEXT_EVAL: AtomicU64 = AtomicU64::new(1);

/// One shard's endpoint and idle connections (see the module docs),
/// plus how much of the master vocabulary the shard has acknowledged
/// interning.
struct ShardPool {
    addr: ShardAddr,
    idle: Vec<ShardClient>,
    synced_labels: usize,
    synced_attrs: usize,
}

/// The remote [`ShardLink`]: one shard server (see the module docs).
pub struct RemoteLink {
    /// The endpoint (retargetable, so a shard restarted on a new
    /// ephemeral port can be re-registered —
    /// [`NetworkedSystem::retarget`]) and its idle connections.
    pool: Mutex<ShardPool>,
    /// The shard's committed history `(epoch, ops)` — the revival
    /// replay source when it missed commits.
    oplog: Vec<(u64, Vec<ShardOp>)>,
}

/// What the remote links of one fleet share.
pub struct RemoteFleet {
    /// The fleet's epoch: every committed batch of at most
    /// [`MAX_EPOCH_OPS`] shard ops advanced it by one.
    epoch: u64,
    read_timeout: Duration,
    /// Ops staged for the next epochs, in staging order.
    staged: Vec<Staged>,
    /// The coordinator's mark as of the last committed op.
    committed: Mark,
    /// Each member's attribute tuple as staged, to make ghosts with.
    attrs: Vec<AttrMap>,
}

/// One staged shard op, the coordinator's mark as of it, and for a
/// member's home `SetAttr` the tuple entry it replaced.
struct Staged {
    shard: u32,
    op: ShardOp,
    mark: Mark,
    undo: Option<(NodeId, AttrKey, Option<AttrValue>)>,
}

/// A `Prepare` for `epoch`; no `Prepare` carries more than
/// [`MAX_EPOCH_OPS`] ops.
fn prepare(epoch: u64, ops: Vec<ShardOp>) -> Request {
    debug_assert!(
        ops.len() <= MAX_EPOCH_OPS,
        "{} ops in one Prepare",
        ops.len()
    );
    Request::Prepare { epoch, ops }
}

impl RemoteLink {
    /// Checks out a connection to the shard: an idle one, or a fresh
    /// dial through [`RemoteLink::revive`]. Either way the shard has
    /// interned the whole master vocabulary before the caller's first
    /// exchange, so vocabulary grown by a rule write (which touches no
    /// shard) reaches it.
    fn checkout(
        &self,
        fleet: &RemoteFleet,
        vocab: &Vocabulary,
    ) -> Result<ShardClient, RemoteError> {
        let idle = self.pool.lock().idle.pop();
        let Some(mut client) = idle else {
            return self.revive(fleet, vocab);
        };
        self.sync_vocab(vocab, &mut client)?;
        Ok(client)
    }

    /// Returns a connection whose every exchange completed.
    fn checkin(&self, client: ShardClient) {
        self.pool.lock().idle.push(client);
    }

    /// One exchange on a checked-out connection. A typed refusal
    /// returns the connection to the pool (the stream is still framed
    /// correctly); a transport failure drops it.
    fn call(
        &self,
        fleet: &RemoteFleet,
        vocab: &Vocabulary,
        req: &Request,
    ) -> Result<Response, RemoteError> {
        let mut client = self.checkout(fleet, vocab)?;
        let resp = client.call(req)?;
        let result = match resp {
            Response::Refused(refusal) => Err(client.refused(refusal)),
            resp => Ok(resp),
        };
        self.checkin(client);
        result
    }

    /// [`RemoteLink::call`] with one retry, on a fresh connection,
    /// after a retryable failure. Only safe for requests that are
    /// idempotent across a shard restart (`Prepare`, `Commit`, `Abort`,
    /// `Census`, `Shutdown`) — evaluation requests retry at the
    /// whole-read level instead, with fresh evaluation ids.
    fn call_reviving(
        &self,
        fleet: &RemoteFleet,
        vocab: &Vocabulary,
        req: &Request,
    ) -> Result<Response, RemoteError> {
        match self.call(fleet, vocab, req) {
            Err(e) if e.retryable() => {
                self.pool.lock().idle.clear();
                self.call(fleet, vocab, req)
            }
            other => other,
        }
    }

    /// Dials the shard, interns the full vocabulary, and replays any
    /// committed epochs it missed (a restarted process reports epoch 0
    /// and receives the whole op log). Returns the caught-up
    /// connection.
    fn revive(&self, fleet: &RemoteFleet, vocab: &Vocabulary) -> Result<ShardClient, RemoteError> {
        let addr = self.pool.lock().addr.clone();
        let (mut client, shard_epoch) = ShardClient::connect(&addr, fleet.read_timeout)?;
        if shard_epoch > fleet.epoch {
            return Err(RemoteError::Protocol {
                addr: client.addr,
                detail: format!(
                    "shard is at epoch {shard_epoch}, ahead of the router's {} — refusing to \
                     adopt a fleet this router did not populate",
                    fleet.epoch
                ),
            });
        }
        self.intern(vocab, &mut client, (0, 0))?;
        if shard_epoch < fleet.epoch {
            // A presumed-committed epoch may still be staged from
            // before the crash of the *connection* (server alive, the
            // commit lost): clear it, then replay everything missed.
            match client.exchange(&Request::Abort { epoch: fleet.epoch })? {
                Response::Aborted { .. } => {}
                other => return Err(client.unexpected("Aborted", &other)),
            }
            // Consecutive missed epochs group into jumps of at most
            // `MAX_EPOCH_OPS` ops, each prepared and committed at its
            // last epoch; the last jump lands on the router's epoch.
            // (Every committed epoch is logged for every shard and
            // carries at most `MAX_EPOCH_OPS` ops.)
            let log = &self.oplog;
            let missed = &log[log.partition_point(|(e, _)| *e <= shard_epoch)..];
            let mut ops: Vec<ShardOp> = Vec::new();
            for (i, (epoch, epoch_ops)) in missed.iter().enumerate() {
                ops.extend(epoch_ops.iter().cloned());
                if missed
                    .get(i + 1)
                    .is_some_and(|(_, next)| ops.len() + next.len() <= MAX_EPOCH_OPS)
                {
                    continue;
                }
                let epoch = *epoch;
                match client.exchange(&prepare(epoch, std::mem::take(&mut ops)))? {
                    Response::Prepared { .. } => {}
                    other => return Err(client.unexpected("Prepared", &other)),
                }
                match client.exchange(&Request::Commit { epoch })? {
                    Response::Committed { .. } => {}
                    other => return Err(client.unexpected("Committed", &other)),
                }
            }
        }
        Ok(client)
    }

    /// Sends `client`'s shard the master-vocabulary suffix it has not
    /// acknowledged yet (no-op when in sync).
    fn sync_vocab(&self, vocab: &Vocabulary, client: &mut ShardClient) -> Result<(), RemoteError> {
        let synced = {
            let pool = self.pool.lock();
            (pool.synced_labels, pool.synced_attrs)
        };
        if synced == (vocab.num_labels(), vocab.num_attrs()) {
            return Ok(());
        }
        self.intern(vocab, client, synced)
    }

    /// Has `client`'s shard intern the master vocabulary's labels and
    /// attribute keys from index `from` on, and records that the shard
    /// has all of them.
    fn intern(
        &self,
        vocab: &Vocabulary,
        client: &mut ShardClient,
        (labels_from, attrs_from): (usize, usize),
    ) -> Result<(), RemoteError> {
        let (labels, attrs) = (vocab.num_labels(), vocab.num_attrs());
        let req = Request::Intern {
            labels: (labels_from..labels)
                .map(|i| vocab.label_name(LabelId::from_index(i)).to_owned())
                .collect(),
            attrs: (attrs_from..attrs)
                .map(|i| vocab.attr_name(AttrKey::from_index(i)).to_owned())
                .collect(),
        };
        match client.exchange(&req)? {
            Response::Ok => {
                let mut pool = self.pool.lock();
                (pool.synced_labels, pool.synced_attrs) = (labels, attrs);
                Ok(())
            }
            other => Err(client.unexpected("Ok", &other)),
        }
    }

    fn unexpected(&self, wanted: &str, got: &Response) -> RemoteError {
        RemoteError::Protocol {
            addr: self.pool.lock().addr.to_string(),
            detail: format!("expected a {wanted} response, got {got:?}"),
        }
    }
}

/// Commits one batch of staged ops (at most [`MAX_EPOCH_OPS`]) as the
/// fleet's next epoch, or rolls it back. On `Ok` every shard either
/// applied the epoch or has it in its replay log for the next dial; on
/// `Err` no shard applied it (every shard a prepare was sent to is
/// aborted — a prepare whose response was lost may still be staged).
fn commit(
    links: &mut [RemoteLink],
    fleet: &mut RemoteFleet,
    vocab: &Vocabulary,
    batch: &[Staged],
) -> Result<(), RemoteError> {
    let epoch = fleet.epoch + 1;
    let mut per_shard = vec![Vec::new(); links.len()];
    for staged in batch {
        per_shard[staged.shard as usize].push(staged.op.clone());
    }
    // Phase one (every checkout syncs the vocabulary first: prepare
    // validation refuses ops naming labels/attrs the shard has not
    // interned): stage everywhere (every shard participates, even with
    // no ops — the epoch fence requires the whole fleet to advance
    // together).
    for (shard, ops) in per_shard.iter().enumerate() {
        let err = match links[shard].call_reviving(fleet, vocab, &prepare(epoch, ops.clone())) {
            Ok(Response::Prepared { .. }) => continue,
            Ok(other) => links[shard].unexpected("Prepared", &other),
            Err(e) => e,
        };
        for sent in &links[..=shard] {
            let _ = sent.call(fleet, vocab, &Request::Abort { epoch });
        }
        return Err(err);
    }
    // Point of no return: every shard holds the staged epoch, so it is
    // presumed committed — record it for replay *before* sending
    // commits, then advance.
    for (link, ops) in links.iter_mut().zip(per_shard) {
        link.oplog.push((epoch, ops));
    }
    fleet.epoch = epoch;
    // Phase two: publish. A shard whose commit is lost has its idle
    // connections dropped, so its next checkout dials through `revive`,
    // which finds it behind and replays the op log — it can never serve
    // the old epoch to a read, because every session opens with the new
    // epoch.
    for link in links.iter() {
        if !matches!(
            link.call_reviving(fleet, vocab, &Request::Commit { epoch }),
            Ok(Response::Committed { .. })
        ) {
            link.pool.lock().idle.clear();
        }
    }
    Ok(())
}

impl ShardLink for RemoteLink {
    type Fleet = RemoteFleet;
    type Error = RemoteError;
    type Lane<'a> = RemoteLane<'a>;

    const KIND: &'static str = "networked";

    /// The lanes share one session spec: the read's compiled plan
    /// shipped whole (plan nodes travel as canonical one-step path text
    /// plus the chunk's ε-fork/accept masks, so each shared prefix is
    /// entered once per shard and no shard compiles it again).
    fn lanes<'a>(
        links: &'a [Self],
        fleet: &'a RemoteFleet,
        vocab: &'a Vocabulary,
        program: Program<'a>,
    ) -> Vec<RemoteLane<'a>> {
        let nodes = program.plan.nodes.iter().enumerate();
        let session = Rc::new(SessionSpec {
            epoch: fleet.epoch,
            nodes: nodes
                .map(|(i, node)| proto::WirePlanNode {
                    step: PathExpr::new(vec![node.step.clone()]).to_text(vocab),
                    children: node.children.clone(),
                    mask: program.masks.node_mask[i],
                    accept: program.masks.accept_mask[i],
                })
                .collect(),
            word: program.word,
            one_path: program.one_path,
            parents: program.parents,
        });
        let eval = NEXT_EVAL.fetch_add(1, Ordering::Relaxed);
        links
            .iter()
            .map(|link| RemoteLane {
                link,
                fleet,
                vocab,
                eval,
                session: Rc::clone(&session),
                client: None,
                opened: false,
                in_flight: false,
                rest: Vec::new(),
                stop: None,
            })
            .collect()
    }

    /// Runs a read with one whole-read retry: on a retryable failure it
    /// re-runs with fresh evaluation ids. The failed lane dropped its
    /// connection, so the retry reaches that shard on another one —
    /// dialed through `revive` (op-log replay included) when none is
    /// idle. Non-retryable failures (corrupt frames, protocol
    /// violations, semantic refusals) surface immediately — never a
    /// wrong answer.
    fn read<T>(attempt: impl Fn() -> Result<T, RemoteError>) -> Result<T, EvalError> {
        match attempt() {
            Ok(v) => Ok(v),
            Err(e) if e.retryable() => attempt().map_err(EvalError::Remote),
            Err(e) => Err(EvalError::Remote(e)),
        }
    }

    /// The fleet's copy of the tuple: after a flush it is the committed
    /// one (a failed flush undoes what it staged).
    fn attrs<'a>(_: &'a [Self], fleet: &'a RemoteFleet, _: u32, member: NodeId) -> &'a AttrMap {
        &fleet.attrs[member.index()]
    }

    /// Shards intern new names on their next checkout.
    fn sync_vocab(_: &mut [Self], _: &Vocabulary) {}

    fn write(
        _: &mut [Self],
        fleet: &mut RemoteFleet,
        vocab: &Vocabulary,
        write: Write<'_>,
        mark: Mark,
    ) {
        let set = |member: NodeId, key: AttrKey, value: &AttrValue| ShardOp::SetAttr {
            global: member.0,
            key: vocab.attr_name(key).to_owned(),
            value: value.clone(),
        };
        let mut undo = None;
        let ops: Vec<(u32, ShardOp)> = match write {
            Write::Node {
                shard,
                member,
                name,
                home,
            } => {
                if home.is_none() {
                    fleet.attrs.push(AttrMap::new());
                }
                let node = ShardOp::AddNode {
                    global: member.0,
                    name: name.to_owned(),
                    ghost: home.is_some(),
                };
                // A ghost carries the member's tuple as staged.
                let tuple = fleet.attrs[member.index()].iter();
                let attrs = tuple.map(|(key, value)| (shard, set(member, key, value)));
                std::iter::once((shard, node)).chain(attrs).collect()
            }
            Write::Attr {
                member,
                home,
                ghosts,
                key,
                value,
            } => {
                let old = fleet.attrs[member.index()].set(key, value.clone());
                undo = Some((member, key, old));
                let copies = std::iter::once(&home).chain(ghosts);
                copies
                    .map(|&shard| (shard, set(member, key, value)))
                    .collect()
            }
            Write::Edge {
                shard,
                src,
                label,
                dst,
            } => vec![(
                shard,
                ShardOp::AddEdge {
                    src: src.0,
                    label: vocab.label_name(label).to_owned(),
                    dst: dst.0,
                },
            )],
        };
        for (shard, op) in ops {
            let undo = undo.take();
            fleet.staged.push(Staged {
                shard,
                op,
                mark,
                undo,
            });
        }
    }

    /// Commits the staged ops oldest first in epochs of
    /// [`MAX_EPOCH_OPS`]; on `Err` the batches before the failed one
    /// stay committed, and the failed one and everything after it are
    /// dropped.
    fn flush(
        links: &mut [Self],
        fleet: &mut RemoteFleet,
        vocab: &Vocabulary,
        all: bool,
    ) -> Result<(), (RemoteError, Mark)> {
        while fleet.staged.len() >= MAX_EPOCH_OPS || (all && !fleet.staged.is_empty()) {
            let batch: Vec<Staged> = fleet
                .staged
                .drain(..fleet.staged.len().min(MAX_EPOCH_OPS))
                .collect();
            if let Err(e) = commit(links, fleet, vocab, &batch) {
                let dropped = batch.into_iter().chain(fleet.staged.drain(..));
                let undos: Vec<_> = dropped.filter_map(|s| s.undo).collect();
                for (member, key, old) in undos.into_iter().rev() {
                    let tuple = &mut fleet.attrs[member.index()];
                    match old {
                        Some(value) => tuple.set(key, value),
                        None => tuple.remove(key),
                    };
                }
                fleet.attrs.truncate(fleet.committed.members());
                return Err((e, fleet.committed));
            }
            fleet.committed = batch.last().map_or(fleet.committed, |s| s.mark);
        }
        Ok(())
    }
}

/// The remote [`ShardLane`]: one shard process, reached over the
/// connection the lane checks out on its first send and keeps until
/// its end. A round is one `Round` frame out in `send` and its response
/// in `recv`; a round of more than [`MAX_ROUND_EXPORTS`] seeds
/// exchanges its later sub-batches one at a time inside `recv`, so at
/// most one request frame is in flight on the connection.
pub struct RemoteLane<'a> {
    link: &'a RemoteLink,
    fleet: &'a RemoteFleet,
    vocab: &'a Vocabulary,
    eval: u64,
    /// The session the lane's first round opens (shared by the read's
    /// lanes).
    session: Rc<SessionSpec>,
    /// The checked-out connection; dropped on any error.
    client: Option<ShardClient>,
    /// Whether the session was opened (its `OpenRound` sent).
    opened: bool,
    /// A request was sent and its response not yet read.
    in_flight: bool,
    /// The current round's seeds past its first sub-batch.
    rest: Vec<MaskedExport>,
    stop: Option<u32>,
}

impl RemoteLane<'_> {
    /// Writes one sub-batch of the current round; the lane's first
    /// opens its session.
    fn write(&mut self, seeds: &[MaskedExport]) -> Result<(), RemoteError> {
        let (eval, seeds, stop) = (self.eval, seeds.to_vec(), self.stop);
        let req = if std::mem::replace(&mut self.opened, true) {
            Request::Round { eval, seeds, stop }
        } else {
            Request::OpenRound {
                eval,
                session: SessionSpec::clone(&self.session),
                seeds,
                stop,
            }
        };
        self.in_flight = true;
        self.conn().send(&req)
    }

    /// Reads one sub-batch's response into `out`; returns whether it
    /// carried the hit.
    fn read(&mut self, out: &mut LaneRound) -> Result<bool, RemoteError> {
        let resp = self.conn().recv()?;
        self.in_flight = false;
        match resp {
            Response::Round {
                matched,
                exports,
                hit,
                states_expanded,
            } => {
                out.matched.extend(matched);
                out.exports.extend(exports);
                out.states_expanded += states_expanded;
                out.hit = hit;
                Ok(hit.is_some())
            }
            Response::Refused(refusal) => Err(self.conn().refused(refusal)),
            other => Err(self.conn().unexpected("Round", &other)),
        }
    }

    fn conn(&mut self) -> &mut ShardClient {
        self.client
            .as_mut()
            .expect("a lane's connection is checked out from its first send until an error")
    }

    /// Drops the connection if `result` is an error: mid-exchange it
    /// cannot be trusted, and it is never returned to the pool.
    fn keep_if_ok<T>(&mut self, result: Result<T, RemoteError>) -> Result<T, RemoteError> {
        if result.is_err() {
            self.client = None;
        }
        result
    }
}

impl ShardLane for RemoteLane<'_> {
    type Error = RemoteError;

    fn send(&mut self, seeds: &[MaskedExport], stop: Option<u32>) -> Result<(), RemoteError> {
        if self.client.is_none() {
            self.client = Some(self.link.checkout(self.fleet, self.vocab)?);
        }
        let (first, rest) = seeds.split_at(seeds.len().min(MAX_ROUND_EXPORTS));
        self.rest = rest.to_vec();
        self.stop = stop;
        let sent = self.write(first);
        self.keep_if_ok(sent)
    }

    /// Reads the first sub-batch's response, then exchanges the rest
    /// one at a time; an early-exit hit stops further delivery.
    fn recv(&mut self) -> Result<LaneRound, RemoteError> {
        let rest = std::mem::take(&mut self.rest);
        let mut out = LaneRound::default();
        let mut read = self.read(&mut out);
        for chunk in rest.chunks(MAX_ROUND_EXPORTS) {
            if !matches!(read, Ok(false)) {
                break;
            }
            read = self.write(chunk).and_then(|()| self.read(&mut out));
        }
        self.keep_if_ok(read).map(|_| out)
    }

    /// One `Trace` exchange on the lane's session.
    fn trace(&mut self, member: u32, step: u16, depth: u32) -> Result<Traced, RemoteError> {
        let req = Request::Trace {
            eval: self.eval,
            member,
            step,
            depth,
        };
        let resp = self.conn().exchange(&req);
        match self.keep_if_ok(resp)? {
            Response::Traced {
                hops,
                seed_member,
                seed_step,
                seed_depth,
            } => {
                let hops = hops
                    .iter()
                    .map(|h| WalkHop {
                        src: NodeId(h.src),
                        dst: NodeId(h.dst),
                        label: LabelId(h.label),
                        forward: h.forward,
                    })
                    .collect();
                Ok((hops, (seed_member, seed_step, seed_depth)))
            }
            other => Err(self.link.unexpected("Traced", &other)),
        }
    }

    fn stray_seed(&self, (member, step, depth): StateKey) -> RemoteError {
        RemoteError::Protocol {
            addr: self.link.pool.lock().addr.to_string(),
            detail: format!(
                "trace reached seed (member {member}, step {step}, depth {depth}) the router \
                 never forwarded"
            ),
        }
    }

    /// Returns the connection to the pool if nothing is in flight on
    /// it. The shard-side session stays open until the connection's
    /// next open, so closing costs no exchange.
    fn end(&mut self) {
        if let Some(client) = self.client.take() {
            if !self.in_flight {
                self.link.checkin(client);
            }
        }
    }
}

/// The networked deployment: the partitioned coordinator over shard
/// servers (see the module docs).
pub type NetworkedSystem = Partitioned<RemoteLink>;

impl NetworkedSystem {
    /// Connects to a fleet of (fresh, epoch-0) shard servers with
    /// hash placement seeded by `seed`.
    pub fn connect(addrs: &[ShardAddr], seed: u64) -> Result<NetworkedSystem, RemoteError> {
        Self::with_assignment(addrs, ShardAssignment::hashed(addrs.len() as u32, seed))
    }

    /// [`NetworkedSystem::connect`] with an explicit placement
    /// function (must agree with the fleet size).
    pub fn with_assignment(
        addrs: &[ShardAddr],
        assignment: ShardAssignment,
    ) -> Result<NetworkedSystem, RemoteError> {
        let links = addrs
            .iter()
            .map(|addr| RemoteLink {
                pool: Mutex::new(ShardPool {
                    addr: addr.clone(),
                    idle: Vec::new(),
                    synced_labels: 0,
                    synced_attrs: 0,
                }),
                oplog: Vec::new(),
            })
            .collect();
        let fleet = RemoteFleet {
            epoch: 0,
            read_timeout: DEFAULT_READ_TIMEOUT,
            staged: Vec::new(),
            committed: Mark::default(),
            attrs: Vec::new(),
        };
        let sys = Partitioned::over(assignment, links, fleet);
        for link in &sys.links {
            link.checkin(link.revive(&sys.fleet, sys.vocab())?);
        }
        Ok(sys)
    }

    /// Ingests an existing graph + policy store: same member ids
    /// (insertion order), same label/attr ids, same edge order — the
    /// conformance suites build networked twins of in-process systems
    /// with this. The load is staged through the same code as
    /// [`crate::MutateService::apply`] and committed in epochs of
    /// [`MAX_EPOCH_OPS`] shard ops each (a mutation may straddle two),
    /// so it takes ⌈ops / [`MAX_EPOCH_OPS`]⌉ epochs rather than one per
    /// mutation. On `Err` the epoch that failed was aborted on every
    /// shard it reached and the partly loaded fleet is abandoned.
    pub fn from_graph(
        addrs: &[ShardAddr],
        assignment: ShardAssignment,
        g: &SocialGraph,
        store: PolicyStore,
    ) -> Result<NetworkedSystem, RemoteError> {
        let mut sys = Self::with_assignment(addrs, assignment)?.load(g)?;
        sys.adopt_store(store);
        Ok(sys)
    }

    /// Sets the per-exchange read timeout on future connections (tests
    /// shrink it to exercise the stall path). Idle connections are
    /// dropped so the new patience applies immediately.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.fleet.read_timeout = timeout;
        for link in &self.links {
            link.pool.lock().idle.clear();
        }
    }

    /// Re-registers a shard's endpoint (a restarted server usually
    /// lands on a new ephemeral port) and drops its idle connections;
    /// the next exchange re-dials and replays the op log.
    pub fn retarget(&self, shard: usize, addr: ShardAddr) {
        let mut pool = self.links[shard].pool.lock();
        pool.addr = addr;
        pool.idle.clear();
    }

    /// The fleet's current epoch: every committed batch of at most
    /// [`MAX_EPOCH_OPS`] shard ops advanced it by one — one applied
    /// mutation commits one batch, a bulk load
    /// ([`NetworkedSystem::from_graph`]) one per [`MAX_EPOCH_OPS`] ops.
    pub fn epoch(&self) -> u64 {
        self.fleet.epoch
    }

    /// Live size census of every shard (`(members, ghosts, edges,
    /// epoch)` per shard), fetched over the wire.
    pub fn shard_census(&self) -> Result<Vec<(u64, u64, u64, u64)>, RemoteError> {
        self.links
            .iter()
            .map(
                |link| match link.call_reviving(&self.fleet, self.vocab(), &Request::Census)? {
                    Response::Census {
                        members,
                        ghosts,
                        edges,
                        epoch,
                    } => Ok((members, ghosts, edges, epoch)),
                    other => Err(link.unexpected("Census", &other)),
                },
            )
            .collect()
    }

    /// Asks every shard process to shut down (best-effort; used by the
    /// CLI drill for a clean fleet teardown).
    pub fn shutdown_fleet(&self) {
        for link in &self.links {
            let _ = link.call(&self.fleet, self.vocab(), &Request::Shutdown);
        }
    }
}
