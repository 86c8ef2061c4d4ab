//! The shard server: one process (or thread) owning one partition.
//!
//! A server holds a [`SocialGraph`] of home members and ghost replicas
//! in **shard-local** node ids, a `global → local` translation map,
//! and a published epoch. It speaks the [`super::proto`] protocol over
//! the CRC frames of [`super::frame`]: one blocking acceptor thread
//! plus one worker thread per connection (no async runtime — the
//! acceptor polls non-blocking so a shutdown flag is honored, workers
//! poll for each frame's first byte with a short timeout for the same
//! reason).
//!
//! State changes only through the epoch fence: `Prepare` validates and
//! stages a batch of [`ShardOp`]s, `Commit` applies them atomically
//! under the core lock and publishes the new epoch.
//!
//! An evaluation session belongs to the connection that opened it (an
//! `OpenRound`) and lives in that connection's worker, not in the
//! shared core: opening the connection's next session drops it, and so
//! does closing the connection, so no message ever closes one. A
//! session pins a CSR snapshot and a round-persistent [`ShardEngine`]
//! and records the epoch it opened at; after a commit its engine was
//! built over the old topology, so the next `Round` or `Trace` on it is
//! refused (`UnknownEval`, which the router retries) instead of mixing
//! epochs. A `Round` runs the same shard-local round
//! ([`fixpoint::local_round`]) as the in-process sharded backend's
//! lane — the wire only carries its inputs and outputs.

use super::frame;
use super::proto::{
    self, Request, Response, SessionSpec, ShardOp, WireHop, WireRefusal, PROTOCOL_VERSION,
};
use super::{Conn, Listener, ShardAddr};
use crate::fixpoint::{self, ShardEngine, ShardView};
use crate::path::parse_path;
use crate::query::{BundlePlan, ChunkMasks, PlanBatchState, PlanNode};
use parking_lot::Mutex;
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::shard::MaskedExport;
use socialreach_graph::{NodeId, SocialGraph};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often idle workers / the acceptor check the stop flag.
const POLL: Duration = Duration::from_millis(50);
/// Patience for the rest of a frame once its first byte arrived — a
/// client torn mid-frame releases the worker instead of pinning it.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// A connection's open masked-fixpoint evaluation.
struct EvalSession {
    /// The session's name: a `Round` or `Trace` naming any other id is
    /// refused.
    eval: u64,
    /// The epoch the session was opened at.
    epoch: u64,
    /// The plan engine over the one-path plan of a
    /// [`SessionSpec::Path`] (targeted stop and parent-tracked traces
    /// supported) or over the shipped shared-prefix plan chunk of a
    /// [`SessionSpec::Plan`] (audience fixpoints only), owning what it
    /// re-parsed from the wire.
    engine: ShardEngine<'static>,
    snap: Arc<CsrSnapshot>,
    word: u32,
}

/// The connection's session named `eval`, unless a commit has moved
/// the shard past the epoch it was opened at — then the session is
/// dropped and the request refused like any unknown id.
fn current_session(
    slot: &mut Option<EvalSession>,
    eval: u64,
    epoch: u64,
) -> Result<&mut EvalSession, WireRefusal> {
    if slot.as_ref().is_some_and(|s| s.epoch != epoch) {
        *slot = None;
    }
    match slot {
        Some(sess) if sess.eval == eval => Ok(sess),
        _ => Err(WireRefusal::UnknownEval { eval }),
    }
}

/// The shard's mutable state, shared by every connection worker.
struct ShardCore {
    graph: SocialGraph,
    /// Local node index → global member id.
    globals: Vec<NodeId>,
    /// Local node index → is this copy a ghost replica (the seeded
    /// BFS's export watch set; ghosts are never reported as matches).
    ghost: Vec<bool>,
    /// Global member id → local node id.
    local_of: HashMap<u32, NodeId>,
    /// Published epoch (0 = fresh process; the router replays its op
    /// log to catch a revived shard up).
    epoch: u64,
    staged: Option<(u64, Vec<ShardOp>)>,
    snap: Option<Arc<CsrSnapshot>>,
}

impl ShardCore {
    fn new() -> Self {
        ShardCore {
            graph: SocialGraph::new(),
            globals: Vec::new(),
            ghost: Vec::new(),
            local_of: HashMap::new(),
            epoch: 0,
            staged: None,
            snap: None,
        }
    }

    /// The published snapshot for the current topology, patching or
    /// rebuilding if a commit staled it.
    fn snapshot(&mut self) -> Arc<CsrSnapshot> {
        if let Some(s) = &self.snap {
            if s.matches(&self.graph) {
                return Arc::clone(s);
            }
        }
        let next = self
            .snap
            .as_ref()
            .and_then(|prev| prev.apply_edge_appends(&self.graph))
            .unwrap_or_else(|| CsrSnapshot::build(&self.graph));
        let arc = Arc::new(next);
        self.snap = Some(Arc::clone(&arc));
        arc
    }

    /// Checks a prepare batch without applying it: every referenced
    /// member must exist (or be added earlier in the batch), no member
    /// may be materialized twice, and every label/attr name must
    /// already be interned (the router `Intern`s in master-vocabulary
    /// order first, so interned ids agree fleet-wide).
    fn validate(&self, ops: &[ShardOp]) -> Result<(), WireRefusal> {
        let mut pending: HashSet<u32> = HashSet::new();
        let known =
            |m: &u32, pending: &HashSet<u32>| self.local_of.contains_key(m) || pending.contains(m);
        for op in ops {
            match op {
                ShardOp::AddNode { global, .. } => {
                    if self.local_of.contains_key(global) || !pending.insert(*global) {
                        return Err(WireRefusal::BadRequest {
                            detail: format!("member {global} already has a copy on this shard"),
                        });
                    }
                }
                ShardOp::SetAttr { global, key, .. } => {
                    if !known(global, &pending) {
                        return Err(WireRefusal::UnknownMember { member: *global });
                    }
                    if self.graph.vocab().attr(key).is_none() {
                        return Err(WireRefusal::BadRequest {
                            detail: format!("attr key {key:?} not interned (Intern first)"),
                        });
                    }
                }
                ShardOp::AddEdge { src, label, dst } => {
                    for m in [src, dst] {
                        if !known(m, &pending) {
                            return Err(WireRefusal::UnknownMember { member: *m });
                        }
                    }
                    if self.graph.vocab().label(label).is_none() {
                        return Err(WireRefusal::BadRequest {
                            detail: format!("label {label:?} not interned (Intern first)"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a validated batch (commit path).
    fn apply(&mut self, ops: Vec<ShardOp>) {
        for op in ops {
            match op {
                ShardOp::AddNode {
                    global,
                    name,
                    ghost,
                } => {
                    let local = self.graph.add_node(&name);
                    self.globals.push(NodeId(global));
                    self.ghost.push(ghost);
                    self.local_of.insert(global, local);
                }
                ShardOp::SetAttr { global, key, value } => {
                    let local = self.local_of[&global];
                    self.graph.set_node_attr(local, &key, value);
                }
                ShardOp::AddEdge { src, label, dst } => {
                    let (ls, ld) = (self.local_of[&src], self.local_of[&dst]);
                    self.graph.connect(ls, &label, ld);
                }
            }
        }
    }

    /// Opens session `eval` over `spec`, or says why the shard cannot
    /// serve it.
    fn open(&mut self, eval: u64, spec: SessionSpec) -> Result<EvalSession, WireRefusal> {
        let (SessionSpec::Path { epoch, word, .. } | SessionSpec::Plan { epoch, word, .. }) = spec;
        if epoch != self.epoch {
            return Err(WireRefusal::EpochMismatch {
                shard_epoch: self.epoch,
                requested: epoch,
            });
        }
        // Parse against a throwaway copy of the vocabulary: text
        // naming labels/attrs this shard has not interned means the
        // router skipped `Intern` — refuse rather than intern out of
        // master order.
        let mut vocab = self.graph.vocab().clone();
        let before = (vocab.num_labels(), vocab.num_attrs());
        let (nodes, masks, parents) = match spec {
            SessionSpec::Path { path, parents, .. } => {
                let parsed =
                    parse_path(&path, &mut vocab).map_err(|e| WireRefusal::BadRequest {
                        detail: format!("unparsable path {path:?}: {}", crate::EvalError::from(e)),
                    })?;
                if (vocab.num_labels(), vocab.num_attrs()) != before {
                    return Err(WireRefusal::BadRequest {
                        detail: format!(
                            "path {path:?} names vocabulary this shard has not interned"
                        ),
                    });
                }
                if parsed.is_empty() {
                    return Err(WireRefusal::BadRequest {
                        detail: "empty paths are decided router-side".to_owned(),
                    });
                }
                // Both parsers refuse a path past the plan-node budget.
                let plan = BundlePlan::compile(&[&parsed]).expect("a parsed path fits a plan");
                // Every condition bit a seed may carry rides the one
                // chain, as on the path's own automaton.
                let masks = plan.chunk_masks(&[0; 64]);
                (plan.nodes, masks, Some(parents))
            }
            SessionSpec::Plan { nodes, .. } => {
                if nodes.is_empty() {
                    return Err(WireRefusal::BadRequest {
                        detail: "a bundle plan needs at least one node".to_owned(),
                    });
                }
                let mut plan_nodes: Vec<PlanNode> = Vec::with_capacity(nodes.len());
                let mut masks = ChunkMasks::default();
                for n in &nodes {
                    let parsed =
                        parse_path(&n.step, &mut vocab).map_err(|e| WireRefusal::BadRequest {
                            detail: format!(
                                "unparsable plan step {:?}: {}",
                                n.step,
                                crate::EvalError::from(e)
                            ),
                        })?;
                    if (vocab.num_labels(), vocab.num_attrs()) != before {
                        return Err(WireRefusal::BadRequest {
                            detail: format!(
                                "plan step {:?} names vocabulary this shard has not interned",
                                n.step
                            ),
                        });
                    }
                    if parsed.len() != 1 {
                        return Err(WireRefusal::BadRequest {
                            detail: format!("plan node step {:?} is not a single step", n.step),
                        });
                    }
                    if let Some(&c) = n.children.iter().find(|&&c| c as usize >= nodes.len()) {
                        return Err(WireRefusal::BadRequest {
                            detail: format!("plan child id {c} is out of range"),
                        });
                    }
                    plan_nodes.push(PlanNode {
                        step: parsed.steps[0].canonical(),
                        children: n.children.clone(),
                    });
                    masks.node_mask.push(n.mask);
                    masks.accept_mask.push(n.accept);
                }
                (plan_nodes, masks, None)
            }
        };
        let snap = self.snapshot();
        let engine = if parents == Some(true) {
            PlanBatchState::with_parents(&self.graph, &snap, &nodes)
        } else {
            PlanBatchState::new(&self.graph, &snap, &nodes)
        };
        Ok(EvalSession {
            eval,
            epoch,
            engine: ShardEngine {
                engine,
                nodes: Cow::Owned(nodes),
                masks: Cow::Owned(masks),
                one_path: parents.is_some(),
            },
            snap,
            word,
        })
    }

    /// Runs one round of the connection's session `eval`.
    fn round(
        &self,
        slot: &mut Option<EvalSession>,
        eval: u64,
        seeds: &[MaskedExport],
        stop: Option<u32>,
    ) -> Result<Response, WireRefusal> {
        let sess = current_session(slot, eval, self.epoch)?;
        let view = ShardView {
            graph: &self.graph,
            snap: &sess.snap,
            globals: &self.globals,
            ghost: &self.ghost,
        };
        let round = fixpoint::local_round(
            &view,
            |m| self.local_of.get(&m).copied(),
            &mut sess.engine,
            sess.word,
            seeds,
            stop,
        )?;
        Ok(Response::Round {
            matched: round.matched,
            exports: round.exports,
            hit: round.hit,
            states_expanded: round.states_expanded,
        })
    }

    /// Serves one request; `slot` holds the connection's session.
    /// Returns the response and whether the server should shut down
    /// afterwards.
    fn handle(&mut self, req: Request, slot: &mut Option<EvalSession>) -> (Response, bool) {
        let refuse = |r: WireRefusal| (Response::Refused(r), false);
        match req {
            Request::Hello { version } => {
                if version != PROTOCOL_VERSION {
                    return refuse(WireRefusal::Version {
                        shard: PROTOCOL_VERSION,
                        requested: version,
                    });
                }
                (
                    Response::Hello {
                        version: PROTOCOL_VERSION,
                        epoch: self.epoch,
                        nodes: self.graph.num_nodes() as u64,
                    },
                    false,
                )
            }
            Request::Intern { labels, attrs } => {
                for name in &labels {
                    self.graph.intern_label(name);
                }
                for name in &attrs {
                    self.graph.intern_attr(name);
                }
                (Response::Ok, false)
            }
            Request::Prepare { epoch, ops } => {
                let replacing = self.staged.as_ref().is_some_and(|(e, _)| *e == epoch);
                if epoch <= self.epoch {
                    return refuse(WireRefusal::EpochMismatch {
                        shard_epoch: self.epoch,
                        requested: epoch,
                    });
                }
                if !replacing {
                    if let Some((staged, _)) = &self.staged {
                        return refuse(WireRefusal::BadRequest {
                            detail: format!("epoch {staged} is already staged"),
                        });
                    }
                }
                if let Err(r) = self.validate(&ops) {
                    return refuse(r);
                }
                self.staged = Some((epoch, ops));
                (Response::Prepared { epoch }, false)
            }
            Request::Commit { epoch } => {
                if epoch == self.epoch {
                    // Idempotent re-commit (a router retrying after a
                    // lost acknowledgement).
                    return (Response::Committed { epoch }, false);
                }
                match self.staged.take() {
                    Some((staged, ops)) if staged == epoch => {
                        // Every open session now names an older epoch
                        // (see `current_session`).
                        self.apply(ops);
                        self.epoch = epoch;
                        (Response::Committed { epoch }, false)
                    }
                    other => {
                        self.staged = other;
                        refuse(WireRefusal::EpochMismatch {
                            shard_epoch: self.epoch,
                            requested: epoch,
                        })
                    }
                }
            }
            Request::Abort { epoch } => {
                if self.staged.as_ref().is_some_and(|(e, _)| *e == epoch) {
                    self.staged = None;
                }
                (Response::Aborted { epoch }, false)
            }
            Request::OpenRound {
                eval,
                session,
                seeds,
                stop,
            } => {
                // The connection's previous session goes first, whether
                // or not the new one opens.
                *slot = None;
                match self.open(eval, session) {
                    Ok(opened) => *slot = Some(opened),
                    Err(refusal) => return refuse(refusal),
                }
                match self.round(slot, eval, &seeds, stop) {
                    Ok(resp) => (resp, false),
                    Err(refusal) => refuse(refusal),
                }
            }
            Request::Round { eval, seeds, stop } => match self.round(slot, eval, &seeds, stop) {
                Ok(resp) => (resp, false),
                Err(refusal) => refuse(refusal),
            },
            Request::Trace {
                eval,
                member,
                step,
                depth,
            } => {
                let sess = match current_session(slot, eval, self.epoch) {
                    Ok(sess) => sess,
                    Err(refusal) => return refuse(refusal),
                };
                let Some(&local) = self.local_of.get(&member) else {
                    return refuse(WireRefusal::UnknownMember { member });
                };
                if !sess.engine.one_path {
                    return refuse(WireRefusal::BadRequest {
                        detail: "plan sessions keep no parent chains (trace a linear session)"
                            .to_owned(),
                    });
                }
                match sess.engine.engine.trace(local, step, depth) {
                    None => refuse(WireRefusal::BadRequest {
                        detail: format!(
                            "state (member {member}, step {step}, depth {depth}) has no \
                             parent-tracked trace on this shard"
                        ),
                    }),
                    Some((hops, (seed_local, seed_step, seed_depth))) => (
                        Response::Traced {
                            hops: hops
                                .iter()
                                .map(|&(eid, forward)| {
                                    let rec = self.graph.edge(eid);
                                    WireHop {
                                        src: self.globals[rec.src.index()].0,
                                        dst: self.globals[rec.dst.index()].0,
                                        label: rec.label.0,
                                        forward,
                                    }
                                })
                                .collect(),
                            seed_member: self.globals[seed_local.index()].0,
                            seed_step,
                            seed_depth,
                        },
                        false,
                    ),
                }
            }
            Request::Census => (
                Response::Census {
                    members: self.ghost.iter().filter(|g| !**g).count() as u64,
                    ghosts: self.ghost.iter().filter(|g| **g).count() as u64,
                    edges: self.graph.num_edges() as u64,
                    epoch: self.epoch,
                },
                false,
            ),
            Request::Shutdown => (Response::Ok, true),
        }
    }
}

/// A bound, not-yet-serving shard server.
pub struct ShardServer {
    listener: Listener,
    addr: ShardAddr,
    core: Arc<Mutex<ShardCore>>,
    stop: Arc<AtomicBool>,
}

impl ShardServer {
    /// Binds the endpoint (TCP `host:0` picks an ephemeral port; a
    /// stale UDS socket file is replaced). The server starts empty at
    /// epoch 0 — the router populates it through the epoch fence.
    pub fn bind(addr: &ShardAddr) -> io::Result<ShardServer> {
        let listener = Listener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(ShardServer {
            listener,
            addr,
            core: Arc::new(Mutex::new(ShardCore::new())),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound endpoint (with any ephemeral port resolved).
    pub fn local_addr(&self) -> &ShardAddr {
        &self.addr
    }

    /// Serves until a `Shutdown` request arrives (the
    /// `serve-shard` CLI verb and drill children block here).
    pub fn run(self) -> io::Result<()> {
        self.accept_loop()
    }

    /// Serves on a background thread — the in-process fleet
    /// construction tests and benches use. The returned handle kills
    /// the server on drop.
    pub fn spawn(self) -> ShardHandle {
        let addr = self.addr.clone();
        let stop = Arc::clone(&self.stop);
        let join = std::thread::spawn(move || {
            let _ = self.accept_loop();
        });
        ShardHandle {
            addr,
            stop,
            join: Some(join),
        }
    }

    fn accept_loop(self) -> io::Result<()> {
        // Non-blocking accept so the stop flag is honored promptly
        // (std has no way to interrupt a blocking accept).
        self.listener.set_nonblocking(true)?;
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(conn) => {
                    let core = Arc::clone(&self.core);
                    let stop = Arc::clone(&self.stop);
                    workers.push(std::thread::spawn(move || serve_conn(conn, core, stop)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    workers.retain(|w| !w.is_finished());
                    std::thread::sleep(POLL.min(Duration::from_millis(10)));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        for w in workers {
            let _ = w.join();
        }
        if let ShardAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// A running in-process shard server. Dropping (or [`ShardHandle::kill`])
/// stops the acceptor and every worker, severing all connections —
/// the test tier's "kill a shard" lever. All shard state dies with it;
/// a replacement starts fresh at epoch 0 and is caught up by the
/// router's op-log replay.
pub struct ShardHandle {
    addr: ShardAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// The served endpoint.
    pub fn addr(&self) -> &ShardAddr {
        &self.addr
    }

    /// Stops the server and waits for its threads. Idempotent.
    pub fn kill(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One connection worker: poll for a frame's first byte (noticing the
/// stop flag between requests), read the frame, serve the request
/// under the core lock, write the response. Any framing failure closes
/// the connection — the client re-dials. The worker owns the
/// connection's evaluation session, so its engine's scratch is taken
/// from and given back to this thread's pool, and the session dies
/// with the connection.
fn serve_conn(mut conn: Conn, core: Arc<Mutex<ShardCore>>, stop: Arc<AtomicBool>) {
    if conn.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut session: Option<EvalSession> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut first = [0u8; 1];
        let first = match conn.read(&mut first) {
            Ok(0) => return,
            Ok(_) => first[0],
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return,
        };
        if conn.set_read_timeout(Some(FRAME_TIMEOUT)).is_err() {
            return;
        }
        let payload = match frame::read_frame_resume(&mut conn, first) {
            Ok(p) => p,
            Err(_) => return,
        };
        if conn.set_read_timeout(Some(POLL)).is_err() {
            return;
        }
        let (resp, shutdown) = match proto::decode_request(&payload) {
            Ok(req) => core.lock().handle(req, &mut session),
            Err(e) => (
                Response::Refused(WireRefusal::BadRequest {
                    detail: format!("undecodable request: {e}"),
                }),
                false,
            ),
        };
        if frame::write_frame(&mut conn, &proto::encode_response(&resp)).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}
