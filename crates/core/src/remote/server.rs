//! The shard server: one process (or thread) serving one `ShardCore`.
//!
//! A server owns the same [`ShardCore`] the in-process link owns — a
//! graph of home members and ghost replicas in **shard-local** node
//! ids, the global↔local id tables and the snapshot publication — plus
//! the epoch fence around it. It speaks the [`super::proto`] protocol
//! over the CRC frames of [`super::frame`]: one blocking acceptor
//! thread plus one worker thread per connection (no async runtime —
//! the acceptor polls non-blocking so a shutdown flag is honored,
//! workers poll for each frame's first byte with a short timeout for
//! the same reason). This module keeps only that socket loop, the
//! validation of wire input, and request dispatch.
//!
//! State changes only through the epoch fence: `Prepare` validates and
//! stages a batch of [`ShardOp`]s, `Commit` applies them through the
//! core's typed appliers under the server lock and publishes the new
//! epoch.
//!
//! An evaluation session belongs to the connection that opened it (an
//! `OpenRound`) and lives in that connection's worker, not in the
//! shared state: opening the connection's next session drops it, and
//! so does closing the connection, so no message ever closes one. A
//! session pins a CSR snapshot and a round-persistent plan engine and
//! records the epoch it opened at; after a commit its engine was built
//! over the old topology, so the next `Round` or `Trace` on it is
//! refused (`UnknownEval`, which the router retries) instead of mixing
//! epochs. The `OpenRound` ships the plan the router compiled; the
//! server parses its node steps, checks them, and compiles nothing. A
//! `Round` runs `ShardCore::round`, as the in-process lane does — the
//! wire only carries its inputs and outputs.

use super::frame;
use super::proto::{
    self, Request, Response, SessionSpec, ShardOp, WireHop, WireRefusal, PROTOCOL_VERSION,
};
use super::{Conn, Listener, ShardAddr};
use crate::path::parse_path;
use crate::query::{ChunkMasks, PlanNode};
use crate::shard::{Session, ShardCore};
use parking_lot::Mutex;
use socialreach_graph::shard::MaskedExport;
use std::borrow::Cow;
use std::collections::HashSet;
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
/// Member ids a shard accepts: its global→local table is dense, so one
/// `AddNode` may not make it absurdly large.
const MAX_MEMBER_ID: u32 = 1 << 26;

/// A connection's open masked-fixpoint evaluation.
struct EvalSession {
    /// The session's name: a `Round` or `Trace` naming any other id is
    /// refused.
    eval: u64,
    /// The epoch the session was opened at.
    epoch: u64,
    /// What it runs: the shipped plan of its [`SessionSpec`] — a
    /// shared-prefix plan chunk (audience fixpoints only) or a one-path
    /// plan (targeted stop and parent-tracked traces supported) —
    /// owning the node steps it parsed from the wire.
    session: Session<'static>,
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

/// What every connection worker of one server shares.
struct Served {
    core: ShardCore,
    /// Published epoch (0 = fresh process; the router replays its op
    /// log to catch a revived shard up).
    epoch: u64,
    staged: Option<(u64, Vec<ShardOp>)>,
}

impl Served {
    /// Checks a prepare batch without applying it: every referenced
    /// member must exist (or be added earlier in the batch), no member
    /// may be materialized twice, and every label/attr name must
    /// already be interned (the router `Intern`s in master-vocabulary
    /// order first, so interned ids agree fleet-wide).
    fn validate(&self, ops: &[ShardOp]) -> Result<(), WireRefusal> {
        let mut pending: HashSet<u32> = HashSet::new();
        let known = |m: &u32, pending: &HashSet<u32>| {
            self.core.local_of(*m).is_some() || pending.contains(m)
        };
        for op in ops {
            match op {
                ShardOp::AddNode { global, .. } => {
                    if *global >= MAX_MEMBER_ID {
                        return Err(WireRefusal::BadRequest {
                            detail: format!("member id {global} is past {MAX_MEMBER_ID}"),
                        });
                    }
                    if self.core.local_of(*global).is_some() || !pending.insert(*global) {
                        return Err(WireRefusal::BadRequest {
                            detail: format!("member {global} already has a copy on this shard"),
                        });
                    }
                }
                ShardOp::SetAttr { global, key, .. } => {
                    if !known(global, &pending) {
                        return Err(WireRefusal::UnknownMember { member: *global });
                    }
                    if self.core.vocab().attr(key).is_none() {
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
                    if self.core.vocab().label(label).is_none() {
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
        let core = &mut self.core;
        for op in ops {
            match op {
                ShardOp::AddNode {
                    global,
                    name,
                    ghost,
                } => core.add_node(global, &name, ghost),
                ShardOp::SetAttr { global, key, value } => {
                    let key = core.vocab().attr(&key).expect("validated at prepare");
                    core.set_attr(global, key, value);
                }
                ShardOp::AddEdge { src, label, dst } => {
                    let label = core.vocab().label(&label).expect("validated at prepare");
                    core.add_edge(src, label, dst);
                }
            }
        }
    }

    /// Opens session `eval` over `spec`, or says why the shard cannot
    /// serve it.
    fn open(&self, eval: u64, spec: SessionSpec) -> Result<EvalSession, WireRefusal> {
        if spec.epoch != self.epoch {
            return Err(WireRefusal::EpochMismatch {
                shard_epoch: self.epoch,
                requested: spec.epoch,
            });
        }
        let bad = |detail: String| WireRefusal::BadRequest { detail };
        if spec.nodes.is_empty() {
            return Err(bad("a plan needs at least one node".to_owned()));
        }
        if spec.parents && !spec.one_path {
            return Err(bad("bundle-plan sessions keep no parent chains".to_owned()));
        }
        // Parse against a throwaway copy of the vocabulary: text naming
        // labels/attrs this shard has not interned means the router
        // skipped `Intern` — refuse rather than intern out of master
        // order.
        let mut vocab = self.core.vocab().clone();
        let before = (vocab.num_labels(), vocab.num_attrs());
        let mut nodes: Vec<PlanNode> = Vec::with_capacity(spec.nodes.len());
        let mut masks = ChunkMasks::default();
        for (id, n) in spec.nodes.iter().enumerate() {
            let parsed = parse_path(&n.step, &mut vocab).map_err(|e| {
                bad(format!(
                    "unparsable plan step {:?}: {}",
                    n.step,
                    crate::EvalError::from(e)
                ))
            })?;
            if (vocab.num_labels(), vocab.num_attrs()) != before {
                return Err(bad(format!(
                    "plan step {:?} names vocabulary this shard has not interned",
                    n.step
                )));
            }
            if parsed.len() != 1 {
                return Err(bad(format!(
                    "plan node step {:?} is not a single step",
                    n.step
                )));
            }
            if let Some(&c) = n.children.iter().find(|&&c| c as usize >= spec.nodes.len()) {
                return Err(bad(format!("plan child id {c} is out of range")));
            }
            // A compiled plan appends children after their parent, so a
            // child id at or below its parent's closes a cycle.
            if let Some(&c) = n.children.iter().find(|&&c| c as usize <= id) {
                return Err(bad(format!(
                    "plan child id {c} is not past its parent {id}"
                )));
            }
            nodes.push(PlanNode {
                step: parsed.steps[0].canonical(),
                children: n.children.clone(),
            });
            masks.node_mask.push(n.mask);
            masks.accept_mask.push(n.accept);
        }
        let session = self.core.open(
            Cow::Owned(nodes),
            Cow::Owned(masks),
            spec.word,
            spec.one_path,
            spec.parents,
        );
        Ok(EvalSession {
            eval,
            epoch: spec.epoch,
            session,
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
        let round = self.core.round(&mut sess.session, seeds, stop)?;
        Ok(Response::Round {
            matched: round.matched,
            exports: round.exports,
            hit: round.hit,
            states_expanded: round.states_expanded,
        })
    }

    /// Serves one request other than `Shutdown`; `slot` holds the
    /// connection's session.
    fn handle(
        &mut self,
        req: Request,
        slot: &mut Option<EvalSession>,
    ) -> Result<Response, WireRefusal> {
        let mismatch = |shard_epoch, requested| WireRefusal::EpochMismatch {
            shard_epoch,
            requested,
        };
        Ok(match req {
            Request::Hello { version } => {
                if version != PROTOCOL_VERSION {
                    return Err(WireRefusal::Version {
                        shard: PROTOCOL_VERSION,
                        requested: version,
                    });
                }
                let census = self.core.census();
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    epoch: self.epoch,
                    nodes: (census.members + census.ghosts) as u64,
                }
            }
            Request::Intern { labels, attrs } => {
                let (labels, attrs) = (labels.iter(), attrs.iter());
                self.core
                    .intern(labels.map(String::as_str), attrs.map(String::as_str));
                Response::Ok
            }
            Request::Prepare { epoch, ops } => {
                if epoch <= self.epoch {
                    return Err(mismatch(self.epoch, epoch));
                }
                // Committing it would leave no later epoch to prepare.
                if epoch == u64::MAX {
                    return Err(WireRefusal::BadRequest {
                        detail: format!("epoch {epoch} has no successor"),
                    });
                }
                if let Some((staged, _)) = self.staged.as_ref().filter(|(e, _)| *e != epoch) {
                    return Err(WireRefusal::BadRequest {
                        detail: format!("epoch {staged} is already staged"),
                    });
                }
                self.validate(&ops)?;
                self.staged = Some((epoch, ops));
                Response::Prepared { epoch }
            }
            // An idempotent re-commit: a router retrying after a lost
            // acknowledgement.
            Request::Commit { epoch } if epoch == self.epoch => Response::Committed { epoch },
            Request::Commit { epoch } => match self.staged.take() {
                Some((staged, ops)) if staged == epoch => {
                    // Every open session now names an older epoch (see
                    // `current_session`).
                    self.apply(ops);
                    self.epoch = epoch;
                    Response::Committed { epoch }
                }
                other => {
                    self.staged = other;
                    return Err(mismatch(self.epoch, epoch));
                }
            },
            Request::Abort { epoch } => {
                if self.staged.as_ref().is_some_and(|(e, _)| *e == epoch) {
                    self.staged = None;
                }
                Response::Aborted { epoch }
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
                *slot = Some(self.open(eval, session)?);
                self.round(slot, eval, &seeds, stop)?
            }
            Request::Round { eval, seeds, stop } => self.round(slot, eval, &seeds, stop)?,
            Request::Trace {
                eval,
                member,
                step,
                depth,
            } => {
                let sess = current_session(slot, eval, self.epoch)?;
                let (hops, (seed_member, seed_step, seed_depth)) =
                    self.core.trace(&sess.session, member, step, depth)?;
                let hops = hops
                    .iter()
                    .map(|h| WireHop {
                        src: h.src.0,
                        dst: h.dst.0,
                        label: h.label.0,
                        forward: h.forward,
                    })
                    .collect();
                Response::Traced {
                    hops,
                    seed_member,
                    seed_step,
                    seed_depth,
                }
            }
            Request::Census => {
                let census = self.core.census();
                Response::Census {
                    members: census.members as u64,
                    ghosts: census.ghosts as u64,
                    edges: census.edges as u64,
                    epoch: self.epoch,
                }
            }
            Request::Shutdown => Response::Ok,
        })
    }
}

/// A bound, not-yet-serving shard server.
pub struct ShardServer {
    listener: Listener,
    addr: ShardAddr,
    core: Arc<Mutex<Served>>,
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
            core: Arc::new(Mutex::new(Served {
                core: ShardCore::new(),
                epoch: 0,
                staged: None,
            })),
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
fn serve_conn(mut conn: Conn, core: Arc<Mutex<Served>>, stop: Arc<AtomicBool>) {
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
        let request = proto::decode_request(&payload).map_err(|e| WireRefusal::BadRequest {
            detail: format!("undecodable request: {e}"),
        });
        let shutdown = matches!(request, Ok(Request::Shutdown));
        let resp = request
            .and_then(|req| core.lock().handle(req, &mut session))
            .unwrap_or_else(Response::Refused);
        if frame::write_frame(&mut conn, &proto::encode_response(&resp)).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::proto::WirePlanNode;
    use socialreach_graph::shard::MaskedStateKey;

    /// A router's plan reaches the shard as outside input: the shard
    /// checks every node before it opens a session, a round's seeds
    /// must name nodes of that plan, and a bundle-plan session takes no
    /// stop member and answers no `Trace`.
    #[test]
    fn a_shipped_plan_is_checked_before_its_session_opens() {
        let mut core = ShardCore::new();
        core.intern(["friend"], std::iter::empty());
        core.add_node(0, "m", false);
        let mut served = Served {
            core,
            epoch: 0,
            staged: None,
        };
        let node = |step: &str, children: Vec<u16>| WirePlanNode {
            step: step.to_owned(),
            children,
            mask: 1,
            accept: 1,
        };
        let spec = |nodes, one_path, parents| SessionSpec {
            epoch: 0,
            nodes,
            word: 0,
            one_path,
            parents,
        };
        let refused = |result: &Result<Response, WireRefusal>, why: &str| match result {
            Err(WireRefusal::BadRequest { detail }) => detail.contains(why),
            _ => false,
        };
        let mut open = |session, stop, slot: &mut Option<EvalSession>| {
            let seeds = Vec::new();
            let req = Request::OpenRound {
                eval: 1,
                session,
                seeds,
                stop,
            };
            served.handle(req, slot)
        };
        let friend = || vec![node("friend+[1]", vec![])];
        for (session, why) in [
            (spec(vec![], true, false), "at least one node"),
            (
                spec(vec![node("friend+[1]/friend+[1]", vec![])], true, false),
                "single step",
            ),
            (
                spec(vec![node("friend+[1]", vec![1])], false, false),
                "out of range",
            ),
            (
                spec(vec![node("friend+[1]", vec![0])], false, false),
                "not past its parent",
            ),
            (
                spec(vec![node("colleague+[1]", vec![])], true, false),
                "not interned",
            ),
            (spec(friend(), false, true), "no parent chains"),
        ] {
            let mut slot = None;
            let result = open(session, None, &mut slot);
            assert!(refused(&result, why), "{why}: {result:?}");
            assert!(slot.is_none(), "{why}: no session is left open");
        }
        let mut slot = None;
        let stopped = open(spec(friend(), false, false), Some(0), &mut slot);
        assert!(refused(&stopped, "no stop target"), "{stopped:?}");
        let opened = open(spec(friend(), false, false), None, &mut slot);
        assert!(matches!(opened, Ok(Response::Round { .. })), "{opened:?}");
        let past_the_plan = MaskedExport {
            key: MaskedStateKey {
                member: 0,
                step: 1,
                depth: 0,
                word: 0,
            },
            mask: 1,
        };
        let round = Request::Round {
            eval: 1,
            seeds: vec![past_the_plan],
            stop: None,
        };
        let seeded = served.handle(round, &mut slot);
        assert!(refused(&seeded, "plan node"), "{seeded:?}");
        let trace = Request::Trace {
            eval: 1,
            member: 0,
            step: 0,
            depth: 0,
        };
        let traced = served.handle(trace, &mut slot);
        assert!(refused(&traced, "no parent chains"), "{traced:?}");
    }

    /// A shard's global→local table is dense, so a `Prepare` naming a
    /// member id past [`MAX_MEMBER_ID`] is refused before it can grow
    /// the table; one just below it is staged.
    #[test]
    fn a_member_id_past_the_bound_is_refused_at_prepare() {
        let mut served = Served {
            core: ShardCore::new(),
            epoch: 0,
            staged: None,
        };
        let prepare = |global| Request::Prepare {
            epoch: 1,
            ops: vec![ShardOp::AddNode {
                global,
                name: "m".to_owned(),
                ghost: true,
            }],
        };
        let refused = served.handle(prepare(MAX_MEMBER_ID), &mut None);
        assert!(
            matches!(&refused, Err(WireRefusal::BadRequest { detail }) if detail.contains("past")),
            "{refused:?}"
        );
        assert!(served.staged.is_none());
        let staged = served.handle(prepare(MAX_MEMBER_ID - 1), &mut None);
        assert!(matches!(staged, Ok(Response::Prepared { epoch: 1 })));
    }
}
