//! The router: [`AccessService`]/[`MutateService`] over remote shards.
//!
//! [`NetworkedSystem`] is the wire twin of
//! [`crate::sharded::ShardedSystem`]: the same hash placement
//! ([`ShardAssignment`]), the same ghost-replicated boundary edges,
//! and the same round-based masked fixpoint — but each shard's graph
//! lives in a server process ([`super::ShardServer`]) and the rounds
//! exchange [`MaskedExport`] batches over CRC-framed sockets.
//!
//! The router keeps only **metadata**: member placement, names,
//! attribute tuples (to materialize ghost replicas), the policy store,
//! the boundary table, and a per-shard op log of every committed
//! epoch. Graph topology lives exclusively on the shards; all reads
//! fan out.
//!
//! Mutations are staged as per-shard ops and committed through the
//! two-phase epoch fence (`Prepare` everywhere → `Commit` everywhere;
//! any prepare failure aborts the epoch). Staging reads the router's
//! committed metadata overlaid with the ops staged so far, and the
//! metadata itself changes only when a batch commits. One
//! [`MutateService::apply`] stages its ops and commits them; a bulk load
//! ([`NetworkedSystem::from_graph`]) stages every mutation and commits
//! one epoch each time [`MAX_EPOCH_OPS`] ops are staged. (A mutation
//! of more ops than that — a ghost for a member with nearly as many
//! attributes — spans consecutive epochs; an error between them leaves
//! the committed ones in place, and the metadata says so.) Once every
//! shard has prepared, the epoch is *presumed committed*: the router
//! records it in the op log and advances before sending commits, so a
//! shard that misses its commit has its idle connections dropped and
//! is replayed from the op log when the next connection to it is
//! dialed — in jumps of at most [`MAX_EPOCH_OPS`] ops — so the fleet
//! can never end up split between epochs from the router's point of
//! view, and a shard that *is* behind refuses a read's epoch rather
//! than serving a torn read.
//!
//! Each shard has a pool of idle connections. A read checks one out
//! per shard it reaches and keeps it for every round and `Trace` of
//! the read, since the shard-side session lives on it; it goes back
//! only if every exchange on it completed. Writes and
//! [`NetworkedSystem::shard_census`] check out the same way. An empty
//! pool dials through `revive` (handshake, full vocabulary, op-log
//! catch-up). Owned connections let a read keep a request in flight on
//! every shard at once, and readers never wait on each other.
//!
//! Reads are `&self` and run the in-process backend's round loop,
//! literally: both call `crate::fixpoint::masked_fixpoint`, and this
//! module only contributes the remote lane (an `OpenRound` on the
//! lane's first send, then one `Round` per round and sub-batch), seed
//! construction and `Trace`-based witness stitching for `explain`. A
//! `check` opens its sessions without parent tracking and sends no
//! `Trace`. On a retryable failure the router re-runs the whole
//! evaluation once with fresh evaluation ids — the engines' masked
//! state is per-evaluation, so a retry cannot observe leftovers.

use super::frame::{self, FrameError};
use super::proto::{self, Request, Response, SessionSpec, ShardOp, PROTOCOL_VERSION};
use super::{Conn, RemoteError, ShardAddr, DEFAULT_READ_TIMEOUT, MAX_EPOCH_OPS, MAX_ROUND_EXPORTS};
use crate::decision::{self, DecisionCache};
use crate::error::EvalError;
use crate::fixpoint::{self, LaneRound, ShardLane, StateKey};
use crate::path::PathExpr;
use crate::policy::{Decision, PolicyStore, ResourceId};
use crate::service::{
    AccessService, Applied, BundleStrategy, CheckPlan, Explanation, MutateService, Mutation,
    ReadStats, WalkHop,
};
use crate::sharded::partitioned_check_plan;
use parking_lot::Mutex;
use socialreach_graph::shard::{BoundaryEdge, BoundaryTable, MaskedExport, ShardAssignment};
use socialreach_graph::{AttrValue, LabelId, NodeId, SocialGraph, Vocabulary};
use std::collections::HashMap;
use std::io;
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

/// One shard's endpoint and idle connections (see the module docs,
/// "Each shard has a pool"), plus how much of the master vocabulary the
/// shard has acknowledged interning.
struct ShardPool {
    addr: ShardAddr,
    idle: Vec<ShardClient>,
    synced_labels: usize,
    synced_attrs: usize,
}

/// Where a member lives, plus the shards holding a ghost replica
/// (shard-local ids stay server-side).
struct NetMember {
    home: u32,
    ghosts: Vec<u32>,
}

/// Shard ops staged for the fleet, in staging order, each tagged with
/// the shard it goes to: the one form in which a mutation reaches
/// `NetworkedSystem::commit_ops`.
type Staged = Vec<(u32, ShardOp)>;

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

/// Sets `key` in an attribute tuple, in place or appended.
fn assign(tuple: &mut Vec<(String, AttrValue)>, key: &str, value: &AttrValue) {
    match tuple.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value.clone(),
        None => tuple.push((key.to_owned(), value.clone())),
    }
}

/// The remote [`ShardLane`]: one shard process, reached over the
/// connection the lane checks out on its first send and keeps until
/// its end. A round is one `Round` frame out in `send` and its response
/// in `recv`; a round of more than [`MAX_ROUND_EXPORTS`] seeds
/// exchanges its later sub-batches one at a time inside `recv`, so at
/// most one request frame is in flight on the connection.
struct RemoteLane<'a> {
    sys: &'a NetworkedSystem,
    shard: usize,
    eval: u64,
    /// The session the lane's first round opens.
    session: &'a SessionSpec,
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
                session: self.session.clone(),
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

    /// One `Trace` exchange on the lane's session.
    fn trace(&mut self, member: u32, step: u16, depth: u32) -> Result<Response, RemoteError> {
        let req = Request::Trace {
            eval: self.eval,
            member,
            step,
            depth,
        };
        let resp = self.conn().exchange(&req);
        self.keep_if_ok(resp)
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
            self.client = Some(self.sys.checkout(self.shard)?);
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

    /// Returns the connection to the pool if nothing is in flight on
    /// it. The shard-side session stays open until the connection's
    /// next open, so closing costs no exchange.
    fn end(&mut self) {
        if let Some(client) = self.client.take() {
            if !self.in_flight {
                self.sys.checkin(self.shard, client);
            }
        }
    }
}

/// The networked deployment's router (see the module docs).
pub struct NetworkedSystem {
    assignment: ShardAssignment,
    /// Per shard: the endpoint (retargetable, so a shard restarted on a
    /// new ephemeral port can be re-registered —
    /// [`NetworkedSystem::retarget`]) and its idle connections.
    pools: Vec<Mutex<ShardPool>>,
    /// Master vocabulary; every shard interns the same names in the
    /// same order (`Intern` requests), so `LabelId`/`AttrKey` values
    /// agree fleet-wide.
    vocab: Vocabulary,
    members: Vec<NetMember>,
    names: Vec<String>,
    name_lookup: HashMap<String, NodeId>,
    /// Current attribute tuple per member, kept to materialize ghost
    /// replicas with the right predicate state.
    attrs: Vec<Vec<(String, AttrValue)>>,
    store: PolicyStore,
    boundary: BoundaryTable,
    edges: Vec<(NodeId, LabelId, NodeId)>,
    /// Per-shard committed history `(epoch, ops)` — the revival replay
    /// source for shards that missed commits.
    oplog: Vec<Vec<(u64, Vec<ShardOp>)>>,
    epoch: u64,
    decisions: DecisionCache,
    eval_counter: AtomicU64,
    read_timeout: Duration,
}

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
        assert_eq!(
            addrs.len(),
            assignment.shards() as usize,
            "one endpoint per shard of the placement"
        );
        let n = addrs.len();
        let sys = NetworkedSystem {
            assignment,
            pools: addrs
                .iter()
                .map(|addr| {
                    Mutex::new(ShardPool {
                        addr: addr.clone(),
                        idle: Vec::new(),
                        synced_labels: 0,
                        synced_attrs: 0,
                    })
                })
                .collect(),
            vocab: Vocabulary::new(),
            members: Vec::new(),
            names: Vec::new(),
            name_lookup: HashMap::new(),
            attrs: Vec::new(),
            store: PolicyStore::new(),
            boundary: BoundaryTable::new(n as u32),
            edges: Vec::new(),
            oplog: vec![Vec::new(); n],
            epoch: 0,
            decisions: DecisionCache::default(),
            eval_counter: AtomicU64::new(1),
            read_timeout: DEFAULT_READ_TIMEOUT,
        };
        for shard in 0..n {
            let client = sys.revive(shard)?;
            sys.checkin(shard, client);
        }
        Ok(sys)
    }

    /// Ingests an existing graph + policy store: same member ids
    /// (insertion order), same label/attr ids, same edge order — the
    /// conformance suites build networked twins of in-process systems
    /// with this. The load is staged through the same code as
    /// [`MutateService::apply`] and committed in epochs of
    /// [`MAX_EPOCH_OPS`] shard ops each (a mutation may straddle two), so it takes
    /// ⌈ops / [`MAX_EPOCH_OPS`]⌉ epochs rather than one per mutation.
    /// On `Err` the epoch that failed was aborted on every shard it
    /// reached and the partly loaded fleet is abandoned.
    pub fn from_graph(
        addrs: &[ShardAddr],
        assignment: ShardAssignment,
        g: &SocialGraph,
        store: PolicyStore,
    ) -> Result<NetworkedSystem, RemoteError> {
        let mut sys = Self::with_assignment(addrs, assignment)?;
        sys.vocab = g.vocab().clone();
        let mut staged = Staged::new();
        for v in g.nodes() {
            let global = sys.stage_add_user(&mut staged, g.node_name(v));
            debug_assert_eq!(global, v, "ingestion preserves member ids");
            for (k, val) in g.node_attrs(v).iter() {
                sys.stage_set_attr(&mut staged, global, g.vocab().attr_name(k), val);
            }
            sys.commit_staged(&mut staged, false)?;
        }
        for (_, rec) in g.edges() {
            sys.stage_connect(
                &mut staged,
                rec.src,
                g.vocab().label_name(rec.label),
                rec.dst,
            );
            sys.commit_staged(&mut staged, false)?;
        }
        sys.commit_staged(&mut staged, true)?;
        sys.store = store;
        Ok(sys)
    }

    /// Sets the per-exchange read timeout on future connections (tests
    /// shrink it to exercise the stall path). Idle connections are
    /// dropped so the new patience applies immediately.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
        for pool in &self.pools {
            pool.lock().idle.clear();
        }
    }

    /// Re-registers a shard's endpoint (a restarted server usually
    /// lands on a new ephemeral port) and drops its idle connections;
    /// the next exchange re-dials and replays the op log.
    pub fn retarget(&self, shard: usize, addr: ShardAddr) {
        let mut pool = self.pools[shard].lock();
        pool.addr = addr;
        pool.idle.clear();
    }

    /// The placement function.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.pools.len()
    }

    /// The fleet's current epoch: every committed batch of at most
    /// [`MAX_EPOCH_OPS`] shard ops advanced it by one — one applied
    /// mutation commits one batch, a bulk load
    /// ([`NetworkedSystem::from_graph`]) one per [`MAX_EPOCH_OPS`] ops.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Master vocabulary (labels + attribute keys).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Read-only view of the policy store.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// Adopts a policy store built against the same member ids.
    pub fn adopt_store(&mut self, store: PolicyStore) {
        self.decisions.clear();
        self.store = store;
    }

    /// Display name of a member.
    pub fn member_name(&self, member: NodeId) -> &str {
        &self.names[member.index()]
    }

    /// The home shard of a member.
    pub fn member_shard(&self, member: NodeId) -> u32 {
        self.members[member.index()].home
    }

    /// Looks a member up by name (first registered wins).
    pub fn user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.name_lookup
            .get(name)
            .copied()
            .ok_or_else(|| socialreach_graph::GraphError::UnknownName(name.to_owned()).into())
    }

    /// Live size census of every shard (`(members, ghosts, edges,
    /// epoch)` per shard), fetched over the wire.
    pub fn shard_census(&self) -> Result<Vec<(u64, u64, u64, u64)>, RemoteError> {
        (0..self.pools.len())
            .map(|shard| match self.call_reviving(shard, &Request::Census)? {
                Response::Census {
                    members,
                    ghosts,
                    edges,
                    epoch,
                } => Ok((members, ghosts, edges, epoch)),
                other => Err(self.unexpected(shard, "Census", &other)),
            })
            .collect()
    }

    /// Asks every shard process to shut down (best-effort; used by the
    /// CLI drill for a clean fleet teardown).
    pub fn shutdown_fleet(&self) {
        for shard in 0..self.pools.len() {
            let _ = self.call_shard(shard, &Request::Shutdown);
        }
    }

    // ------------------------------------------------------------------
    // Connection management
    // ------------------------------------------------------------------

    /// Checks out a connection to `shard`: an idle one, or a fresh
    /// dial through [`NetworkedSystem::revive`]. Either way the shard
    /// has interned the whole master vocabulary before the caller's
    /// first exchange, so vocabulary grown by a rule write (which
    /// touches no shard) reaches the fleet.
    fn checkout(&self, shard: usize) -> Result<ShardClient, RemoteError> {
        let idle = self.pools[shard].lock().idle.pop();
        let Some(mut client) = idle else {
            return self.revive(shard);
        };
        self.sync_vocab(shard, &mut client)?;
        Ok(client)
    }

    /// Returns a connection whose every exchange completed.
    fn checkin(&self, shard: usize, client: ShardClient) {
        self.pools[shard].lock().idle.push(client);
    }

    /// One exchange with a shard on a checked-out connection. A typed
    /// refusal returns the connection to the pool (the stream is still
    /// framed correctly); a transport failure drops it.
    fn call_shard(&self, shard: usize, req: &Request) -> Result<Response, RemoteError> {
        let mut client = self.checkout(shard)?;
        let resp = client.call(req)?;
        let result = match resp {
            Response::Refused(refusal) => Err(client.refused(refusal)),
            resp => Ok(resp),
        };
        self.checkin(shard, client);
        result
    }

    /// [`NetworkedSystem::call_shard`] with one retry, on a fresh
    /// connection, after a retryable failure. Only safe for requests
    /// that are idempotent across a shard restart (`Prepare`, `Commit`,
    /// `Abort`, `Census`, `Shutdown`) — evaluation requests retry at
    /// the whole-read level instead, with fresh evaluation ids.
    fn call_reviving(&self, shard: usize, req: &Request) -> Result<Response, RemoteError> {
        match self.call_shard(shard, req) {
            Err(e) if e.retryable() => {
                self.pools[shard].lock().idle.clear();
                self.call_shard(shard, req)
            }
            other => other,
        }
    }

    /// Dials a shard, interns the full vocabulary, and replays any
    /// committed epochs the shard missed (a restarted process reports
    /// epoch 0 and receives the whole op log). Returns the caught-up
    /// connection.
    fn revive(&self, shard: usize) -> Result<ShardClient, RemoteError> {
        let addr = self.pools[shard].lock().addr.clone();
        let (mut client, shard_epoch) = ShardClient::connect(&addr, self.read_timeout)?;
        if shard_epoch > self.epoch {
            return Err(RemoteError::Protocol {
                addr: client.addr,
                detail: format!(
                    "shard is at epoch {shard_epoch}, ahead of the router's {} — refusing to \
                     adopt a fleet this router did not populate",
                    self.epoch
                ),
            });
        }
        let labels: Vec<String> = (0..self.vocab.num_labels())
            .map(|i| self.vocab.label_name(LabelId::from_index(i)).to_owned())
            .collect();
        let attrs: Vec<String> = (0..self.vocab.num_attrs())
            .map(|i| {
                self.vocab
                    .attr_name(socialreach_graph::AttrKey::from_index(i))
                    .to_owned()
            })
            .collect();
        let (synced_labels, synced_attrs) = (labels.len(), attrs.len());
        match client.exchange(&Request::Intern { labels, attrs })? {
            Response::Ok => {}
            other => return Err(client.unexpected("Ok", &other)),
        }
        if shard_epoch < self.epoch {
            // A presumed-committed epoch may still be staged from
            // before the crash of the *connection* (server alive, the
            // commit lost): clear it, then replay everything missed.
            match client.exchange(&Request::Abort { epoch: self.epoch })? {
                Response::Aborted { .. } => {}
                other => return Err(client.unexpected("Aborted", &other)),
            }
            // Consecutive missed epochs group into jumps of at most
            // `MAX_EPOCH_OPS` ops, each prepared and committed at its
            // last epoch; the last jump lands on the router's epoch.
            // (Every committed epoch is logged for every shard and
            // carries at most `MAX_EPOCH_OPS` ops.)
            let log = &self.oplog[shard];
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
        let mut pool = self.pools[shard].lock();
        pool.synced_labels = synced_labels;
        pool.synced_attrs = synced_attrs;
        Ok(client)
    }

    /// Sends `client`'s shard the master-vocabulary suffix it has not
    /// acknowledged yet (no-op when in sync).
    fn sync_vocab(&self, shard: usize, client: &mut ShardClient) -> Result<(), RemoteError> {
        let (have_l, have_a) = {
            let pool = self.pools[shard].lock();
            (pool.synced_labels, pool.synced_attrs)
        };
        let (want_l, want_a) = (self.vocab.num_labels(), self.vocab.num_attrs());
        if have_l == want_l && have_a == want_a {
            return Ok(());
        }
        let labels: Vec<String> = (have_l..want_l)
            .map(|i| self.vocab.label_name(LabelId::from_index(i)).to_owned())
            .collect();
        let attrs: Vec<String> = (have_a..want_a)
            .map(|i| {
                self.vocab
                    .attr_name(socialreach_graph::AttrKey::from_index(i))
                    .to_owned()
            })
            .collect();
        match client.exchange(&Request::Intern { labels, attrs })? {
            Response::Ok => {
                let mut pool = self.pools[shard].lock();
                pool.synced_labels = want_l;
                pool.synced_attrs = want_a;
                Ok(())
            }
            other => Err(client.unexpected("Ok", &other)),
        }
    }

    fn unexpected(&self, shard: usize, wanted: &str, got: &Response) -> RemoteError {
        RemoteError::Protocol {
            addr: self.pools[shard].lock().addr.to_string(),
            detail: format!("expected a {wanted} response, got {got:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Mutations: the two-phase epoch fence
    // ------------------------------------------------------------------

    /// Commits one batch of staged ops (at most [`MAX_EPOCH_OPS`]) as
    /// the next epoch, or rolls it back. On `Ok` every shard either
    /// applied the epoch or has it in its replay log for the next dial,
    /// and the batch is folded into the router's metadata; on `Err` no
    /// shard applied it (every shard a prepare was sent to is aborted —
    /// a prepare whose response was lost may still be staged) and the
    /// router's state is untouched.
    fn commit_ops(&mut self, batch: &[(u32, ShardOp)]) -> Result<(), RemoteError> {
        let epoch = self.epoch + 1;
        let mut per_shard = vec![Vec::new(); self.pools.len()];
        for (shard, op) in batch {
            per_shard[*shard as usize].push(op.clone());
        }
        // Phase one (every checkout syncs the vocabulary first: prepare
        // validation refuses ops naming labels/attrs the shard has not
        // interned): stage everywhere (every shard participates, even
        // with no ops — the epoch fence requires the whole fleet to
        // advance together).
        for (shard, ops) in per_shard.iter().enumerate() {
            let err = match self.call_reviving(shard, &prepare(epoch, ops.clone())) {
                Ok(Response::Prepared { .. }) => continue,
                Ok(other) => self.unexpected(shard, "Prepared", &other),
                Err(e) => e,
            };
            for sent in 0..=shard {
                let _ = self.call_shard(sent, &Request::Abort { epoch });
            }
            return Err(err);
        }
        // Point of no return: every shard holds the staged epoch, so
        // it is presumed committed — record it for replay *before*
        // sending commits, then advance.
        for (shard, ops) in per_shard.into_iter().enumerate() {
            self.oplog[shard].push((epoch, ops));
        }
        self.epoch = epoch;
        for (shard, op) in batch {
            self.fold_committed(*shard, op);
        }
        // Phase two: publish. A shard whose commit is lost has its idle
        // connections dropped, so its next checkout dials through
        // `revive`, which finds it behind and replays the op log — it
        // can never serve the old epoch to a read, because every
        // session opens with the new epoch.
        for shard in 0..self.pools.len() {
            if !matches!(
                self.call_reviving(shard, &Request::Commit { epoch }),
                Ok(Response::Committed { .. })
            ) {
                self.pools[shard].lock().idle.clear();
            }
        }
        self.decisions.clear();
        Ok(())
    }

    /// Commits `staged` oldest first in epochs of [`MAX_EPOCH_OPS`] ops
    /// while a full batch is staged, and with `all` the remainder too.
    /// On `Err` the batches before the failed one stay committed and
    /// the failed batch is dropped.
    fn commit_staged(&mut self, staged: &mut Staged, all: bool) -> Result<(), RemoteError> {
        while staged.len() >= MAX_EPOCH_OPS || (all && !staged.is_empty()) {
            let batch: Staged = staged.drain(..staged.len().min(MAX_EPOCH_OPS)).collect();
            self.commit_ops(&batch)?;
        }
        Ok(())
    }

    /// Applies one committed op to the router's metadata. An edge is
    /// recorded once, when its copy on the destination's home shard
    /// commits (the last copy staged).
    fn fold_committed(&mut self, shard: u32, op: &ShardOp) {
        match op {
            ShardOp::AddNode {
                global,
                name,
                ghost: false,
            } => {
                debug_assert_eq!(*global as usize, self.members.len());
                self.members.push(NetMember {
                    home: shard,
                    ghosts: Vec::new(),
                });
                self.names.push(name.clone());
                self.name_lookup
                    .entry(name.clone())
                    .or_insert(NodeId(*global));
                self.attrs.push(Vec::new());
            }
            ShardOp::AddNode {
                global,
                ghost: true,
                ..
            } => self.members[*global as usize].ghosts.push(shard),
            ShardOp::SetAttr { global, key, value } => {
                if self.members[*global as usize].home == shard {
                    assign(&mut self.attrs[*global as usize], key, value);
                }
            }
            ShardOp::AddEdge { src, label, dst } => {
                let s_home = self.members[*src as usize].home;
                let d_home = self.members[*dst as usize].home;
                if shard != d_home {
                    return;
                }
                let l = self.vocab.intern_label(label);
                if s_home != d_home {
                    self.boundary.record(BoundaryEdge {
                        src: *src,
                        dst: *dst,
                        label: l,
                        src_shard: s_home,
                        dst_shard: d_home,
                    });
                }
                self.edges.push((NodeId(*src), l, NodeId(*dst)));
            }
        }
    }

    /// `member` as staged — committed metadata overlaid with `staged`:
    /// its name and the shards holding a copy of it, home first. The
    /// member is registered, committed or staged: `apply` checks ids
    /// before staging, and a bulk load stages members before edges.
    fn staged_copies(&self, staged: &[(u32, ShardOp)], member: NodeId) -> (String, Vec<u32>) {
        let mut name = self
            .names
            .get(member.index())
            .map_or_else(String::new, String::clone);
        let mut copies: Vec<u32> = self
            .members
            .get(member.index())
            .map(|entry| std::iter::once(entry.home).chain(entry.ghosts.iter().copied()))
            .into_iter()
            .flatten()
            .collect();
        for (shard, op) in staged {
            if let ShardOp::AddNode {
                global, name: n, ..
            } = op
            {
                if *global == member.0 {
                    name.clone_from(n);
                    copies.push(*shard);
                }
            }
        }
        (name, copies)
    }

    /// `member`'s attribute tuple as staged: the committed tuple with
    /// the staged `SetAttr`s applied in order (every copy of a member
    /// is staged the same value, so each copy's op may be applied).
    fn staged_attrs(&self, staged: &[(u32, ShardOp)], member: NodeId) -> Vec<(String, AttrValue)> {
        let mut tuple = self.attrs.get(member.index()).cloned().unwrap_or_default();
        for (_, op) in staged {
            if let ShardOp::SetAttr { global, key, value } = op {
                if *global == member.0 {
                    assign(&mut tuple, key, value);
                }
            }
        }
        tuple
    }

    /// Stages a member's registration on their hash-assigned home
    /// shard; returns the id it will have.
    fn stage_add_user(&self, staged: &mut Staged, name: &str) -> NodeId {
        let pending = staged
            .iter()
            .filter(|(_, op)| matches!(op, ShardOp::AddNode { ghost: false, .. }))
            .count();
        let global = NodeId::from_index(self.members.len() + pending);
        staged.push((
            self.assignment.shard_of(name),
            ShardOp::AddNode {
                global: global.0,
                name: name.to_owned(),
                ghost: false,
            },
        ));
        global
    }

    /// Stages an attribute write on every copy of `member`.
    fn stage_set_attr(
        &mut self,
        staged: &mut Staged,
        member: NodeId,
        key: &str,
        value: &AttrValue,
    ) {
        self.vocab.intern_attr(key);
        for shard in self.staged_copies(staged, member).1 {
            staged.push((
                shard,
                ShardOp::SetAttr {
                    global: member.0,
                    key: key.to_owned(),
                    value: value.clone(),
                },
            ));
        }
    }

    /// Stages a directed relationship: on the shared home shard, or on
    /// both endpoint shards against ghost replicas, materializing each
    /// missing ghost with the member's attribute tuple as staged.
    fn stage_connect(&mut self, staged: &mut Staged, src: NodeId, label: &str, dst: NodeId) {
        self.vocab.intern_label(label);
        let (src_name, src_copies) = self.staged_copies(staged, src);
        let (dst_name, dst_copies) = self.staged_copies(staged, dst);
        let (s_home, d_home) = (src_copies[0], dst_copies[0]);
        for (member, name, copies, shard) in [
            (dst, dst_name, dst_copies, s_home),
            (src, src_name, src_copies, d_home),
        ] {
            if copies.contains(&shard) {
                continue;
            }
            let tuple = self.staged_attrs(staged, member);
            staged.push((
                shard,
                ShardOp::AddNode {
                    global: member.0,
                    name,
                    ghost: true,
                },
            ));
            for (key, value) in tuple {
                staged.push((
                    shard,
                    ShardOp::SetAttr {
                        global: member.0,
                        key,
                        value,
                    },
                ));
            }
        }
        let edge = ShardOp::AddEdge {
            src: src.0,
            label: label.to_owned(),
            dst: dst.0,
        };
        if s_home != d_home {
            staged.push((s_home, edge.clone()));
        }
        staged.push((d_home, edge));
    }

    // ------------------------------------------------------------------
    // Reads: the remote masked fixpoint
    // ------------------------------------------------------------------

    /// Runs a read closure with one whole-read retry: on a retryable
    /// failure the closure re-runs with fresh evaluation ids. The
    /// failed lane dropped its connection, so the retry reaches that
    /// shard on another one — dialed through `revive` (op-log replay
    /// included) when none is idle. Non-retryable failures (corrupt
    /// frames, protocol violations, semantic refusals) surface
    /// immediately — never a wrong answer.
    fn with_read_retry<T>(&self, f: impl Fn() -> Result<T, RemoteError>) -> Result<T, EvalError> {
        match f() {
            Ok(v) => Ok(v),
            Err(e) if e.retryable() => f().map_err(EvalError::Remote),
            Err(e) => Err(EvalError::Remote(e)),
        }
    }

    /// One unopened remote lane per shard for evaluation `eval`.
    fn remote_lanes<'a>(&'a self, eval: u64, session: &'a SessionSpec) -> Vec<RemoteLane<'a>> {
        (0..self.pools.len())
            .map(|shard| RemoteLane {
                sys: self,
                shard,
                eval,
                session,
                client: None,
                opened: false,
                in_flight: false,
                rest: Vec::new(),
                stop: None,
            })
            .collect()
    }

    /// The batched bundle fixpoint over the wire — the algorithm of
    /// [`crate::sharded::ShardedSystem::evaluate_conditions_batched`],
    /// literally (both call [`fixpoint::masked_fixpoint`]), with `Round`
    /// exchanges in place of in-process seeded runs: the router
    /// compiles the bundle into one shared-prefix
    /// [`crate::query::BundlePlan`] trie and ships each 64-condition
    /// chunk to the shards it reaches as a [`SessionSpec::Plan`]
    /// (plan nodes travel as canonical one-step path text plus the
    /// chunk's ε-fork/accept masks), so each shared prefix is entered
    /// once per shard and condition masks fork where paths diverge.
    fn evaluate_conditions_batched(
        &self,
        conds: &[(NodeId, &PathExpr)],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), RemoteError> {
        let (audiences, stats) =
            fixpoint::bundle_audiences(conds, self.pools.len(), |plan, masks, word, seeds| {
                let eval = self.eval_counter.fetch_add(1, Ordering::Relaxed);
                let nodes: Vec<proto::WirePlanNode> = plan
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, node)| proto::WirePlanNode {
                        step: PathExpr::new(vec![node.step.clone()]).to_text(&self.vocab),
                        children: node.children.clone(),
                        mask: masks.node_mask[i],
                        accept: masks.accept_mask[i],
                    })
                    .collect();
                let session = SessionSpec::Plan {
                    epoch: self.epoch,
                    nodes,
                    word,
                };
                fixpoint::masked_fixpoint(
                    &mut self.remote_lanes(eval, &session),
                    |m| self.members[m as usize].home as usize,
                    seeds,
                    None,
                    |_, run| Ok(run),
                )
            })?;
        Ok((audiences, stats.read_stats(conds.len())))
    }

    /// The targeted single-condition fixpoint over the wire (the
    /// `check`/`explain` path): a 1-bit bundle with early exit on the
    /// requester's home shard. Returns `Some(walk)` when the requester
    /// is granted. With `explain` every shard engine tracks
    /// first-arrival parents and the walk is stitched from remote
    /// `Trace` segments while the sessions are still open; without it
    /// nothing is tracked or traced, and a grant's walk is empty.
    /// Mirrors [`crate::sharded::ShardedSystem::evaluate_condition_targeted_with_stats`].
    fn evaluate_condition_targeted(
        &self,
        owner: NodeId,
        path: &PathExpr,
        requester: NodeId,
        explain: bool,
    ) -> Result<(Option<Vec<WalkHop>>, ReadStats), RemoteError> {
        let mut stats = ReadStats {
            conditions: 1,
            traversals: 1,
            ..ReadStats::default()
        };
        if path.is_empty() {
            return Ok(((requester == owner).then(Vec::new), stats));
        }
        let eval = self.eval_counter.fetch_add(1, Ordering::Relaxed);
        let session = SessionSpec::Path {
            epoch: self.epoch,
            path: path.to_text(&self.vocab),
            word: 0,
            parents: explain,
        };
        let stop = (self.members[requester.index()].home as usize, requester.0);
        fixpoint::masked_fixpoint(
            &mut self.remote_lanes(eval, &session),
            |m| self.members[m as usize].home as usize,
            &[fixpoint::owner_seed(owner)],
            Some(stop),
            |lanes, run| {
                run.add_to(&mut stats);
                let walk = match run.hit {
                    Some((shard_ix, step, depth)) if explain => {
                        let at = (shard_ix, requester.0, step, depth);
                        Some(self.stitch_remote(lanes, &run.origin, owner, at)?)
                    }
                    hit => hit.map(|_| Vec::new()),
                };
                Ok((walk, stats))
            },
        )
    }

    /// Stitches a targeted grant's witness from `Trace` segments on the
    /// lanes' sessions, starting `at` the hit `(shard, member, step,
    /// depth)`: the hit shard's parent chain ends at a seed the router
    /// forwarded; `origin` names the exporting shard, where the chain
    /// continues (the member's copy there is its ghost replica) — until
    /// the owner seed terminates the walk.
    fn stitch_remote(
        &self,
        lanes: &mut [RemoteLane<'_>],
        origin: &HashMap<StateKey, usize>,
        owner: NodeId,
        at: (usize, u32, u16, u32),
    ) -> Result<Vec<WalkHop>, RemoteError> {
        let (mut shard_ix, mut member, mut step, mut depth) = at;
        let mut segments: Vec<Vec<WalkHop>> = Vec::new();
        loop {
            let (hops, seed_member, seed_step, seed_depth) =
                match lanes[shard_ix].trace(member, step, depth)? {
                    Response::Traced {
                        hops,
                        seed_member,
                        seed_step,
                        seed_depth,
                    } => (hops, seed_member, seed_step, seed_depth),
                    other => return Err(self.unexpected(shard_ix, "Traced", &other)),
                };
            segments.push(
                hops.iter()
                    .map(|h| WalkHop {
                        src: NodeId(h.src),
                        dst: NodeId(h.dst),
                        label: LabelId(h.label),
                        forward: h.forward,
                    })
                    .collect(),
            );
            if seed_member == owner.0 && seed_step == 0 && seed_depth == 0 {
                break;
            }
            shard_ix = *origin
                .get(&(seed_member, seed_step, seed_depth))
                .ok_or_else(|| RemoteError::Protocol {
                    addr: self.pools[shard_ix].lock().addr.to_string(),
                    detail: format!(
                        "trace reached seed (member {seed_member}, step {seed_step}, depth \
                         {seed_depth}) the router never forwarded"
                    ),
                })?;
            member = seed_member;
            step = seed_step;
            depth = seed_depth;
        }
        segments.reverse();
        Ok(segments.concat())
    }

    /// The per-condition bundle strategy: each deduped condition runs
    /// its own 1-bit batched fixpoint (fresh eval, fresh engines) —
    /// the planner's [`BundleStrategy::PerCondition`] arm.
    fn audience_per_condition(
        &self,
        conds: &[(NodeId, &PathExpr)],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), RemoteError> {
        let mut total = ReadStats::default();
        let mut audiences = Vec::with_capacity(conds.len());
        for &cond in conds {
            let (mut auds, s) = self.evaluate_conditions_batched(&[cond])?;
            // A one-condition plan shares nothing: no plan census.
            total.absorb(&ReadStats {
                plan_states: 0,
                expr_states: 0,
                ..s
            });
            audiences.push(auds.pop().expect("one audience per condition"));
        }
        Ok((audiences, total))
    }
}

/// The deployment-agnostic read surface. Decisions run the shared
/// decision layer; this backend contributes the over-the-wire
/// evaluation of one condition (targeted) or one bundle (batched),
/// each under the whole-read retry.
impl AccessService for NetworkedSystem {
    fn describe(&self) -> String {
        format!("networked(n={})", self.pools.len())
    }

    fn num_members(&self) -> usize {
        self.members.len()
    }

    fn num_relationships(&self) -> usize {
        self.edges.len()
    }

    fn resolve_user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.user(name)
    }

    fn member_name(&self, member: NodeId) -> &str {
        NetworkedSystem::member_name(self, member)
    }

    fn label_name(&self, label: LabelId) -> &str {
        self.vocab.label_name(label)
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.decisions.stats()
    }

    fn check_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        decision::check(&self.decisions, &self.store, rid, requester, |cond| {
            let (walk, s) = self.with_read_retry(|| {
                self.evaluate_condition_targeted(cond.owner, &cond.path, requester, false)
            })?;
            Ok((walk.is_some(), s))
        })
    }

    fn explain_with_stats(
        &self,
        rid: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError> {
        decision::explain(&self.store, rid, requester, |cond| {
            self.with_read_retry(|| {
                self.evaluate_condition_targeted(cond.owner, &cond.path, requester, true)
            })
        })
    }

    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        crate::engine::merge_bundle_audiences(&self.store, rids, |uniq| {
            self.with_read_retry(|| match strategy {
                BundleStrategy::Batched => self.evaluate_conditions_batched(uniq),
                BundleStrategy::PerCondition => self.audience_per_condition(uniq),
            })
        })
    }

    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        _threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        match plan {
            CheckPlan::Targeted => {
                decision::check_each(requests, |rid, req| self.check_with_stats(rid, req))
            }
            CheckPlan::Audience(strategy) => {
                decision::check_via_audiences(&self.decisions, &self.store, requests, |need| {
                    self.audience_batch_forced(need, strategy)
                })
            }
        }
    }

    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        decision::query_bundle(&self.vocab, queries, |conds| {
            Ok(self
                .with_read_retry(|| self.evaluate_conditions_batched(conds))?
                .0)
        })
    }

    fn default_check_plan(&self, len: usize) -> CheckPlan {
        partitioned_check_plan(len)
    }
}

/// The write surface over the two-phase epoch fence. Topology writes
/// stage their shard ops and commit them as one epoch; resources and
/// rules are router-local. On `Err` — an unknown id, a rejected rule,
/// a fleet that could not commit ([`EvalError::Remote`]) — the epoch
/// was rolled back everywhere it reached and the router's metadata is
/// unchanged (save for a mutation of more than [`MAX_EPOCH_OPS`] ops,
/// which keeps the epochs it committed — see the module docs).
impl MutateService for NetworkedSystem {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        m.validate(self.members.len())?;
        let mut staged = Staged::new();
        let applied = match m {
            Mutation::AddUser { name } => Applied::Member(self.stage_add_user(&mut staged, name)),
            Mutation::SetUserAttr { user, key, value } => {
                self.stage_set_attr(&mut staged, *user, key, value);
                Applied::Done
            }
            Mutation::AddRelationship { src, label, dst } => {
                self.stage_connect(&mut staged, *src, label, *dst);
                Applied::Done
            }
            Mutation::AddResource { owner } => {
                Applied::Resource(self.store.register_resource(*owner))
            }
            Mutation::AddRule { resource, path } => {
                self.store.allow_in(*resource, path, &mut self.vocab)?;
                Applied::Done
            }
        };
        self.commit_staged(&mut staged, true)?;
        self.decisions.clear();
        Ok(applied)
    }
}
