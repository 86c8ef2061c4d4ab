//! Per-layer measurement from outside the program: replaying a
//! request's arguments through each lower layer's public functions,
//! and stand-alone probes of layers no request isolates.
//!
//! Logical containment used for the self-time table (each parent's self
//! time is its own spans minus the replayed layers listed under it):
//!
//! ```text
//! single_seam      (core::system + core::engine)   ⊃ csr_publish, query_plan, online_bfs
//! sharded_driver   (core::sharded)                 ⊃ query_plan, online_bfs
//! remote_router    (core::remote::{router,server}) ⊃ remote_transport, remote_wire, sharded_driver
//! durability       (core::durability, writes)      ⊃ single_seam (the bare write)
//! ```

use crate::backend::{Backend, Kind, Service, SHARDS};
use crate::inputs::Inputs;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{self, Op};
use socialreach_core::online::evaluate_with_snapshot;
use socialreach_core::query::engine::evaluate_plan_audiences;
use socialreach_core::remote::frame::{encode_frame, read_frame};
use socialreach_core::remote::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use socialreach_core::{
    parse_policy, AccessService, BundlePlan, Deployment, PathExpr, PlannedService, PlannerMode,
    PolicyStore, ReadStats, ResourceId, ServiceInstance,
};
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::shard::{MaskedExport, MaskedStateKey};
use socialreach_graph::{NodeId, SocialGraph};
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layer {
    OnlineBfs,
    QueryPlan,
    CsrPublish,
    SingleSeam,
    ShardedDriver,
    RemoteWire,
    RemoteTransport,
    RemoteRouter,
    Durability,
}

/// Every layer with its self-time share metric.
const LAYERS: [(Layer, &str); 9] = [
    (Layer::OnlineBfs, "share.online_bfs"),
    (Layer::QueryPlan, "share.query_plan"),
    (Layer::CsrPublish, "share.csr_publish"),
    (Layer::SingleSeam, "share.single_seam"),
    (Layer::ShardedDriver, "share.sharded_driver"),
    (Layer::RemoteWire, "share.remote_wire"),
    (Layer::RemoteTransport, "share.remote_transport"),
    (Layer::RemoteRouter, "share.remote_router"),
    (Layer::Durability, "share.durability"),
];

/// What one request's replay measured, in ns.
#[derive(Default)]
struct Replayed {
    bfs: u64,
    plan: u64,
    csr: u64,
    twin: u64,
    wire: u64,
    transport: u64,
    bare_write: u64,
}

/// Sums over the traced requests: the seam spans, and each layer's
/// replay spans.
#[derive(Default)]
struct LayerTable {
    replayed: Replayed,
    request_ns: u64,
    read_seam_ns: u64,
    write_seam_ns: u64,
}

/// Fits replayed children inside the span that logically contains
/// them: replays that ran longer than their parent (they touch the
/// harness's own copy of the data, or do more than the program did)
/// are scaled down so the table never claims more time than passed.
/// Returns the excess.
fn fit(parent: u64, children: &mut [u64]) -> u64 {
    let sum: u64 = children.iter().sum();
    if sum <= parent {
        return 0;
    }
    for c in children.iter_mut() {
        *c = (*c as u128 * parent as u128 / sum as u128) as u64;
    }
    sum - parent
}

impl LayerTable {
    /// Books one request: `request_ns` is the root span, `seam_ns` the
    /// call through the seam, `r` its replayed lower layers.
    fn book(&mut self, write: bool, request_ns: u64, seam_ns: u64, r: &Replayed) {
        let sum = &mut self.replayed;
        sum.bfs += r.bfs;
        sum.plan += r.plan;
        sum.csr += r.csr;
        sum.twin += r.twin;
        sum.wire += r.wire;
        sum.transport += r.transport;
        sum.bare_write += r.bare_write;
        self.request_ns += request_ns;
        if write {
            self.write_seam_ns += seam_ns;
        } else {
            self.read_seam_ns += seam_ns;
        }
    }

    /// Self time of every layer and the replay excess, both as shares
    /// of request time. Subtraction happens on the sums, not request
    /// by request: two executions of one bundle differ by ±15 %, and
    /// clamping each request's difference at zero would hand that
    /// noise to the top layer.
    fn shares(&self, kind: Kind) -> ([f64; LAYERS.len()], f64) {
        let r = &self.replayed;
        let mut ns = [0u64; LAYERS.len()];
        let mut set = |layer: Layer, value: u64| ns[layer as usize] += value;
        let mut overshoot = 0;
        let mut bare = [r.bare_write];
        overshoot += fit(self.write_seam_ns, &mut bare);
        set(Layer::SingleSeam, bare[0]);
        set(Layer::Durability, self.write_seam_ns - bare[0]);
        if kind == Kind::Networked {
            let mut outer = [r.twin, r.wire, r.transport];
            overshoot += fit(self.read_seam_ns, &mut outer);
            let mut inner = [r.plan, r.bfs];
            overshoot += fit(outer[0], &mut inner);
            set(Layer::QueryPlan, inner[0]);
            set(Layer::OnlineBfs, inner[1]);
            set(Layer::ShardedDriver, outer[0] - inner[0] - inner[1]);
            set(Layer::RemoteWire, outer[1]);
            set(Layer::RemoteTransport, outer[2]);
            set(
                Layer::RemoteRouter,
                self.read_seam_ns - outer.iter().sum::<u64>(),
            );
        } else {
            let mut lower = [r.plan, r.bfs, r.csr];
            overshoot += fit(self.read_seam_ns, &mut lower);
            set(Layer::QueryPlan, lower[0]);
            set(Layer::OnlineBfs, lower[1]);
            set(Layer::CsrPublish, lower[2]);
            let top = match kind {
                Kind::Sharded => Layer::ShardedDriver,
                _ => Layer::SingleSeam,
            };
            set(top, self.read_seam_ns - lower.iter().sum::<u64>());
        }
        (ns.map(|v| self.of_requests(v)), self.of_requests(overshoot))
    }

    fn of_requests(&self, ns: u64) -> f64 {
        if self.request_ns == 0 {
            return 0.0;
        }
        ns as f64 / self.request_ns as f64
    }

    /// Request time outside the seam call: what no layer claims.
    fn unattributed_share(&self) -> f64 {
        self.of_requests(self.request_ns - self.read_seam_ns - self.write_seam_ns)
    }
}

/// Timings the replays collect for the derived per-layer metrics.
#[derive(Default)]
struct ReplaySamples {
    check_bfs_ns: u64,
    check_bfs_states: u64,
    miss_seam_us: Vec<f64>,
    miss_bfs_us: Vec<f64>,
    batch_bfs_ns: u64,
    batch_bfs_states: u64,
    plan_compile_us: Vec<f64>,
    hub_bfs_ms: Vec<f64>,
    patch_us: Vec<f64>,
    write_seam_us: Vec<f64>,
    write_bare_us: Vec<f64>,
}

/// The harness's own copy of the state plus the twins the replays call.
pub struct Replayer {
    kind: Kind,
    graph: SocialGraph,
    store: PolicyStore,
    snap: CsrSnapshot,
    /// In-process `sharded(2)` twin of a networked backend.
    sharded_twin: Option<ServiceInstance>,
    /// Bare (non-durable) twin of a durable backend; receives the same
    /// writes, which is what a write costs without the log.
    bare_twin: Option<ServiceInstance>,
    table: LayerTable,
    samples: ReplaySamples,
}

impl Replayer {
    pub fn new(kind: Kind, inputs: &Inputs) -> Replayer {
        let graph = inputs.graph.clone();
        let snap = CsrSnapshot::build(&graph);
        let twin = |d: Deployment| Some(d.from_graph(&inputs.graph, inputs.store.clone()));
        Replayer {
            kind,
            snap,
            graph,
            store: inputs.store.clone(),
            sharded_twin: match kind {
                Kind::Networked => twin(Deployment::sharded(SHARDS, 0)),
                _ => None,
            },
            bare_twin: match kind {
                Kind::Durable => twin(Deployment::online()),
                _ => None,
            },
            table: LayerTable::default(),
            samples: ReplaySamples::default(),
        }
    }

    pub fn sharded_twin(&self) -> Option<&ServiceInstance> {
        self.sharded_twin.as_ref()
    }

    /// Applies a write the backend received before this replayer
    /// existed to every copy of the state it holds.
    pub fn catch_up(&mut self, op: &Op) {
        self.mirror_write(op);
        if let Some(twin) = &mut self.bare_twin {
            workload::write(twin.writes(), op).expect("template parses");
        }
    }

    /// Mirrors a write into the harness's copy of the graph and policy.
    fn mirror_write(&mut self, op: &Op) {
        match op {
            Op::Befriend(a, b) => {
                self.graph.connect(*a, "friend", *b);
            }
            Op::Share { owner, rule } => {
                let rid = self.store.register_resource(*owner);
                self.store
                    .allow(rid, rule, &mut self.graph)
                    .expect("template parses");
            }
            _ => {}
        }
    }

    /// Replays `op` layer by layer inside a `replay` root span and
    /// books the request in the layer table.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        backend: &Backend,
        op: &Op,
        request_ns: u64,
        seam_ns: u64,
        cache_hit: bool,
    ) {
        let mut r = Replayed::default();
        let write = !op.is_read();
        self.mirror_write(op);
        tracer.span("replay", |t| match op {
            Op::Check { rid, who, .. } => {
                if !cache_hit {
                    self.replay_check(t, backend, *rid, *who, seam_ns, &mut r)
                }
            }
            Op::Bundle(rids) => self.replay_bundle(t, backend, rids, false, &mut r),
            Op::Hub(rid) => self.replay_bundle(t, backend, &[*rid], true, &mut r),
            Op::Befriend(..) | Op::Share { .. } => {
                let twin = self
                    .bare_twin
                    .as_mut()
                    .expect("writes run on the durable kind");
                let (_, ns) = t.span("core::system", |_| workload::write(twin.writes(), op));
                r.bare_write = ns;
                if matches!(op, Op::Befriend(..)) {
                    self.samples.write_seam_us.push(seam_ns as f64 / 1e3);
                    self.samples.write_bare_us.push(ns as f64 / 1e3);
                }
            }
        });
        self.table.book(write, request_ns, seam_ns, &r);
    }

    /// Brings the harness snapshot up to the mirrored graph: the
    /// publication a backend pays on the first read after a write.
    fn republish(&mut self, t: &mut Tracer, r: &mut Replayed) {
        if self.snap.matches(&self.graph) {
            return;
        }
        let (patched, ns) = t.span("graph::csr", |_| self.snap.apply_edge_appends(&self.graph));
        self.snap = patched.unwrap_or_else(|| CsrSnapshot::build(&self.graph));
        r.csr += ns;
        self.samples.patch_us.push(ns as f64 / 1e3);
    }

    fn replay_check(
        &mut self,
        t: &mut Tracer,
        backend: &Backend,
        rid: ResourceId,
        who: NodeId,
        seam_ns: u64,
        r: &mut Replayed,
    ) {
        self.republish(t, r);
        self.remote_layers(t, backend, r, |twin| {
            twin.check_with_stats(rid, who).map(|(_, s)| s)
        });
        if self.store.owner_of(rid).ok() == Some(who) {
            return;
        }
        let mut states = 0usize;
        let (_, ns) = t.span("core::online", |_| {
            'rules: for rule in self.store.rules_for(rid) {
                for cond in &rule.conditions {
                    let out = evaluate_with_snapshot(
                        &self.graph,
                        &self.snap,
                        cond.owner,
                        &cond.path,
                        Some(who),
                    );
                    states += out.stats.states_visited;
                    if !out.granted {
                        continue 'rules;
                    }
                }
                break;
            }
        });
        r.bfs += ns;
        self.samples.check_bfs_ns += ns;
        self.samples.check_bfs_states += states as u64;
        if matches!(self.kind, Kind::Single | Kind::Durable) && r.csr == 0 {
            self.samples.miss_seam_us.push(seam_ns as f64 / 1e3);
            self.samples.miss_bfs_us.push(ns as f64 / 1e3);
        }
    }

    fn replay_bundle(
        &mut self,
        t: &mut Tracer,
        backend: &Backend,
        rids: &[ResourceId],
        hub: bool,
        r: &mut Replayed,
    ) {
        self.republish(t, r);
        self.remote_layers(t, backend, r, |twin| {
            twin.audience_batch_with_stats(rids).map(|(_, s)| s)
        });
        // The bundle's distinct (owner, path) conditions, as the
        // backends dedupe them before traversal.
        let mut conds: Vec<(NodeId, &PathExpr)> = Vec::new();
        for &rid in rids {
            for rule in self.store.rules_for(rid) {
                for cond in &rule.conditions {
                    if !conds
                        .iter()
                        .any(|&(o, p)| o == cond.owner && p == &cond.path)
                    {
                        conds.push((cond.owner, &cond.path));
                    }
                }
            }
        }
        let paths: Vec<&PathExpr> = conds.iter().map(|&(_, p)| p).collect();
        let owners: Vec<NodeId> = conds.iter().map(|&(o, _)| o).collect();
        let (plan, plan_ns) = t.span("core::query", |_| BundlePlan::compile(&paths));
        let plan = plan.expect("bundle fits a plan");
        let (out, bfs_ns) = t.span("core::online", |_| {
            evaluate_plan_audiences(&self.graph, &self.snap, &plan, &owners)
        });
        r.plan += plan_ns;
        r.bfs += bfs_ns;
        if hub {
            self.samples.hub_bfs_ms.push(bfs_ns as f64 / 1e6);
        } else {
            self.samples.plan_compile_us.push(plan_ns as f64 / 1e3);
            self.samples.batch_bfs_ns += bfs_ns;
            self.samples.batch_bfs_states += out.states_visited as u64;
        }
        black_box(out);
    }

    /// Networked only: the same read on the in-process sharded twin
    /// (the compute the shards do, without the wire), the JSON and
    /// framing work for the boundary states that read exported, and one
    /// loopback round trip per fixpoint round plus two per traversal
    /// (session open and close; shards answer a round in parallel).
    fn remote_layers(
        &mut self,
        t: &mut Tracer,
        backend: &Backend,
        r: &mut Replayed,
        read: impl FnOnce(&dyn AccessService) -> Result<ReadStats, socialreach_core::EvalError>,
    ) {
        let Some(twin) = &self.sharded_twin else {
            return;
        };
        let (stats, twin_ns) = t.span("core::sharded", |_| read(twin.reads()));
        r.twin = twin_ns;
        let Ok(stats) = stats else { return };
        let exchanges = 2 * stats.traversals + stats.rounds;
        if stats.rounds > 0 {
            // Shards run a round side by side, so the blocking path
            // carries one shard's part of the round's boundary states.
            let per_round = stats
                .exported_states
                .div_ceil(stats.rounds * SHARDS as usize);
            let (_, ns) = t.span("core::remote::proto", |_| {
                for _ in 0..stats.rounds {
                    black_box(wire_round_trip(per_round));
                }
            });
            r.wire = ns;
        }
        if let Service::Plain(ServiceInstance::Networked(net)) = &backend.svc {
            let (_, ns) = t.span("core::remote::transport", |_| {
                for _ in 0..exchanges.div_ceil(SHARDS as usize) {
                    let _ = black_box(net.shard_census());
                }
            });
            r.transport = ns;
        }
    }

    /// Per-layer metrics derived from the replays.
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let s = &self.samples;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.push((
            "bfs.check_ns_per_state",
            ratio(s.check_bfs_ns, s.check_bfs_states),
        ));
        out.push((
            "bfs.batch_ns_per_state",
            ratio(s.batch_bfs_ns, s.batch_bfs_states),
        ));
        out.push(("bfs.hub_ms", median(&s.hub_bfs_ms)));
        out.push(("plan.compile_us", median(&s.plan_compile_us)));
        out.push((
            "single.seam_overhead_us",
            median(&s.miss_seam_us) - median(&s.miss_bfs_us),
        ));
        out.push((
            "wal.append_us",
            median(&s.write_seam_us) - median(&s.write_bare_us),
        ));
        let (shares, overshoot) = self.table.shares(self.kind);
        for (layer, name) in LAYERS {
            out.push((name, shares[layer as usize]));
        }
        out.push(("unattributed_share", self.table.unattributed_share()));
        out.push(("replay.overshoot_share", overshoot));
    }

    /// `graph::csr` stand-alone: full builds, one-edge patch, heap.
    pub fn probe_csr(&mut self, out: &mut Vec<(&'static str, f64)>) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let timed = |threads| {
            let t = Instant::now();
            black_box(CsrSnapshot::build_with_threads(&self.graph, threads));
            t.elapsed().as_secs_f64()
        };
        out.push(("csr.build_s", timed(1)));
        out.push(("csr.build_par_s", timed(cores)));
        let mut patches = std::mem::take(&mut self.samples.patch_us);
        if patches.is_empty() {
            // A read-only workload never republished: append edges to
            // the harness copy to time the patch.
            let members = self.graph.num_nodes() as u32;
            for i in 0..5u32 {
                self.graph
                    .connect(NodeId(i % members), "friend", NodeId((i + 7) % members));
                let t = Instant::now();
                let patched = self.snap.apply_edge_appends(&self.graph);
                patches.push(t.elapsed().as_secs_f64() * 1e6);
                self.snap = patched.expect("append-only lineage");
            }
        }
        out.push(("csr.patch_us", median(&patches)));
        out.push((
            "csr.heap_mb",
            self.snap.heap_bytes() as f64 / (1024.0 * 1024.0),
        ));
    }

    /// `core::path` + `core::query` front-end: one rule text parsed.
    pub fn probe_parse(&mut self, out: &mut Vec<(&'static str, f64)>) {
        const REPS: usize = 2000;
        let t = Instant::now();
        for _ in 0..REPS {
            for text in crate::inputs::TEMPLATES {
                black_box(parse_policy(black_box(text), self.graph.vocab_mut()).expect("parses"));
            }
        }
        let per_rule =
            t.elapsed().as_nanos() as f64 / (REPS * crate::inputs::TEMPLATES.len()) as f64;
        out.push(("parse.rule_ns", per_rule));
    }
}

fn synthetic_exports(k: usize) -> Vec<MaskedExport> {
    (0..k as u32)
        .map(|i| MaskedExport {
            key: MaskedStateKey {
                member: i.wrapping_mul(2_654_435_761) % 100_000,
                step: (i % 3) as u16,
                depth: 1 + i % 2,
                word: 0,
            },
            mask: 1u64 << (i % 64),
        })
        .collect()
}

fn synthetic_round(k: usize) -> (Request, Response) {
    let exports = synthetic_exports(k);
    let request = Request::Round {
        eval: 7,
        seeds: exports.clone(),
        stop: None,
    };
    let response = Response::Round {
        matched: Vec::new(),
        exports,
        hit: None,
        states_expanded: 4 * k as u64,
    };
    (request, response)
}

/// Encodes, frames, unframes and decodes one `Round` request and its
/// response carrying `k` boundary states each — the wire work of one
/// shard round. Returns the bytes moved.
fn wire_round_trip(k: usize) -> usize {
    let (request, response) = synthetic_round(k);
    let req = encode_frame(&encode_request(&request));
    let resp = encode_frame(&encode_response(&response));
    let req_payload = read_frame(&mut req.as_slice()).expect("own frame");
    let resp_payload = read_frame(&mut resp.as_slice()).expect("own frame");
    black_box(decode_request(&req_payload).expect("own request"));
    black_box(decode_response(&resp_payload).expect("own response"));
    req.len() + resp.len()
}

/// `core::remote::{proto,frame}` stand-alone, on a `Round` exchange
/// synthesised at `exported` boundary states (the measured
/// `shard.exported_per_read`, at least one).
pub fn probe_wire(exported: usize, out: &mut Vec<(&'static str, f64)>) {
    const REPS: usize = 300;
    let k = exported.max(1);
    let (request, response) = synthetic_round(k);
    let req_bytes = encode_request(&request);
    let resp_bytes = encode_response(&response);
    let payload = req_bytes.len() + resp_bytes.len();

    let t = Instant::now();
    for _ in 0..REPS {
        black_box(encode_request(black_box(&request)));
        black_box(encode_response(black_box(&response)));
    }
    let encode = t.elapsed().as_nanos() as f64 / (REPS * payload) as f64;

    let t = Instant::now();
    for _ in 0..REPS {
        black_box(decode_request(black_box(&req_bytes)).expect("own request"));
        black_box(decode_response(black_box(&resp_bytes)).expect("own response"));
    }
    let decode = t.elapsed().as_nanos() as f64 / (REPS * payload) as f64;

    let t = Instant::now();
    for _ in 0..REPS {
        let frame = encode_frame(black_box(&req_bytes));
        black_box(read_frame(&mut frame.as_slice()).expect("own frame"));
        let frame = encode_frame(black_box(&resp_bytes));
        black_box(read_frame(&mut frame.as_slice()).expect("own frame"));
    }
    let frame = t.elapsed().as_nanos() as f64 / (REPS * payload) as f64;

    out.push(("wire.encode_ns_per_byte", encode));
    out.push(("wire.decode_ns_per_byte", decode));
    out.push(("wire.frame_ns_per_byte", frame));
    out.push(("wire.bytes_per_export", req_bytes.len() as f64 / k as f64));
}

/// One loopback request/response exchange with a shard, in µs.
pub fn probe_rtt(backend: &Backend) -> f64 {
    let Service::Plain(ServiceInstance::Networked(net)) = &backend.svc else {
        return 0.0;
    };
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let _ = black_box(net.shard_census());
            t.elapsed().as_secs_f64() * 1e6 / SHARDS as f64
        })
        .collect();
    median(&samples)
}

/// The per-read fixed cost of a sharded read: p50 of checks whose
/// owner has no `friend` out-edge, so no traversal leaves the seed.
pub fn probe_read_floor(svc: &dyn AccessService, inputs: &Inputs) -> f64 {
    let g = &inputs.graph;
    let Some(friend) = g.vocab().label("friend") else {
        return 0.0;
    };
    let members = g.num_nodes() as u32;
    let mut samples = Vec::new();
    // Templates 0 and 1 open with an outgoing friend step.
    for (r, &owner) in inputs
        .owners
        .iter()
        .enumerate()
        .take(crate::inputs::RESOURCES)
    {
        if r % 4 > 1 || g.out_edges(owner).any(|(_, e)| e.label == friend) {
            continue;
        }
        let who = NodeId((owner.0 + 1 + samples.len() as u32) % members);
        let t = Instant::now();
        let answered = black_box(svc.check(ResourceId(r as u64), who));
        if answered.is_ok() {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if samples.len() == 300 {
            break;
        }
    }
    percentile(&samples, 0.5)
}

/// `core::planner`: the same reads through the adaptive decorator and
/// bare, as a ratio of total time.
pub fn probe_planner(inputs: &Inputs, ops: &[Op]) -> f64 {
    let run = |svc: &dyn AccessService| {
        let t = Instant::now();
        for op in ops {
            match op {
                Op::Check { rid, who, .. } => {
                    let _ = black_box(svc.check(*rid, *who));
                }
                Op::Bundle(rids) => {
                    let _ = black_box(svc.audience_batch(rids));
                }
                Op::Hub(rid) => {
                    let _ = black_box(svc.audience(*rid));
                }
                _ => {}
            }
        }
        t.elapsed().as_secs_f64()
    };
    let build = || Deployment::online().from_graph(&inputs.graph, inputs.store.clone());
    let bare = build();
    let planned = PlannedService::over(build(), PlannerMode::Adaptive);
    // Publish both snapshots before timing.
    let _ = bare.reads().check(ResourceId(0), NodeId(0));
    let _ = planned.check(ResourceId(0), NodeId(0));
    let bare_s = run(bare.reads());
    let planned_s = run(&planned);
    if bare_s == 0.0 {
        0.0
    } else {
        planned_s / bare_s
    }
}
