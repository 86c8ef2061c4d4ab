//! Conformance tier for the **networked** deployment: shard servers
//! behind real sockets must be semantically invisible. The same
//! trait-level script and the same generic differential harness
//! (`common::assert_services_agree`) that pin `Deployment::sharded` to
//! `Deployment::single` here pin `Deployment::networked` — over
//! loopback TCP *and* Unix domain sockets (test names carry `tcp_` /
//! `uds_` prefixes so CI can run the legs separately), across fleet
//! sizes {2, 4}, through mutation streams, and across killing a shard
//! process mid-stream and restarting it on a fresh endpoint.

mod common;

use proptest::prelude::*;
use socialreach_core::online::evaluate_reference;
use socialreach_core::remote::proto::{Request, Response, SessionSpec, WireMatch, WireRefusal};
use socialreach_core::remote::{spawn_local_fleet, MAX_EPOCH_OPS};
use socialreach_core::{
    parse_path, AccessService, Decision, Deployment, EvalError, Explanation, MutateService,
    Mutation, PolicyStore, ResourceId, ServiceInstance, ShardAddr, ShardHandle, ShardServer,
};
use socialreach_graph::{AttrValue, NodeId, ShardAssignment, SocialGraph};
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Mutex};

const SEED: u64 = 3;

/// Spawns a fleet and returns `(handles, addrs)`; the handles must
/// stay alive for as long as the deployment is used (dropping one
/// kills its server).
fn fleet(n: usize, unix: bool) -> (Vec<ShardHandle>, Vec<ShardAddr>) {
    let handles = spawn_local_fleet(n, unix).expect("fleet spawns");
    let addrs = handles.iter().map(|h| h.addr().clone()).collect();
    (handles, addrs)
}

/// The scenario script of `service_conformance.rs`, written only
/// against [`MutateService`]: friendship chain + colleague cluster +
/// followers + attribute-gated, incoming-direction, disjunctive and
/// private resources.
fn apply_script(svc: &mut dyn MutateService) -> Vec<socialreach_core::ResourceId> {
    let names = [
        "Ava", "Ben", "Cleo", "Dan", "Edith", "Femi", "Gus", "Hana", "Ivan", "June",
    ];
    let m: Vec<NodeId> = names.iter().map(|n| svc.add_user(n)).collect();
    svc.add_mutual_relationship(m[0], "friend", m[1]);
    svc.add_mutual_relationship(m[1], "friend", m[2]);
    svc.add_relationship(m[2], "friend", m[3]);
    svc.add_mutual_relationship(m[0], "friend", m[4]);
    svc.add_relationship(m[3], "colleague", m[5]);
    svc.add_relationship(m[5], "colleague", m[6]);
    svc.add_mutual_relationship(m[6], "colleague", m[7]);
    svc.add_relationship(m[8], "follows", m[0]);
    svc.add_relationship(m[9], "follows", m[8]);
    for (i, age) in [(0usize, 34i64), (2, 26), (3, 17), (4, 41), (8, 52)] {
        svc.set_user_attr(m[i], "age", age.into());
    }
    let album = svc.add_resource(m[0]);
    svc.add_rule(album, "friend+[1,2]{age>=18}").unwrap();
    let feed = svc.add_resource(m[0]);
    svc.add_rule(feed, "friend+[1..4]").unwrap();
    svc.add_rule(feed, "follows-[1,2]").unwrap();
    let memo = svc.add_resource(m[3]);
    svc.add_rule(memo, "colleague*[1..3]").unwrap();
    let diary = svc.add_resource(m[4]); // private: no rules
    let ring = svc.add_resource(m[7]);
    svc.add_rule(ring, "colleague*[1]/friend+[1]").unwrap();
    vec![album, feed, memo, diary, ring]
}

/// Networked(n) over the given transport ≡ the in-process sharded twin
/// with the identical placement ≡ the single-graph reference, on the
/// scripted scenario.
fn networked_matches_twins(n: usize, unix: bool) {
    let (_handles, addrs) = fleet(n, unix);
    let mut networked = Deployment::networked_with(addrs, SEED).build();
    let rids = apply_script(networked.writes());

    let mut single = Deployment::online().build();
    assert_eq!(apply_script(single.writes()), rids);
    let mut sharded = Deployment::sharded(n as u32, SEED).build();
    assert_eq!(apply_script(sharded.writes()), rids);

    assert_eq!(
        networked.reads().describe(),
        format!("networked(n={n})"),
        "the deployment label names the backend"
    );
    common::assert_services_agree(single.reads(), networked.reads(), &rids);
    common::assert_services_agree(sharded.reads(), networked.reads(), &rids);
}

#[test]
fn tcp_networked_2_matches_in_process_twins() {
    networked_matches_twins(2, false);
}

#[test]
fn tcp_networked_4_matches_in_process_twins() {
    networked_matches_twins(4, false);
}

#[test]
fn uds_networked_2_matches_in_process_twins() {
    networked_matches_twins(2, true);
}

#[test]
fn uds_networked_4_matches_in_process_twins() {
    networked_matches_twins(4, true);
}

/// Interleaved mutation stream: after *every* write the networked
/// deployment agrees with its in-process twin — each mutation is one
/// two-phase epoch, so this exercises the fence repeatedly.
fn mutation_stream_stays_conformant(unix: bool) {
    let (_handles, addrs) = fleet(3, unix);
    let mut net = Deployment::networked_with(addrs, SEED).build();
    let mut twin = Deployment::sharded(3, SEED).build();

    let mut rids = Vec::new();
    let mut members = Vec::new();
    for round in 0..12u32 {
        let name = format!("m{round}");
        let a = net.writes().add_user(&name);
        assert_eq!(twin.writes().add_user(&name), a);
        members.push(a);
        if round % 3 == 0 {
            net.writes()
                .set_user_attr(a, "age", i64::from(20 + round).into());
            twin.writes()
                .set_user_attr(a, "age", i64::from(20 + round).into());
        }
        if round > 0 {
            let prev = members[(round as usize) - 1];
            net.writes().add_relationship(prev, "friend", a);
            twin.writes().add_relationship(prev, "friend", a);
        }
        if round % 4 == 1 {
            let rid = net.writes().add_resource(members[0]);
            assert_eq!(twin.writes().add_resource(members[0]), rid);
            net.writes().add_rule(rid, "friend+[1..3]").unwrap();
            twin.writes().add_rule(rid, "friend+[1..3]").unwrap();
            rids.push(rid);
        }
        common::assert_services_agree(twin.reads(), net.reads(), &rids);
    }
    let net_sys = net.as_networked().expect("networked instance");
    assert!(
        net_sys.epoch() > 0,
        "every committed mutation advanced the epoch"
    );
    let census = net_sys.shard_census().expect("fleet is reachable");
    assert_eq!(census.len(), 3);
    assert_eq!(
        census.iter().map(|&(m, _, _, _)| m).sum::<u64>(),
        12,
        "every member has exactly one home shard"
    );
    for &(_, _, _, epoch) in &census {
        assert_eq!(epoch, net_sys.epoch(), "no shard lags the fence");
    }
}

#[test]
fn tcp_mutation_stream_stays_conformant() {
    mutation_stream_stays_conformant(false);
}

#[test]
fn uds_mutation_stream_stays_conformant() {
    mutation_stream_stays_conformant(true);
}

/// Kill a shard process mid-stream: while it is down every read either
/// matches the twin or fails with a typed [`EvalError::Remote`] —
/// never a wrong decision — and after restarting the shard on a
/// **fresh endpoint** ([`socialreach_core::NetworkedSystem::retarget`]
/// plus op-log replay) the deployment is fully conformant again,
/// including for writes committed after the restart.
fn kill_and_restart_mid_stream(unix: bool) {
    let (mut handles, addrs) = fleet(3, unix);
    let mut net = Deployment::networked_with(addrs, SEED).build();
    let mut twin = Deployment::sharded(3, SEED).build();
    let rids = apply_script(net.writes());
    assert_eq!(apply_script(twin.writes()), rids);
    common::assert_services_agree(twin.reads(), net.reads(), &rids);
    let epoch_before = net.as_networked().unwrap().epoch();

    // Kill shard 1's server process outright.
    handles[1].kill();

    // The fleet census cannot complete — and says so, typed.
    let err = net
        .as_networked()
        .unwrap()
        .shard_census()
        .expect_err("a killed shard is not silently skipped");
    assert!(
        err.retryable(),
        "a dead server is a retryable transport failure: {err}"
    );

    // Reads during the outage: correct or typed-Remote, never wrong.
    // Cached decisions may legitimately still answer; audience reads
    // always re-evaluate, so at least one of them must hit the hole.
    let members: Vec<NodeId> = (0..twin.reads().num_members() as u32).map(NodeId).collect();
    let mut failures = 0usize;
    for &rid in &rids {
        match net.reads().audience(rid) {
            Ok(a) => assert_eq!(a, twin.reads().audience(rid).unwrap()),
            Err(EvalError::Remote(_)) => failures += 1,
            Err(other) => panic!("outage must surface as EvalError::Remote, got {other}"),
        }
        for &m in &members {
            match net.reads().check(rid, m) {
                Ok(d) => assert_eq!(d, twin.reads().check(rid, m).unwrap()),
                Err(EvalError::Remote(_)) => failures += 1,
                Err(other) => panic!("outage must surface as EvalError::Remote, got {other}"),
            }
        }
    }
    assert!(failures > 0, "some evaluation had to touch the dead shard");

    // A mutation cannot commit its epoch while a shard is down; the
    // fence holds the epoch where it was.
    let net_sys = net.as_networked_mut().unwrap();
    let err = net_sys
        .apply(&Mutation::AddUser {
            name: "Zoe".to_owned(),
        })
        .expect_err("the epoch fence refuses to commit without the whole fleet");
    assert!(
        matches!(&err, EvalError::Remote(e) if e.retryable()),
        "{err}"
    );
    assert_eq!(
        net_sys.epoch(),
        epoch_before,
        "failed commit left the epoch untouched"
    );
    assert_eq!(
        net_sys.num_members(),
        members.len(),
        "router metadata rolled back"
    );

    // Restart the shard on a fresh endpoint (a new ephemeral port /
    // socket path — restarted processes rarely reclaim the old one)
    // and re-register it. The next exchange replays the op log.
    let fresh = if unix {
        ShardAddr::Unix(std::env::temp_dir().join(format!(
            "socialreach-restart-{}-{unix}.sock",
            std::process::id()
        )))
    } else {
        ShardAddr::Tcp("127.0.0.1:0".to_owned())
    };
    let server = ShardServer::bind(&fresh).expect("rebind");
    let revived_addr = server.local_addr().clone();
    handles[1] = server.spawn();
    net.as_networked().unwrap().retarget(1, revived_addr);

    // Fully conformant again — and the previously failed mutation now
    // applies cleanly on both sides.
    common::assert_services_agree(twin.reads(), net.reads(), &rids);
    let z_net = net.writes().add_user("Zoe");
    let z_twin = twin.writes().add_user("Zoe");
    assert_eq!(z_net, z_twin);
    net.writes().add_relationship(members[0], "friend", z_net);
    twin.writes().add_relationship(members[0], "friend", z_twin);
    common::assert_services_agree(twin.reads(), net.reads(), &rids);
}

#[test]
fn tcp_kill_and_restart_mid_stream_preserves_conformance() {
    kill_and_restart_mid_stream(false);
}

#[test]
fn uds_kill_and_restart_mid_stream_preserves_conformance() {
    kill_and_restart_mid_stream(true);
}

/// A 12-member chain of friend and colleague ties with ages on every
/// other member, and two single-condition resources.
fn chain_fixture() -> (SocialGraph, PolicyStore, Vec<ResourceId>) {
    let mut g = SocialGraph::new();
    for i in 0..12 {
        g.add_node(&format!("u{i}"));
    }
    let friend = g.intern_label("friend");
    let colleague = g.intern_label("colleague");
    for i in 0..11u32 {
        g.add_edge(
            NodeId(i),
            NodeId(i + 1),
            if i % 3 == 0 { colleague } else { friend },
        );
    }
    for i in (0..12u32).step_by(2) {
        g.set_node_attr(NodeId(i), "age", i64::from(18 + i));
    }
    let mut store = PolicyStore::new();
    let r0 = store.register_resource(NodeId(0));
    store.allow(r0, "friend+[1..3]", &mut g).unwrap();
    let r1 = store.register_resource(NodeId(5));
    store
        .allow(r1, "colleague*[1..2]{age>=20}", &mut g)
        .unwrap();
    (g, store, vec![r0, r1])
}

/// `Deployment::from_graph` parity: ingesting an existing graph +
/// policy store over the wire preserves ids and semantics.
fn from_graph_preserves_ids_and_semantics(unix: bool) {
    let (g, store, rids) = chain_fixture();
    let (_handles, addrs) = fleet(3, unix);
    let net = Deployment::networked_with(addrs, SEED).from_graph(&g, store.clone());
    let single = Deployment::online().from_graph(&g, store.clone());
    let sharded = Deployment::sharded_with(ShardAssignment::hashed(3, SEED)).from_graph(&g, store);
    common::assert_services_agree(single.reads(), net.reads(), &rids);
    common::assert_services_agree(sharded.reads(), net.reads(), &rids);
    // Placement agrees with the in-process twin member for member.
    let (net, sharded) = (net.as_networked().unwrap(), sharded.as_sharded().unwrap());
    for m in 0..12u32 {
        assert_eq!(net.member_shard(NodeId(m)), sharded.member_shard(NodeId(m)));
    }
}

#[test]
fn tcp_from_graph_preserves_ids_and_semantics() {
    from_graph_preserves_ids_and_semantics(false);
}

#[test]
fn uds_from_graph_preserves_ids_and_semantics() {
    from_graph_preserves_ids_and_semantics(true);
}

/// A 180-member graph whose bulk load spans many epochs, built against
/// the 2-shard placement so that the staged-state cases of batched
/// ingest are certain to occur:
///
/// * the member phase ends mid-batch, so the last members' ages are
///   still staged when the edge phase starts — and the first edges
///   ghost exactly those members onto the other shard;
/// * a hub follows members on the other shard back to back, so its
///   ghost there is staged once and reused inside one batch;
/// * a ring and chords over everyone add ghosts that later batches
///   reuse.
///
/// Every resource is gated on age; the first two check it at the last
/// members' ghosts before walking on from them.
fn many_epochs_fixture() -> (SocialGraph, PolicyStore, Vec<ResourceId>) {
    const N: u32 = 180;
    let place = ShardAssignment::hashed(2, SEED);
    let mut g = SocialGraph::new();
    for i in 0..N {
        let v = g.add_node(&format!("p{i:03}"));
        g.set_node_attr(v, "age", i64::from(15 + (i * 13) % 60));
        if i % 3 == 0 {
            g.set_node_attr(v, "tier", i64::from(i % 5));
        }
    }
    let shard = |v: u32| place.shard_of(&format!("p{v:03}"));
    // The first member (from the front) on the other shard than `v`.
    let across = |v: u32, skip: usize| {
        (0..N)
            .filter(|&u| shard(u) != shard(v))
            .nth(skip)
            .expect("both shards are populated")
    };
    let (friend, colleague, follows) = (
        g.intern_label("friend"),
        g.intern_label("colleague"),
        g.intern_label("follows"),
    );
    // The last members first: their attributes are the staged ones.
    let last: Vec<u32> = (N - 8..N).rev().collect();
    for (k, &v) in last.iter().enumerate() {
        g.add_edge(NodeId(across(v, k)), NodeId(v), friend);
        g.add_edge(NodeId(v), NodeId(across(v, k + 8)), colleague);
    }
    let hub = 0;
    for k in 0..30 {
        g.add_edge(NodeId(hub), NodeId(across(hub, k)), follows);
    }
    for i in 0..N {
        g.add_edge(NodeId(i), NodeId((i + 1) % N), friend);
        if i % 4 == 1 {
            g.add_edge(NodeId(i), NodeId((i * 7 + 3) % N), colleague);
        }
    }
    let mut store = PolicyStore::new();
    let mut rids = Vec::new();
    for (owner, rule) in [
        // Through the last members' ghosts, where the age is checked
        // before the walk goes on.
        (across(N - 1, 0), "friend+[1]{age>=30}/colleague+[1]"),
        (across(N - 2, 1), "friend+[1]{age>=40}/colleague+[1]"),
        (N - 1, "colleague+[1]{age>=30}/friend+[1..2]"),
        (hub, "follows+[1]{age>=35}"),
        (N - 4, "friend-[1..3]{age>=50}"),
    ] {
        let rid = store.register_resource(NodeId(owner));
        store.allow(rid, rule, &mut g).unwrap();
        rids.push(rid);
    }
    (g, store, rids)
}

/// The shard ops a bulk load of `g` stages under `place`: one
/// `AddNode` and one `SetAttr` per attribute for every home copy and
/// every ghost replica (a ghost copies its member's whole tuple, since
/// attributes load before edges), and one `AddEdge` per copy of an
/// edge. Returns `(ops, copies, edge copies)`.
fn bulk_load_ops(g: &SocialGraph, place: &ShardAssignment) -> (usize, usize, usize) {
    let home = |v: NodeId| place.shard_of(g.node_name(v));
    let attrs = |v: NodeId| g.node_attrs(v).iter().count();
    let mut ops: usize = g.nodes().map(|v| 1 + attrs(v)).sum();
    let (mut ghosts, mut edge_copies) = (HashSet::new(), 0);
    for (_, e) in g.edges() {
        let (s, d) = (home(e.src), home(e.dst));
        edge_copies += if s == d { 1 } else { 2 };
        if s != d {
            for (member, shard) in [(e.dst, s), (e.src, d)] {
                if ghosts.insert((member, shard)) {
                    ops += 1 + attrs(member);
                }
            }
        }
    }
    let copies = g.num_nodes() + ghosts.len();
    (ops + edge_copies, copies, edge_copies)
}

/// A bulk load of more than three epochs' worth of shard ops commits
/// one epoch per [`MAX_EPOCH_OPS`] ops, not one per mutation, and the
/// result is the in-process twins' graph: networked(2) ≡ online ≡
/// sharded(2) on every read, and every `explain` walk is a witness of
/// its rule. A shard killed and restarted empty heals through the
/// bounded op-log replay to the same answers.
fn from_graph_across_many_epochs_matches_twins(unix: bool) {
    let (g, store, rids) = many_epochs_fixture();
    let place = ShardAssignment::hashed(2, SEED);
    let (ops, copies, edge_copies) = bulk_load_ops(&g, &place);
    assert!(ops >= 3 * MAX_EPOCH_OPS, "{ops} ops span several epochs");

    let (mut handles, addrs) = fleet(2, unix);
    let net = Deployment::networked_with(addrs, SEED).from_graph(&g, store.clone());
    let online = Deployment::online().from_graph(&g, store.clone());
    let sharded = Deployment::sharded_with(place).from_graph(&g, store.clone());
    let agree = |net: &ServiceInstance| {
        common::assert_services_agree(online.reads(), net.reads(), &rids);
        common::assert_services_agree(sharded.reads(), net.reads(), &rids);
        for &rid in &rids {
            // The shards hold the in-process shards' graphs, ghost
            // attributes included: the same read does the same work.
            assert_eq!(
                net.reads().audience_batch_with_stats(&[rid]).unwrap(),
                sharded.reads().audience_batch_with_stats(&[rid]).unwrap(),
                "{rid:?}: audience and census"
            );
            let path = &store.rules_for(rid)[0].conditions[0].path;
            for m in g.nodes() {
                if let Some(Explanation::Rule { walks }) = net.reads().explain(rid, m).unwrap() {
                    for w in &walks {
                        common::assert_witness_valid(&g, w.start, m, path, &w.hops);
                    }
                }
            }
        }
    };
    agree(&net);

    let sys = net.as_networked().unwrap();
    assert_eq!(
        sys.num_relationships(),
        g.num_edges(),
        "each edge recorded once"
    );
    let epoch = sys.epoch();
    assert!(
        epoch <= (ops.div_ceil(MAX_EPOCH_OPS) + 1) as u64,
        "{ops} shard ops took {epoch} epochs: the load did not batch"
    );
    let census = sys.shard_census().unwrap();
    let sum = |f: fn(&(u64, u64, u64, u64)) -> u64| census.iter().map(f).sum::<u64>() as usize;
    assert_eq!(sum(|c| c.0 + c.1), copies, "home copies and ghosts");
    assert_eq!(sum(|c| c.2), edge_copies, "edge copies");
    assert!(census.iter().all(|c| c.3 == epoch), "no shard lags");

    // Restart shard 1 empty on a fresh endpoint: it is replayed the
    // whole op log, in jumps of at most `MAX_EPOCH_OPS` ops.
    handles[1].kill();
    let fresh = if unix {
        ShardAddr::Unix(std::env::temp_dir().join(format!(
            "socialreach-many-epochs-{}.sock",
            std::process::id()
        )))
    } else {
        ShardAddr::Tcp("127.0.0.1:0".to_owned())
    };
    let server = ShardServer::bind(&fresh).expect("rebind");
    sys.retarget(1, server.local_addr().clone());
    handles[1] = server.spawn();
    agree(&net);
    let census = sys.shard_census().unwrap();
    assert!(
        census.iter().all(|c| c.3 == epoch),
        "the replay lands on the router's epoch"
    );
    assert_eq!(sys.epoch(), epoch, "a replay commits no new epoch");
}

#[test]
fn tcp_from_graph_across_many_epochs_matches_twins() {
    from_graph_across_many_epochs_matches_twins(false);
}

#[test]
fn uds_from_graph_across_many_epochs_matches_twins() {
    from_graph_across_many_epochs_matches_twins(true);
}

// ---------------------------------------------------------------------
// Property: random workloads through the wire
// ---------------------------------------------------------------------

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];

fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (3..9usize).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..3usize, 10..60i64), 0..22).prop_map(
            move |edges| {
                let mut g = SocialGraph::new();
                for i in 0..n {
                    g.add_node(&format!("u{i}"));
                }
                for l in LABELS {
                    g.intern_label(l);
                }
                for (i, (s, t, l, age)) in edges.iter().enumerate() {
                    let label = g.vocab().label(LABELS[*l]).unwrap();
                    g.add_edge(NodeId(*s), NodeId(*t), label);
                    let node = NodeId((i as u32 + s + t) % n as u32);
                    g.set_node_attr(node, "age", *age);
                }
                g
            },
        )
    })
}

fn path_text_strategy() -> impl Strategy<Value = String> {
    let step = (0..3usize, 0..3usize, 1..3u32, 0..2u32, 0..5usize).prop_map(
        |(label, dir, lo, extra, shape)| {
            let dir = ["+", "-", "*"][dir];
            let hi = lo + extra;
            let depths = match shape {
                0 => format!("[{lo}]"),
                1 => format!("[{lo}..{hi}]"),
                2 => format!("[{lo},{}]", hi + 2),
                3 => format!("[{lo}..]"),
                _ => format!("[{lo}..{hi}]{{age>=30}}"),
            };
            format!("{}{}{}", LABELS[label], dir, depths)
        },
    );
    proptest::collection::vec(step, 1..3).prop_map(|steps| steps.join("/"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generic differential harness on random graphs × policies,
    /// instantiated at in-process sharded(2) vs networked(2) over TCP
    /// (every evaluation crosses the wire).
    #[test]
    fn tcp_networked_agrees_on_random_workloads(
        graph in graph_strategy(),
        policies in proptest::collection::vec((0..8u32, path_text_strategy()), 1..4),
    ) {
        let mut g = graph;
        let n = g.num_nodes() as u32;
        let mut store = PolicyStore::new();
        let mut rids = Vec::new();
        for (owner_ix, text) in &policies {
            let rid = store.register_resource(NodeId(owner_ix % n));
            store.allow(rid, text, &mut g).expect("generated paths parse");
            rids.push(rid);
        }
        let (_handles, addrs) = fleet(2, false);
        let assignment = ShardAssignment::hashed(2, 17);
        let net = ServiceInstance::Networked(
            socialreach_core::NetworkedSystem::from_graph(&addrs, assignment.clone(), &g, store.clone())
                .expect("fleet reachable"),
        );
        let sharded = Deployment::sharded_with(assignment).from_graph(&g, store);
        common::assert_services_agree(sharded.reads(), net.reads(), &rids);
    }
}

// ---------------------------------------------------------------------
// Concurrency: pooled connections and session lifetimes
// ---------------------------------------------------------------------

/// Four threads read one networked(2) deployment at once — mixed
/// `check`, `explain` and `audience_batch` — through one router whose
/// connection pool they share. Every answer equals the single-graph
/// twin's, and every `explain` walk is a valid witness.
fn concurrent_readers_match_the_online_twin(unix: bool) {
    let (g, store, rids) = chain_fixture();
    let (_handles, addrs) = fleet(2, unix);
    let net = Deployment::networked_with(addrs, SEED).from_graph(&g, store.clone());
    let online = Deployment::online().from_graph(&g, store.clone());
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let (net, online, g, store, rids) = (net.reads(), online.reads(), &g, &store, &rids);
            scope.spawn(move || {
                for i in 0..24u32 {
                    let rid = rids[((t + i) % 2) as usize];
                    let m = NodeId((5 * t + 7 * i) % 12);
                    let want = online.check(rid, m).unwrap();
                    match (t + i) % 3 {
                        0 => assert_eq!(net.check(rid, m).unwrap(), want, "{rid:?} {m}"),
                        1 => {
                            let explained = net.explain(rid, m).unwrap();
                            assert_eq!(explained.is_some(), want == Decision::Grant);
                            if let Some(Explanation::Rule { walks }) = explained {
                                let path = &store.rules_for(rid)[0].conditions[0].path;
                                for w in &walks {
                                    common::assert_witness_valid(g, w.start, m, path, &w.hops);
                                }
                            }
                        }
                        _ => assert_eq!(
                            net.audience_batch(rids).unwrap(),
                            online.audience_batch(rids).unwrap()
                        ),
                    }
                }
            });
        }
    });
}

#[test]
fn tcp_concurrent_readers_match_the_online_twin() {
    concurrent_readers_match_the_online_twin(false);
}

#[test]
fn uds_concurrent_readers_match_the_online_twin() {
    concurrent_readers_match_the_online_twin(true);
}

/// A raw reader races the router's writer on one shard. Each read is
/// two rounds of one session: bit 0 from the owner, then bit 1 from the
/// owner again. A served read must answer both rounds with the audience
/// at the epoch its session opened at; otherwise it is refused with a
/// retryable refusal (the open with `EpochMismatch`, the round after a
/// commit with `UnknownEval`). Never a mix of two epochs — the age a
/// commit flips would otherwise reach round 2 only. The reader paces
/// the writer, so every run has reads that straddle a commit (refused)
/// and reads that cannot (served).
fn reader_racing_a_writer_sees_one_epoch_or_a_retry(unix: bool) {
    const N: usize = 6;
    const RULE: &str = "friend+[1..]{age>=30}";
    let (_handles, addrs) = fleet(1, unix);
    let mut net = socialreach_core::NetworkedSystem::connect(&addrs, SEED).expect("fleet");
    let mut g = SocialGraph::new();
    let mut members = Vec::new();
    for i in 0..N {
        let name = format!("r{i}");
        members.push(net.add_user(&name));
        g.add_node(&name);
        net.set_user_attr(members[i], "age", AttrValue::Int(20));
        g.set_node_attr(members[i], "age", 20i64);
    }
    for w in members.windows(2) {
        net.add_relationship(w[0], "friend", w[1]);
        g.connect(w[0], "friend", w[1]);
    }
    let path = parse_path(RULE, g.vocab_mut()).unwrap();
    let owner = members[0];
    let audience = move |g: &SocialGraph| evaluate_reference(g, owner, &path, None).matched;
    // Audience per epoch, recorded before the epoch can be published.
    let history = Mutex::new(HashMap::from([(net.epoch(), audience(&g))]));
    let under = |matched: &[WireMatch], bit: u32| -> Vec<NodeId> {
        let mut members: Vec<NodeId> = matched
            .iter()
            .filter(|m| m.mask >> bit & 1 == 1)
            .map(|m| NodeId(m.member))
            .collect();
        members.sort_unstable();
        members
    };

    std::thread::scope(|scope| {
        // Each message asks for one commit; a sender, if any, hears
        // when it has landed.
        let (commits, requests) = mpsc::channel::<Option<mpsc::Sender<()>>>();
        let history = &history;
        scope.spawn(move || {
            // Every commit flips one member across the rule's age bar.
            let mut ages = [20i64; N];
            for (i, landed) in requests.into_iter().enumerate() {
                let j = 1 + i % (N - 1);
                ages[j] = 60 - ages[j];
                g.set_node_attr(members[j], "age", ages[j]);
                history
                    .lock()
                    .unwrap()
                    .insert(net.epoch() + 1, audience(&g));
                net.set_user_attr(members[j], "age", AttrValue::Int(ages[j]));
                if let Some(landed) = landed {
                    landed.send(()).unwrap();
                }
            }
        });
        let commit = |wait: bool| {
            let (tx, rx) = mpsc::channel();
            commits.send(wait.then_some(tx)).unwrap();
            if wait {
                rx.recv().unwrap();
            }
        };
        let mut raw = common::RawClient::dial(&addrs[0]);
        let (mut served, mut refused) = (0, 0);
        for eval in 1..=40u64 {
            // Reads cycle through a commit that may land anywhere in the
            // read (phases 0 and 2), one forced between its rounds (1),
            // and none in flight (3).
            let phase = eval % 4;
            if phase != 1 {
                commit(phase == 3);
            }
            let Response::Census { epoch, .. } = raw.call(&Request::Census) else {
                panic!("expected a census")
            };
            let want = history.lock().unwrap()[&epoch].clone();
            let session = SessionSpec::Path {
                epoch,
                path: RULE.into(),
                word: 0,
                parents: false,
            };
            let first = raw.round(eval, Some(session), vec![common::start_seed(owner.0, 1)]);
            if phase == 1 {
                commit(true);
            }
            let second = raw.round(eval, None, vec![common::start_seed(owner.0, 2)]);
            match (first, second) {
                (Ok((round1, _)), Ok((round2, _))) => {
                    assert_eq!(
                        under(&round1, 0),
                        want,
                        "round 1 of a read at epoch {epoch}"
                    );
                    assert_eq!(
                        under(&round2, 1),
                        want,
                        "round 2 of a read at epoch {epoch}"
                    );
                    assert_ne!(phase, 1, "a read straddling a commit was served");
                    served += 1;
                }
                (Ok(_) | Err(WireRefusal::EpochMismatch { .. }), Err(refusal)) => {
                    assert_eq!(refusal, WireRefusal::UnknownEval { eval });
                    assert_ne!(phase, 3, "a read between commits was refused");
                    refused += 1;
                }
                other => panic!("neither one epoch nor a typed retry: {other:?}"),
            }
        }
        assert!(
            served >= 10 && refused >= 10,
            "{served} served, {refused} refused"
        );
        drop(commits);
    });
}

#[test]
fn tcp_reader_racing_a_writer_sees_one_epoch_or_a_retry() {
    reader_racing_a_writer_sees_one_epoch_or_a_retry(false);
}

#[test]
fn uds_reader_racing_a_writer_sees_one_epoch_or_a_retry() {
    reader_racing_a_writer_sees_one_epoch_or_a_retry(true);
}
