//! Transport fault injection for the networked deployment: a byte-level
//! TCP proxy sits between the router and one real shard process and
//! tears frames mid-byte, corrupts payload bytes, and stalls past the
//! read timeout. Every fault must surface as a **typed**
//! [`EvalError::Remote`] — never a wrong decision, never a torn epoch —
//! and once the fault clears, the same router must heal (re-dial,
//! replay) and agree with an in-process twin again. A second group of
//! tests speaks the wire protocol raw to a shard server and proves the
//! round exchange is idempotent under duplicated and reordered export
//! batch delivery.

mod common;

use common::{start_seed, RawClient};
use socialreach_core::remote::proto::{
    Request, Response, SessionSpec, ShardOp, WireMatch, WirePlanNode, WireRefusal,
};
use socialreach_core::remote::{spawn_local_fleet, NetworkedSystem};
use socialreach_core::{
    AccessService, Applied, Deployment, EvalError, MutateService, Mutation, RemoteError,
    ResourceId, ServiceInstance, ShardAddr,
};
use socialreach_graph::NodeId;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The fault proxy
// ---------------------------------------------------------------------

/// What the proxy does to the **response** direction (shard → router).
/// Requests always pass through untouched: the faults under test are
/// the ones the router must survive while *reading*.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Forward bytes verbatim.
    Pass,
    /// Forward the first 4 bytes of the next chunk (half a frame
    /// header), then sever the connection: a torn frame.
    Tear,
    /// Stop forwarding (connection stays open): the router's read must
    /// give up via its timeout, not hang.
    Stall,
    /// Flip one bit in every forwarded chunk: the CRC must catch it.
    Corrupt,
    /// Forward verbatim until a `Prepared` response arrives with this
    /// many earlier ones passed, then tear it and the next response:
    /// the router's one retry of the prepare fails at its handshake,
    /// and whatever the router sends after that is answered again.
    TearPrepared(usize),
    /// Tear the next this-many responses, then forward verbatim.
    TearNext(usize),
}

/// Spawns a TCP proxy in front of `upstream`. Returns the proxy's
/// address, the shared fault mode and a count of the connections the
/// router dialed through it. Connections dialed while a fault mode is
/// active are faulted too (so the router's internal revive-and-retry
/// cannot silently mask the fault from the test).
fn spawn_proxy(upstream: String) -> (ShardAddr, Arc<Mutex<Mode>>, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
    let addr = ShardAddr::Tcp(listener.local_addr().unwrap().to_string());
    let mode = Arc::new(Mutex::new(Mode::Pass));
    let shared = Arc::clone(&mode);
    let dials = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&dials);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            counted.fetch_add(1, Ordering::SeqCst);
            let Ok(server) = TcpStream::connect(&upstream) else {
                continue;
            };
            // Router → shard: verbatim.
            let (mut c_in, mut s_out) = (
                client.try_clone().expect("clone"),
                server.try_clone().expect("clone"),
            );
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut c_in, &mut s_out);
                let _ = s_out.shutdown(Shutdown::Both);
            });
            // Shard → router: apply the fault mode.
            let mode = Arc::clone(&shared);
            std::thread::spawn(move || pump_faulty(server, client, mode));
        }
    });
    (addr, mode, dials)
}

fn pump_faulty(mut from: TcpStream, mut to: TcpStream, mode: Arc<Mutex<Mode>>) {
    let mut buf = [0u8; 8192];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        loop {
            let mut current = mode.lock().unwrap();
            match *current {
                Mode::TearPrepared(passed) => {
                    if buf[..n].windows(10).any(|w| w == b"\"Prepared\"") {
                        *current = match passed.checked_sub(1) {
                            Some(left) => Mode::TearPrepared(left),
                            // This response and the retry's handshake.
                            None => Mode::TearNext(2),
                        };
                        if passed == 0 {
                            continue;
                        }
                    }
                    if to.write_all(&buf[..n]).is_err() {
                        return;
                    }
                    break;
                }
                Mode::Pass => {
                    if to.write_all(&buf[..n]).is_err() {
                        return;
                    }
                    break;
                }
                Mode::Tear | Mode::TearNext(_) => {
                    if let Mode::TearNext(left) = *current {
                        *current = if left > 1 {
                            Mode::TearNext(left - 1)
                        } else {
                            Mode::Pass
                        };
                    }
                    let _ = to.write_all(&buf[..n.min(4)]);
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
                Mode::Corrupt => {
                    let mut bad = buf[..n].to_vec();
                    bad[n - 1] ^= 0x20;
                    if to.write_all(&bad).is_err() {
                        return;
                    }
                    break;
                }
                // Re-check the mode until the stall is lifted; the
                // router gives up on this connection via its read
                // timeout long before then.
                Mode::Stall => {
                    drop(current);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Proxied fleet fixture
// ---------------------------------------------------------------------

/// A 2-shard TCP fleet with shard 0 behind the fault proxy, populated
/// with a small friendship chain, plus an identical in-process twin.
/// The proxy handles stay in `Mode::Pass` during population.
struct Rig {
    net: NetworkedSystem,
    twin: ServiceInstance,
    mode: Arc<Mutex<Mode>>,
    /// Connections the router dialed to shard 0 (through the proxy).
    dials: Arc<AtomicUsize>,
    rid: ResourceId,
    members: Vec<NodeId>,
    _handles: Vec<socialreach_core::ShardHandle>,
}

fn rig() -> Rig {
    let handles = spawn_local_fleet(2, false).expect("fleet spawns");
    let ShardAddr::Tcp(upstream) = handles[0].addr().clone() else {
        panic!("tcp fleet")
    };
    let (proxy_addr, mode, dials) = spawn_proxy(upstream);
    let addrs = vec![proxy_addr, handles[1].addr().clone()];
    let mut net = NetworkedSystem::connect(&addrs, 7).expect("router connects");

    let mut g = socialreach_graph::SocialGraph::new();
    let mut members = Vec::new();
    for i in 0..8u32 {
        let name = format!("u{i}");
        members.push(net.add_user(&name));
        g.add_node(&name);
    }
    let friend = g.intern_label("friend");
    for i in 0..7u32 {
        net.add_relationship(members[i as usize], "friend", members[i as usize + 1]);
        g.add_edge(NodeId(i), NodeId(i + 1), friend);
    }
    let rid = net.add_resource(members[0]);
    net.add_rule(rid, "friend+[1..3]").expect("rule parses");
    let mut store = socialreach_core::PolicyStore::new();
    let twin_rid = store.register_resource(NodeId(0));
    assert_eq!(twin_rid, rid);
    store.allow(rid, "friend+[1..3]", &mut g).unwrap();
    let twin = Deployment::online().from_graph(&g, store);

    Rig {
        net,
        twin,
        mode,
        dials,
        rid,
        members,
        _handles: handles,
    }
}

fn set_mode(rig: &Rig, m: Mode) {
    *rig.mode.lock().unwrap() = m;
}

fn add_user(name: &str) -> Mutation {
    Mutation::AddUser {
        name: name.to_owned(),
    }
}

/// Every shard's committed epoch, asked directly (not through a proxy).
fn fleet_epochs(handles: &[socialreach_core::ShardHandle]) -> Vec<u64> {
    handles
        .iter()
        .map(|h| match RawClient::dial(h.addr()).call(&Request::Census) {
            Response::Census { epoch, .. } => epoch,
            other => panic!("expected a census, got {other:?}"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Faults through the proxy
// ---------------------------------------------------------------------

/// A frame torn mid-header (proxy severs after 4 bytes) surfaces as a
/// typed remote error — on the *retry path too*, because revival dials
/// through the same tearing proxy. Once the fault clears the very same
/// router heals and agrees with the twin.
#[test]
fn torn_mid_frame_is_typed_and_heals() {
    let rig = rig();
    let want = rig.twin.reads().audience(rig.rid).unwrap();
    assert_eq!(rig.net.audience(rig.rid).unwrap(), want, "baseline agrees");

    set_mode(&rig, Mode::Tear);
    match rig.net.audience(rig.rid) {
        Err(EvalError::Remote(e)) => {
            assert!(
                matches!(e, RemoteError::Io { .. } | RemoteError::Connect { .. }),
                "torn frame classifies as a transport fault, got {e}"
            );
        }
        Ok(_) => panic!("a torn frame must not produce a decision"),
        Err(other) => panic!("expected a typed remote error, got {other}"),
    }

    set_mode(&rig, Mode::Pass);
    assert_eq!(
        rig.net.audience(rig.rid).unwrap(),
        want,
        "after the fault clears the router re-dials and agrees again"
    );
}

/// A stalled shard (connection open, no bytes) must bound the read by
/// the configured timeout and surface `Timeout` (or `Io`) — never
/// hang, never guess.
#[test]
fn stall_past_read_timeout_is_typed_and_bounded() {
    let mut r = rig();
    let want = r.twin.reads().audience(r.rid).unwrap();
    r.net.set_read_timeout(Duration::from_millis(250));
    assert_eq!(
        r.net.audience(r.rid).unwrap(),
        want,
        "short patience is fine"
    );

    set_mode(&r, Mode::Stall);
    let t0 = Instant::now();
    match r.net.audience(r.rid) {
        Err(EvalError::Remote(e)) => assert!(
            matches!(e, RemoteError::Timeout { .. } | RemoteError::Io { .. }),
            "stall classifies as timeout-flavored, got {e}"
        ),
        Ok(_) => panic!("a stalled read must not produce a decision"),
        Err(other) => panic!("expected a typed remote error, got {other}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "the read timeout bounds a stalled shard; took {:?}",
        t0.elapsed()
    );

    set_mode(&r, Mode::Pass);
    assert_eq!(r.net.audience(r.rid).unwrap(), want, "stall lifted, healed");
}

/// A stall between a lane's send and its receive — the round reached
/// the shard, its response never comes back — surfaces as `Timeout`,
/// and the stalled connection never returns to the pool: the failed
/// read and its retry each give one connection up, and once the stall
/// lifts the next read heals on a freshly dialed one. (A returned
/// connection would be reused instead, its stale response read as the
/// answer to a later request.)
#[test]
fn a_stall_between_send_and_receive_times_out_and_heals_on_a_fresh_connection() {
    let mut r = rig();
    let want = r.twin.reads().audience(r.rid).unwrap();
    r.net.set_read_timeout(Duration::from_millis(250));
    assert_eq!(r.net.audience(r.rid).unwrap(), want, "warm pool");
    let warm = r.dials.load(Ordering::SeqCst);

    set_mode(&r, Mode::Stall);
    match r.net.audience(r.rid) {
        Err(EvalError::Remote(RemoteError::Timeout { .. })) => {}
        Err(other) => panic!("expected a Timeout, got {other}"),
        Ok(_) => panic!("a stalled read must not produce a decision"),
    }
    assert_eq!(
        r.dials.load(Ordering::SeqCst),
        warm + 1,
        "the read used its pooled connection; only the retry dialed"
    );

    set_mode(&r, Mode::Pass);
    assert_eq!(r.net.audience(r.rid).unwrap(), want, "stall lifted, healed");
    assert_eq!(
        r.dials.load(Ordering::SeqCst),
        warm + 2,
        "neither stalled connection was pooled: the healing read dialed"
    );
    assert_eq!(r.net.audience(r.rid).unwrap(), want);
    assert_eq!(
        r.dials.load(Ordering::SeqCst),
        warm + 2,
        "and a healthy connection is reused"
    );
}

/// A flipped payload bit is caught by the frame CRC and classified
/// `Corrupt` — a non-retryable fault that still never turns into a
/// decision, and clears once the wire is clean again.
#[test]
fn corrupt_byte_is_caught_by_crc() {
    let rig = rig();
    let want = rig.twin.reads().audience(rig.rid).unwrap();
    assert_eq!(rig.net.audience(rig.rid).unwrap(), want);

    set_mode(&rig, Mode::Corrupt);
    match rig.net.audience(rig.rid) {
        Err(EvalError::Remote(RemoteError::Corrupt { detail, .. })) => {
            assert!(!detail.is_empty(), "corruption carries a detail message");
        }
        Ok(_) => panic!("a corrupted frame must not produce a decision"),
        Err(other) => panic!("expected Corrupt, got {other}"),
    }

    set_mode(&rig, Mode::Pass);
    assert_eq!(
        rig.net.audience(rig.rid).unwrap(),
        want,
        "the poisoned connection was dropped; a clean re-dial agrees"
    );
}

/// A mutation attempted while one shard is unreachable (stalled past
/// the timeout) must fail typed with **no torn epoch**: the epoch and
/// the router's member table are unchanged, and retrying after the
/// fault clears applies the mutation exactly once.
#[test]
fn mutation_during_stall_leaves_no_torn_epoch() {
    let mut r = rig();
    r.net.set_read_timeout(Duration::from_millis(250));
    let epoch_before = r.net.epoch();
    let members_before = r.net.num_members();

    set_mode(&r, Mode::Stall);
    assert!(
        matches!(
            r.net.apply(&add_user("newcomer")),
            Err(EvalError::Remote(_))
        ),
        "a mutation cannot commit through a stalled shard"
    );
    assert_eq!(
        r.net.epoch(),
        epoch_before,
        "failed mutation: epoch untouched"
    );
    assert_eq!(
        r.net.num_members(),
        members_before,
        "failed mutation: member table untouched"
    );

    set_mode(&r, Mode::Pass);
    let noah = r.net.add_user("newcomer");
    r.net.add_relationship(r.members[0], "friend", noah);
    assert_eq!(r.net.epoch(), epoch_before + 2, "two committed epochs");

    // The twin applies the same two mutations; full agreement resumes.
    let mut g2 = socialreach_graph::SocialGraph::new();
    for i in 0..8 {
        g2.add_node(&format!("u{i}"));
    }
    let friend = g2.intern_label("friend");
    for i in 0..7u32 {
        g2.add_edge(NodeId(i), NodeId(i + 1), friend);
    }
    g2.add_node("newcomer");
    g2.add_edge(NodeId(0), NodeId(8), friend);
    let mut store = socialreach_core::PolicyStore::new();
    let rid = store.register_resource(NodeId(0));
    store.allow(rid, "friend+[1..3]", &mut g2).unwrap();
    let twin = Deployment::online().from_graph(&g2, store);
    assert_eq!(
        r.net.audience(r.rid).unwrap(),
        twin.reads().audience(r.rid).unwrap(),
        "exactly-once semantics: the retried mutation is not doubled"
    );
}

/// A durable deployment over a networked fleet: a write whose epoch
/// cannot commit (shard 0's `Prepared` torn, and the handshake of the
/// router's retry too) is refused typed and never logged. The log, the
/// member table and the fleet's epoch are unchanged; the directory
/// reopens over a fresh fleet to exactly the state before the write;
/// and once the fault clears, a retry commits exactly once.
#[test]
fn a_durable_write_the_fleet_cannot_commit_is_typed_and_unlogged() {
    let handles = spawn_local_fleet(2, false).expect("fleet spawns");
    let ShardAddr::Tcp(upstream) = handles[0].addr().clone() else {
        panic!("tcp fleet")
    };
    let (proxy_addr, mode, _) = spawn_proxy(upstream);
    let dir = common::DataDir::new("net-durable");
    let deployment = Deployment::networked(vec![proxy_addr, handles[1].addr().clone()]);
    let mut svc = deployment.durable(&dir.0).expect("durable opens");
    let script = common::durable_script();
    for m in &script {
        svc.apply(m).expect("population commits");
    }
    let (logged, members, epochs) = (
        svc.wal_records(),
        svc.reads().num_members(),
        fleet_epochs(&handles),
    );

    *mode.lock().unwrap() = Mode::TearPrepared(0);
    let gus = add_user("Gus");
    match svc.apply(&gus) {
        Err(EvalError::Remote(_)) => {}
        other => panic!("a write the fleet cannot commit is a remote error, got {other:?}"),
    }
    assert_eq!(
        *mode.lock().unwrap(),
        Mode::Pass,
        "the tear hit the prepare"
    );
    assert_eq!(svc.wal_records(), logged, "a refused write is never logged");
    assert_eq!(svc.reads().num_members(), members, "member table untouched");
    assert_eq!(fleet_epochs(&handles), epochs, "no epoch committed");

    let mut twin = common::reference_prefix(&Deployment::online(), script.len());
    let rids = common::rids_after(script.len());
    let fresh = spawn_local_fleet(2, false).expect("fleet spawns");
    let reopened = Deployment::networked(fresh.iter().map(|h| h.addr().clone()).collect())
        .durable(&dir.0)
        .expect("the directory recovers");
    common::assert_services_agree(twin.reads(), reopened.reads(), &rids);
    drop(reopened);

    assert_eq!(
        svc.apply(&gus).expect("the retry commits"),
        Applied::Member(NodeId(members as u32))
    );
    twin.apply(&gus).unwrap();
    assert_eq!(svc.wal_records(), logged + 1, "logged exactly once");
    assert_eq!(svc.reads().num_members(), members + 1);
    assert_eq!(
        fleet_epochs(&handles),
        epochs.iter().map(|e| e + 1).collect::<Vec<_>>(),
        "one epoch committed"
    );
    common::assert_services_agree(twin.reads(), svc.reads(), &rids);
}

/// A bulk load that loses a shard partway — its fourth `Prepared`
/// response torn, and the handshake of the router's retry too — fails
/// with a typed error, not a panic or a hang, and leaves no torn
/// epoch: both shards hold exactly the three committed epochs, and
/// neither keeps the failed one staged (the torn shard had staged it
/// before its response was lost).
#[test]
fn a_shard_torn_mid_ingest_fails_the_load_typed_with_nothing_staged() {
    let handles = spawn_local_fleet(2, false).expect("fleet spawns");
    let ShardAddr::Tcp(upstream) = handles[1].addr().clone() else {
        panic!("tcp fleet")
    };
    let (proxy_addr, mode, _) = spawn_proxy(upstream);
    let addrs = vec![handles[0].addr().clone(), proxy_addr];
    let mut g = socialreach_graph::SocialGraph::new();
    for i in 0..120u32 {
        let v = g.add_node(&format!("m{i}"));
        g.set_node_attr(v, "age", i64::from(20 + i % 40));
    }
    let friend = g.intern_label("friend");
    for i in 0..119u32 {
        g.add_edge(NodeId(i), NodeId(i + 1), friend);
    }

    *mode.lock().unwrap() = Mode::TearPrepared(3);
    let t0 = Instant::now();
    let load = NetworkedSystem::from_graph(
        &addrs,
        socialreach_graph::ShardAssignment::hashed(2, 7),
        &g,
        socialreach_core::PolicyStore::new(),
    );
    match load {
        Err(RemoteError::Io { .. }) => {}
        Err(other) => panic!("a torn shard is an i/o fault, got {other}"),
        Ok(_) => panic!("the load cannot commit through a torn shard"),
    }
    assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
    assert_eq!(
        *mode.lock().unwrap(),
        Mode::Pass,
        "the tear hit the fourth prepare and the retry's handshake"
    );
    for h in &handles {
        let mut raw = RawClient::dial(h.addr());
        let Response::Census { epoch, .. } = raw.call(&Request::Census) else {
            panic!("expected a census")
        };
        assert_eq!(epoch, 3, "every shard holds the committed epochs");
        // A staged epoch 4 would refuse a prepare of any other epoch.
        assert_eq!(
            raw.call(&Request::Prepare {
                epoch: 5,
                ops: Vec::new(),
            }),
            Response::Prepared { epoch: 5 },
            "no shard keeps the failed epoch staged"
        );
        raw.call(&Request::Abort { epoch: 5 });
    }
}

/// Killing a shard process mid-stream (not merely faulting its bytes)
/// leaves no torn epoch observable: reads fail typed or answer
/// correctly, the epoch never moves without a commit, and a restarted
/// process on a fresh port is healed by op-log replay.
#[test]
fn killed_shard_mid_fixpoint_has_no_torn_epoch() {
    let mut r = rig();
    let want = r.twin.reads().audience(r.rid).unwrap();
    assert_eq!(r.net.audience(r.rid).unwrap(), want);
    let epoch_before = r.net.epoch();

    // Kill the *unproxied* shard process outright.
    let addr_dead = r._handles[1].addr().clone();
    r._handles[1].kill();
    drop(std::mem::take(&mut r._handles));

    match r.net.audience(r.rid) {
        Ok(got) => assert_eq!(got, want, "if a read completes it must be correct"),
        Err(EvalError::Remote(_)) => {}
        Err(other) => panic!("expected a typed remote error, got {other}"),
    }
    assert!(matches!(
        r.net.apply(&add_user("ghostwriter")),
        Err(EvalError::Remote(_))
    ));
    assert_eq!(r.net.epoch(), epoch_before, "no commit, no epoch movement");

    // Restart shard 1 on a fresh endpoint; replay heals it. (Shard 0's
    // server died with the fleet handles too, so restart both.)
    let bind = |old: &ShardAddr| match old {
        ShardAddr::Tcp(_) => ShardAddr::Tcp("127.0.0.1:0".into()),
        ShardAddr::Unix(p) => ShardAddr::Unix(p.with_extension("respawn")),
    };
    let s1 = socialreach_core::ShardServer::bind(&bind(&addr_dead)).expect("rebind");
    r.net.retarget(1, s1.local_addr().clone());
    let _h1 = s1.spawn();
    let s0 = socialreach_core::ShardServer::bind(&ShardAddr::Tcp("127.0.0.1:0".into()))
        .expect("rebind shard 0");
    r.net.retarget(0, s0.local_addr().clone());
    let _h0 = s0.spawn();

    assert_eq!(
        r.net.audience(r.rid).unwrap(),
        want,
        "op-log replay rebuilds both shards; decisions agree again"
    );
}

// ---------------------------------------------------------------------
// Raw-wire delivery faults and session lifetimes
// ---------------------------------------------------------------------

/// Populates a single standalone shard with a friend chain over the raw
/// wire (epoch 1). Returns the client and the session a batched
/// evaluation over `friend+[1..3]` opens with (bit 0 = owner 0, bit 1 =
/// owner 3 in the tests).
fn raw_eval_fixture(addr: &ShardAddr) -> (RawClient, SessionSpec) {
    let mut c = RawClient::dial(addr);
    assert_eq!(
        c.call(&Request::Intern {
            labels: vec!["friend".into()],
            attrs: vec![],
        }),
        Response::Ok
    );
    let mut ops: Vec<ShardOp> = (0..8u32)
        .map(|i| ShardOp::AddNode {
            global: i,
            name: format!("u{i}"),
            ghost: false,
        })
        .collect();
    for i in 0..7u32 {
        ops.push(ShardOp::AddEdge {
            src: i,
            label: "friend".into(),
            dst: i + 1,
        });
    }
    assert_eq!(
        c.call(&Request::Prepare { epoch: 1, ops }),
        Response::Prepared { epoch: 1 }
    );
    assert_eq!(
        c.call(&Request::Commit { epoch: 1 }),
        Response::Committed { epoch: 1 }
    );
    (c, chain_session())
}

fn chain_session() -> SessionSpec {
    common::one_step_session(1, "friend+[1..3]")
}

fn merge(into: &mut HashMap<u32, u64>, matched: &[WireMatch]) {
    for m in matched {
        *into.entry(m.member).or_insert(0) |= m.mask;
    }
}

/// Delivering the *same* seed batch twice is a no-op the second time:
/// the masked fixpoint absorbs already-known bits, so a duplicated
/// round (retry after a lost response, a replayed packet) can never
/// double-count or re-export.
#[test]
fn duplicated_round_delivery_is_idempotent() {
    let handles = spawn_local_fleet(1, false).expect("fleet spawns");
    let (mut c, session) = raw_eval_fixture(handles[0].addr());
    let eval = 99;

    let seeds = vec![start_seed(0, 1), start_seed(3, 2)];
    let (m1, e1) = c.round(eval, Some(session), seeds.clone()).unwrap();
    assert!(!m1.is_empty(), "the chain grants someone");

    let (m2, e2) = c.round(eval, None, seeds).unwrap();
    assert!(
        m2.is_empty(),
        "re-delivered seeds add no bits, so no new matches: {m2:?}"
    );
    assert!(e2.is_empty(), "and nothing new to export: {e2:?}");
    drop(e1);
}

/// Seed **sub-batch order does not matter**: delivering batch A then B
/// reaches exactly the same cumulative matches as B then A (the
/// router's chunked delivery may interleave arbitrarily under
/// backpressure).
#[test]
fn reordered_batch_delivery_converges_identically() {
    let handles = spawn_local_fleet(1, false).expect("fleet spawns");

    let batch_a = vec![start_seed(0, 1)];
    let batch_b = vec![start_seed(3, 2)];

    let (mut c1, session) = raw_eval_fixture(handles[0].addr());
    let e1 = 99;
    let mut forward = HashMap::new();
    let (m, _) = c1
        .round(e1, Some(session.clone()), batch_a.clone())
        .unwrap();
    merge(&mut forward, &m);
    let (m, _) = c1.round(e1, None, batch_b.clone()).unwrap();
    merge(&mut forward, &m);

    let mut c2 = RawClient::dial(handles[0].addr());
    let e2 = 123;
    let mut reversed = HashMap::new();
    let (m, _) = c2.round(e2, Some(session), batch_b).unwrap();
    merge(&mut reversed, &m);
    let (m, _) = c2.round(e2, None, batch_a).unwrap();
    merge(&mut reversed, &m);

    assert_eq!(
        forward, reversed,
        "cumulative matches are delivery-order independent"
    );
}

/// A session belongs to the connection that opened it: another
/// connection naming its id — for a round or a trace — is refused as
/// unknown, and the owner's session is untouched by the attempt.
#[test]
fn a_session_is_invisible_from_another_connection() {
    let handles = spawn_local_fleet(1, false).expect("fleet spawns");
    let (mut owner, session) = raw_eval_fixture(handles[0].addr());
    let eval = 7;
    owner
        .round(eval, Some(session), vec![start_seed(0, 1)])
        .unwrap();

    let mut other = RawClient::dial(handles[0].addr());
    assert_eq!(
        other.round(eval, None, vec![start_seed(3, 2)]),
        Err(WireRefusal::UnknownEval { eval })
    );
    assert_eq!(
        other.call(&Request::Trace {
            eval,
            member: 1,
            step: 0,
            depth: 1,
        }),
        Response::Refused(WireRefusal::UnknownEval { eval })
    );
    let (matched, _) = owner.round(eval, None, vec![start_seed(3, 2)]).unwrap();
    assert!(!matched.is_empty(), "the owner's session still serves");
}

/// Opening a connection's next session drops its previous one: the
/// first eval id is then unknown, the second serves.
#[test]
fn a_second_open_on_one_connection_retires_the_first_eval() {
    let handles = spawn_local_fleet(1, false).expect("fleet spawns");
    let (mut c, session) = raw_eval_fixture(handles[0].addr());
    c.round(7, Some(session.clone()), vec![start_seed(0, 1)])
        .unwrap();
    c.round(8, Some(session), vec![start_seed(0, 1)]).unwrap();
    assert_eq!(
        c.round(7, None, vec![start_seed(3, 2)]),
        Err(WireRefusal::UnknownEval { eval: 7 })
    );
    let (matched, _) = c.round(8, None, vec![start_seed(3, 2)]).unwrap();
    assert!(!matched.is_empty(), "the newer session serves");
}

/// A shard refuses a plan whose `children` close a cycle — a child id
/// at or below its parent's, which no compiled plan has — typed, before
/// a session opens, and keeps serving the connection.
#[test]
fn a_cyclic_plan_is_refused_and_the_shard_keeps_serving() {
    let handles = spawn_local_fleet(1, false).expect("fleet spawns");
    let (mut c, session) = raw_eval_fixture(handles[0].addr());
    let cyclic = |children: &[Vec<u16>]| {
        let mut spec = chain_session();
        let node = spec.nodes[0].clone();
        spec.nodes = children
            .iter()
            .map(|kids| WirePlanNode {
                children: kids.clone(),
                ..node.clone()
            })
            .collect();
        spec
    };
    for (tag, spec) in [
        ("self-loop", cyclic(&[vec![0]])),
        ("2-cycle", cyclic(&[vec![1], vec![0]])),
    ] {
        match c.round(5, Some(spec), vec![start_seed(0, 1)]) {
            Err(WireRefusal::BadRequest { detail }) => {
                assert!(detail.contains("not past its parent"), "{tag}: {detail}")
            }
            other => panic!("{tag}: expected a typed refusal, got {other:?}"),
        }
    }
    assert_eq!(
        c.round(5, None, vec![start_seed(0, 1)]),
        Err(WireRefusal::UnknownEval { eval: 5 }),
        "no session was left open"
    );
    let (matched, _) = c.round(6, Some(session), vec![start_seed(0, 1)]).unwrap();
    assert!(!matched.is_empty(), "the shard still serves a trie");
}

/// A seed deeper than its plan node's saturation is refused typed (an
/// exported depth is always saturated, so no router sends one), and
/// the session keeps serving: a seed at the saturation is evaluated.
#[test]
fn a_seed_past_its_saturation_is_refused_and_the_shard_keeps_serving() {
    let handles = spawn_local_fleet(1, false).expect("fleet spawns");
    let (mut c, session) = raw_eval_fixture(handles[0].addr());
    let at_depth = |member, depth| {
        let mut seed = start_seed(member, 1);
        seed.key.depth = depth;
        seed
    };
    c.round(9, Some(session), vec![]).unwrap();
    match c.round(9, None, vec![at_depth(0, 4)]) {
        Err(WireRefusal::BadRequest { detail }) => {
            assert!(detail.contains("saturation"), "{detail}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    let (matched, _) = c.round(9, None, vec![at_depth(5, 3)]).unwrap();
    let members: Vec<u32> = matched.iter().map(|m| m.member).collect();
    assert_eq!(members, vec![5], "depth 3 of friend+[1..3] completes");
    let (matched, _) = c.round(9, None, vec![start_seed(0, 2)]).unwrap();
    assert!(!matched.is_empty(), "the session still serves");
}

/// The last epoch is refused typed — committing it would leave no
/// successor to prepare, freezing the shard's writes — and the shard
/// keeps its epoch, its data and its write path.
#[test]
fn the_last_epoch_is_refused_and_the_shard_keeps_serving() {
    let handles = spawn_local_fleet(1, false).expect("fleet spawns");
    let (mut c, session) = raw_eval_fixture(handles[0].addr());
    let add = |global: u32| ShardOp::AddNode {
        global,
        name: format!("u{global}"),
        ghost: false,
    };
    match c.call(&Request::Prepare {
        epoch: u64::MAX,
        ops: vec![add(8)],
    }) {
        Response::Refused(WireRefusal::BadRequest { detail }) => {
            assert!(detail.contains("no successor"), "{detail}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(
        c.call(&Request::Commit { epoch: u64::MAX }),
        Response::Refused(WireRefusal::EpochMismatch {
            shard_epoch: 1,
            requested: u64::MAX,
        }),
        "nothing was staged"
    );
    let (matched, _) = c.round(3, Some(session), vec![start_seed(0, 1)]).unwrap();
    assert!(!matched.is_empty(), "the shard still serves reads");
    assert_eq!(
        c.call(&Request::Prepare {
            epoch: 2,
            ops: vec![add(8)],
        }),
        Response::Prepared { epoch: 2 }
    );
    assert_eq!(
        c.call(&Request::Commit { epoch: 2 }),
        Response::Committed { epoch: 2 },
        "and still takes writes"
    );
    match c.call(&Request::Census) {
        Response::Census { members, epoch, .. } => assert_eq!((members, epoch), (9, 2)),
        other => panic!("expected a census, got {other:?}"),
    }
}
