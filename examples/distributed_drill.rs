//! Distributed drill: shard servers as **real child processes** behind
//! loopback TCP, driven by one long-lived router — populate the fleet,
//! audit it against an in-process twin, kill a shard process outright,
//! observe typed errors (never wrong answers, never a torn epoch),
//! respawn the shard on a fresh port, and watch op-log replay heal it.
//!
//! ```text
//! cargo run --example distributed_drill
//! ```
//!
//! Runs entirely offline on 127.0.0.1. The example re-invokes itself
//! with `--shard <addr>` for each child, so it is self-contained: no
//! other binary needs to be built. Prints `DISTRIBUTED DRILL PASS` on
//! success.

use socialreach::{
    AccessService, Applied, Deployment, EvalError, MutateService, Mutation, NetworkedSystem,
    NodeId, ShardAddr, ShardServer,
};
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};

/// Child mode: serve one shard until killed.
fn serve_child(addr: &str) -> ! {
    let server = ShardServer::bind(&ShardAddr::parse(addr)).expect("shard binds");
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().expect("flush");
    let _ = server.run();
    std::process::exit(0)
}

/// A shard child process; killed on drop so a failed drill leaves no
/// strays.
struct Shard {
    child: Child,
    addr: ShardAddr,
}

impl Shard {
    fn spawn() -> Shard {
        let mut child = Command::new(std::env::current_exe().expect("own path"))
            .args(["--shard", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("shard child spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("child announces its endpoint");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("LISTENING banner");
        Shard {
            child,
            addr: ShardAddr::parse(addr),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.kill();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--shard" {
        serve_child(&args[2]);
    }

    // --- Fleet up: three shard processes on ephemeral ports. ---------
    let mut shards: Vec<Shard> = (0..3).map(|_| Shard::spawn()).collect();
    let addrs: Vec<ShardAddr> = shards.iter().map(|s| s.addr.clone()).collect();
    println!(
        "fleet up: {}",
        addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut net = NetworkedSystem::connect(&addrs, 42).expect("router connects");

    // --- Populate through the two-phase epoch fence, mirrored into an
    // in-process twin. ------------------------------------------------
    let names = ["ava", "ben", "cleo", "dan", "edith", "femi", "gus"];
    let members: Vec<NodeId> = names.iter().map(|n| net.add_user(n)).collect();
    for w in members.windows(2) {
        net.add_relationship(w[0], "friend", w[1]);
    }
    net.add_relationship(members[6], "colleague", members[0]);
    let rid = net.add_resource(members[0]);
    net.add_rule(rid, "friend+[1..3]").expect("rule parses");

    let mut g = socialreach::SocialGraph::new();
    for n in &names {
        g.add_node(n);
    }
    let friend = g.intern_label("friend");
    let colleague = g.intern_label("colleague");
    for i in 0..5u32 {
        g.add_edge(NodeId(i), NodeId(i + 1), friend);
    }
    g.add_edge(NodeId(6), NodeId(0), colleague);
    let mut store = socialreach::PolicyStore::new();
    let twin_rid = store.register_resource(NodeId(0));
    assert_eq!(twin_rid, rid);
    store.allow(rid, "friend+[1..3]", &mut g).unwrap();
    let twin = Deployment::online().from_graph(&g, store);

    let want = twin.reads().audience(rid).expect("twin audience");
    assert_eq!(
        net.audience(rid).expect("fleet audience"),
        want,
        "fleet ≡ twin after populate"
    );
    println!(
        "populate OK: epoch {}, audience {:?}",
        net.epoch(),
        want.iter().map(|&m| net.member_name(m)).collect::<Vec<_>>()
    );

    // --- Kill one shard process mid-flight. --------------------------
    shards[1].kill();
    println!("killed shard 1 ({})", shards[1].addr);
    let epoch_frozen = net.epoch();
    match net.audience(rid) {
        Ok(got) => assert_eq!(got, want, "a completed read must be correct"),
        Err(EvalError::Remote(e)) => println!("read during outage: typed error ({e})"),
        Err(other) => panic!("expected a typed remote error, got {other}"),
    }
    let zoe = Mutation::AddUser {
        name: "zoe".to_owned(),
    };
    assert!(
        matches!(net.apply(&zoe), Err(EvalError::Remote(_))),
        "a mutation cannot commit without the whole fleet"
    );
    assert_eq!(
        net.epoch(),
        epoch_frozen,
        "failed commit leaves no torn epoch"
    );
    println!("outage OK: mutations refused, epoch frozen at {epoch_frozen}");

    // --- Respawn on a fresh port; op-log replay heals it. ------------
    let replacement = Shard::spawn();
    net.retarget(1, replacement.addr.clone());
    shards[1] = replacement;
    assert_eq!(
        net.audience(rid).expect("healed fleet answers"),
        want,
        "replayed shard agrees with the twin again"
    );

    // --- And the healed fleet keeps mutating. ------------------------
    let Ok(Applied::Member(zoe)) = net.apply(&zoe) else {
        panic!("fleet whole again, the registration commits")
    };
    net.add_relationship(members[0], "friend", zoe);
    let audience = net.audience(rid).expect("audience after heal");
    assert!(
        audience.contains(&zoe),
        "zoe is one friend-hop from the owner"
    );
    println!(
        "recovery OK: epoch {}, audience {:?}",
        net.epoch(),
        audience
            .iter()
            .map(|&m| net.member_name(m))
            .collect::<Vec<_>>()
    );

    net.shutdown_fleet();
    println!("DISTRIBUTED DRILL PASS");
}
