//! Standing a backend up behind the public seam: the four deployments
//! the workloads run against, the shard child processes of the
//! networked one and the scratch directory of the durable one.

use crate::inputs::Inputs;
use crate::stats;
use socialreach_core::{
    AccessService, Deployment, DurableService, MutateService, ServiceInstance, ShardAddr,
    ShardServer,
};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Shards of the sharded and networked deployments: one per core of
/// the two-core sandbox.
pub const SHARDS: u32 = 2;

/// How long a shard child may take to announce its endpoint.
const LISTEN_DEADLINE: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Single,
    Sharded,
    Networked,
    Durable,
}

/// Child mode (`--shard <addr>`): serve one shard until the parent
/// goes away.
pub fn serve_shard(addr: &str) -> ! {
    let server = ShardServer::bind(&ShardAddr::parse(addr)).expect("shard binds");
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().expect("flush banner");
    // The parent holds our stdin open for as long as it lives; EOF
    // means it exited or was killed, and an orphaned shard must not
    // outlive the run. Detached on purpose: `exit` ends it.
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    let _ = server.run();
    std::process::exit(0)
}

/// One shard child process; killed on drop (and so on panic).
pub struct ShardChild {
    child: Child,
    pub addr: ShardAddr,
}

impl ShardChild {
    pub fn spawn() -> Result<ShardChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--shard", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("shard child spawn: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let read = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(read.map(|_| line));
        });
        let banner = rx.recv_timeout(LISTEN_DEADLINE);
        let addr = match &banner {
            Ok(Ok(line)) => line.trim().strip_prefix("LISTENING "),
            _ => None,
        };
        let Some(addr) = addr else {
            // Killing the child closes the pipe, which ends the reader.
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!(
                "shard child did not announce LISTENING: {banner:?}"
            ));
        };
        let addr = ShardAddr::parse(addr);
        reader.join().map_err(|_| "banner reader panicked")?;
        Ok(ShardChild { child, addr })
    }

    pub fn peak_rss_mb(&self) -> f64 {
        stats::peak_rss_mb(self.child.id()).unwrap_or(0.0)
    }
}

impl Drop for ShardChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory removed on drop.
pub struct DirGuard(pub PathBuf);

impl DirGuard {
    pub fn fresh(parent: &Path, tag: &str) -> std::io::Result<DirGuard> {
        let dir = parent.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(DirGuard(dir))
    }
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The service under test. One lives per run, so the size gap between
/// the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Service {
    Plain(ServiceInstance),
    Durable(DurableService),
}

impl Service {
    pub fn reads(&self) -> &dyn AccessService {
        match self {
            Service::Plain(s) => s.reads(),
            Service::Durable(s) => s.reads(),
        }
    }

    pub fn writes(&mut self) -> &mut dyn MutateService {
        match self {
            Service::Plain(s) => s.writes(),
            Service::Durable(s) => s.writes(),
        }
    }
}

/// A backend under test plus whatever it needs kept alive. Field order
/// is drop order: the service closes its sockets and files before the
/// shard processes die and the directory goes.
pub struct Backend {
    pub svc: Service,
    pub fleet: Vec<ShardChild>,
    pub dir: Option<DirGuard>,
    /// Mutations the build pushed through the backend.
    pub ingest_ops: u64,
}

impl Backend {
    /// Builds `kind` over the generated inputs. Scratch files go under
    /// `out`.
    pub fn build(kind: Kind, inputs: &Inputs, out: &Path) -> Result<Backend, String> {
        let g = &inputs.graph;
        let attrs: usize = g.nodes().map(|v| g.node_attrs(v).len()).sum();
        let ingest_ops = (g.num_nodes() + attrs + g.num_edges() + 2 * inputs.owners.len()) as u64;
        let mut fleet = Vec::new();
        let mut dir = None;
        let svc = match kind {
            Kind::Single => {
                Service::Plain(Deployment::online().from_graph(g, inputs.store.clone()))
            }
            Kind::Sharded => {
                Service::Plain(Deployment::sharded(SHARDS, 0).from_graph(g, inputs.store.clone()))
            }
            Kind::Networked => {
                for _ in 0..SHARDS {
                    fleet.push(ShardChild::spawn()?);
                }
                let addrs = fleet.iter().map(|s| s.addr.clone()).collect();
                Service::Plain(Deployment::networked(addrs).from_graph(g, inputs.store.clone()))
            }
            Kind::Durable => {
                let guard =
                    DirGuard::fresh(out, "durable").map_err(|e| format!("scratch dir: {e}"))?;
                let mut svc = Deployment::online()
                    .durable(&guard.0)
                    .map_err(|e| format!("durable open: {e}"))?;
                dir = Some(guard);
                ingest(&mut svc, inputs)?;
                Service::Durable(svc)
            }
        };
        Ok(Backend {
            svc,
            fleet,
            dir,
            ingest_ops,
        })
    }

    /// `VmHWM` of this process plus every shard child, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        stats::peak_rss_mb(std::process::id()).unwrap_or(0.0)
            + self.fleet.iter().map(ShardChild::peak_rss_mb).sum::<f64>()
    }
}

/// Replays the generated graph and policy through the write seam, one
/// mutation at a time — the only way state enters a durable backend.
fn ingest(svc: &mut dyn MutateService, inputs: &Inputs) -> Result<(), String> {
    let g = &inputs.graph;
    for v in g.nodes() {
        svc.add_user(g.node_name(v));
    }
    for v in g.nodes() {
        for (key, value) in g.node_attrs(v).iter() {
            svc.set_user_attr(v, g.vocab().attr_name(key), value.clone());
        }
    }
    for (_, edge) in g.edges() {
        svc.add_relationship(edge.src, g.vocab().label_name(edge.label), edge.dst);
    }
    for &owner in &inputs.owners {
        let rid = svc.add_resource(owner);
        svc.add_rule(rid, inputs.rule_text(rid))
            .map_err(|e| format!("rule ingest: {e}"))?;
    }
    Ok(())
}
