//! `core::remote` — shards as processes: the networked shard backend.
//!
//! The in-process [`crate::sharded::ShardedSystem`] moves
//! [`MaskedStateKey`](socialreach_graph::shard::MaskedStateKey) /
//! [`MaskedExportSet`](socialreach_graph::shard::MaskedExportSet)
//! boundary exports between shards through function calls. This module
//! is the same round-based masked fixpoint with the calls replaced by
//! a wire: shard **server processes** ([`ShardServer`]) own one
//! partition each — a [`SocialGraph`](socialreach_graph::SocialGraph)
//! of home members and ghost replicas behind an epoch-publishing
//! enforcer — and a **router** ([`NetworkedSystem`]) implements
//! [`crate::AccessService`] / [`crate::MutateService`] by exchanging
//! masked-export batches with them.
//!
//! # Wire stack
//!
//! * [`frame`] — `[u32 LE len][u32 LE CRC-32][payload]` frames over a
//!   blocking stream; the CRC covers the length bytes so a damaged
//!   length cannot fake a frame. No async runtime: plain
//!   `std::net`/`std::os::unix::net` with threads.
//! * [`proto`] — serde-encoded [`proto::Request`] /
//!   [`proto::Response`] messages. All member coordinates on the wire
//!   are **global** ids; each server translates to its local node
//!   space at the edge.
//! * [`ShardAddr`] — TCP (`host:port`) or Unix-domain (`unix:/path`)
//!   endpoints; both transports run the identical protocol and the
//!   conformance tier keeps both green.
//!
//! # The epoch fence
//!
//! Every epoch — one mutation, or one bounded batch of a bulk load —
//! runs a **two-phase commit** across the whole fleet:
//! `Prepare{epoch+1, ops}` stages per-shard mutations (validated, not
//! applied), then `Commit{epoch+1}` applies and publishes them
//! atomically per shard. Any prepare failure aborts the epoch
//! everywhere; once *all* shards prepared, the epoch is presumed
//! committed — a shard that misses its commit loses its idle
//! connections and is caught up from the router's per-shard op log on
//! its next dial. Reads open each shard's session with their first
//! round ([`proto::Request::OpenRound`]), which carries the epoch the
//! router believes current, and shards refuse mismatches. A session records
//! its epoch, and a round or trace after a later commit is refused too,
//! so a half-committed fleet — or a commit racing a read — returns a
//! typed, retryable error instead of a torn mixed-epoch answer.
//!
//! # Batching and backpressure
//!
//! A read exchanges one request frame and one response frame per shard
//! and round; sessions open with the first round and never close by
//! message. A round's seeds for one shard are split into
//! [`MAX_ROUND_EXPORTS`]-sized requests, the sub-batches after the
//! first exchanged one at a time — at most one bounded frame in flight
//! per connection, so a giant frontier can never balloon a frame nor a
//! full socket buffer deadlock a reply against a request (the engine's
//! round-persistent visited state makes the split semantically free,
//! and re-delivered bits are absorbed, so duplicated or reordered
//! batches cannot change a decision).
//!
//! Writes batch by [`MAX_EPOCH_OPS`]: an epoch carries at most that
//! many shard ops, summed over its `Prepare`s. A bulk load
//! ([`NetworkedSystem::from_graph`]) stages its mutations and commits
//! one epoch each time the batch fills, instead of one epoch — a
//! `Prepare` and a `Commit` to every shard — per mutation; a restarted
//! shard is replayed in jumps of at most that many ops. The bound is
//! small on purpose. On the `feed_networked` benchmark cell (3·10³
//! members, two shard processes over loopback, a 2-core host), 64 ops
//! per epoch cut the bulk load 10–12× (median 5.7 s to 0.54 s at seed
//! 11) and lowered peak RSS from 42.7 to 36.5 MB with read latency
//! within its bounds, whereas batches of 1 024–4 096 ops left bundle reads 5–20 % and read
//! throughput 7–18 % slower, and one whole-graph epoch raised peak RSS
//! by 72 % — a staged epoch is held whole, as ops and as one encoded
//! frame, on both ends of the wire.
//!
//! # Failure model
//!
//! Transport failures surface as [`RemoteError`] (wrapped in
//! [`crate::EvalError::Remote`]): the router drops the failed
//! connection (it never goes back to the pool), retries the whole read
//! once on another connection (a freshly dialed one is replayed from
//! the op log first), and otherwise returns the typed error — never a
//! wrong decision. The fault-injection suite
//! drives torn frames, short reads, corrupt bytes, stalls and
//! kill/restart through a byte-level proxy to pin exactly that.

pub mod frame;
pub mod proto;
mod router;
mod server;

pub use router::NetworkedSystem;
pub use server::{ShardHandle, ShardServer};

use proto::WireRefusal;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Cap on masked exports per `Round` request: the per-round batching
/// unit and the in-flight bound (one request frame at a time per
/// connection).
pub const MAX_ROUND_EXPORTS: usize = 512;

/// Cap on shard ops per epoch, summed over the fleet: the write-side
/// batching unit. A bulk load commits one two-phase epoch per full
/// batch, and a restarted shard's op-log replay jumps at most this many
/// ops per `Prepare`, so no `Prepare` frame carries more.
pub const MAX_EPOCH_OPS: usize = 64;

/// Default client read timeout: a shard stalling longer than this
/// surfaces as [`RemoteError::Timeout`] instead of hanging the router.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A shard server endpoint: loopback/remote TCP or a Unix-domain
/// socket path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardAddr {
    /// A TCP endpoint, e.g. `127.0.0.1:4701` (port 0 binds ephemeral).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ShardAddr {
    /// Parses the CLI form: `unix:/path/sock` or `host:port`.
    pub fn parse(text: &str) -> ShardAddr {
        match text.strip_prefix("unix:") {
            Some(path) => ShardAddr::Unix(PathBuf::from(path)),
            None => ShardAddr::Tcp(text.to_owned()),
        }
    }
}

impl fmt::Display for ShardAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardAddr::Tcp(addr) => write!(f, "{addr}"),
            ShardAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A typed transport/remote-protocol failure. Carried inside
/// [`crate::EvalError::Remote`] so every read surface stays fallible
/// with one error vocabulary.
#[derive(Clone, Debug, PartialEq)]
pub enum RemoteError {
    /// Dialing the endpoint failed.
    Connect {
        /// The endpoint.
        addr: String,
        /// The OS-level detail.
        detail: String,
    },
    /// The connection failed mid-exchange (reset, closed, torn frame).
    Io {
        /// The endpoint.
        addr: String,
        /// What happened.
        detail: String,
    },
    /// The shard stalled past the read timeout.
    Timeout {
        /// The endpoint.
        addr: String,
    },
    /// A frame failed its checksum or carried an impossible header.
    Corrupt {
        /// The endpoint.
        addr: String,
        /// The frame-layer diagnosis.
        detail: String,
    },
    /// The bytes framed fine but were not a valid protocol message,
    /// or the message type was impossible for the request.
    Protocol {
        /// The endpoint.
        addr: String,
        /// What was wrong.
        detail: String,
    },
    /// The shard refused the request with a typed reason.
    Refused {
        /// The endpoint.
        addr: String,
        /// The shard's refusal.
        refusal: WireRefusal,
    },
}

impl RemoteError {
    /// Whether re-dialing and retrying the whole operation could
    /// succeed (connection-level failures and lost evaluation
    /// sessions; *not* semantic refusals like a version mismatch).
    pub fn retryable(&self) -> bool {
        match self {
            RemoteError::Connect { .. } | RemoteError::Io { .. } | RemoteError::Timeout { .. } => {
                true
            }
            RemoteError::Refused { refusal, .. } => matches!(
                refusal,
                WireRefusal::UnknownEval { .. } | WireRefusal::EpochMismatch { .. }
            ),
            RemoteError::Corrupt { .. } | RemoteError::Protocol { .. } => false,
        }
    }
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Connect { addr, detail } => {
                write!(f, "connecting to shard {addr} failed: {detail}")
            }
            RemoteError::Io { addr, detail } => write!(f, "shard {addr} i/o failure: {detail}"),
            RemoteError::Timeout { addr } => {
                write!(f, "shard {addr} stalled past the read timeout")
            }
            RemoteError::Corrupt { addr, detail } => {
                write!(f, "corrupt frame from shard {addr}: {detail}")
            }
            RemoteError::Protocol { addr, detail } => {
                write!(f, "protocol violation from shard {addr}: {detail}")
            }
            RemoteError::Refused { addr, refusal } => write!(f, "shard {addr} refused: {refusal}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// One accepted or dialed connection, transport-erased.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn dial(addr: &ShardAddr) -> io::Result<Conn> {
        match addr {
            ShardAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            ShardAddr::Unix(p) => Ok(Conn::Unix(UnixStream::connect(p)?)),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound acceptor, transport-erased.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    pub(crate) fn bind(addr: &ShardAddr) -> io::Result<Listener> {
        match addr {
            ShardAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
            ShardAddr::Unix(p) => {
                // A stale socket file from a killed predecessor blocks
                // the bind; replacing it is the restart semantics the
                // drill relies on.
                let _ = std::fs::remove_file(p);
                Ok(Listener::Unix(UnixListener::bind(p)?))
            }
        }
    }

    /// The bound endpoint (resolves TCP port 0 to the ephemeral port).
    pub(crate) fn local_addr(&self) -> io::Result<ShardAddr> {
        match self {
            Listener::Tcp(l) => Ok(ShardAddr::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix socket"))?;
                Ok(ShardAddr::Unix(path.to_path_buf()))
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

/// Spawns an in-process fleet of `n` shard servers on the given
/// transport — the test/bench construction (the CLI drill spawns real
/// child processes instead). Returns the handles; collect their
/// [`ShardHandle::addr`]s into a [`crate::Deployment::networked`].
pub fn spawn_local_fleet(n: usize, unix: bool) -> io::Result<Vec<ShardHandle>> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static FLEET: AtomicU64 = AtomicU64::new(0);
    let fleet = FLEET.fetch_add(1, Ordering::Relaxed);
    (0..n)
        .map(|i| {
            let addr = if unix {
                ShardAddr::Unix(std::env::temp_dir().join(format!(
                    "socialreach-shard-{}-{fleet}-{i}.sock",
                    std::process::id()
                )))
            } else {
                ShardAddr::Tcp("127.0.0.1:0".to_owned())
            };
            Ok(ShardServer::bind(&addr)?.spawn())
        })
        .collect()
}
