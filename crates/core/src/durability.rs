//! Durability: write-ahead logging, checksummed snapshots and crash
//! recovery for any serving deployment.
//!
//! An access-control system must **fail closed across restarts**: a
//! crash that silently loses rules or relationships re-opens every
//! decision those facts gated. This module makes the serving state
//! durable without touching either backend:
//!
//! * **Write-ahead log** — [`DurableService`] wraps a
//!   [`ServiceInstance`] and records every [`Mutation`] the backend
//!   accepted in an append-only log (`wal.log`) of length-prefixed,
//!   CRC-32-checksummed frames, before the canonical mirror applies
//!   it; a refused write is never logged. Replaying the log through
//!   the same [`MutateService::apply`] rebuilds the exact state —
//!   member and resource ids are assigned sequentially by every
//!   backend, so replay is deterministic.
//! * **Snapshots** — [`DurableService::snapshot`] serializes the
//!   canonical state (graph via the binary codec in
//!   `socialreach_graph::persist`, policy store as JSON) into a
//!   versioned, per-section-checksummed file stamped with the WAL
//!   position it covers. Snapshots are written to a temp file and
//!   atomically renamed; older snapshots are kept as a fallback chain.
//! * **Recovery** — [`Deployment::durable`] reopens a data directory:
//!   newest valid snapshot + WAL suffix replay. A torn or truncated
//!   WAL tail (the expected shape of a crash mid-append) is discarded
//!   and reported; everything else — a bit-flipped record in the body
//!   of the log, a corrupt or version-incompatible snapshot, a
//!   snapshot ahead of the log — is either detected loudly as a typed
//!   [`DurabilityError`] or skipped onto an older snapshot with a
//!   longer replay, per the [`RecoveryReport`]. Recovery never panics
//!   and never silently grants: the recovered state always equals the
//!   state after some prefix of the logged operations.
//!
//! The WAL retains the full mutation history by default (snapshots
//! never truncate it), so the fallback chain always terminates at
//! "empty state + full replay" — and the history itself is a served
//! surface:
//!
//! * **Point-in-time audit reads** — [`Deployment::durable_at`]
//!   recovers the state *as of any historical position* (newest
//!   snapshot ≤ position + WAL replay to exactly that position) into a
//!   throwaway backend serving `&dyn AccessService`. [`read_history`]
//!   enumerates the logged records with their positions (who changed
//!   what, between which reads), and [`Deployment::audience_diff`]
//!   reports who entered and left a resource's audience between two
//!   positions — the audit/compliance questions a present-state-only
//!   store cannot answer.
//! * **Compaction with a retention horizon** — once history is
//!   consumable it can also be bounded: [`DurableService::compact`]
//!   truncates the log *front* up to the newest valid snapshot at or
//!   below the horizon (snapshot-anchored, so the fallback chain stays
//!   sound: the anchor snapshot replaces "empty state + full replay"
//!   as the chain's terminal). A compacted log recovers identically to
//!   the uncompacted one; positions below the new base become typed
//!   [`DurabilityError::HistoryCompacted`] refusals, never wrong
//!   answers.
//!
//! Appends are buffered by the OS (no per-record fsync): a process
//! crash loses nothing, a host crash may lose a suffix of appends —
//! exactly the shape torn-tail recovery handles. Damage that
//! truncation *cannot* explain — a checksum mismatch or a corrupted
//! length field with intact frames after it — is never classified as
//! a torn tail: the scanner looks past the damaged frame, and any
//! CRC-valid frame beyond it proves mid-log corruption
//! ([`DurabilityError::CorruptWal`], acknowledged writes are never
//! silently discarded).
//!
//! ```
//! use socialreach_core::{AccessService, Deployment, Decision, MutateService};
//!
//! let dir = std::env::temp_dir().join(format!("srdur-doc-{}", std::process::id()));
//! let mut svc = Deployment::online().durable(&dir).unwrap();
//! let alice = svc.add_user("Alice");
//! let bob = svc.add_user("Bob");
//! svc.add_relationship(alice, "friend", bob);
//! let album = svc.add_resource(alice);
//! svc.add_rule(album, "friend+[1]").unwrap();
//! svc.snapshot().unwrap();
//! drop(svc); // "crash"
//!
//! let recovered = Deployment::online().durable(&dir).unwrap();
//! assert_eq!(recovered.reads().check(album, bob).unwrap(), Decision::Grant);
//!
//! // Point-in-time audit: at position 4 the rule had not landed yet,
//! // so the album was still owner-only — replay proves it.
//! let past = Deployment::online().durable_at(&dir, 4).unwrap();
//! assert_eq!(past.reads().check(album, bob).unwrap(), Decision::Deny);
//! assert_eq!(past.reads().check(album, alice).unwrap(), Decision::Grant);
//! let history = socialreach_core::durability::read_history(&dir).unwrap();
//! assert_eq!(history.len(), 5);
//! assert_eq!(history[4].position, 4); // the rule append, in wire form
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::error::EvalError;
use crate::policy::{PolicyStore, ResourceId};
use crate::service::{
    AccessService, Applied, Deployment, MutateService, Mutation, ServiceInstance,
};
use socialreach_graph::wire::crc32;
use socialreach_graph::{persist, GraphError, NodeId, SocialGraph};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// On-disk format version of snapshot files.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic bytes opening every snapshot file.
const SNAPSHOT_MAGIC: &[u8; 8] = b"SRSNAP\r\n";

/// Name of the write-ahead log inside a data directory.
const WAL_FILE: &str = "wal.log";

/// Magic bytes opening a *compacted* write-ahead log. A fresh log is
/// headerless (frames from byte 0, base position 0); compaction
/// rewrites the file with this header so the absolute position of the
/// first retained record survives the truncation. Layout:
/// `[8B magic][u64 LE base][u32 LE CRC-32(magic‖base)]`.
const WAL_MAGIC: &[u8; 8] = b"SRWALHDR";

/// Byte length of the compacted-log header.
const WAL_HEADER_LEN: usize = 20;

/// Upper bound on a single WAL frame's payload — far above any real
/// record; a length field claiming more is treated as damage.
const MAX_FRAME: u32 = 1 << 24;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed durability failure: every corruption mode recovery can meet
/// has a loud, named shape (the module never panics on bad bytes and
/// never silently degrades a decision).
#[derive(Debug)]
pub enum DurabilityError {
    /// An OS-level I/O failure (open, read, write, rename, …).
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The operation that failed.
        op: &'static str,
        /// The OS error text.
        message: String,
    },
    /// The WAL body is damaged: a checksum mismatch or undecodable
    /// record *before* the final frame — truncation cannot explain it,
    /// so recovery refuses to guess.
    CorruptWal {
        /// The log file.
        path: PathBuf,
        /// Byte offset of the damaged frame.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A snapshot file is damaged (bad magic, bad section checksum,
    /// undecodable section, trailing bytes). Recovery skips it and
    /// falls back to an older snapshot with a longer replay.
    CorruptSnapshot {
        /// The snapshot file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The snapshot file.
        path: PathBuf,
        /// The version the file claims.
        found: u32,
        /// The newest version this build reads.
        supported: u32,
    },
    /// A snapshot claims to cover more WAL records than the log holds
    /// — the log was truncated or swapped under the snapshot. The
    /// snapshot is unusable (replaying from its position would skip
    /// operations); recovery falls back.
    SnapshotAheadOfWal {
        /// The snapshot file.
        path: PathBuf,
        /// WAL records the snapshot claims to cover.
        snapshot_records: u64,
        /// WAL records actually on disk.
        wal_records: u64,
    },
    /// A structurally valid WAL record failed to re-apply — the log
    /// and the recorded history have diverged (records are only
    /// appended after the operation validated).
    Replay {
        /// Zero-based index of the failing record.
        record: u64,
        /// Why it failed.
        detail: String,
    },
    /// A point-in-time read asked for a position past the end of the
    /// recorded history.
    PositionBeyondHistory {
        /// The log file.
        path: PathBuf,
        /// The requested position.
        requested: u64,
        /// Positions `0..=available` are addressable.
        available: u64,
    },
    /// A point-in-time read asked for a position below the compaction
    /// horizon: the records needed to replay there were truncated away
    /// by [`DurableService::compact`].
    HistoryCompacted {
        /// The log file.
        path: PathBuf,
        /// The requested position.
        requested: u64,
        /// The first position still recoverable (the log's base).
        base: u64,
    },
    /// A snapshot covers a position *below* the compacted log's base —
    /// the records needed to replay forward from it are gone (a crash
    /// between compaction's rename and its snapshot cleanup can leave
    /// one). Recovery skips it.
    SnapshotBehindCompactedWal {
        /// The snapshot file.
        path: PathBuf,
        /// WAL records the snapshot claims to cover.
        snapshot_records: u64,
        /// The compacted log's base position.
        base: u64,
    },
    /// A compacted log (base > 0) has no usable snapshot at or above
    /// its base: the chain cannot terminate at "empty + full replay"
    /// because the pre-base records no longer exist. Recovery refuses
    /// — the anchor snapshot compaction kept must be restored.
    MissingCompactionAnchor {
        /// The log file.
        path: PathBuf,
        /// The compacted log's base position.
        base: u64,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { path, op, message } => {
                write!(f, "{op} {}: {message}", path.display())
            }
            DurabilityError::CorruptWal {
                path,
                offset,
                detail,
            } => write!(
                f,
                "corrupt write-ahead log {} at byte {offset}: {detail}",
                path.display()
            ),
            DurabilityError::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            DurabilityError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "snapshot {} has format version {found}; this build reads up to {supported}",
                path.display()
            ),
            DurabilityError::SnapshotAheadOfWal {
                path,
                snapshot_records,
                wal_records,
            } => write!(
                f,
                "snapshot {} covers {snapshot_records} WAL records but the log holds {wal_records}",
                path.display()
            ),
            DurabilityError::Replay { record, detail } => {
                write!(f, "WAL record {record} failed to re-apply: {detail}")
            }
            DurabilityError::PositionBeyondHistory {
                path,
                requested,
                available,
            } => write!(
                f,
                "position {requested} is beyond the recorded history of {} ({available} records)",
                path.display()
            ),
            DurabilityError::HistoryCompacted {
                path,
                requested,
                base,
            } => write!(
                f,
                "position {requested} of {} was compacted away (history starts at {base})",
                path.display()
            ),
            DurabilityError::SnapshotBehindCompactedWal {
                path,
                snapshot_records,
                base,
            } => write!(
                f,
                "snapshot {} covers {snapshot_records} records, below the compacted log's base {base}",
                path.display()
            ),
            DurabilityError::MissingCompactionAnchor { path, base } => write!(
                f,
                "compacted log {} (base {base}) has no usable snapshot at or above its base",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io {
        path: path.to_path_buf(),
        op,
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// WAL records and framing
// ---------------------------------------------------------------------

/// Encodes one record as a WAL frame:
/// `[u32 LE payload len][u32 LE CRC-32][payload]`, where the checksum
/// covers the length bytes *and* the payload, so a damaged length
/// field cannot masquerade as a valid frame.
fn encode_frame(record: &Mutation) -> Vec<u8> {
    let payload = serde_json::to_string(record)
        .expect("WAL records serialize (no non-finite floats)")
        .into_bytes();
    let len = payload.len() as u32;
    let mut checked = Vec::with_capacity(4 + payload.len());
    checked.extend_from_slice(&len.to_le_bytes());
    checked.extend_from_slice(&payload);
    let crc = crc32(&checked);
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// A discarded torn tail: the expected damage shape of a crash during
/// an append (partial frame at end-of-log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset the valid prefix ends at (the log was truncated
    /// back to this length).
    pub offset: u64,
    /// What the discarded bytes looked like.
    pub detail: String,
}

/// Result of scanning a WAL file.
struct WalScan {
    /// Absolute position of the first record in the file (0 unless the
    /// log was compacted; read from the compaction header).
    base: u64,
    records: Vec<Mutation>,
    /// Byte offset each record's frame *ends* at (`ends[i]` closes
    /// record `base + i`; the first frame starts at the header end).
    ends: Vec<u64>,
    /// Length of the valid prefix in bytes (header included).
    valid_len: u64,
    torn: Option<TornTail>,
}

impl WalScan {
    /// Absolute position one past the last intact record.
    fn total(&self) -> u64 {
        self.base + self.records.len() as u64
    }
}

/// Looks for a CRC-valid frame starting at any byte offset after
/// `after`. One is proof that damage at `after` is *mid-log*
/// corruption: a crash tears only the suffix of the file, so intact
/// acknowledged frames past the damage cannot be explained by
/// truncation (a 2⁻³² accidental CRC match is the error floor).
fn later_valid_frame(bytes: &[u8], after: usize) -> Option<usize> {
    let mut o = after + 1;
    while o + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[o..o + 4].try_into().expect("len 4"));
        if len <= MAX_FRAME && o + 8 + len as usize <= bytes.len() {
            let crc = u32::from_le_bytes(bytes[o + 4..o + 8].try_into().expect("len 4"));
            let mut checked = Vec::with_capacity(4 + len as usize);
            checked.extend_from_slice(&len.to_le_bytes());
            checked.extend_from_slice(&bytes[o + 8..o + 8 + len as usize]);
            if crc32(&checked) == crc {
                return Some(o);
            }
        }
        o += 1;
    }
    None
}

/// Scans a WAL file front to back. A partial frame at end-of-log is a
/// torn tail (reported, prefix kept); damage with any intact frame
/// after it — a corrupted mid-log length field included — is a typed
/// [`DurabilityError::CorruptWal`], never a silent truncation of
/// acknowledged writes.
fn read_wal(path: &Path) -> Result<WalScan, DurabilityError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                base: 0,
                records: Vec::new(),
                ends: Vec::new(),
                valid_len: 0,
                torn: None,
            })
        }
        Err(e) => return Err(io_err(path, "read", e)),
    };
    let mut base = 0u64;
    let mut pos = 0usize;
    if bytes.len() >= 8 && &bytes[..8] == WAL_MAGIC {
        // A compacted log: the header is written in one atomic rename,
        // so damage here is corruption, not a torn append.
        if bytes.len() < WAL_HEADER_LEN {
            return Err(DurabilityError::CorruptWal {
                path: path.to_path_buf(),
                offset: 0,
                detail: format!("{}-byte truncated compaction header", bytes.len()),
            });
        }
        let stored = u32::from_le_bytes(bytes[16..20].try_into().expect("len 4"));
        if crc32(&bytes[..16]) != stored {
            return Err(DurabilityError::CorruptWal {
                path: path.to_path_buf(),
                offset: 0,
                detail: "compaction header checksum mismatch".to_owned(),
            });
        }
        base = u64::from_le_bytes(bytes[8..16].try_into().expect("len 8"));
        pos = WAL_HEADER_LEN;
    }
    let mut records = Vec::new();
    let mut ends = Vec::new();
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(WalScan {
                base,
                records,
                ends,
                valid_len: pos as u64,
                torn: None,
            });
        }
        let torn = |records: Vec<Mutation>, ends: Vec<u64>, detail: String| {
            Ok(WalScan {
                base,
                records,
                ends,
                valid_len: pos as u64,
                torn: Some(TornTail {
                    offset: pos as u64,
                    detail,
                }),
            })
        };
        let corrupt_midlog = |next: usize, detail: String| {
            Err(DurabilityError::CorruptWal {
                path: path.to_path_buf(),
                offset: pos as u64,
                detail: format!("{detail}, but an intact frame follows at byte {next} — mid-log corruption, not a torn tail"),
            })
        };
        if remaining < 8 {
            return torn(
                records,
                ends,
                format!("{remaining}-byte partial frame header"),
            );
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("len 4"));
        if len > MAX_FRAME || (len as usize) > remaining - 8 {
            // The claimed payload extends past end-of-log: a frame cut
            // short by a crash, or a damaged length field. Truncation
            // only ever loses the suffix — so an intact frame anywhere
            // past this point disproves the torn-tail reading.
            if let Some(next) = later_valid_frame(&bytes, pos) {
                return corrupt_midlog(
                    next,
                    format!("length field claims a {len}-byte payload past end-of-log"),
                );
            }
            return torn(
                records,
                ends,
                format!(
                    "frame claims {len}-byte payload, {} bytes remain",
                    remaining - 8
                ),
            );
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        let mut checked = Vec::with_capacity(4 + payload.len());
        checked.extend_from_slice(&len.to_le_bytes());
        checked.extend_from_slice(payload);
        let frame_end = pos + 8 + len as usize;
        if crc32(&checked) != crc {
            if frame_end == bytes.len() {
                // Checksum mismatch on what claims to be the final
                // frame. A torn write (header landed, payload didn't
                // finish) — unless a damaged length field swallowed
                // intact frames into its claimed payload.
                if let Some(next) = later_valid_frame(&bytes, pos) {
                    return corrupt_midlog(next, "checksum mismatch on final frame".to_owned());
                }
                return torn(records, ends, "checksum mismatch on final frame".to_owned());
            }
            return Err(DurabilityError::CorruptWal {
                path: path.to_path_buf(),
                offset: pos as u64,
                detail: format!(
                    "checksum mismatch (stored {crc:#010x}, computed {:#010x}) before end of log",
                    crc32(&checked)
                ),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|_| DurabilityError::CorruptWal {
            path: path.to_path_buf(),
            offset: pos as u64,
            detail: "checksummed payload is not UTF-8".to_owned(),
        })?;
        let record: Mutation =
            serde_json::from_str(text).map_err(|e| DurabilityError::CorruptWal {
                path: path.to_path_buf(),
                offset: pos as u64,
                detail: format!("undecodable record: {e}"),
            })?;
        records.push(record);
        ends.push(frame_end as u64);
        pos = frame_end;
    }
}

// ---------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------

fn snapshot_file_name(wal_records: u64) -> String {
    // Zero-padded so lexicographic order is numeric order.
    format!("snap-{wal_records:020}.snap")
}

fn encode_snapshot(g: &SocialGraph, store: &PolicyStore, wal_records: u64) -> Vec<u8> {
    let graph_bytes = persist::encode_graph(g);
    let store_bytes = serde_json::to_string(store)
        .expect("policy store serializes")
        .into_bytes();
    let mut out = Vec::with_capacity(28 + graph_bytes.len() + store_bytes.len() + 16);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&wal_records.to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    for section in [&graph_bytes, &store_bytes] {
        out.extend_from_slice(&(section.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(section).to_le_bytes());
        out.extend_from_slice(section);
    }
    out
}

fn decode_snapshot(
    path: &Path,
    bytes: &[u8],
) -> Result<(SocialGraph, PolicyStore, u64), DurabilityError> {
    let corrupt = |detail: String| DurabilityError::CorruptSnapshot {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < 24 {
        return Err(corrupt(format!("{}-byte file is too short", bytes.len())));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic".to_owned()));
    }
    // Version is read before any checksum so a future-format file is
    // reported as such (its layout past the version field is unknown).
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("len 4"));
    if version != SNAPSHOT_VERSION {
        return Err(DurabilityError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let header_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("len 4"));
    if crc32(&bytes[..20]) != header_crc {
        return Err(corrupt("header checksum mismatch".to_owned()));
    }
    let wal_records = u64::from_le_bytes(bytes[12..20].try_into().expect("len 8"));
    let mut pos = 24usize;
    let mut sections: Vec<&[u8]> = Vec::with_capacity(2);
    for name in ["graph", "policy"] {
        if bytes.len() - pos < 8 {
            return Err(corrupt(format!("truncated before {name} section header")));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("len 4"));
        pos += 8;
        if bytes.len() - pos < len {
            return Err(corrupt(format!(
                "{name} section claims {len} bytes, {} remain",
                bytes.len() - pos
            )));
        }
        let section = &bytes[pos..pos + len];
        if crc32(section) != crc {
            return Err(corrupt(format!("{name} section checksum mismatch")));
        }
        sections.push(section);
        pos += len;
    }
    if pos != bytes.len() {
        return Err(corrupt(format!("{} trailing bytes", bytes.len() - pos)));
    }
    let g = persist::decode_graph(sections[0]).map_err(|e| corrupt(format!("graph: {e}")))?;
    let store_text =
        std::str::from_utf8(sections[1]).map_err(|_| corrupt("policy: not UTF-8".to_owned()))?;
    let store: PolicyStore =
        serde_json::from_str(store_text).map_err(|e| corrupt(format!("policy: {e}")))?;
    Ok((g, store, wal_records))
}

// ---------------------------------------------------------------------
// Recovery report
// ---------------------------------------------------------------------

/// What [`Deployment::durable`] found and did while reopening a data
/// directory. Every skipped artifact carries its typed error —
/// corruption is always loud, even when recovery routed around it.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// The snapshot recovery started from (file name, WAL position),
    /// or `None` when it replayed the full log from empty state.
    pub snapshot_loaded: Option<(String, u64)>,
    /// Snapshots that were newer but unusable, newest first, each with
    /// the typed error that disqualified it.
    pub snapshots_skipped: Vec<(String, DurabilityError)>,
    /// Absolute position one past the last intact record of the log.
    pub wal_records: u64,
    /// Absolute position of the first record still in the log — 0
    /// unless [`DurableService::compact`] truncated earlier history.
    pub wal_base: u64,
    /// Records replayed on top of the loaded snapshot.
    pub records_replayed: u64,
    /// The discarded torn tail, if the log ended mid-append.
    pub torn_tail: Option<TornTail>,
}

// ---------------------------------------------------------------------
// The durable decorator
// ---------------------------------------------------------------------

/// A [`ServiceInstance`] with durability: every write is appended to
/// the write-ahead log, a canonical mirror of the state (graph +
/// policy store) is kept for snapshotting, and reads forward to the
/// wrapped backend untouched. Construct with [`Deployment::durable`].
///
/// The mirror exists because the sharded backend has no global graph
/// to export; it is authoritative for snapshots and doubles as the
/// ground-truth source recovery audits replay against. Backends assign
/// member and resource ids sequentially, so the mirror, the backend
/// and any replayed copy agree on every id — divergence is checked on
/// every write and surfaces as a loud error, never a wrong answer.
pub struct DurableService {
    inner: ServiceInstance,
    mirror: SocialGraph,
    store: PolicyStore,
    dir: PathBuf,
    wal_path: PathBuf,
    wal: File,
    wal_base: u64,
    wal_records: u64,
    report: RecoveryReport,
}

impl Deployment {
    /// Opens (or initializes) a durable deployment in `dir`: recovery
    /// is newest-valid-snapshot + WAL-suffix replay, after which every
    /// mutation through the returned service is write-ahead logged.
    /// See [`DurableService`] and the module docs for the corruption
    /// semantics.
    pub fn durable(&self, dir: impl AsRef<Path>) -> Result<DurableService, DurabilityError> {
        DurableService::open(self.clone(), dir.as_ref())
    }

    /// Recovers the state of a durable data directory **as of an
    /// historical position**: the newest valid snapshot at or below
    /// `position` plus WAL replay to exactly `position`, served from a
    /// throwaway in-memory backend of this deployment shape. Position
    /// `k` means "after the first `k` logged records" — `0` is the
    /// empty state, [`DurableService::wal_records`] is the present.
    ///
    /// The directory is only read, never written: the returned
    /// instance is not durable, logs nothing, and can be dropped
    /// freely — it exists to answer audit questions ("who could see
    /// this resource after record `k`?") with the full policy
    /// semantics of a live deployment. Positions past the history or
    /// below a compaction horizon are typed refusals
    /// ([`DurabilityError::PositionBeyondHistory`] /
    /// [`DurabilityError::HistoryCompacted`]).
    pub fn durable_at(
        &self,
        dir: impl AsRef<Path>,
        position: u64,
    ) -> Result<ServiceInstance, DurabilityError> {
        let dir = dir.as_ref();
        let wal_path = dir.join(WAL_FILE);
        let scan = read_wal(&wal_path)?;
        check_position(&wal_path, &scan, position)?;
        Ok(recover_to(self, dir, &wal_path, &scan, position)?.inner)
    }

    /// Audits how a resource's audience changed between two historical
    /// positions: who **entered**, who **left**, and who was
    /// **retained**, computed by recovering both points with
    /// [`Deployment::durable_at`] semantics and materializing the
    /// audience at each. A position where the resource did not exist
    /// yet contributes an empty audience (nobody could see a resource
    /// before it was shared).
    pub fn audience_diff(
        &self,
        dir: impl AsRef<Path>,
        resource: ResourceId,
        from: u64,
        to: u64,
    ) -> Result<AudienceDiff, AuditError> {
        let dir = dir.as_ref();
        let wal_path = dir.join(WAL_FILE);
        let scan = read_wal(&wal_path)?;
        check_position(&wal_path, &scan, from)?;
        check_position(&wal_path, &scan, to)?;
        let audience_at = |target: u64| -> Result<Vec<NodeId>, AuditError> {
            let rec = recover_to(self, dir, &wal_path, &scan, target)?;
            if (resource.0 as usize) < rec.store.num_resources() {
                rec.inner
                    .reads()
                    .audience(resource)
                    .map_err(AuditError::Eval)
            } else {
                Ok(Vec::new())
            }
        };
        let before = audience_at(from)?;
        let after = audience_at(to)?;
        // Audiences come back sorted; split them with one merge pass.
        let mut entered = Vec::new();
        let mut left = Vec::new();
        let mut retained = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < before.len() || j < after.len() {
            match (before.get(i), after.get(j)) {
                (Some(&b), Some(&a)) if b == a => {
                    retained.push(b);
                    i += 1;
                    j += 1;
                }
                (Some(&b), Some(&a)) if b < a => {
                    left.push(b);
                    i += 1;
                }
                (Some(_), Some(&a)) => {
                    entered.push(a);
                    j += 1;
                }
                (Some(&b), None) => {
                    left.push(b);
                    i += 1;
                }
                (None, Some(&a)) => {
                    entered.push(a);
                    j += 1;
                }
                (None, None) => unreachable!("loop guard"),
            }
        }
        Ok(AudienceDiff {
            resource,
            from,
            to,
            entered,
            left,
            retained,
        })
    }
}

/// One logged mutation with its absolute position in the history.
/// The state *after* this record is `durable_at(dir, position + 1)`;
/// the state it acted on is `durable_at(dir, position)`.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// Absolute zero-based position of the record in the WAL.
    pub position: u64,
    /// The logged operation, in wire form.
    pub record: Mutation,
}

/// Enumerates the durable history of a data directory: every intact
/// WAL record with its absolute position (after compaction, positions
/// start at the retained base, not 0). A torn tail is tolerated — the
/// intact records before it *are* the history — while mid-log
/// corruption is a typed [`DurabilityError::CorruptWal`].
pub fn read_history(dir: impl AsRef<Path>) -> Result<Vec<HistoryEntry>, DurabilityError> {
    let wal_path = dir.as_ref().join(WAL_FILE);
    let scan = read_wal(&wal_path)?;
    let base = scan.base;
    Ok(scan
        .records
        .into_iter()
        .enumerate()
        .map(|(i, record)| HistoryEntry {
            position: base + i as u64,
            record,
        })
        .collect())
}

/// How a resource's audience changed between two historical positions
/// (see [`Deployment::audience_diff`]). Member ids are stable across
/// the whole history (backends assign them sequentially), so the same
/// id names the same member at both points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AudienceDiff {
    /// The audited resource.
    pub resource: ResourceId,
    /// The earlier position.
    pub from: u64,
    /// The later position.
    pub to: u64,
    /// Members in the audience at `to` but not at `from`, sorted.
    pub entered: Vec<NodeId>,
    /// Members in the audience at `from` but not at `to`, sorted.
    pub left: Vec<NodeId>,
    /// Members in both audiences, sorted.
    pub retained: Vec<NodeId>,
}

/// An audit read failure: either the history could not be recovered
/// (durability layer) or the recovered backend refused the read
/// (evaluation layer).
#[derive(Debug)]
pub enum AuditError {
    /// Recovering the requested position failed.
    Durability(DurabilityError),
    /// The recovered backend rejected the read.
    Eval(EvalError),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Durability(e) => write!(f, "{e}"),
            AuditError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<DurabilityError> for AuditError {
    fn from(e: DurabilityError) -> Self {
        AuditError::Durability(e)
    }
}

impl From<EvalError> for AuditError {
    fn from(e: EvalError) -> Self {
        AuditError::Eval(e)
    }
}

/// What [`DurableService::compact`] did: the snapshot the truncation
/// anchored at, the history it dropped, and the snapshots it deleted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// The anchor snapshot `(file name, position)` the log was cut at,
    /// or `None` when no snapshot at or below the horizon exists (the
    /// log is left untouched — compaction never cuts past what a
    /// snapshot can recover).
    pub anchor: Option<(String, u64)>,
    /// Records truncated off the front of the log.
    pub records_dropped: u64,
    /// Snapshot files deleted because their positions fell below the
    /// new base (replaying forward from them is no longer possible).
    pub snapshots_deleted: Vec<String>,
    /// The log's base position after the call.
    pub base: u64,
}

/// Rejects positions outside the recoverable range of a scanned log.
fn check_position(wal_path: &Path, scan: &WalScan, position: u64) -> Result<(), DurabilityError> {
    if position > scan.total() {
        Err(DurabilityError::PositionBeyondHistory {
            path: wal_path.to_path_buf(),
            requested: position,
            available: scan.total(),
        })
    } else if position < scan.base {
        Err(DurabilityError::HistoryCompacted {
            path: wal_path.to_path_buf(),
            requested: position,
            base: scan.base,
        })
    } else {
        Ok(())
    }
}

/// A recovered state: the backend, its canonical mirror, and the
/// report of how it was reconstructed.
struct Recovered {
    inner: ServiceInstance,
    mirror: SocialGraph,
    store: PolicyStore,
    report: RecoveryReport,
}

/// The shared recovery engine: reconstructs the state as of absolute
/// position `target` (`scan.base <= target <= scan.total()`) from the
/// newest usable snapshot at or below it plus WAL replay. Snapshots
/// newer than `target` but within the log are simply not candidates
/// (a point-in-time read routes around them silently); damaged,
/// ahead-of-log or behind-compaction snapshots are skipped loudly in
/// the report.
fn recover_to(
    deployment: &Deployment,
    dir: &Path,
    wal_path: &Path,
    scan: &WalScan,
    target: u64,
) -> Result<Recovered, DurabilityError> {
    let total = scan.total();
    debug_assert!(target >= scan.base && target <= total, "caller bounds");

    let mut snapshot_names: Vec<String> = fs::read_dir(dir)
        .map_err(|e| io_err(dir, "read dir", e))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("snap-") && name.ends_with(".snap"))
        .collect();
    snapshot_names.sort_unstable_by(|a, b| b.cmp(a));

    let mut report = RecoveryReport {
        wal_records: total,
        wal_base: scan.base,
        torn_tail: scan.torn.clone(),
        ..RecoveryReport::default()
    };
    let mut base_state: Option<(SocialGraph, PolicyStore, u64)> = None;
    for name in snapshot_names {
        let path = dir.join(&name);
        let loaded = fs::read(&path)
            .map_err(|e| io_err(&path, "read", e))
            .and_then(|bytes| decode_snapshot(&path, &bytes))
            .and_then(|(g, store, covered)| {
                if covered > total {
                    Err(DurabilityError::SnapshotAheadOfWal {
                        path: path.clone(),
                        snapshot_records: covered,
                        wal_records: total,
                    })
                } else if covered < scan.base {
                    Err(DurabilityError::SnapshotBehindCompactedWal {
                        path: path.clone(),
                        snapshot_records: covered,
                        base: scan.base,
                    })
                } else {
                    Ok((g, store, covered))
                }
            });
        match loaded {
            Ok((_, _, covered)) if covered > target => {
                // Intact, but newer than the requested point in time.
            }
            Ok(found) => {
                report.snapshot_loaded = Some((name, found.2));
                base_state = Some(found);
                break;
            }
            Err(e) => report.snapshots_skipped.push((name, e)),
        }
    }

    let (mut mirror, mut store, replay_from) = match base_state {
        Some(found) => found,
        None if scan.base > 0 => {
            // A compacted log cannot fall back to empty + full replay:
            // the pre-base records are gone.
            return Err(DurabilityError::MissingCompactionAnchor {
                path: wal_path.to_path_buf(),
                base: scan.base,
            });
        }
        None => (SocialGraph::new(), PolicyStore::new(), 0),
    };
    let mut inner = deployment.from_graph(&mirror, store.clone());
    let lo = (replay_from - scan.base) as usize;
    let hi = (target - scan.base) as usize;
    for (i, m) in scan.records[lo..hi].iter().enumerate() {
        let replay = |detail| DurabilityError::Replay {
            record: replay_from + i as u64,
            detail,
        };
        let got = inner.apply(m).map_err(|e| {
            replay(match e {
                EvalError::Graph(GraphError::UnknownNode(n)) => {
                    format!("member {n} out of range ({} members)", mirror.num_nodes())
                }
                e => e.to_string(),
            })
        })?;
        mirror_write(&mut mirror, &mut store, m, got).map_err(replay)?;
        report.records_replayed += 1;
    }
    Ok(Recovered {
        inner,
        mirror,
        store,
        report,
    })
}

impl DurableService {
    fn open(deployment: Deployment, dir: &Path) -> Result<Self, DurabilityError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, "create", e))?;
        let wal_path = dir.join(WAL_FILE);
        let scan = read_wal(&wal_path)?;
        let recovered = recover_to(&deployment, dir, &wal_path, &scan, scan.total())?;

        // Truncate a torn tail so future appends start at the valid
        // prefix instead of extending garbage. The surviving record
        // count — not the pre-truncation byte length — is what every
        // later snapshot stamp must cover.
        if scan.torn.is_some() {
            let f = OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .map_err(|e| io_err(&wal_path, "open", e))?;
            f.set_len(scan.valid_len)
                .map_err(|e| io_err(&wal_path, "truncate", e))?;
        }
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err(&wal_path, "open", e))?;

        Ok(DurableService {
            inner: recovered.inner,
            mirror: recovered.mirror,
            store: recovered.store,
            dir: dir.to_path_buf(),
            wal_path,
            wal,
            wal_base: scan.base,
            wal_records: scan.total(),
            report: recovered.report,
        })
    }

    /// What recovery found: the snapshot used, artifacts skipped (with
    /// their typed errors), records replayed, torn tail discarded.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Absolute position one past the last record in the write-ahead
    /// log — the "present" position for [`Deployment::durable_at`].
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Absolute position of the oldest record still in the log: 0 on
    /// an uncompacted log, the anchor-snapshot position after
    /// [`DurableService::compact`]. Point-in-time reads below this are
    /// refused with [`DurabilityError::HistoryCompacted`].
    pub fn wal_base(&self) -> u64 {
        self.wal_base
    }

    /// The durable history of this service's data directory: every
    /// logged record with its absolute position (see [`read_history`]).
    pub fn history(&self) -> Result<Vec<HistoryEntry>, DurabilityError> {
        read_history(&self.dir)
    }

    /// The data directory this service persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The canonical mirror graph (authoritative for snapshots and for
    /// ground-truth audits of the wrapped backend).
    pub fn graph(&self) -> &SocialGraph {
        &self.mirror
    }

    /// The canonical policy store.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// The read surface: durability adds nothing to a read, so this is
    /// the wrapped backend's own [`AccessService`], untouched — no
    /// forwarding layer to keep in step with the trait.
    pub fn reads(&self) -> &dyn AccessService {
        self.inner.reads()
    }

    /// This service as a deployment-agnostic write service.
    pub fn writes(&mut self) -> &mut dyn MutateService {
        self
    }

    /// Persists a snapshot of the current state, stamped with the WAL
    /// position it covers, and returns its path. Written to a temp
    /// file and atomically renamed; never overwrites a good snapshot
    /// with a partial one. Takes `&self`: concurrent readers (behind a
    /// shared lock) keep reading while the snapshot persists.
    pub fn snapshot(&self) -> Result<PathBuf, DurabilityError> {
        let bytes = encode_snapshot(&self.mirror, &self.store, self.wal_records);
        let final_path = self.dir.join(snapshot_file_name(self.wal_records));
        let tmp_path = self.dir.join(format!(
            "{}.tmp-{}",
            snapshot_file_name(self.wal_records),
            std::process::id()
        ));
        fs::write(&tmp_path, &bytes).map_err(|e| io_err(&tmp_path, "write", e))?;
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, "rename", e))?;
        Ok(final_path)
    }

    /// Truncates history older than `horizon` off the *front* of the
    /// write-ahead log, anchored at the newest valid snapshot at or
    /// below the horizon. Snapshot-anchored means the fallback chain
    /// stays sound by construction: the log is only ever cut at a
    /// position a snapshot on disk can recover, that anchor becomes
    /// the chain's terminal (replacing "empty + full replay"), and the
    /// rewritten log carries the cut position in a checksummed header
    /// so positions stay absolute. Without a usable snapshot at or
    /// below the horizon the call is a no-op (`anchor: None`) — the
    /// log is never cut past what a snapshot can prove.
    ///
    /// The rewrite is tmp-file + atomic rename (a crash leaves either
    /// the old or the new log, both recoverable). Snapshots below the
    /// new base are deleted afterwards: replaying forward from them is
    /// no longer possible, and recovery would only skip them loudly.
    /// Point-in-time reads below the new base become typed
    /// [`DurabilityError::HistoryCompacted`] refusals.
    pub fn compact(&mut self, horizon: u64) -> Result<CompactionReport, DurabilityError> {
        let horizon = horizon.min(self.wal_records);
        let mut report = CompactionReport {
            base: self.wal_base,
            ..CompactionReport::default()
        };

        // Newest valid snapshot within [base, horizon] anchors the cut
        // (validated by a full decode — anchoring on a snapshot that
        // cannot load would break the chain's terminal).
        let mut names: Vec<String> = fs::read_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, "read dir", e))?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| name.starts_with("snap-") && name.ends_with(".snap"))
            .collect();
        names.sort_unstable_by(|a, b| b.cmp(a));
        let mut anchor: Option<(String, u64)> = None;
        for name in names.iter() {
            let path = self.dir.join(name);
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok((_, _, covered)) = decode_snapshot(&path, &bytes) else {
                continue;
            };
            if covered >= self.wal_base && covered <= horizon {
                anchor = Some((name.clone(), covered));
                break;
            }
        }
        let Some((anchor_name, cut)) = anchor else {
            return Ok(report);
        };
        report.anchor = Some((anchor_name, cut));
        if cut <= self.wal_base {
            // Already compacted at least this far; nothing to drop.
            return Ok(report);
        }

        // Rewrite the log as header + the frames from `cut` on, with
        // byte boundaries re-derived from disk (every acknowledged
        // append is already on the file).
        let scan = read_wal(&self.wal_path)?;
        debug_assert!(scan.torn.is_none(), "live log has whole frames only");
        debug_assert_eq!(scan.total(), self.wal_records, "log matches service");
        let bytes = fs::read(&self.wal_path).map_err(|e| io_err(&self.wal_path, "read", e))?;
        let keep_from = scan.ends[(cut - scan.base) as usize - 1] as usize;
        let mut out = Vec::with_capacity(WAL_HEADER_LEN + bytes.len() - keep_from);
        out.extend_from_slice(WAL_MAGIC);
        out.extend_from_slice(&cut.to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        out.extend_from_slice(&bytes[keep_from..scan.valid_len as usize]);
        let tmp_path = self
            .dir
            .join(format!("{WAL_FILE}.tmp-{}", std::process::id()));
        fs::write(&tmp_path, &out).map_err(|e| io_err(&tmp_path, "write", e))?;
        fs::rename(&tmp_path, &self.wal_path).map_err(|e| io_err(&self.wal_path, "rename", e))?;
        // The old append handle points at the replaced inode; reopen.
        self.wal = OpenOptions::new()
            .append(true)
            .open(&self.wal_path)
            .map_err(|e| io_err(&self.wal_path, "open", e))?;
        report.records_dropped = cut - self.wal_base;
        report.base = cut;
        self.wal_base = cut;

        // Snapshots below the new base can no longer seed a replay.
        for name in names {
            let covered: Option<u64> = name
                .strip_prefix("snap-")
                .and_then(|n| n.strip_suffix(".snap"))
                .and_then(|n| n.parse().ok());
            if covered.is_some_and(|c| c < cut) {
                let path = self.dir.join(&name);
                fs::remove_file(&path).map_err(|e| io_err(&path, "remove", e))?;
                report.snapshots_deleted.push(name);
            }
        }
        Ok(report)
    }

    /// Appends one frame to the log. WAL append failure is fail-stop:
    /// acknowledging a write the log did not capture would break the
    /// recovery contract.
    fn append(&mut self, record: &Mutation) {
        let frame = encode_frame(record);
        self.wal
            .write_all(&frame)
            .unwrap_or_else(|e| panic!("WAL append to {} failed: {e}", self.wal_path.display()));
        self.wal_records += 1;
    }
}

/// Applies `m`, which the backend already applied and answered with
/// `got`, to the canonical mirror, checking the two stay id-for-id
/// identical — the step live writes and recovery share after the
/// backend's `apply`.
fn mirror_write(
    mirror: &mut SocialGraph,
    store: &mut PolicyStore,
    m: &Mutation,
    got: Applied,
) -> Result<(), String> {
    let want = m.apply_to(mirror, store);
    let want = want.map_err(|e| format!("the canonical mirror refused it: {e}"))?;
    let diverged = || format!("backend assigned {got:?}, history says {want:?}");
    (got == want).then_some(()).ok_or_else(diverged)
}

/// Writes log: the backend applies first, so a refused write — an
/// unknown id, a rejected rule, a networked fleet that could not
/// commit — leaves the log, the mirror and the backend unchanged.
/// Only an accepted write is appended, then mirrored. Recovery runs
/// the same two applies without the append. (Reads are the backend's
/// own — see [`DurableService::reads`].)
impl MutateService for DurableService {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        let got = self.inner.apply(m)?;
        self.append(m);
        if let Err(detail) = mirror_write(&mut self.mirror, &mut self.store, m, got) {
            panic!("logged write `{m}` diverged from the canonical mirror: {detail}");
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialreach_graph::AttrValue;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "srdur-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn wal_frames_round_trip() {
        let records = vec![
            Mutation::AddUser {
                name: "Alice".to_owned(),
            },
            Mutation::SetUserAttr {
                user: NodeId(0),
                key: "age".to_owned(),
                value: AttrValue::Int(30),
            },
            Mutation::AddRelationship {
                src: NodeId(0),
                label: "friend".to_owned(),
                dst: NodeId(1),
            },
            Mutation::AddResource { owner: NodeId(0) },
            Mutation::AddRule {
                resource: ResourceId(0),
                path: "friend+[1,2]{age>=18}".to_owned(),
            },
        ];
        let dir = temp_dir("frames");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_frame(r));
        }
        fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(scan.torn.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_reads_as_empty() {
        let dir = temp_dir("missing");
        let scan = read_wal(&dir.join(WAL_FILE)).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.torn.is_none());
    }

    #[test]
    fn snapshot_round_trips() {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        g.connect(a, "friend", b);
        g.set_node_attr(b, "age", 26i64);
        let mut store = PolicyStore::new();
        let rid = store.register_resource(a);
        store.allow(rid, "friend+[1]", &mut g).unwrap();

        let bytes = encode_snapshot(&g, &store, 7);
        let path = PathBuf::from("snap-test.snap");
        let (g2, store2, covered) = decode_snapshot(&path, &bytes).unwrap();
        assert_eq!(covered, 7);
        assert_eq!(g2.num_nodes(), 2);
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(store2.num_resources(), 1);
        assert_eq!(store2.owner_of(rid).unwrap(), a);
        assert_eq!(store2.rules_for(rid).len(), 1);
    }

    #[test]
    fn snapshot_section_bitflip_is_typed() {
        let mut g = SocialGraph::new();
        g.add_node("Alice");
        let bytes = encode_snapshot(&g, &PolicyStore::new(), 0);
        let path = PathBuf::from("snap-test.snap");
        // Flip one bit in every byte position past the header: each
        // must surface as a typed error (checksum, version, …), never
        // a panic or a silent success.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                decode_snapshot(&path, &corrupt).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn unknown_snapshot_version_is_typed() {
        let g = SocialGraph::new();
        let mut bytes = encode_snapshot(&g, &PolicyStore::new(), 0);
        bytes[8] = 99;
        let err = decode_snapshot(&PathBuf::from("x.snap"), &bytes).unwrap_err();
        assert!(matches!(
            err,
            DurabilityError::UnsupportedVersion { found: 99, .. }
        ));
    }
}
