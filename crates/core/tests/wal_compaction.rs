//! Snapshot-anchored WAL compaction. The contract: compaction only
//! ever cuts the log at a position a valid on-disk snapshot covers, a
//! compacted log recovers *identically* to the uncompacted one (fault
//! modes included), positions stay absolute across the cut, and
//! history below the new base becomes a typed refusal — never a
//! silent wrong answer.

mod common;

use common::{durable_script as script, reference_prefix, rids_after, DataDir};
use socialreach_core::{read_history, Deployment, DurabilityError, MutateService};
use std::path::Path;

const WAL_MAGIC: &[u8; 8] = b"SRWALHDR";
const WAL_HEADER_LEN: usize = 20;

/// Snapshot positions bracketing the policy steps: an early anchor the
/// compaction deletes, a later one it cuts at.
const EARLY: usize = 6;
const LATE: usize = 14;

/// Populates `dir` with the full script, snapshotting after [`EARLY`]
/// and [`LATE`] records, then compacts at `horizon`. Returns the
/// snapshot file names (early, late).
fn populate_and_compact(
    deployment: &Deployment,
    dir: &DataDir,
    horizon: u64,
) -> (String, String, socialreach_core::CompactionReport) {
    let steps = script();
    let mut svc = deployment.durable(&dir.0).unwrap();
    for m in &steps[..EARLY] {
        svc.apply(m).unwrap();
    }
    let early = svc.snapshot().unwrap();
    for m in &steps[EARLY..LATE] {
        svc.apply(m).unwrap();
    }
    let late = svc.snapshot().unwrap();
    for m in &steps[LATE..] {
        svc.apply(m).unwrap();
    }
    let report = svc.compact(horizon).unwrap();
    let name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
    (name(&early), name(&late), report)
}

/// Frame end offsets of a (possibly compacted) WAL: the compaction
/// header is skipped, offsets are absolute file positions.
fn frame_ends(wal: &[u8]) -> Vec<usize> {
    let mut pos = if wal.starts_with(WAL_MAGIC) {
        WAL_HEADER_LEN
    } else {
        0
    };
    let mut ends = Vec::new();
    while pos + 8 <= wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        assert!(pos <= wal.len(), "test WAL is well-formed");
        ends.push(pos);
    }
    ends
}

#[test]
fn compaction_without_a_snapshot_is_a_noop() {
    // The log is never cut past what a snapshot can prove: with no
    // snapshot on disk there is no anchor, so nothing moves.
    let deployment = Deployment::online();
    let dir = DataDir::new("noop");
    let mut svc = deployment.durable(&dir.0).unwrap();
    for m in script() {
        svc.apply(&m).unwrap();
    }
    let before = std::fs::read(dir.wal()).unwrap();
    let report = svc.compact(script().len() as u64).unwrap();
    assert_eq!(report.anchor, None);
    assert_eq!(report.records_dropped, 0);
    assert_eq!(report.base, 0);
    assert_eq!(std::fs::read(dir.wal()).unwrap(), before, "log untouched");
    assert_eq!(svc.wal_base(), 0);
}

#[test]
fn compacted_log_recovers_identically() {
    // The core soundness claim, on both deployment shapes: compact at
    // a horizon between the two snapshots, keep writing through the
    // same service (the append handle must follow the rewritten
    // inode), reopen, and the result equals a never-crashed twin.
    for deployment in [Deployment::online(), Deployment::sharded(4, 7)] {
        let n = script().len();
        let dir = DataDir::new("sound");
        // Horizon past LATE but before the end: the LATE snapshot is
        // the newest at-or-below it.
        let (early, late, report) = populate_and_compact(&deployment, &dir, (n - 1) as u64);
        assert_eq!(report.anchor, Some((late.clone(), LATE as u64)));
        assert_eq!(report.base, LATE as u64);
        assert_eq!(report.records_dropped, LATE as u64);
        assert_eq!(report.snapshots_deleted, vec![early.clone()]);
        assert!(!dir.0.join(&early).exists(), "pre-base snapshot deleted");

        // The rewritten log announces its base in a checksummed header.
        let wal = std::fs::read(dir.wal()).unwrap();
        assert!(wal.starts_with(WAL_MAGIC));
        assert_eq!(frame_ends(&wal).len(), n - LATE);

        // Appends after compaction must land in the new file.
        {
            let mut svc = deployment.durable(&dir.0).unwrap();
            assert_eq!(svc.wal_base(), LATE as u64);
            svc.writes().add_user("Post");
        }

        let recovered = deployment.durable(&dir.0).unwrap();
        let report = recovered.recovery_report();
        assert_eq!(report.wal_base, LATE as u64);
        assert_eq!(report.wal_records, (n + 1) as u64);
        let (loaded, covered) = report
            .snapshot_loaded
            .clone()
            .expect("anchor seeds recovery");
        assert_eq!((loaded, covered), (late, LATE as u64));
        assert_eq!(report.records_replayed, (n + 1 - LATE) as u64);

        let mut reference = reference_prefix(&deployment, n);
        reference.writes().add_user("Post");
        common::assert_services_agree(reference.reads(), recovered.reads(), &rids_after(n));

        // History survives with absolute positions, starting at base.
        let history = read_history(&dir.0).unwrap();
        assert_eq!(history.len(), n + 1 - LATE);
        assert_eq!(history[0].position, LATE as u64);
    }
}

#[test]
fn compaction_is_idempotent_and_never_cuts_backward() {
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("idem");
    let (_, late, _) = populate_and_compact(&deployment, &dir, (n - 1) as u64);
    let mut svc = deployment.durable(&dir.0).unwrap();

    // Same horizon again: the anchor still matches, nothing to drop.
    let again = svc.compact((n - 1) as u64).unwrap();
    assert_eq!(again.anchor, Some((late, LATE as u64)));
    assert_eq!(again.records_dropped, 0);
    assert_eq!(again.base, LATE as u64);

    // A horizon below the current base has no reachable anchor: no-op,
    // the base never moves backward.
    let backward = svc.compact((LATE - 1) as u64).unwrap();
    assert_eq!(backward.anchor, None);
    assert_eq!(backward.base, LATE as u64);
}

#[test]
fn durable_at_spans_the_compaction_boundary() {
    // Point-in-time reads at and above the base still work and agree
    // with incremental twins; below the base they are typed refusals,
    // never a wrong answer.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("boundary");
    populate_and_compact(&deployment, &dir, (n - 1) as u64);

    for k in LATE..=n {
        let at = deployment.durable_at(&dir.0, k as u64).unwrap();
        let twin = reference_prefix(&deployment, k);
        common::assert_services_agree(twin.reads(), at.reads(), &rids_after(k));
    }
    match deployment.durable_at(&dir.0, (LATE - 1) as u64) {
        Err(DurabilityError::HistoryCompacted {
            requested, base, ..
        }) => {
            assert_eq!((requested, base), ((LATE - 1) as u64, LATE as u64));
        }
        Err(other) => panic!("expected HistoryCompacted, got {other:?}"),
        Ok(_) => panic!("a position below the base must not recover"),
    }
}

#[test]
fn snapshots_after_compaction_stay_absolute() {
    // A snapshot taken after the cut is stamped with the absolute
    // position, seeds a zero-replay recovery, and can anchor a further
    // compaction of the post-cut records.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("absolute");
    populate_and_compact(&deployment, &dir, (n - 1) as u64);
    {
        let mut svc = deployment.durable(&dir.0).unwrap();
        svc.writes().add_user("Post");
        svc.snapshot().unwrap();
        let report = svc.compact((n + 1) as u64).unwrap();
        assert_eq!(
            report.anchor.as_ref().map(|(_, pos)| *pos),
            Some((n + 1) as u64)
        );
        assert_eq!(report.base, (n + 1) as u64);
    }
    let recovered = deployment.durable(&dir.0).unwrap();
    let report = recovered.recovery_report();
    assert_eq!(report.wal_base, (n + 1) as u64);
    assert_eq!(report.records_replayed, 0);
    let mut reference = reference_prefix(&deployment, n);
    reference.writes().add_user("Post");
    common::assert_services_agree(reference.reads(), recovered.reads(), &rids_after(n));
}

#[test]
fn torn_tail_on_a_compacted_log_recovers_the_prefix() {
    // The fault suite's torn-tail mode replayed on a compacted log,
    // including the snapshot-after-torn-recovery contract: the next
    // snapshot covers the post-truncation position, absolutely.
    for deployment in [Deployment::online(), Deployment::sharded(3, 3)] {
        let n = script().len();
        let dir = DataDir::new("torn");
        populate_and_compact(&deployment, &dir, (n - 1) as u64);
        let wal = std::fs::read(dir.wal()).unwrap();
        let ends = frame_ends(&wal);
        std::fs::write(dir.wal(), &wal[..ends[ends.len() - 1] - 3]).unwrap();

        {
            let svc = deployment.durable(&dir.0).unwrap();
            let report = svc.recovery_report();
            assert!(report.torn_tail.is_some());
            assert_eq!(report.wal_records, (n - 1) as u64, "absolute count");
            let twin = reference_prefix(&deployment, n - 1);
            common::assert_services_agree(twin.reads(), svc.reads(), &rids_after(n - 1));
            svc.snapshot().unwrap();
        }
        // The snapshot covers n-1; replaying a fresh write lands at n.
        {
            let mut svc = deployment.durable(&dir.0).unwrap();
            assert_eq!(
                svc.recovery_report().snapshot_loaded.as_ref().unwrap().1,
                (n - 1) as u64
            );
            svc.writes().add_user("Zed");
        }
        let recovered = deployment.durable(&dir.0).unwrap();
        let mut twin = reference_prefix(&deployment, n - 1);
        twin.writes().add_user("Zed");
        common::assert_services_agree(twin.reads(), recovered.reads(), &rids_after(n - 1));
    }
}

#[test]
fn midlog_damage_on_a_compacted_log_is_corrupt() {
    // A payload flip in a retained non-final frame: still CorruptWal,
    // located at the damaged frame's absolute file offset.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("midlog");
    populate_and_compact(&deployment, &dir, (n - 1) as u64);
    let wal = std::fs::read(dir.wal()).unwrap();
    let ends = frame_ends(&wal);
    assert!(ends.len() >= 2, "at least two retained frames");
    let mut corrupt = wal.clone();
    corrupt[WAL_HEADER_LEN + 8] ^= 0x01; // first retained frame's payload
    std::fs::write(dir.wal(), &corrupt).unwrap();
    match deployment.durable(&dir.0) {
        Err(DurabilityError::CorruptWal { offset, .. }) => {
            assert_eq!(offset, WAL_HEADER_LEN as u64)
        }
        Err(other) => panic!("expected CorruptWal, got {other:?}"),
        Ok(_) => panic!("mid-log damage must not recover"),
    }
}

#[test]
fn header_damage_is_corrupt_never_a_quiet_restart() {
    // Flip every byte of the compaction header. A damaged magic makes
    // the file look headerless — but the retained frames that follow
    // prove the prefix is not a torn tail, so every variant must be a
    // typed CorruptWal at offset 0, never an empty-state recovery.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("header");
    populate_and_compact(&deployment, &dir, (n - 1) as u64);
    let wal = std::fs::read(dir.wal()).unwrap();
    for i in 0..WAL_HEADER_LEN {
        let mut corrupt = wal.clone();
        corrupt[i] ^= 0x04;
        std::fs::write(dir.wal(), &corrupt).unwrap();
        match deployment.durable(&dir.0) {
            Err(DurabilityError::CorruptWal { offset, .. }) => {
                assert_eq!(offset, 0, "header byte {i}")
            }
            Err(other) => panic!("header byte {i}: expected CorruptWal, got {other:?}"),
            Ok(_) => panic!("header byte {i}: damaged header must not recover"),
        }
        std::fs::write(dir.wal(), &wal).unwrap();
    }
}

#[test]
fn missing_anchor_is_a_typed_refusal() {
    // A compacted log whose anchor snapshot is gone cannot fall back
    // to "empty + full replay" — the pre-base records no longer exist.
    // Recovery and point-in-time reads must refuse loudly.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("anchorless");
    let (_, late, _) = populate_and_compact(&deployment, &dir, (n - 1) as u64);
    std::fs::remove_file(dir.0.join(&late)).unwrap();

    match deployment.durable(&dir.0) {
        Err(DurabilityError::MissingCompactionAnchor { base, .. }) => {
            assert_eq!(base, LATE as u64)
        }
        Err(other) => panic!("expected MissingCompactionAnchor, got {other:?}"),
        Ok(_) => panic!("an anchorless compacted log must not recover"),
    }
    assert!(matches!(
        deployment.durable_at(&dir.0, n as u64),
        Err(DurabilityError::MissingCompactionAnchor { .. })
    ));
}

#[test]
fn corrupt_anchor_falls_back_to_a_newer_snapshot() {
    // The anchor is damaged but a newer snapshot exists: recovery
    // skips the anchor loudly and seeds from the newer one.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("anchorfall");
    let (_, late, _) = populate_and_compact(&deployment, &dir, (n - 1) as u64);
    {
        let svc = deployment.durable(&dir.0).unwrap();
        svc.snapshot().unwrap(); // covers n
    }
    let anchor_path = dir.0.join(&late);
    let mut bytes = std::fs::read(&anchor_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&anchor_path, &bytes).unwrap();

    let recovered = deployment.durable(&dir.0).unwrap();
    let report = recovered.recovery_report();
    assert_eq!(report.snapshot_loaded.as_ref().unwrap().1, n as u64);
    assert_eq!(report.records_replayed, 0);
    let reference = reference_prefix(&deployment, n);
    common::assert_services_agree(reference.reads(), recovered.reads(), &rids_after(n));
}

#[test]
fn stale_snapshot_below_the_base_is_skipped_loudly() {
    // A crash between compaction's rename and its snapshot cleanup can
    // leave a pre-base snapshot behind. Recovery must classify it —
    // SnapshotBehindCompactedWal — and proceed from the anchor.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("stale");

    // Save the early snapshot's bytes, compact (which deletes it),
    // then put it back as the leftover.
    let steps = script();
    let early_bytes;
    {
        let mut svc = deployment.durable(&dir.0).unwrap();
        for m in &steps[..EARLY] {
            svc.apply(m).unwrap();
        }
        let early = svc.snapshot().unwrap();
        early_bytes = (early.clone(), std::fs::read(&early).unwrap());
        for m in &steps[EARLY..LATE] {
            svc.apply(m).unwrap();
        }
        svc.snapshot().unwrap();
        for m in &steps[LATE..] {
            svc.apply(m).unwrap();
        }
        svc.compact((n - 1) as u64).unwrap();
    }
    std::fs::write(&early_bytes.0, &early_bytes.1).unwrap();

    // The anchor outranks the leftover: recovery seeds from it and the
    // stale file changes nothing.
    {
        let recovered = deployment.durable(&dir.0).unwrap();
        let report = recovered.recovery_report();
        assert_eq!(report.snapshot_loaded.as_ref().unwrap().1, LATE as u64);
        let reference = reference_prefix(&deployment, n);
        common::assert_services_agree(reference.reads(), recovered.reads(), &rids_after(n));
    }

    // With the anchor also damaged, the below-base leftover must NOT
    // masquerade as one — replaying forward from position EARLY is
    // impossible (records EARLY..LATE are gone), so recovery refuses
    // with the anchor error rather than silently losing history.
    let anchor = dir.0.join(format!("snap-{:020}.snap", LATE));
    let mut bytes = std::fs::read(&anchor).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&anchor, &bytes).unwrap();
    match deployment.durable(&dir.0) {
        Err(DurabilityError::MissingCompactionAnchor { base, .. }) => {
            assert_eq!(base, LATE as u64)
        }
        Err(other) => panic!("expected MissingCompactionAnchor, got {other:?}"),
        Ok(_) => panic!("a below-base snapshot must not seed recovery"),
    }
}

#[test]
fn every_byte_flip_on_a_compacted_log_never_panics_or_extends_state() {
    // The fault suite's whole-file flip sweep, replayed over header +
    // retained frames of a compacted log: every flip recovers Ok
    // without inventing state, or fails with a typed error class.
    let deployment = Deployment::online();
    let n = script().len();
    let dir = DataDir::new("sweep");
    populate_and_compact(&deployment, &dir, (n - 1) as u64);
    let wal = std::fs::read(dir.wal()).unwrap();
    let full = reference_prefix(&deployment, n);
    let full_members = full.reads().num_members();
    for i in 0..wal.len() {
        let mut corrupt = wal.clone();
        corrupt[i] ^= 0x04;
        std::fs::write(dir.wal(), &corrupt).unwrap();
        match deployment.durable(&dir.0) {
            Ok(recovered) => {
                assert!(
                    recovered.reads().num_members() <= full_members,
                    "flip at byte {i} invented members"
                );
            }
            Err(DurabilityError::CorruptWal { .. } | DurabilityError::Replay { .. }) => {}
            Err(other) => panic!("flip at byte {i}: unexpected error class {other:?}"),
        }
        std::fs::write(dir.wal(), &wal).unwrap();
    }
}
