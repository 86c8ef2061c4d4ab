//! Fault-injection suite for the durability layer: every way the disk
//! can lie — torn tails, truncated logs, bit flips, corrupt or stale
//! or future-versioned snapshots, fabricated records — must surface
//! as a typed [`DurabilityError`] or recover to a state differentially
//! identical to a never-crashed twin of the surviving prefix. Recovery
//! must never panic and never silently grant.

mod common;

use common::{durable_script as script, reference_prefix, rids_after, DataDir};
use socialreach_core::{Deployment, DurabilityError, MutateService};
use std::path::Path;

/// Populates a durable service in `dir` with the full script.
fn populate(deployment: &Deployment, dir: &Path) {
    let mut svc = deployment.durable(dir).unwrap();
    for m in script() {
        svc.apply(&m).unwrap();
    }
}

/// Parses the WAL's frame boundaries: byte offset where each frame
/// ends (frame layout `[u32 len][u32 crc][payload]`).
fn frame_ends(wal: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 0;
    while pos + 8 <= wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        assert!(pos <= wal.len(), "test WAL is well-formed");
        ends.push(pos);
    }
    ends
}

#[test]
fn torn_tail_recovers_the_prefix() {
    // Mode 1: the log ends mid-frame (crash during append). Recovery
    // keeps the valid prefix, reports the torn tail, truncates it, and
    // the result is differentially identical to a never-crashed twin
    // that executed exactly the surviving records.
    for deployment in [Deployment::online(), Deployment::sharded(3, 3)] {
        let dir = DataDir::new("torntail");
        populate(&deployment, &dir.0);
        let wal = std::fs::read(dir.wal()).unwrap();
        let ends = frame_ends(&wal);
        assert_eq!(ends.len(), script().len());

        // Cut into the last frame: header survives, payload doesn't.
        for cut in [ends[ends.len() - 1] - 1, ends[ends.len() - 2] + 8 + 3] {
            std::fs::write(dir.wal(), &wal[..cut]).unwrap();
            let recovered = deployment.durable(&dir.0).unwrap();
            let report = recovered.recovery_report();
            let survived = ends.len() - 1;
            assert_eq!(report.wal_records, survived as u64, "cut at byte {cut}");
            let torn = report.torn_tail.clone().expect("torn tail is reported");
            assert_eq!(torn.offset, ends[survived - 1] as u64);

            let reference = reference_prefix(&deployment, survived);
            common::assert_services_agree(
                reference.reads(),
                recovered.reads(),
                &rids_after(survived),
            );
            // The tail was truncated away: reopening again sees a
            // clean log.
            assert_eq!(
                std::fs::metadata(dir.wal()).unwrap().len(),
                ends[survived - 1] as u64
            );
        }
    }
}

#[test]
fn torn_header_recovers_the_prefix() {
    // Mode 2: the crash left fewer than 8 header bytes. Every prefix
    // length down to "half the previous frame gone" recovers cleanly.
    let deployment = Deployment::online();
    let dir = DataDir::new("tornheader");
    populate(&deployment, &dir.0);
    let wal = std::fs::read(dir.wal()).unwrap();
    let ends = frame_ends(&wal);
    for partial in 1..8 {
        let cut = ends[ends.len() - 1];
        let mut bytes = wal[..cut].to_vec();
        bytes.truncate(ends[ends.len() - 2] + partial);
        std::fs::write(dir.wal(), &bytes).unwrap();
        let recovered = deployment.durable(&dir.0).unwrap();
        assert_eq!(recovered.wal_records(), (ends.len() - 1) as u64);
        assert!(recovered.recovery_report().torn_tail.is_some());
    }
}

#[test]
fn bitflip_mid_log_is_a_typed_error() {
    // Mode 3: a checksum mismatch *before* the final frame cannot be a
    // torn write — recovery must refuse with CorruptWal, not guess.
    let deployment = Deployment::online();
    let dir = DataDir::new("bitflip");
    populate(&deployment, &dir.0);
    let wal = std::fs::read(dir.wal()).unwrap();
    let ends = frame_ends(&wal);
    // Flip one payload byte in the third frame.
    let mut corrupt = wal.clone();
    corrupt[ends[1] + 8] ^= 0x01;
    std::fs::write(dir.wal(), &corrupt).unwrap();
    match deployment.durable(&dir.0) {
        Err(DurabilityError::CorruptWal { offset, .. }) => {
            assert_eq!(offset, ends[1] as u64, "damage located at its frame")
        }
        Err(other) => panic!("expected CorruptWal, got {other:?}"),
        Ok(_) => panic!("a mid-log bit flip must not recover"),
    }
}

#[test]
fn every_single_byte_flip_never_panics_and_never_extends_state() {
    // Recovery sweep: flip one bit at *every* byte of the WAL. Each
    // attempt must return Ok (torn-tail or checksum-caught-at-tail) or
    // a typed error — never panic — and an Ok recovery never invents
    // state beyond the never-crashed twin.
    let deployment = Deployment::online();
    let dir = DataDir::new("sweep");
    populate(&deployment, &dir.0);
    let wal = std::fs::read(dir.wal()).unwrap();
    let full = reference_prefix(&deployment, script().len());
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
        // Recovery may have truncated a tail it diagnosed as torn;
        // restore the pristine log for the next position.
        std::fs::write(dir.wal(), &wal).unwrap();
    }
}

#[test]
fn midlog_length_corruption_is_corrupt_not_torn() {
    // Mode 3b (the regression this suite existed to catch): a flipped
    // *length* byte in a non-final frame. Depending on the bit this
    // either fails the checksum or makes the frame claim to run past
    // the end of the log — and the scanner used to classify the latter
    // as a torn tail, truncating every acknowledged record after the
    // damage. Valid frames past the flip prove mid-log corruption, so
    // recovery must refuse with CorruptWal and leave the file alone.
    let deployment = Deployment::online();
    let dir = DataDir::new("lenflip");
    populate(&deployment, &dir.0);
    let wal = std::fs::read(dir.wal()).unwrap();
    let ends = frame_ends(&wal);
    let frame_start = ends[2]; // fourth frame: mid-log, plenty after it
    for byte in 0..4 {
        for mask in [0x01u8, 0x10, 0x80] {
            let mut corrupt = wal.clone();
            corrupt[frame_start + byte] ^= mask;
            std::fs::write(dir.wal(), &corrupt).unwrap();
            match deployment.durable(&dir.0) {
                Err(DurabilityError::CorruptWal { offset, .. }) => {
                    assert_eq!(
                        offset, frame_start as u64,
                        "len byte {byte} mask {mask:#04x}: damage located at its frame"
                    );
                }
                Err(other) => {
                    panic!("len byte {byte} mask {mask:#04x}: expected CorruptWal, got {other:?}")
                }
                Ok(_) => {
                    panic!("len byte {byte} mask {mask:#04x}: a corrupted length must not recover")
                }
            }
            // Zero data loss: the refusal must not have truncated the
            // log — every byte is still there for repair.
            assert_eq!(
                std::fs::read(dir.wal()).unwrap(),
                corrupt,
                "len byte {byte} mask {mask:#04x}: refusal left the file untouched"
            );
        }
    }
    // Restoring the pristine log recovers the full state: nothing was
    // discarded along the way.
    std::fs::write(dir.wal(), &wal).unwrap();
    let recovered = deployment.durable(&dir.0).unwrap();
    let reference = reference_prefix(&deployment, script().len());
    common::assert_services_agree(
        reference.reads(),
        recovered.reads(),
        &rids_after(script().len()),
    );
}

#[test]
fn snapshot_after_torn_recovery_covers_the_truncated_position() {
    // A snapshot taken right after a torn-tail recovery must be
    // stamped with the *post-truncation* record count: stamping the
    // pre-crash count would make later recoveries skip real records.
    // Proven end to end: tear → recover → snapshot → write more →
    // recover again → equals the never-crashed twin of the surviving
    // history.
    for deployment in [Deployment::online(), Deployment::sharded(3, 3)] {
        let dir = DataDir::new("snapaftertorn");
        populate(&deployment, &dir.0);
        let wal = std::fs::read(dir.wal()).unwrap();
        let ends = frame_ends(&wal);
        let survived = ends.len() - 1;
        std::fs::write(dir.wal(), &wal[..ends[survived - 1] + 5]).unwrap();

        {
            let svc = deployment.durable(&dir.0).unwrap();
            assert!(svc.recovery_report().torn_tail.is_some());
            assert_eq!(svc.wal_records(), survived as u64);
            let snap = svc.snapshot().unwrap();
            assert!(
                snap.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .contains(&format!("{survived:020}")),
                "snapshot stamped with the post-truncation position"
            );
        }
        {
            let mut svc = deployment.durable(&dir.0).unwrap();
            let report = svc.recovery_report();
            assert_eq!(
                report.snapshot_loaded.as_ref().unwrap().1,
                survived as u64,
                "recovery seeds from the post-truncation snapshot"
            );
            assert_eq!(report.records_replayed, 0);
            svc.writes().add_user("Zed");
        }

        let recovered = deployment.durable(&dir.0).unwrap();
        assert_eq!(recovered.wal_records(), (survived + 1) as u64);
        let mut reference = reference_prefix(&deployment, survived);
        reference.writes().add_user("Zed");
        common::assert_services_agree(reference.reads(), recovered.reads(), &rids_after(survived));
    }
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_older_plus_longer_replay() {
    // Mode 4: the newest snapshot is damaged. Recovery skips it (with
    // a typed error in the report), loads the older snapshot, replays
    // the longer WAL suffix, and still agrees with the full reference.
    for deployment in [Deployment::online(), Deployment::sharded(2, 3)] {
        let dir = DataDir::new("snapfall");
        let steps = script();
        let half = steps.len() / 2;
        {
            let mut svc = deployment.durable(&dir.0).unwrap();
            for m in &steps[..half] {
                svc.apply(m).unwrap();
            }
            let _old_snap = svc.snapshot().unwrap();
            for m in &steps[half..] {
                svc.apply(m).unwrap();
            }
            let new_snap = svc.snapshot().unwrap();
            // Damage the newest snapshot's body.
            let mut bytes = std::fs::read(&new_snap).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&new_snap, &bytes).unwrap();
        }

        let recovered = deployment.durable(&dir.0).unwrap();
        let report = recovered.recovery_report();
        assert_eq!(report.snapshots_skipped.len(), 1, "newest was skipped");
        assert!(
            matches!(
                report.snapshots_skipped[0].1,
                DurabilityError::CorruptSnapshot { .. }
            ),
            "skip reason is typed: {:?}",
            report.snapshots_skipped[0].1
        );
        let (_, covered) = report.snapshot_loaded.clone().expect("older snapshot");
        assert_eq!(covered, half as u64);
        assert_eq!(report.records_replayed, (steps.len() - half) as u64);

        let reference = reference_prefix(&deployment, steps.len());
        common::assert_services_agree(
            reference.reads(),
            recovered.reads(),
            &rids_after(steps.len()),
        );
    }
}

#[test]
fn unknown_snapshot_version_is_skipped_loudly() {
    // Mode 5: a snapshot from a future format version. Recovery
    // reports UnsupportedVersion and falls back (here: to full WAL
    // replay from empty state).
    let deployment = Deployment::online();
    let dir = DataDir::new("version");
    populate(&deployment, &dir.0);
    {
        let svc = deployment.durable(&dir.0).unwrap();
        let snap = svc.snapshot().unwrap();
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[8] = 0x2A; // version 42
        std::fs::write(&snap, &bytes).unwrap();
    }
    let recovered = deployment.durable(&dir.0).unwrap();
    let report = recovered.recovery_report();
    assert!(report.snapshot_loaded.is_none());
    assert!(matches!(
        report.snapshots_skipped[0].1,
        DurabilityError::UnsupportedVersion { found: 42, .. }
    ));
    assert_eq!(report.records_replayed, report.wal_records);

    let reference = reference_prefix(&deployment, script().len());
    common::assert_services_agree(
        reference.reads(),
        recovered.reads(),
        &rids_after(script().len()),
    );
}

#[test]
fn snapshot_ahead_of_truncated_wal_is_skipped() {
    // Mode 6: the snapshot claims more records than the log holds (the
    // log was lost or swapped). The snapshot is unusable — replaying
    // from its position would skip operations — so recovery falls back
    // to what the log can prove.
    let deployment = Deployment::online();
    let dir = DataDir::new("ahead");
    populate(&deployment, &dir.0);
    {
        let svc = deployment.durable(&dir.0).unwrap();
        svc.snapshot().unwrap();
    }
    // Lose the log.
    std::fs::remove_file(dir.wal()).unwrap();
    let recovered = deployment.durable(&dir.0).unwrap();
    let report = recovered.recovery_report();
    assert!(matches!(
        report.snapshots_skipped[0].1,
        DurabilityError::SnapshotAheadOfWal { .. }
    ));
    assert!(report.snapshot_loaded.is_none());
    assert_eq!(recovered.reads().num_members(), 0, "nothing is provable");
}

#[test]
fn fabricated_record_is_a_typed_error() {
    // Mode 7: a structurally valid frame carrying a record the decoder
    // does not know (or that cannot re-apply) is never silently
    // skipped. Build a frame with a correct checksum over garbage
    // JSON.
    let deployment = Deployment::online();
    let dir = DataDir::new("fabricated");
    populate(&deployment, &dir.0);
    let mut wal = std::fs::read(dir.wal()).unwrap();
    let first_frame = wal[..frame_ends(&wal)[0]].to_vec();
    let payload = br#"{"GrantEverything":{}}"#;
    let len = (payload.len() as u32).to_le_bytes();
    let mut checked = Vec::new();
    checked.extend_from_slice(&len);
    checked.extend_from_slice(payload);
    let crc = socialreach_graph::wire::crc32(&checked).to_le_bytes();
    wal.extend_from_slice(&len);
    wal.extend_from_slice(&crc);
    wal.extend_from_slice(payload);
    // One real frame after it, so the fabrication is not at the tail.
    wal.extend_from_slice(&first_frame);
    std::fs::write(dir.wal(), &wal).unwrap();
    match deployment.durable(&dir.0) {
        Err(DurabilityError::CorruptWal { detail, .. }) => {
            assert!(detail.contains("undecodable"), "loud reason: {detail}")
        }
        Err(other) => panic!("expected CorruptWal for a fabricated record, got {other:?}"),
        Ok(_) => panic!("a fabricated record must not recover"),
    }
}

#[test]
fn replayed_record_with_out_of_range_id_is_a_typed_error() {
    // Mode 8: a record referencing a member that never existed (a log
    // that disagrees with its own history). Replay errors; it must
    // not panic or fabricate members.
    let deployment = Deployment::online();
    let dir = DataDir::new("outofrange");
    {
        let mut svc = deployment.durable(&dir.0).unwrap();
        svc.writes().add_user("Ava");
    }
    // Append a frame claiming an edge between members 7 and 9.
    let payload = br#"{"AddRelationship":{"src":7,"label":"friend","dst":9}}"#;
    let len = (payload.len() as u32).to_le_bytes();
    let mut checked = Vec::new();
    checked.extend_from_slice(&len);
    checked.extend_from_slice(payload);
    let crc = socialreach_graph::wire::crc32(&checked).to_le_bytes();
    let mut wal = std::fs::read(dir.wal()).unwrap();
    wal.extend_from_slice(&len);
    wal.extend_from_slice(&crc);
    wal.extend_from_slice(payload);
    std::fs::write(dir.wal(), &wal).unwrap();
    match deployment.durable(&dir.0) {
        Err(DurabilityError::Replay { record, detail }) => {
            assert_eq!(record, 1);
            assert!(detail.contains("out of range"), "loud reason: {detail}");
        }
        Err(other) => panic!("expected Replay error, got {other:?}"),
        Ok(_) => panic!("an out-of-range record must not recover"),
    }
}

#[test]
fn wal_bytes_are_pinned_per_record_kind() {
    // The write-ahead log's on-disk format is a compatibility contract:
    // every data directory ever written must keep recovering. One record
    // of each kind, written through the public write seam, must produce
    // exactly these frames (`[u32 LE len][u32 LE CRC-32][JSON payload]`)
    // and exactly these `history` lines.
    let dir = DataDir::new("golden");
    {
        let mut svc = Deployment::online().durable(&dir.0).unwrap();
        let w = svc.writes();
        let ava = w.add_user("Ava");
        let ben = w.add_user("Ben");
        w.set_user_attr(ben, "age", 30i64.into());
        w.add_relationship(ava, "friend", ben);
        let rid = w.add_resource(ava);
        w.add_rule(rid, "friend+[1]").unwrap();
    }
    let golden: [(u32, u32, &str, &str); 6] = [
        (
            26,
            0x9d0ba7a5,
            r#"{"AddUser":{"name":"Ava"}}"#,
            r#"add-user "Ava""#,
        ),
        (
            26,
            0x64bc280f,
            r#"{"AddUser":{"name":"Ben"}}"#,
            r#"add-user "Ben""#,
        ),
        (
            57,
            0xaea0b80b,
            r#"{"SetUserAttr":{"user":1,"key":"age","value":{"Int":30}}}"#,
            "set-attr member=1 age=Int(30)",
        ),
        (
            54,
            0x9df040db,
            r#"{"AddRelationship":{"src":0,"label":"friend","dst":1}}"#,
            "add-relationship 0 -friend-> 1",
        ),
        (
            27,
            0x3749320d,
            r#"{"AddResource":{"owner":0}}"#,
            "add-resource owner=0",
        ),
        (
            46,
            0xf9d93c4f,
            r#"{"AddRule":{"resource":0,"path":"friend+[1]"}}"#,
            r#"add-rule resource=0 "friend+[1]""#,
        ),
    ];
    let wal = std::fs::read(dir.wal()).unwrap();
    let history = socialreach_core::durability::read_history(&dir.0).unwrap();
    let mut expected = Vec::new();
    for (len, crc, payload, _) in golden {
        assert_eq!(len as usize, payload.len(), "{payload}");
        expected.extend_from_slice(&len.to_le_bytes());
        expected.extend_from_slice(&crc.to_le_bytes());
        expected.extend_from_slice(payload.as_bytes());
    }
    assert_eq!(wal, expected, "wal.log bytes");
    let lines: Vec<String> = history.iter().map(|e| e.record.to_string()).collect();
    let want: Vec<&str> = golden.iter().map(|g| g.3).collect();
    assert_eq!(lines, want, "history lines");
}
