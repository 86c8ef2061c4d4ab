//! Concurrency smoke tests for the durable decorator: reader threads
//! holding `&dyn AccessService` hammer batched reads while a writer
//! interleaves WAL-logged appends and while snapshots persist from
//! under a read lock (`DurableService::snapshot` takes `&self`).
//! Mirrors the torn-bundle assertions of `shard_concurrency.rs`: two
//! equivalent rules must never diverge within one batch, on the live
//! service, during snapshotting, and on a freshly recovered service
//! republishing its epochs from disk.

mod common;

use common::DataDir;

use parking_lot::RwLock;
use socialreach_core::{AccessService, Decision, Deployment, DurableService, ResourceId};
use socialreach_graph::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Seeds the chain u0 → u1 → … → u5 with two equivalent rules on two
/// resources (an unbounded range vs. an explicit depth list).
fn seed(svc: &mut DurableService) -> (ResourceId, ResourceId, Vec<NodeId>) {
    let members: Vec<NodeId> = (0..6)
        .map(|i| svc.writes().add_user(&format!("u{i}")))
        .collect();
    for w in members.windows(2) {
        svc.writes().add_relationship(w[0], "friend", w[1]);
    }
    let rid_range = svc.writes().add_resource(members[0]);
    svc.writes().add_rule(rid_range, "friend+[1..16]").unwrap();
    let rid_list = svc.writes().add_resource(members[0]);
    svc.writes()
        .add_rule(rid_list, "friend+[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]")
        .unwrap();
    (rid_range, rid_list, members)
}

/// Readers race a writer (WAL appends) and periodic snapshots; every
/// batched read must observe one coherent state.
fn race(deployment: &Deployment, dir: &DataDir, snapshot_during: bool) -> Vec<NodeId> {
    let svc = RwLock::new(deployment.durable(&dir.0).unwrap());
    let (rid_range, rid_list, mut members) = seed(&mut svc.write());

    const APPENDS: usize = 8;
    const READS_PER_THREAD: usize = 25;
    let reads_done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let writer_members = &mut members;
        let svc_ref = &svc;
        let writer = scope.spawn(move || {
            for i in 0..APPENDS {
                {
                    let mut s = svc_ref.write();
                    let tail = *writer_members.last().unwrap();
                    let fresh = s.writes().add_user(&format!("w{i}"));
                    s.writes().add_relationship(tail, "friend", fresh);
                    writer_members.push(fresh);
                }
                if snapshot_during {
                    // Snapshot under a *read* lock: persistence runs
                    // concurrently with the reader threads.
                    svc_ref.read().snapshot().expect("snapshot persists");
                }
                std::thread::yield_now();
            }
        });

        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reads_done = &reads_done;
                scope.spawn(move || {
                    for _ in 0..READS_PER_THREAD {
                        let s = svc_ref.read();
                        let reads: &dyn AccessService = s.reads();
                        let bundle = reads
                            .audience_batch(&[rid_range, rid_list])
                            .expect("bundle evaluates");
                        assert_eq!(
                            bundle[0], bundle[1],
                            "torn bundle: equivalent conditions diverged within one batch"
                        );
                        assert!(bundle[0].contains(&NodeId(0)), "owner always present");
                        let requests: Vec<(ResourceId, NodeId)> = (1..6u32)
                            .flat_map(|i| [(rid_range, NodeId(i)), (rid_list, NodeId(i))])
                            .collect();
                        let decisions = reads.check_batch(&requests, 2).expect("no stale panics");
                        for (req, d) in requests.iter().zip(&decisions) {
                            assert_eq!(
                                *d,
                                Decision::Grant,
                                "chain prefix member {:?} must stay granted",
                                req.1
                            );
                        }
                        reads_done.fetch_add(1, Ordering::Relaxed);
                        drop(s);
                        std::thread::yield_now();
                    }
                })
            })
            .collect();

        writer.join().expect("writer never panics");
        for h in handles {
            h.join().expect("reader never panics");
        }
    });

    assert_eq!(reads_done.load(Ordering::Relaxed), 4 * READS_PER_THREAD);

    // Post-race: both equivalent rules cover the full appended chain.
    let s = svc.read();
    let bundle = s.reads().audience_batch(&[rid_range, rid_list]).unwrap();
    assert_eq!(bundle[0], bundle[1]);
    assert_eq!(
        bundle[0].len(),
        (6 + APPENDS).min(17),
        "friend+[1..16] reaches 16 hops plus the owner"
    );
    members
}

#[test]
fn readers_race_a_writer_on_the_durable_decorator() {
    for deployment in [Deployment::online(), Deployment::sharded(2, 3)] {
        let dir = DataDir::new("race");
        race(&deployment, &dir, false);
    }
}

#[test]
fn readers_race_a_writer_while_snapshots_persist() {
    for deployment in [Deployment::online(), Deployment::sharded(2, 3)] {
        let dir = DataDir::new("snapshotting");
        race(&deployment, &dir, true);

        // The writes that raced the snapshots are all durable: a
        // recovered twin answers identically to a never-crashed one.
        let recovered = deployment.durable(&dir.0).unwrap();
        assert!(
            recovered.recovery_report().snapshot_loaded.is_some(),
            "the raced snapshots are loadable"
        );
        let reference = deployment.durable(&dir.0).unwrap();
        common::assert_services_agree(
            reference.reads(),
            recovered.reads(),
            &[ResourceId(0), ResourceId(1)],
        );
    }
}

#[test]
fn readers_race_recovery_republished_epochs() {
    // Crash after the race, recover, then race readers against the
    // *recovered* service while a writer extends its chain further —
    // the epochs republished from disk serve coherent bundles under
    // the same assertions as the live ones.
    for deployment in [Deployment::online(), Deployment::sharded(2, 3)] {
        let dir = DataDir::new("recovered");
        let members = race(&deployment, &dir, true);
        let chain_len = members.len();

        let svc = RwLock::new(deployment.durable(&dir.0).unwrap());
        let (rid_range, rid_list) = (ResourceId(0), ResourceId(1));

        const EXTRA_APPENDS: usize = 4;
        std::thread::scope(|scope| {
            let svc_ref = &svc;
            let writer = scope.spawn(move || {
                for i in 0..EXTRA_APPENDS {
                    let mut s = svc_ref.write();
                    let tail = NodeId((chain_len - 1 + i) as u32);
                    let fresh = s.writes().add_user(&format!("x{i}"));
                    s.writes().add_relationship(tail, "friend", fresh);
                    drop(s);
                    std::thread::yield_now();
                }
            });
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        for _ in 0..20 {
                            let s = svc_ref.read();
                            let bundle = s
                                .reads()
                                .audience_batch(&[rid_range, rid_list])
                                .expect("bundle evaluates");
                            assert_eq!(bundle[0], bundle[1], "torn bundle after recovery");
                            drop(s);
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            writer.join().expect("writer never panics");
            for h in handles {
                h.join().expect("reader never panics");
            }
        });

        // And the post-recovery appends are themselves durable.
        drop(svc);
        let recovered = deployment.durable(&dir.0).unwrap();
        assert_eq!(
            recovered.reads().num_members(),
            chain_len + EXTRA_APPENDS,
            "appends made after recovery survive the next recovery"
        );
    }
}
