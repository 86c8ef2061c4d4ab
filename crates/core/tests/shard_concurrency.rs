//! Concurrency smoke tests for the sharded serving layer: reader
//! threads hammer `check_batch` / `audience_batch` through the `&self`
//! epoch read path while a writer interleaves edge appends and
//! republications. The tests assert the absence of stale-decision
//! panics (every read sees a coherent epoch), that post-publication
//! reads reflect the appends, and — for the batched bundle path — that
//! every batch is **torn-free**: all conditions of one
//! `audience_batch` call observe a single coherent epoch.

use parking_lot::RwLock;
use socialreach_core::{Decision, ResourceId, ShardedSystem};
use socialreach_graph::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn readers_race_a_writer_across_epochs() {
    // A two-shard system with a friend chain u0 → u1 → … → u5 and a
    // resource shared under friend+[1..8]; the writer keeps extending
    // the chain with fresh members.
    let sys = RwLock::new(ShardedSystem::new(2, 3));
    let (rid, mut members) = {
        let mut s = sys.write();
        let members: Vec<NodeId> = (0..6).map(|i| s.add_user(&format!("u{i}"))).collect();
        for w in members.windows(2) {
            s.connect(w[0], "friend", w[1]);
        }
        let rid = s.share(members[0]);
        s.allow(rid, "friend+[1..8]").unwrap();
        // Publish every shard once before the race: publication is
        // lazy, so without this an interleaving where all appends land
        // before the first read would publish each shard exactly once.
        assert_eq!(s.service().check(rid, members[1]).unwrap(), Decision::Grant);
        (rid, members)
    };

    const APPENDS: usize = 8;
    const READS_PER_THREAD: usize = 40;
    let reads_done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Writer: extend the chain, one member + edge per publication.
        let writer_members = &mut members;
        let sys_ref = &sys;
        let writer = scope.spawn(move || {
            for i in 0..APPENDS {
                let mut s = sys_ref.write();
                let tail = *writer_members.last().unwrap();
                let fresh = s.add_user(&format!("w{i}"));
                s.connect(tail, "friend", fresh);
                writer_members.push(fresh);
                drop(s);
                std::thread::yield_now();
            }
        });

        // Readers: batch decisions + audiences against whatever epoch
        // is current; every answer must be coherent for *some* state
        // of the chain (prefix growth ⇒ grants only ever increase).
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reads_done = &reads_done;
                scope.spawn(move || {
                    for _ in 0..READS_PER_THREAD {
                        let s = sys_ref.read();
                        let n = s.num_members() as u32;
                        let requests: Vec<(ResourceId, NodeId)> =
                            (1..n.min(8)).map(|i| (rid, NodeId(i))).collect();
                        let decisions = s
                            .service()
                            .check_batch(&requests, 2)
                            .expect("no stale panics");
                        assert_eq!(decisions.len(), requests.len());
                        let audience = s.service().audience(rid).expect("audience evaluates");
                        assert!(
                            audience.contains(&NodeId(0)),
                            "the owner is always in the audience"
                        );
                        // u1..u5 are within depth 8 from the start.
                        for (req, d) in requests.iter().zip(&decisions) {
                            if req.1 .0 <= 5 && req.1 .0 >= 1 {
                                assert_eq!(
                                    *d,
                                    Decision::Grant,
                                    "chain prefix member {:?} must stay granted",
                                    req.1
                                );
                            }
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

    // Post-publication reads reflect every append: the extended chain
    // members u5 → w0 → w1 … sit within depth 8 up to w2.
    let s = sys.read();
    for (i, &m) in members.iter().enumerate().skip(1) {
        let within = i <= 8; // friend+[1..8] reaches 8 hops
        let expect = if within {
            Decision::Grant
        } else {
            Decision::Deny
        };
        assert_eq!(
            s.service().check(rid, m).unwrap(),
            expect,
            "member {i} of the chain"
        );
    }
    let audience = s.service().audience(rid).unwrap();
    assert!(audience.len() >= 9, "audience covers the appended prefix");
    let epochs = s.snapshot_epochs();
    assert!(
        epochs.iter().any(|&e| e >= 2),
        "appends republished at least one shard epoch: {epochs:?}"
    );
}

#[test]
fn batched_readers_observe_coherent_bundles_across_epochs() {
    // Two resources with *equivalent but distinct* rules — the same
    // friend chain expressed as an unbounded range and as an explicit
    // depth list. Distinct `PathExpr`s means the bundle evaluates two
    // conditions (two masked fixpoints over one set of pinned shard
    // snapshots); equal audiences within every single batch proves the
    // bundle was not torn across epochs while the writer grows the
    // chain.
    let sys = RwLock::new(ShardedSystem::new(3, 5));
    let (rid_range, rid_list, mut members) = {
        let mut s = sys.write();
        let members: Vec<NodeId> = (0..6).map(|i| s.add_user(&format!("u{i}"))).collect();
        for w in members.windows(2) {
            s.connect(w[0], "friend", w[1]);
        }
        let rid_range = s.share(members[0]);
        s.allow(rid_range, "friend+[1..16]").unwrap();
        let rid_list = s.share(members[0]);
        s.allow(rid_list, "friend+[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]")
            .unwrap();
        (rid_range, rid_list, members)
    };

    const APPENDS: usize = 8;
    const READS_PER_THREAD: usize = 30;
    let reads_done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let writer_members = &mut members;
        let sys_ref = &sys;
        let writer = scope.spawn(move || {
            for i in 0..APPENDS {
                let mut s = sys_ref.write();
                let tail = *writer_members.last().unwrap();
                let fresh = s.add_user(&format!("w{i}"));
                s.connect(tail, "friend", fresh);
                writer_members.push(fresh);
                drop(s);
                std::thread::yield_now();
            }
        });

        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reads_done = &reads_done;
                scope.spawn(move || {
                    for _ in 0..READS_PER_THREAD {
                        let s = sys_ref.read();
                        // The batched bundle: both conditions must see
                        // one chain state.
                        let bundle = s
                            .service()
                            .audience_batch(&[rid_range, rid_list])
                            .expect("bundle");
                        assert_eq!(
                            bundle[0], bundle[1],
                            "torn bundle: equivalent conditions diverged within one batch"
                        );
                        assert!(bundle[0].contains(&NodeId(0)), "owner always present");
                        // Batched decisions agree with the audience
                        // *from the same locked state* (prefix members
                        // are granted at every epoch).
                        let requests: Vec<(ResourceId, NodeId)> = (1..6u32)
                            .flat_map(|i| [(rid_range, NodeId(i)), (rid_list, NodeId(i))])
                            .collect();
                        let decisions = s
                            .service()
                            .check_batch(&requests, 2)
                            .expect("no stale panics");
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

    // Post-publication: the final batch reflects every append on both
    // equivalent rules, and decisions match audiences exactly.
    let s = sys.read();
    let bundle = s.service().audience_batch(&[rid_range, rid_list]).unwrap();
    assert_eq!(bundle[0], bundle[1]);
    assert_eq!(
        bundle[0].len(),
        (6 + APPENDS).min(17),
        "friend+[1..16] reaches 16 hops plus the owner"
    );
    for &m in &members {
        let granted = bundle[0].binary_search(&m).is_ok();
        let d = s.service().check(rid_range, m).unwrap();
        assert_eq!(
            d,
            if granted || m == NodeId(0) {
                Decision::Grant
            } else {
                Decision::Deny
            },
            "decision/audience divergence at {m:?}"
        );
    }
}
