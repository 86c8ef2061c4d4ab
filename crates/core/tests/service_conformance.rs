//! Trait-level conformance suite for the [`AccessService`] /
//! [`MutateService`] API: one scenario script, written **only** against
//! the deployment-agnostic traits, runs against every backend —
//! `Deployment::online`, `Deployment::sharded` (several shard counts)
//! and `Deployment::networked` (a live shard fleet behind loopback
//! TCP) — and must answer it as the shared-nothing oracle
//! (`common::oracle`) reads it, with every granted explain walk
//! replayed by the oracle. The random comparison of every deployment
//! with the oracle is `differential_matrix`.

mod common;

use common::{apply_script, scenario, scripted_oracle, Wrap, Wrapped};
use proptest::prelude::*;
use socialreach_core::{
    AccessResponse, AccessService, BundleStrategy, CheckPlan, Decision, Deployment, EvalError,
    Explanation, MutateService, Mutation, PlannerMode, PolicyStore, ReadBatch, ReadRequest,
    ReadStats, ResourceId,
};
use socialreach_graph::{GraphError, NodeId, SocialGraph};

/// The deployments every conformance scenario must agree across. The
/// first entry is the reference. The networked leg spawns a live
/// in-process shard fleet whose handles are leaked: the servers must
/// outlive every use of the returned deployment, and test processes
/// end soon after.
fn deployments() -> Vec<Deployment> {
    vec![
        Deployment::online(),
        Deployment::sharded(1, 3),
        Deployment::sharded(4, 3),
        Deployment::sharded(7, 3),
        networked(3),
    ]
}

/// A networked deployment over a fresh (leaked) loopback fleet of
/// `shards` servers. A fleet serves exactly one build: its shards
/// refuse a second router.
fn networked(shards: usize) -> Deployment {
    let fleet = socialreach_core::remote::spawn_local_fleet(shards, false).expect("fleet spawns");
    let addrs = fleet.iter().map(|h| h.addr().clone()).collect();
    std::mem::forget(fleet);
    Deployment::networked_with(addrs, 3)
}

/// Every backend serves the script as the oracle reads it: per-member
/// decisions, audiences, batched reads and explain grant-ness.
#[test]
fn all_backends_agree_on_the_scenario_script() {
    for deployment in deployments() {
        let mut svc = deployment.build();
        apply_script(svc.writes());
        common::assert_serves_the_scenario(svc.reads());
    }
}

/// Pins the scenario's concrete semantics on the reference backend, so
/// conformance can never drift into "all backends agree on the wrong
/// answer" without this failing.
#[test]
fn scenario_semantics_are_the_expected_ones() {
    let mut svc = Deployment::online().build();
    let rids = apply_script(svc.writes());
    let reads = svc.reads();
    let id = |name: &str| reads.resolve_user(name).unwrap();
    let (album, feed, diary) = (rids[0], rids[1], rids[3]);
    // Cleo is 2 friend-hops from Ava and adult; Dan is 3 hops and 17.
    assert_eq!(reads.check(album, id("Cleo")).unwrap(), Decision::Grant);
    assert_eq!(reads.check(album, id("Dan")).unwrap(), Decision::Deny);
    // Ben has no age attribute: predicate fails closed.
    assert_eq!(reads.check(album, id("Ben")).unwrap(), Decision::Deny);
    // The feed disjoins friends-at-any-depth with follower paths.
    assert_eq!(reads.check(feed, id("Dan")).unwrap(), Decision::Grant);
    assert_eq!(reads.check(feed, id("June")).unwrap(), Decision::Grant);
    // Private resources admit only their owner.
    assert_eq!(
        reads.audience(diary).unwrap(),
        vec![id("Edith")],
        "no rules ⇒ owner-only audience"
    );
}

/// Every granted explain of every backend replays through the oracle
/// against the script's graph.
#[test]
fn granted_explains_replay_through_the_path_automaton() {
    let (raw, rids, _) = scripted_oracle();
    let resources = scenario();
    for deployment in deployments() {
        let mut svc = deployment.build();
        let script_rids = apply_script(svc.writes());
        assert_eq!(script_rids, rids, "the script is deterministic");
        let reads = svc.reads();
        for (&rid, res) in rids.iter().zip(&resources) {
            for member in 0..reads.num_members() as u32 {
                let member = NodeId(member);
                let explanation = reads.explain(rid, member).unwrap();
                match (&explanation, reads.check(rid, member).unwrap()) {
                    (Some(e), Decision::Grant) => {
                        common::assert_explanation_valid(reads, &raw.g, member, &res.rules, e);
                        // Rendering is deployment-agnostic: walk lines
                        // read the same on every backend.
                        for line in e.render(reads) {
                            assert!(
                                !line.is_empty(),
                                "rendered walk line is non-empty ({})",
                                reads.describe()
                            );
                        }
                    }
                    (None, Decision::Deny) => {}
                    (e, d) => panic!(
                        "explain/check divergence on {}: rid={rid:?} member={member} {e:?} vs {d:?}",
                        reads.describe()
                    ),
                }
            }
        }
    }
}

/// A backend behind `wrap`, written by the script.
fn scripted(deployment: &Deployment, wrap: Wrap) -> (Wrapped, Vec<ResourceId>) {
    let mut svc = Wrapped::new(deployment, wrap, None);
    let rids = apply_script(svc.writes());
    (svc, rids)
}

/// Provided ≡ primitive, through every decorator: on bare,
/// `DurableService`-wrapped and `PlannedService`-wrapped backends every
/// provided read equals the primitive it is defined by, a decorator
/// passes the inner census through unchanged (checked against a bare
/// twin), and a heterogeneous batch through `read` answers exactly
/// like the named reads, in request order, under every forced route and
/// strategy, with a sane census (single-graph deployments never export
/// boundary states).
#[test]
fn read_batches_match_individual_reads_everywhere() {
    let wraps = [
        Wrap::Bare,
        Wrap::Durable,
        Wrap::Planned(PlannerMode::ForcedBatch),
        Wrap::Planned(PlannerMode::ForcedPerCondition),
    ];
    for wrap in wraps {
        for (deployment, twin) in deployments().into_iter().zip(deployments()) {
            let (svc, rids) = scripted(&deployment, wrap);
            let (bare, _) = scripted(&twin, Wrap::Bare);
            let (reads, bare) = (svc.reads(), bare.reads());
            let tag = format!("{wrap:?} over {}", bare.describe());
            let members: Vec<NodeId> = (0..reads.num_members() as u32).map(NodeId).collect();
            let requests: Vec<(ResourceId, NodeId)> = rids
                .iter()
                .flat_map(|&rid| members.iter().map(move |&m| (rid, m)))
                .collect();

            // Census pass-through, on caches equally cold on both sides.
            for &(rid, m) in &requests {
                assert_eq!(
                    reads.check_with_stats(rid, m).unwrap(),
                    bare.check_with_stats(rid, m).unwrap(),
                    "check census of {rid:?}/{m} ({tag})"
                );
                assert_eq!(
                    reads.explain_with_stats(rid, m).unwrap(),
                    bare.explain_with_stats(rid, m).unwrap(),
                    "explain census of {rid:?}/{m} ({tag})"
                );
            }
            for strategy in [BundleStrategy::Batched, BundleStrategy::PerCondition] {
                assert_eq!(
                    reads.audience_batch_forced(&rids, strategy).unwrap(),
                    bare.audience_batch_forced(&rids, strategy).unwrap(),
                    "{strategy:?} bundle census ({tag})"
                );
            }
            assert_eq!(
                reads.default_check_plan(requests.len()),
                bare.default_check_plan(requests.len())
            );

            // Provided reads equal the primitives they are defined by.
            let chosen = match wrap {
                Wrap::Planned(PlannerMode::ForcedPerCondition) => BundleStrategy::PerCondition,
                _ => BundleStrategy::Batched,
            };
            let bundle = reads.audience_batch_with_stats(&rids).unwrap();
            assert_eq!(
                bundle,
                reads.audience_batch_forced(&rids, chosen).unwrap(),
                "{tag}"
            );
            assert_eq!(reads.audience_batch(&rids).unwrap(), bundle.0, "{tag}");
            for (&rid, audience) in rids.iter().zip(&bundle.0) {
                assert_eq!(&reads.audience(rid).unwrap(), audience, "{tag}");
                for &m in &members {
                    let d = reads.check(rid, m).unwrap();
                    assert_eq!(d, reads.check_with_stats(rid, m).unwrap().0, "{tag}");
                    let lone = reads
                        .check_batch_forced(&[(rid, m)], 1, CheckPlan::Targeted)
                        .unwrap();
                    assert_eq!(d, lone.0[0], "{tag}");
                    assert_eq!(d.is_granted(), audience.contains(&m), "{tag}");
                    let explained = reads.explain(rid, m).unwrap();
                    assert_eq!(explained.is_some(), d.is_granted(), "{tag}");
                    assert_eq!(explained, reads.explain_with_stats(rid, m).unwrap().0);
                    assert_eq!(
                        reads.explain_lines(rid, m).unwrap(),
                        explained.map(|e| e.render(reads)),
                        "{tag}"
                    );
                }
            }
            let routed = reads.check_batch_with_stats(&requests, 1).unwrap();
            let plan = reads.default_check_plan(requests.len());
            assert_eq!(
                routed.0,
                reads.check_batch_forced(&requests, 1, plan).unwrap().0,
                "{tag}"
            );
            assert_eq!(reads.check_batch(&requests, 1).unwrap(), routed.0, "{tag}");
            let query = (members[0], "MATCH (o)-[:friend*1..2]->(v)");
            assert_eq!(
                reads.query_audience(query.0, query.1).unwrap(),
                reads.query_audience_bundle(&[query]).unwrap()[0],
                "{tag}"
            );

            // Forcing a bundle strategy is honoured: one traversal per
            // distinct condition, whatever the default would batch.
            let (_, per) = reads
                .audience_batch_forced(&rids, BundleStrategy::PerCondition)
                .unwrap();
            assert!(per.conditions > 1, "{tag}");
            assert_eq!(per.traversals, per.conditions, "{tag}");

            // The heterogeneous batch answers like the named reads, in
            // request order, under every forced route and strategy and
            // under none; each kind's census sits on its first read, and
            // the censuses sum to those of the kinds read alone.
            let texts = [
                "MATCH (o)-[:friend*1..2]->(v)",
                "colleague*[1..3]",
                "MATCH (o)-[:stranger]->(v)",
            ];
            let mut mixed = ReadBatch::new();
            for (k, &rid) in rids.iter().enumerate() {
                mixed = mixed.audience(rid);
                for &m in &members {
                    mixed = mixed.check(rid, m).explain(rid, m);
                }
                mixed = mixed.query(members[k], texts[k % texts.len()]);
            }
            let forced = [
                (None, None),
                (Some(CheckPlan::Targeted), None),
                (Some(CheckPlan::Audience(BundleStrategy::Batched)), None),
                (
                    Some(CheckPlan::Audience(BundleStrategy::PerCondition)),
                    None,
                ),
                (None, Some(BundleStrategy::Batched)),
                (None, Some(BundleStrategy::PerCondition)),
            ];
            for (plan, strategy) in forced {
                let tag = format!("{tag}, plan {plan:?}, strategy {strategy:?}");
                let batch = ReadBatch {
                    plan,
                    strategy,
                    ..mixed.clone()
                };
                let responses = reads.read(&batch).unwrap();
                assert_eq!(responses.len(), batch.reads.len(), "{tag}");
                let mut kinds = Vec::new();
                for (read, got) in batch.reads.iter().zip(&responses) {
                    let first = !kinds.contains(&std::mem::discriminant(read));
                    if first {
                        kinds.push(std::mem::discriminant(read));
                    }
                    match read {
                        &ReadRequest::Check {
                            resource,
                            requester,
                        } => {
                            let want = reads.check(resource, requester).unwrap();
                            assert_eq!(got.decision, Some(want), "{tag}");
                        }
                        &ReadRequest::Audience { resource } => {
                            let want = match strategy {
                                Some(s) => reads.audience_batch_forced(&[resource], s).unwrap().0,
                                None => reads.audience_batch(&[resource]).unwrap(),
                            };
                            assert_eq!(got.audience.as_ref(), want.first(), "{tag}");
                            if matches!(deployment, Deployment::Single) {
                                assert_eq!(
                                    got.stats.exported_states, 0,
                                    "single-graph reads never cross a boundary"
                                );
                            }
                        }
                        &ReadRequest::Explain {
                            resource,
                            requester,
                        } => {
                            let want = reads.explain_with_stats(resource, requester).unwrap();
                            assert_eq!((got.explanation.clone(), got.stats), want, "{tag}");
                            let granted = want.0.is_some();
                            let decided = if granted {
                                Decision::Grant
                            } else {
                                Decision::Deny
                            };
                            assert_eq!(got.decision, Some(decided), "{tag}");
                            if let Some(Explanation::Ownership { owner }) = &want.0 {
                                assert_eq!(*owner, requester, "the owner asked");
                            }
                        }
                        ReadRequest::Query { owner, text } => {
                            let want = reads.query_audience(*owner, text).unwrap();
                            assert_eq!(got.audience.as_ref(), Some(&want), "{tag}");
                        }
                    }
                    if !first && !matches!(read, ReadRequest::Explain { .. }) {
                        assert_eq!(got.stats, ReadStats::default(), "census on the first read");
                    }
                }
                let census = |responses: &[AccessResponse]| {
                    let mut total = ReadStats::default();
                    responses.iter().for_each(|r| total.absorb(&r.stats));
                    total
                };
                let mut alone = ReadStats::default();
                for kind in kinds {
                    let reads_of_kind = batch
                        .reads
                        .iter()
                        .filter(|r| std::mem::discriminant(*r) == kind)
                        .cloned()
                        .collect();
                    let one_kind = ReadBatch {
                        reads: reads_of_kind,
                        ..batch.clone()
                    };
                    alone.absorb(&census(&reads.read(&one_kind).unwrap()));
                }
                assert_eq!(census(&responses), alone, "{tag}");
            }
        }
    }
}

/// A write naming a member the deployment never registered, or a
/// float the log cannot carry, is a typed refusal on every backend
/// behind every decorator — never a panic.
/// A durable leg logs nothing for it, and its directory still reopens
/// to the same answers.
#[test]
fn unknown_member_ids_are_typed_refusals_everywhere() {
    let wraps = [
        Wrap::Bare,
        Wrap::Durable,
        Wrap::Planned(PlannerMode::Adaptive),
    ];
    for wrap in wraps {
        for deployment in deployments() {
            let (mut svc, rids) = scripted(&deployment, wrap);
            let tag = format!("{wrap:?} over {}", deployment.describe());
            let unknown = NodeId(svc.reads().num_members() as u32);
            let logged = match &svc {
                Wrapped::Durable(s, _) => s.wal_records(),
                _ => 0,
            };
            let writes = [
                Mutation::SetUserAttr {
                    user: unknown,
                    key: "age".to_owned(),
                    value: 40i64.into(),
                },
                Mutation::AddRelationship {
                    src: NodeId(0),
                    label: "friend".to_owned(),
                    dst: unknown,
                },
                Mutation::AddResource { owner: unknown },
            ];
            for m in &writes {
                match svc.writes().apply(m) {
                    Err(EvalError::Graph(GraphError::UnknownNode(n))) => {
                        assert_eq!(n, unknown, "{m} ({tag})")
                    }
                    other => panic!("{m} ({tag}): expected UnknownNode, got {other:?}"),
                }
            }
            let nan = Mutation::SetUserAttr {
                user: NodeId(0),
                key: "score".to_owned(),
                value: f64::NAN.into(),
            };
            assert!(
                matches!(
                    svc.writes().apply(&nan),
                    Err(EvalError::NonFiniteAttr { .. })
                ),
                "a value the log cannot carry is refused ({tag})"
            );
            assert_eq!(svc.reads().num_members(), unknown.0 as usize, "{tag}");
            // Reads naming the unknown member are refused the same way.
            let reads = svc.reads();
            let (rid, known) = (rids[0], NodeId(0));
            let refused: [(&str, Result<(), EvalError>); 5] = [
                ("check", reads.check(rid, unknown).map(drop)),
                ("explain", reads.explain(rid, unknown).map(drop)),
                (
                    "check_batch",
                    reads
                        .check_batch(&[(rid, known), (rid, unknown)], 1)
                        .map(drop),
                ),
                (
                    "check_batch of two",
                    reads
                        .check_batch(&[(rid, unknown), (rid, known)], 2)
                        .map(drop),
                ),
                (
                    "query_audience",
                    reads.query_audience(unknown, "friend+[1]").map(drop),
                ),
            ];
            for (read, outcome) in refused {
                match outcome {
                    Err(EvalError::Graph(GraphError::UnknownNode(n))) => {
                        assert_eq!(n, unknown, "{read} ({tag})")
                    }
                    other => panic!("{read} ({tag}): expected UnknownNode, got {other:?}"),
                }
            }
            if let Wrapped::Durable(s, dir) = &svc {
                assert_eq!(s.wal_records(), logged, "a refusal is never logged ({tag})");
                // A fleet serves one router: reopen over a fresh one.
                let again = match &deployment {
                    Deployment::Networked(spec) => networked(spec.addrs.len()),
                    other => other.clone(),
                };
                let reopened = again.durable(&dir.0).expect("the directory still recovers");
                common::assert_services_agree(svc.reads(), reopened.reads(), &rids);
            }
        }
    }
}

/// A write that narrows an audience revokes a cached grant: Cleo's
/// grant under `friend+[1,2]{age>=18}` is answered from the decision
/// cache, a `SetUserAttr` then takes her under 18, and the next check
/// denies — on both check routes of every backend behind every
/// decorator. A cache that outlived the write would serve the grant.
#[test]
fn a_narrowing_write_revokes_a_cached_grant_everywhere() {
    let wraps = [
        Wrap::Bare,
        Wrap::Durable,
        Wrap::Planned(PlannerMode::Adaptive),
    ];
    let plans = [
        CheckPlan::Targeted,
        CheckPlan::Audience(BundleStrategy::Batched),
    ];
    for wrap in wraps {
        for deployment in deployments() {
            let (mut svc, rids) = scripted(&deployment, wrap);
            let album = rids[0];
            let cleo = svc.reads().resolve_user("Cleo").unwrap();
            for plan in plans {
                let tag = format!("{plan:?} on {wrap:?} over {}", deployment.describe());
                let check = |svc: &Wrapped| {
                    let reads = svc.reads();
                    reads
                        .check_batch_forced(&[(album, cleo)], 1, plan)
                        .unwrap()
                        .0[0]
                };
                let set_age = |svc: &mut Wrapped, age: i64| {
                    let user = cleo;
                    let (key, value) = ("age".to_owned(), age.into());
                    let write = Mutation::SetUserAttr { user, key, value };
                    svc.writes().apply(&write).unwrap();
                };
                set_age(&mut svc, 26);
                assert_eq!(check(&svc), Decision::Grant, "{tag}");
                let (hits, misses) = svc.reads().cache_stats();
                assert_eq!(check(&svc), Decision::Grant, "{tag}");
                assert_eq!(
                    svc.reads().cache_stats(),
                    (hits + 1, misses),
                    "the grant is served from the cache ({tag})"
                );
                set_age(&mut svc, 16);
                assert_eq!(check(&svc), Decision::Deny, "revoked ({tag})");
            }
        }
    }
}

/// A read publishes an epoch, then topology grows: an `AddRelationship`
/// opens a new grant on the feed (Femi joins at friend depth 4 of its
/// owner Ava; on the second route Gus at depth 2), and an `AddUser`
/// joins a member with a friend edge from Ava. The next check batch
/// grants both, on each check route of every backend behind every
/// decorator. A publisher that kept serving the read's epoch would deny
/// them.
#[test]
fn topology_written_after_a_read_is_seen_everywhere() {
    let wraps = [
        Wrap::Bare,
        Wrap::Durable,
        Wrap::Planned(PlannerMode::Adaptive),
    ];
    let growth = [
        (CheckPlan::Targeted, ("Dan", "Femi"), "Kai"),
        (
            CheckPlan::Audience(BundleStrategy::Batched),
            ("Edith", "Gus"),
            "Lea",
        ),
    ];
    for wrap in wraps {
        for deployment in deployments() {
            let (mut svc, rids) = scripted(&deployment, wrap);
            let feed = rids[1];
            for (plan, (src, dst), joiner) in growth {
                let tag = format!("{plan:?} on {wrap:?} over {}", deployment.describe());
                let check = |svc: &Wrapped, requests: &[(ResourceId, NodeId)]| {
                    let reads = svc.reads();
                    reads.check_batch_forced(requests, 1, plan).unwrap().0
                };
                let id = |name: &str| svc.reads().resolve_user(name).unwrap();
                let (ava, src, dst) = (id("Ava"), id(src), id(dst));
                assert_eq!(check(&svc, &[(feed, dst)]), [Decision::Deny], "{tag}");
                let writes = svc.writes();
                writes.add_relationship(src, "friend", dst);
                let joined = writes.add_user(joiner);
                writes.add_relationship(ava, "friend", joined);
                assert_eq!(
                    check(&svc, &[(feed, dst), (feed, joined)]),
                    [Decision::Grant, Decision::Grant],
                    "{tag}"
                );
            }
        }
    }
}

/// A graph decoded by serde without `rebuild_lookups` lends an empty
/// label lookup. Loaded into a partition it must serve like the single
/// graph does: a rule or an ad-hoc query added after the load names the
/// loaded labels, not fresh ones no loaded edge carries.
#[test]
fn a_decoded_graph_without_lookups_serves_like_the_single_graph() {
    let mut g = SocialGraph::new();
    let m: Vec<NodeId> = ["Alice", "Bob", "Carol", "Dan", "Eve"]
        .iter()
        .map(|name| g.add_node(name))
        .collect();
    for (src, label, dst) in [
        (0, "friend", 1),
        (1, "friend", 2),
        (2, "colleague", 3),
        (1, "colleague", 4),
        (4, "friend", 0),
    ] {
        g.connect(m[src], label, m[dst]);
    }
    let json = serde_json::to_string(&g).unwrap();
    let decoded: SocialGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(decoded.node_by_name("Alice"), None, "no lookups");
    assert_eq!(decoded.vocab().label("friend"), None, "none at all");
    let rules = ["friend+[1]", "friend+[1..2]/colleague+[1]"];
    let queries = [(m[0], "friend+[1]"), (m[3], "colleague-[1]/friend-[1]")];
    let answers = |deployment: &Deployment| {
        let mut svc = deployment.from_graph(&decoded, PolicyStore::new());
        let mut checks = Vec::new();
        for rule in rules {
            let rid = svc.add_resource(m[0]);
            svc.add_rule(rid, rule).unwrap();
            for &requester in &m {
                checks.push(svc.check(rid, requester).unwrap());
            }
        }
        let audiences: Vec<Vec<NodeId>> = queries
            .iter()
            .map(|&(owner, text)| svc.query_audience(owner, text).unwrap())
            .collect();
        (checks, audiences)
    };
    let want = answers(&Deployment::online());
    assert!(want.0.contains(&Decision::Grant), "the rules grant someone");
    assert_eq!(want.1, [vec![m[1]], vec![m[1]]], "each query reaches Bob");
    for deployment in [Deployment::sharded(2, 3), networked(2)] {
        assert_eq!(answers(&deployment), want, "{}", deployment.describe());
    }
}

/// Routes agree on decisions **and** cache accounting: one script with
/// owner requests, duplicate requests and already-cached requests is
/// decided under every [`CheckPlan`] on fresh twins of every backend;
/// the decisions are identical and the `cache_stats()` delta is the
/// same — owners count as neither, a cached request is a hit, and a
/// duplicate of an uncached request is one miss then one hit.
#[test]
fn check_routes_agree_on_decisions_and_cache_accounting() {
    let plans = [
        CheckPlan::Targeted,
        CheckPlan::Audience(BundleStrategy::Batched),
        CheckPlan::Audience(BundleStrategy::PerCondition),
    ];
    let (_, _, want) = scripted_oracle();
    for plan in plans {
        let mut legs = deployments();
        legs.push(networked(2));
        for deployment in legs {
            let mut svc = deployment.build();
            let rids = apply_script(svc.writes());
            let reads = svc.reads();
            let tag = format!("{plan:?} on {}", reads.describe());
            let id = |name: &str| reads.resolve_user(name).unwrap();
            let (album, feed, memo, diary, ring) = (rids[0], rids[1], rids[2], rids[3], rids[4]);

            // Two decisions land in the cache ahead of the batch.
            let cached = [(album, id("Cleo")), (feed, id("Dan"))];
            for (rid, m) in cached {
                reads.check(rid, m).unwrap();
            }
            let owners = [(album, id("Ava")), (diary, id("Edith"))];
            let fresh = [
                (album, id("Ben")),
                (memo, id("Gus")),
                (feed, id("June")),
                (diary, id("Ava")),
                (ring, id("Gus")),
            ];
            let duplicates = [fresh[0], fresh[1], fresh[3]];
            let requests: Vec<(ResourceId, NodeId)> = [
                &owners[..1],
                &fresh[..2],
                &cached[..],
                &duplicates[..2],
                &fresh[2..],
                &owners[1..],
                &duplicates[2..],
            ]
            .concat();

            let (hits0, misses0) = reads.cache_stats();
            assert_eq!((hits0, misses0), (0, cached.len() as u64), "{tag}");
            let (decisions, _) = reads.check_batch_forced(&requests, 1, plan).unwrap();
            let (hits1, misses1) = reads.cache_stats();
            assert_eq!(
                (hits1 - hits0, misses1 - misses0),
                ((cached.len() + duplicates.len()) as u64, fresh.len() as u64),
                "cache accounting ({tag})"
            );
            for (&(rid, m), &d) in requests.iter().zip(&decisions) {
                assert_eq!(d, reads.check(rid, m).unwrap(), "{rid:?}/{m} ({tag})");
                let granted = want[rid.0 as usize].contains(&m);
                assert_eq!(d.is_granted(), granted, "the oracle on {rid:?}/{m} ({tag})");
            }
        }
    }
}

/// The uniform [`socialreach_core::ReadStats`] agree on what was
/// evaluated: same deduped condition count on every backend, boundary
/// exports only where shards exist.
#[test]
fn read_stats_are_comparable_across_backends() {
    let mut censuses = Vec::new();
    for deployment in deployments() {
        let mut svc = deployment.build();
        let rids = apply_script(svc.writes());
        let (audiences, stats) = svc.reads().audience_batch_with_stats(&rids).unwrap();
        assert_eq!(audiences.len(), rids.len());
        assert!(stats.conditions >= 5, "{}", svc.reads().describe());
        assert!(stats.traversals >= 1);
        if matches!(deployment, Deployment::Single) {
            assert_eq!(stats.exported_states, 0);
        }
        censuses.push((svc.reads().describe(), stats));
    }
    let conditions = censuses[0].1.conditions;
    for (name, stats) in &censuses {
        assert_eq!(
            stats.conditions, conditions,
            "{name} dedups the same bundle to the same conditions"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generic differential harness, instantiated at
    /// `Deployment::online` vs `Deployment::sharded(4)` on seeded random
    /// cases, with the online answers pinned to the oracle's.
    #[test]
    fn single_and_sharded_deployments_agree_on_random_workloads(
        case in common::cases(),
        seed in 0..1000u64,
    ) {
        let rids = common::case_rids(&case);
        let single = common::serve(&Deployment::online(), &case);
        let want = common::oracle_audiences(&case);
        prop_assert_eq!(single.reads().audience_batch(&rids).unwrap(), want);
        common::assert_explains(single.reads(), &case, "online");
        let sharded = common::serve(&Deployment::sharded(4, seed), &case);
        common::assert_services_agree(single.reads(), sharded.reads(), &rids);
    }
}
