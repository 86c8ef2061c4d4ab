//! Shared setup for experiment P14 — the telemetry-fed adaptive read
//! planner.
//!
//! The question: does `PlannedService` in `Adaptive` mode converge to
//! the winning engine per bundle — within 10% of the **best** forced
//! strategy on every regime after warm-up, and strictly better than
//! the **worst** forced strategy on the flip regimes where the engines
//! genuinely diverge (experiment P10, recorded in CHANGES.md: batch
//! ≈3.7× on dense bundles, ≈0.8× on sparse ones; experiment P12, also
//! recorded there: the masked fixpoint 1.2–2.4× on cross-heavy shards)?
//!
//! The sweep re-creates those flip regimes and adds the mixed stream
//! the planner exists for:
//!
//! * `dense` — single graph, few templates shared by 64 owners
//!   (batched mask BFS wins);
//! * `sparse` — label-diverse graph, one template per resource
//!   (per-condition walks win);
//! * `cross-heavy` — 4 shards, 90% boundary ties, owners fanned
//!   round-robin (batched masked fixpoint wins);
//! * `low-crossing` — 4 shards, 10% boundary ties (near tie);
//! * `mixed` — one single-graph stream interleaving dense and sparse
//!   bundles, where no forced mode can win both halves.
//!
//! Every case asserts `adaptive ≡ forced-batch ≡ forced-per-condition
//! ≡ unplanned reference` on the full read stream **before** any
//! timing (the assertion pass doubles as planner warm-up), so the
//! bench can never drift from the differential-tested semantics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialreach_core::{
    AccessService, Deployment, PlannedService, PlannerMode, PolicyStore, ResourceId,
    ServiceInstance,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};
use socialreach_workload::{
    generate_audience_bundles, generate_cross_shard_bundles, generate_mixed_stream, AttributeModel,
    AudienceBundleConfig, CrossShardBundleConfig, CrossShardTopology, GraphSpec, LabelModel,
    MixedStreamConfig, PlannerRead, PolicyWorkloadConfig, Topology,
};

/// One prepared P14 scenario: a graph + policy store, the deployment
/// that serves it, and the read stream replayed against each planner
/// mode.
pub struct P14Case {
    /// Regime name (`dense`, `sparse`, `cross-heavy`, `low-crossing`,
    /// `mixed`).
    pub name: &'static str,
    /// The deployment every mode builds its backend from.
    pub deployment: Deployment,
    /// The social graph (single-system view).
    pub graph: SocialGraph,
    /// Policies over it.
    pub store: PolicyStore,
    /// The read stream (audience bundles interleaved with check
    /// batches over the same bundles).
    pub reads: Vec<PlannerRead>,
    /// Whether the regime has a clear winning engine — on these cases
    /// warm adaptive must beat the worst forced mode outright.
    pub flip: bool,
}

/// An eight-label evenly weighted mix (the sparse/label-diverse
/// regime, as in P10).
fn diverse_labels() -> LabelModel {
    LabelModel::Weighted(
        [
            "friend",
            "colleague",
            "parent",
            "follows",
            "mentor",
            "teammate",
            "neighbor",
            "classmate",
        ]
        .iter()
        .map(|&l| (l.to_string(), 0.125))
        .collect(),
    )
}

/// Interleaves each bundle's audience read with a seeded check batch
/// over the same bundle, `rounds` passes.
fn stream_over(
    bundles: &[Vec<ResourceId>],
    members: u32,
    rounds: usize,
    checks_per_batch: usize,
    rng: &mut StdRng,
) -> Vec<PlannerRead> {
    let mut reads = Vec::new();
    for _ in 0..rounds {
        for bundle in bundles {
            reads.push(PlannerRead::Audience(bundle.clone()));
            let checks = (0..checks_per_batch)
                .map(|_| {
                    let rid = bundle[rng.gen_range(0..bundle.len())];
                    (rid, NodeId(rng.gen_range(0..members)))
                })
                .collect();
            reads.push(PlannerRead::Checks(checks));
        }
    }
    reads
}

/// Deep shared-template bundle shape (the dense regime of P10).
fn dense_paths() -> PolicyWorkloadConfig {
    PolicyWorkloadConfig {
        steps: (2, 3),
        deep_prob: 0.7,
        ..PolicyWorkloadConfig::default()
    }
}

/// The P14 sweep. `nodes` scales every graph; `rounds` is the number
/// of stream passes per case (warm-up happens separately, during the
/// equivalence assertion).
pub fn cases(nodes: usize, rounds: usize) -> Vec<P14Case> {
    let mut out = Vec::new();

    // dense: scale-free OSN graph, 2 templates × 64 owners per bundle.
    {
        let spec = GraphSpec {
            topology: Topology::BarabasiAlbert {
                nodes,
                edges_per_node: 3,
            },
            labels: LabelModel::osn_default(),
            attributes: AttributeModel::osn_default(),
            reciprocity: 0.5,
            seed: 1400,
        };
        let mut graph = spec.build();
        let mut store = PolicyStore::new();
        let mut rng = StdRng::seed_from_u64(1490);
        let bundles = generate_audience_bundles(
            &mut graph,
            &mut store,
            &AudienceBundleConfig {
                bundles: 3,
                resources_per_bundle: 64,
                templates_per_bundle: 2,
                paths: dense_paths(),
            },
            &mut rng,
        );
        let reads = stream_over(&bundles, graph.num_nodes() as u32, rounds, 8, &mut rng);
        out.push(P14Case {
            name: "dense",
            deployment: Deployment::online(),
            graph,
            store,
            reads,
            flip: true,
        });
    }

    // sparse: label-diverse dense graph, one template per resource —
    // nothing for the mask engines to amortize.
    {
        let spec = GraphSpec {
            topology: Topology::BarabasiAlbert {
                nodes,
                edges_per_node: 24,
            },
            labels: diverse_labels(),
            attributes: AttributeModel::osn_default(),
            reciprocity: 0.5,
            seed: 1401,
        };
        let mut graph = spec.build();
        let mut store = PolicyStore::new();
        let mut rng = StdRng::seed_from_u64(1491);
        let bundles = generate_audience_bundles(
            &mut graph,
            &mut store,
            &AudienceBundleConfig {
                bundles: 3,
                resources_per_bundle: 24,
                templates_per_bundle: 24,
                paths: PolicyWorkloadConfig {
                    steps: (1, 2),
                    deep_prob: 0.3,
                    ..PolicyWorkloadConfig::default()
                },
            },
            &mut rng,
        );
        let reads = stream_over(&bundles, graph.num_nodes() as u32, rounds, 8, &mut rng);
        out.push(P14Case {
            name: "sparse",
            deployment: Deployment::online(),
            graph,
            store,
            reads,
            flip: true,
        });
    }

    // cross-heavy / low-crossing: controlled-crossing sharded graphs
    // with owners fanned round-robin across all four shards.
    for (name, cross_fraction, flip) in [("cross-heavy", 0.9, true), ("low-crossing", 0.1, false)] {
        let assignment = ShardAssignment::hashed(4, 1400);
        let topo = CrossShardTopology {
            nodes,
            edges: nodes * 3,
            assignment: assignment.clone(),
            cross_fraction,
        };
        let mut rng = StdRng::seed_from_u64(1410 + (cross_fraction * 10.0) as u64);
        let mut graph = topo.build_graph(&mut rng);
        let mut store = PolicyStore::new();
        let bundles = generate_cross_shard_bundles(
            &mut graph,
            &mut store,
            &assignment,
            &CrossShardBundleConfig {
                bundles: 3,
                resources_per_bundle: 24,
                templates_per_bundle: 2,
                paths: PolicyWorkloadConfig {
                    steps: (1, 2),
                    deep_prob: 0.5,
                    // Controlled-crossing graphs carry no member
                    // attributes; predicates would be vacuous.
                    pred_prob: 0.0,
                    ..PolicyWorkloadConfig::default()
                },
            },
            &mut rng,
        );
        let reads = stream_over(&bundles, graph.num_nodes() as u32, rounds, 8, &mut rng);
        out.push(P14Case {
            name,
            deployment: Deployment::sharded_with(assignment),
            graph,
            store,
            reads,
            flip,
        });
    }

    // mixed: one stream interleaving dense and sparse bundles over the
    // same graph — the per-resource-profile regime no forced mode can
    // win outright.
    {
        let spec = GraphSpec {
            topology: Topology::BarabasiAlbert {
                nodes,
                edges_per_node: 6,
            },
            labels: LabelModel::osn_default(),
            attributes: AttributeModel::osn_default(),
            reciprocity: 0.5,
            seed: 1402,
        };
        let mut graph = spec.build();
        let mut store = PolicyStore::new();
        let mut rng = StdRng::seed_from_u64(1492);
        let stream = generate_mixed_stream(
            &mut graph,
            &mut store,
            None,
            &MixedStreamConfig {
                bundles_per_regime: 2,
                resources_per_bundle: 32,
                dense_templates: 2,
                rounds,
                checks_per_batch: 8,
                paths: dense_paths(),
            },
            &mut rng,
        );
        out.push(P14Case {
            name: "mixed",
            deployment: Deployment::online(),
            graph,
            store,
            reads: stream.reads,
            flip: false,
        });
    }

    out
}

/// A planned backend over the case in the given mode.
pub fn build_planned(case: &P14Case, mode: PlannerMode) -> PlannedService {
    PlannedService::over(
        case.deployment.from_graph(&case.graph, case.store.clone()),
        mode,
    )
}

/// The unplanned reference backend over the case.
pub fn build_reference(case: &P14Case) -> ServiceInstance {
    case.deployment.from_graph(&case.graph, case.store.clone())
}

/// One pass of the case's read stream through a service.
pub fn run_stream(svc: &dyn AccessService, reads: &[PlannerRead]) {
    for read in reads {
        match read {
            PlannerRead::Audience(rids) => {
                let audiences = svc.audience_batch(rids).expect("bundle evaluates");
                std::hint::black_box(audiences.len());
            }
            PlannerRead::Checks(requests) => {
                let decisions = svc.check_batch(requests, 1).expect("batch decides");
                std::hint::black_box(decisions.len());
            }
        }
    }
}

/// Asserts every planner mode returns the reference answers on the
/// full stream (run before timing — this pass doubles as warm-up, so
/// adaptive profiles are populated when measurement starts).
pub fn assert_modes_agree(
    case: &P14Case,
    planned: &[&PlannedService],
    reference: &dyn AccessService,
) {
    for read in &case.reads {
        match read {
            PlannerRead::Audience(rids) => {
                let expect = reference.audience_batch(rids).expect("bundle evaluates");
                for svc in planned {
                    let got = svc.audience_batch(rids).expect("bundle evaluates");
                    assert_eq!(
                        got,
                        expect,
                        "audience divergence in {} ({})",
                        case.name,
                        svc.describe()
                    );
                }
            }
            PlannerRead::Checks(requests) => {
                let expect = reference.check_batch(requests, 1).expect("batch decides");
                for svc in planned {
                    let got = svc.check_batch(requests, 1).expect("batch decides");
                    assert_eq!(
                        got,
                        expect,
                        "decision divergence in {} ({})",
                        case.name,
                        svc.describe()
                    );
                }
            }
        }
    }
}
