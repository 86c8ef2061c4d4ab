//! P5 — design ablations: join strategy, reachability oracle inside the
//! index, and W-table routing vs base-table scan.
//!
//! Expected shape: the paper-faithful strategy generates orders of
//! magnitude more candidate tuples than the owner-seeded variant (the
//! owner filter only runs in post-processing); the adjacency strategy
//! dominates both; among plain oracles, TC answers fastest, 2-hop close
//! behind at a fraction of the memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use socialreach_bench::{forward_join_config, quick_mode};
use socialreach_core::{parse_path, AccessEngine, JoinIndexEngine, JoinStrategy};
use socialreach_graph::NodeId;
use socialreach_reach::{
    BfsOracle, IntervalLabeling, JoinIndex, JoinIndexConfig, ReachabilityOracle, TransitiveClosure,
    TwoHopLabeling,
};
use socialreach_workload::GraphSpec;

fn join_strategies(c: &mut Criterion) {
    let nodes = if quick_mode() { 120 } else { 400 };
    let mut g = GraphSpec::ba_osn(nodes, 42).build();
    let path = parse_path("friend+[1,2]/colleague+[1]", g.vocab_mut()).expect("valid");
    let owner = NodeId(0);

    let mut group = c.benchmark_group("p5_join_strategy");
    group.sample_size(10);
    for strategy in [
        JoinStrategy::PaperFaithful,
        JoinStrategy::OwnerSeeded,
        JoinStrategy::AdjacencyOnly,
    ] {
        let engine = JoinIndexEngine::build(&g, forward_join_config(strategy));
        // The candidate-superset strategies can exceed the tuple budget
        // (that blow-up *is* the P5a finding — see run-experiments);
        // only benchmark configurations that terminate.
        if engine.evaluate(&g, owner, &path, None).is_err() {
            eprintln!(
                "p5_join_strategy: skipping {} (tuple budget exceeded; run-experiments p5 reports it)",
                engine.name()
            );
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("audience", engine.name()),
            &path,
            |b, p| b.iter(|| engine.evaluate(&g, owner, p, None).expect("evaluates")),
        );
    }
    group.finish();
}

fn oracles(c: &mut Criterion) {
    let nodes = if quick_mode() { 200 } else { 2_000 };
    let g = GraphSpec::ba_osn(nodes, 42).build();
    let d = g.to_digraph();
    let n = d.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..100u32).map(|i| (i % n, (i * 7919 + 13) % n)).collect();

    let bfs = BfsOracle::new(d.clone());
    let tc = TransitiveClosure::build(&d);
    let il = IntervalLabeling::build(&d);
    let th = TwoHopLabeling::build_pruned(&d);

    let mut group = c.benchmark_group("p5_oracle");
    group.sample_size(10);
    let mut run = |name: &str, oracle: &dyn ReachabilityOracle| {
        group.bench_with_input(BenchmarkId::new("reaches", name), &(), |b, _| {
            b.iter(|| {
                for &(u, v) in &pairs {
                    std::hint::black_box(oracle.reaches(u, v));
                }
            })
        });
    };
    run("online-bfs", &bfs);
    run("transitive-closure", &tc);
    run("interval", &il);
    run("2hop-pruned", &th);
    group.finish();
}

fn wtable_routing(c: &mut Criterion) {
    let nodes = if quick_mode() { 150 } else { 600 };
    let g = GraphSpec::ba_osn(nodes, 42).build();
    let idx = JoinIndex::build(
        &g,
        &JoinIndexConfig {
            augment_reverse: false,
            greedy_cover_max_comps: 256,
            virtual_root: None,
        },
    );
    let friend = g.vocab().label("friend").expect("friend");
    let colleague = g.vocab().label("colleague").expect("colleague");
    let ends: Vec<u32> = idx
        .base_tables()
        .table((friend, true))
        .iter()
        .copied()
        .take(20)
        .collect();

    let mut group = c.benchmark_group("p5_wtable");
    group.sample_size(10);
    group.bench_function("w-table", |b| {
        b.iter(|| {
            for &e in &ends {
                std::hint::black_box(idx.successors_via_wtable(
                    e,
                    (friend, true),
                    (colleague, true),
                ));
            }
        })
    });
    group.bench_function("table-scan", |b| {
        b.iter(|| {
            for &e in &ends {
                std::hint::black_box(idx.successors_via_scan(e, (colleague, true)));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, join_strategies, oracles, wtable_routing);
criterion_main!(benches);
