//! Runs the performance study P0–P8 (one function per experiment below)
//! with plain wall-clock timing and prints one markdown table per
//! experiment.
//!
//! ```text
//! cargo run --release -p socialreach-bench --bin run-experiments           # all
//! cargo run --release -p socialreach-bench --bin run-experiments -- p1 p4 # some
//! SOCIALREACH_QUICK=1 cargo run ... -- p1                                  # CI sizes
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use socialreach_bench::{
    batch_size, forward_join_config, human_bytes, human_duration, sweep_sizes, time_avg, time_once,
    Table,
};
use socialreach_core::{
    examples, online, AccessEngine, Decision, Enforcer, JoinIndexEngine, JoinStrategy,
    OnlineEngine, PolicyStore, ResourceId,
};
use socialreach_graph::SocialGraph;
use socialreach_reach::{
    BfsOracle, IntervalLabeling, JoinIndex, JoinIndexConfig, ReachabilityOracle, TransitiveClosure,
    TwoHopLabeling,
};
use socialreach_workload::{
    generate_policies, requests_with_grant_rate, GraphSpec, PolicyWorkloadConfig, Request, Topology,
};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty();
    let wants = |name: &str| all || which.iter().any(|w| w == name);

    if wants("p0") {
        p0_datasets();
    }
    if wants("p1") {
        p1_query_vs_size();
    }
    if wants("p2") {
        p2_index_build();
    }
    if wants("p3") {
        p3_path_length();
    }
    if wants("p4") {
        p4_selectivity();
    }
    if wants("p5") {
        p5_ablation();
    }
    if wants("p6") {
        p6_throughput();
    }
    if wants("p7") {
        p7_topology();
    }
    if wants("p8") {
        p8_carminati();
    }
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Forward-only policy workload (the paper's own setting; keeps every
/// engine applicable).
fn forward_policies(num_resources: usize) -> PolicyWorkloadConfig {
    PolicyWorkloadConfig {
        num_resources,
        rules_per_resource: 1,
        steps: (1, 3),
        out_prob: 1.0,
        both_prob: 0.0,
        deep_prob: 0.4,
        pred_prob: 0.2,
    }
}

struct Bench {
    g: SocialGraph,
    store: PolicyStore,
    requests: Vec<Request>,
}

fn setup(nodes: usize, seed: u64, grant_rate: f64) -> Bench {
    let mut g = GraphSpec::ba_osn(nodes, seed).build();
    let mut store = PolicyStore::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let rids = generate_policies(&mut g, &mut store, &forward_policies(20), &mut rng);
    let requests = requests_with_grant_rate(&g, &store, &rids, batch_size(), grant_rate, &mut rng);
    Bench { g, store, requests }
}

fn run_requests<E: AccessEngine>(bench: &Bench, engine: &E) {
    try_run_requests(bench, engine).expect("evaluation succeeds");
}

fn try_run_requests<E: AccessEngine>(
    bench: &Bench,
    engine: &E,
) -> Result<(), socialreach_core::EvalError> {
    let enforcer = Enforcer::new(EngineRef(engine));
    for r in &bench.requests {
        enforcer.invalidate_decisions(); // measure evaluation, not the cache
        let d = enforcer.check_access(&bench.g, &bench.store, r.resource, r.requester)?;
        assert_eq!(d == Decision::Grant, r.expect_grant, "ground truth holds");
    }
    Ok(())
}

/// Borrow-adapter so `Enforcer` can wrap `&E`.
struct EngineRef<'a, E>(&'a E);
impl<E: AccessEngine> AccessEngine for EngineRef<'_, E> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn check(
        &self,
        g: &SocialGraph,
        owner: socialreach_graph::NodeId,
        path: &socialreach_core::PathExpr,
        requester: socialreach_graph::NodeId,
    ) -> Result<socialreach_core::CheckOutcome, socialreach_core::EvalError> {
        self.0.check(g, owner, path, requester)
    }
    fn audience(
        &self,
        g: &SocialGraph,
        owner: socialreach_graph::NodeId,
        path: &socialreach_core::PathExpr,
    ) -> Result<socialreach_core::AudienceOutcome, socialreach_core::EvalError> {
        self.0.audience(g, owner, path)
    }
}

// ----------------------------------------------------------------------
// P0 — dataset descriptions (the evaluation's "Table 1")
// ----------------------------------------------------------------------

fn p0_datasets() {
    use socialreach_workload::GraphStats;
    header("P0 — dataset descriptions (seeded, deterministic)");
    let mut t = Table::new(&[
        "dataset",
        "|V|",
        "|E|",
        "deg mean",
        "deg p99",
        "deg max",
        "SCCs",
        "largest SCC",
        "labels",
    ]);
    let mut add = |name: &str, g: &socialreach_graph::SocialGraph| {
        let s = GraphStats::compute(g);
        let census: Vec<String> = s
            .label_census
            .iter()
            .map(|(l, c)| format!("{l}:{c}"))
            .collect();
        t.row(vec![
            name.to_string(),
            s.nodes.to_string(),
            s.edges.to_string(),
            format!("{:.1}", s.mean_degree),
            s.p99_degree.to_string(),
            s.max_degree.to_string(),
            s.scc_count.to_string(),
            s.largest_scc.to_string(),
            census.join(" "),
        ]);
    };
    add("paper-fig1", &examples::paper_graph());
    for &nodes in &sweep_sizes() {
        add(
            &format!("ba-osn-{nodes}"),
            &GraphSpec::ba_osn(nodes, 100).build(),
        );
    }
    let mid = sweep_sizes()[sweep_sizes().len() / 2];
    add(
        &format!("ba-follow-{mid}"),
        &GraphSpec::ba_follow(mid, 200).build(),
    );
    print!("{}", t.render());
}

// ----------------------------------------------------------------------
// P1 — query latency vs graph size
// ----------------------------------------------------------------------

fn p1_query_vs_size() {
    header("P1 — per-request decision latency vs graph size (BA OSN, 50% grants)");
    let mut t = Table::new(&[
        "|V|",
        "|E|",
        "online",
        "join/adjacency",
        "join/seeded",
        "index build",
        "index size",
    ]);
    for (i, nodes) in sweep_sizes().into_iter().enumerate() {
        let bench = setup(nodes, 100 + i as u64, 0.5);
        let per_batch = bench.requests.len() as u32;

        let online_t = time_avg(2, || run_requests(&bench, &OnlineEngine)) / per_batch;

        let (adj, build_t) = time_once(|| {
            JoinIndexEngine::build(&bench.g, forward_join_config(JoinStrategy::AdjacencyOnly))
        });
        let adj_t = time_avg(2, || run_requests(&bench, &adj)) / per_batch;

        // The reachability-join strategies generate candidate supersets
        // (§3.3) and can exceed the tuple budget on deep paths — report
        // the blow-up instead of hiding it (P5a quantifies it).
        let seeded =
            JoinIndexEngine::build(&bench.g, forward_join_config(JoinStrategy::OwnerSeeded));
        let seeded_cell = match time_once(|| try_run_requests(&bench, &seeded)) {
            (Ok(()), d) => human_duration(d / per_batch),
            (Err(_), _) => "explodes (>5M tuples)".to_string(),
        };

        t.row(vec![
            nodes.to_string(),
            bench.g.num_edges().to_string(),
            human_duration(online_t),
            human_duration(adj_t),
            seeded_cell,
            human_duration(build_t),
            human_bytes(adj.index().index_bytes()),
        ]);
    }
    print!("{}", t.render());
}

// ----------------------------------------------------------------------
// P2 — index construction cost
// ----------------------------------------------------------------------

fn p2_index_build() {
    header("P2 — index build time & size vs graph size (follow graph, low reciprocity)");
    let mut t = Table::new(&[
        "|V|",
        "|E|",
        "TC build",
        "TC size",
        "interval build",
        "interval size",
        "2hop build",
        "2hop size",
        "join-index build",
        "join-index size",
    ]);
    for (i, nodes) in sweep_sizes().into_iter().enumerate() {
        // Low reciprocity keeps the condensation large: the TC bit
        // matrix then grows quadratically, which is the §1 argument
        // against precomputing the closure. (On friendship graphs the
        // giant SCC hides the blow-up.)
        let g = GraphSpec::ba_follow(nodes, 200 + i as u64).build();
        let d = g.to_digraph();

        let (tc, tc_t) = time_once(|| TransitiveClosure::build(&d));
        let (il, il_t) = time_once(|| IntervalLabeling::build(&d));
        let (th, th_t) = time_once(|| TwoHopLabeling::build_pruned(&d));
        let (ji, ji_t) = time_once(|| {
            JoinIndex::build(
                &g,
                &JoinIndexConfig {
                    augment_reverse: false,
                    greedy_cover_max_comps: 256,
                    virtual_root: None,
                },
            )
        });

        t.row(vec![
            nodes.to_string(),
            g.num_edges().to_string(),
            human_duration(tc_t),
            human_bytes(tc.index_bytes()),
            human_duration(il_t),
            human_bytes(il.index_bytes()),
            human_duration(th_t),
            human_bytes(th.index_bytes()),
            human_duration(ji_t),
            human_bytes(ji.index_bytes()),
        ]);
    }
    print!("{}", t.render());
}

// ----------------------------------------------------------------------
// P3 — latency vs path length / depth bound
// ----------------------------------------------------------------------

fn p3_path_length() {
    header("P3 — audience latency vs path length and depth bound (BA OSN)");
    let nodes = sweep_sizes()[sweep_sizes().len() / 2];
    let mut g = GraphSpec::ba_osn(nodes, 300).build();
    let owner = socialreach_graph::NodeId(0);
    let adj = JoinIndexEngine::build(&g, forward_join_config(JoinStrategy::AdjacencyOnly));

    let mut t = Table::new(&["path", "line queries", "online", "join/adjacency"]);
    let mut paths: Vec<String> = (1..=4).map(|k| vec!["friend+[1]"; k].join("/")).collect();
    for cap in 2..=4 {
        paths.push(format!("friend+[1..{cap}]"));
    }
    for text in paths {
        let path = socialreach_core::parse_path(&text, g.vocab_mut()).expect("valid");
        let plan =
            socialreach_core::plan(&path, &socialreach_core::PlanConfig::default()).expect("plans");
        let online_t = time_avg(3, || {
            let _ = online::evaluate(&g, owner, &path, None);
        });
        let adj_t = time_avg(3, || {
            let _ = adj.audience(&g, owner, &path).expect("evaluates");
        });
        t.row(vec![
            text,
            plan.queries.len().to_string(),
            human_duration(online_t),
            human_duration(adj_t),
        ]);
    }
    print!("{}", t.render());
}

// ----------------------------------------------------------------------
// P4 — grant vs deny selectivity
// ----------------------------------------------------------------------

fn p4_selectivity() {
    header("P4 — decision latency vs grant rate (BA OSN)");
    let nodes = sweep_sizes()[sweep_sizes().len() / 2];
    let mut t = Table::new(&["grant rate", "online", "join/adjacency"]);
    for (i, rate) in [0.0, 0.5, 1.0].into_iter().enumerate() {
        let bench = setup(nodes, 400 + i as u64, rate);
        let per_batch = bench.requests.len() as u32;
        let online_t = time_avg(2, || run_requests(&bench, &OnlineEngine)) / per_batch;
        let adj =
            JoinIndexEngine::build(&bench.g, forward_join_config(JoinStrategy::AdjacencyOnly));
        let adj_t = time_avg(2, || run_requests(&bench, &adj)) / per_batch;
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            human_duration(online_t),
            human_duration(adj_t),
        ]);
    }
    print!("{}", t.render());
}

// ----------------------------------------------------------------------
// P5 — ablations
// ----------------------------------------------------------------------

fn p5_ablation() {
    header("P5a — join strategy ablation (paper-faithful vs seeded vs adjacency)");
    // The paper's 7-member example plus a small BA graph: the faithful
    // strategy explodes combinatorially long before graphs get large.
    let mut t = Table::new(&["graph", "strategy", "candidates", "kept", "audience time"]);
    let paper = examples::paper_graph();
    let small = GraphSpec::ba_osn(
        if socialreach_bench::quick_mode() {
            150
        } else {
            600
        },
        500,
    )
    .build();
    for (name, g) in [("paper-fig1", &paper), ("ba-osn", &small)] {
        for strategy in [
            JoinStrategy::PaperFaithful,
            JoinStrategy::OwnerSeeded,
            JoinStrategy::AdjacencyOnly,
        ] {
            let mut g2 = (*g).clone();
            let (owner, path) = {
                let owner = socialreach_graph::NodeId(0);
                let path =
                    socialreach_core::parse_path("friend+[1,2]/colleague+[1]", g2.vocab_mut())
                        .expect("valid");
                (owner, path)
            };
            let engine = JoinIndexEngine::build(&g2, forward_join_config(strategy));
            match engine.evaluate(&g2, owner, &path, None) {
                Ok(out) => {
                    let d = time_avg(3, || {
                        let _ = engine.evaluate(&g2, owner, &path, None);
                    });
                    t.row(vec![
                        name.to_string(),
                        engine.name().to_string(),
                        out.stats.candidate_tuples.to_string(),
                        out.stats.tuples_kept.to_string(),
                        human_duration(d),
                    ]);
                }
                Err(e) => {
                    t.row(vec![
                        name.to_string(),
                        engine.name().to_string(),
                        format!("{e}"),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    print!("{}", t.render());

    header("P5b — reachability-oracle ablation (plain u ⇝ v over G, random pairs)");
    let nodes = sweep_sizes()[sweep_sizes().len() / 2];
    let g = GraphSpec::ba_osn(nodes, 501).build();
    let d = g.to_digraph();
    let n = d.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i % n, (i * 7919 + 13) % n)).collect();
    let bfs = BfsOracle::new(d.clone());
    let tc = TransitiveClosure::build(&d);
    let il = IntervalLabeling::build(&d);
    let th = TwoHopLabeling::build_pruned(&d);
    let mut t = Table::new(&["oracle", "200 queries", "index size"]);
    let mut run = |name: &str, f: &dyn Fn(u32, u32) -> bool, bytes: usize| {
        let d = time_avg(2, || {
            for &(u, v) in &pairs {
                std::hint::black_box(f(u, v));
            }
        });
        t.row(vec![
            name.to_string(),
            human_duration(d),
            human_bytes(bytes),
        ]);
    };
    run("online-bfs", &|u, v| bfs.reaches(u, v), bfs.index_bytes());
    run(
        "transitive-closure",
        &|u, v| tc.reaches(u, v),
        tc.index_bytes(),
    );
    run(
        "interval-labeling",
        &|u, v| il.reaches(u, v),
        il.index_bytes(),
    );
    run("2hop-pruned", &|u, v| th.reaches(u, v), th.index_bytes());
    print!("{}", t.render());

    header("P5c — W-table routing vs base-table scan (successor generation)");
    let small = GraphSpec::ba_osn(
        if socialreach_bench::quick_mode() {
            150
        } else {
            600
        },
        502,
    )
    .build();
    let idx = JoinIndex::build(
        &small,
        &JoinIndexConfig {
            augment_reverse: false,
            greedy_cover_max_comps: 256,
            virtual_root: None,
        },
    );
    let friend = small.vocab().label("friend").expect("friend");
    let colleague = small.vocab().label("colleague").expect("colleague");
    let ends: Vec<u32> = idx
        .base_tables()
        .table((friend, true))
        .iter()
        .copied()
        .take(50)
        .collect();
    let mut t = Table::new(&["strategy", "50 extensions"]);
    let wt = time_avg(3, || {
        for &e in &ends {
            std::hint::black_box(idx.successors_via_wtable(e, (friend, true), (colleague, true)));
        }
    });
    let sc = time_avg(3, || {
        for &e in &ends {
            std::hint::black_box(idx.successors_via_scan(e, (colleague, true)));
        }
    });
    t.row(vec!["w-table".into(), human_duration(wt)]);
    t.row(vec!["table-scan".into(), human_duration(sc)]);
    print!("{}", t.render());
}

// ----------------------------------------------------------------------
// P6 — enforcement throughput
// ----------------------------------------------------------------------

fn p6_throughput() {
    header("P6 — end-to-end enforcement throughput (requests/s, cache off and on)");
    let nodes = sweep_sizes()[sweep_sizes().len() / 2];
    let bench = setup(nodes, 600, 0.5);
    let reqs = &bench.requests;
    let mut t = Table::new(&["engine", "no cache", "with cache"]);

    let throughput = |d: std::time::Duration| -> String {
        format!("{:.0} req/s", reqs.len() as f64 / d.as_secs_f64())
    };

    let run_pair = |engine: &dyn AccessEngine| -> (String, String) {
        let enforcer = Enforcer::new(EngineDyn(engine));
        let cold = time_avg(1, || {
            for r in reqs {
                enforcer.invalidate_decisions();
                let _ = enforcer
                    .check_access(&bench.g, &bench.store, r.resource, r.requester)
                    .expect("ok");
            }
        });
        enforcer.invalidate_decisions();
        // warm: repeated identical requests hit the decision cache
        let warm = time_avg(1, || {
            for r in reqs {
                let _ = enforcer
                    .check_access(&bench.g, &bench.store, r.resource, r.requester)
                    .expect("ok");
            }
        });
        (throughput(cold), throughput(warm))
    };

    let (c, w) = run_pair(&OnlineEngine);
    t.row(vec!["online".into(), c, w]);
    let adj = JoinIndexEngine::build(&bench.g, forward_join_config(JoinStrategy::AdjacencyOnly));
    let (c, w) = run_pair(&adj);
    t.row(vec!["join/adjacency".into(), c, w]);
    print!("{}", t.render());
}

// ----------------------------------------------------------------------
// P8 — the Carminati et al. (§4) baseline vs the reachability model
// ----------------------------------------------------------------------

fn p8_carminati() {
    use socialreach_core::carminati::{self, CarminatiRule, TrustAggregation};
    header("P8 — Carminati trust+radius baseline vs reachability engines (audience)");
    let nodes = sweep_sizes()[sweep_sizes().len() / 2];
    let mut g = GraphSpec::ba_osn(nodes, 800).build();
    // Annotate trust on every edge so the baseline has something to
    // aggregate (uniform in [0.5, 1.0), seeded).
    let mut state = 0x2545f4914f6cdd1du64;
    for e in g.edge_ids().collect::<Vec<_>>() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let t = 0.5 + (state >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        g.set_edge_attr(e, "trust", t);
    }
    let friend = g.vocab().label("friend").expect("friend");
    let owner = socialreach_graph::NodeId(0);
    let adj = JoinIndexEngine::build(&g, forward_join_config(JoinStrategy::AdjacencyOnly));

    let mut t = Table::new(&[
        "radius",
        "carminati (trust>=0.6)",
        "carminati audience",
        "online friend+[1..r]",
        "join/adjacency",
        "path audience",
    ]);
    for radius in 1..=3u32 {
        let rule = CarminatiRule {
            label: friend,
            dir: socialreach_graph::Direction::Out,
            max_depth: radius,
            min_trust: 0.6,
            trust_agg: TrustAggregation::Product,
            default_trust: 1.0,
        };
        let out = carminati::evaluate(&g, owner, &rule);
        let c_t = time_avg(3, || {
            let _ = carminati::evaluate(&g, owner, &rule);
        });
        let path = rule.to_path_expr();
        let ours = online::evaluate(&g, owner, &path, None);
        let o_t = time_avg(3, || {
            let _ = online::evaluate(&g, owner, &path, None);
        });
        let a_t = time_avg(3, || {
            let _ = adj.audience(&g, owner, &path).expect("evaluates");
        });
        t.row(vec![
            radius.to_string(),
            human_duration(c_t),
            out.granted.len().to_string(),
            human_duration(o_t),
            human_duration(a_t),
            ours.matched.len().to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(The trust threshold prunes the baseline's audience below the\n\
         trust-free path-expression audience; with min_trust = 0 the two\n\
         coincide — property-tested in core::carminati.)"
    );
}

/// Object-safe engine adapter for heterogeneous engine lists.
struct EngineDyn<'a>(&'a dyn AccessEngine);
impl AccessEngine for EngineDyn<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn check(
        &self,
        g: &SocialGraph,
        owner: socialreach_graph::NodeId,
        path: &socialreach_core::PathExpr,
        requester: socialreach_graph::NodeId,
    ) -> Result<socialreach_core::CheckOutcome, socialreach_core::EvalError> {
        self.0.check(g, owner, path, requester)
    }
    fn audience(
        &self,
        g: &SocialGraph,
        owner: socialreach_graph::NodeId,
        path: &socialreach_core::PathExpr,
    ) -> Result<socialreach_core::AudienceOutcome, socialreach_core::EvalError> {
        self.0.audience(g, owner, path)
    }
}

// ----------------------------------------------------------------------
// P7 — topology sensitivity
// ----------------------------------------------------------------------

fn p7_topology() {
    header("P7 — topology sensitivity at equal |V| (decision latency, 50% grants)");
    let nodes = if socialreach_bench::quick_mode() {
        300
    } else {
        2_000
    };
    let ties = nodes * 3;
    let topologies: Vec<(&str, Topology)> = vec![
        ("erdos-renyi", Topology::ErdosRenyi { nodes, edges: ties }),
        (
            "barabasi-albert",
            Topology::BarabasiAlbert {
                nodes,
                edges_per_node: 3,
            },
        ),
        (
            "watts-strogatz",
            Topology::WattsStrogatz {
                nodes,
                neighbors: 6,
                rewire: 0.1,
            },
        ),
        (
            "community",
            Topology::Community {
                nodes,
                communities: nodes / 50,
                p_in: 0.12,
                bridges: ties / 10,
            },
        ),
    ];
    let mut t = Table::new(&["topology", "|E|", "online", "join/adjacency", "index size"]);
    for (i, (name, topology)) in topologies.into_iter().enumerate() {
        let spec = GraphSpec {
            topology,
            labels: socialreach_workload::LabelModel::osn_default(),
            attributes: socialreach_workload::AttributeModel::osn_default(),
            reciprocity: 0.5,
            seed: 700 + i as u64,
        };
        let mut g = spec.build();
        let mut store = PolicyStore::new();
        let mut rng = StdRng::seed_from_u64(701 + i as u64);
        let rids: Vec<ResourceId> =
            generate_policies(&mut g, &mut store, &forward_policies(20), &mut rng);
        let requests = requests_with_grant_rate(&g, &store, &rids, batch_size(), 0.5, &mut rng);
        let bench = Bench { g, store, requests };
        let per_batch = bench.requests.len() as u32;
        let online_t = time_avg(2, || run_requests(&bench, &OnlineEngine)) / per_batch;
        let adj =
            JoinIndexEngine::build(&bench.g, forward_join_config(JoinStrategy::AdjacencyOnly));
        let adj_t = time_avg(2, || run_requests(&bench, &adj)) / per_batch;
        t.row(vec![
            name.to_string(),
            bench.g.num_edges().to_string(),
            human_duration(online_t),
            human_duration(adj_t),
            human_bytes(adj.index().index_bytes()),
        ]);
    }
    print!("{}", t.render());
}
