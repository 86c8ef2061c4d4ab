//! Regenerates every figure of Ben Dhia (EDBT 2012) from the
//! implementation.
//!
//! ```text
//! cargo run -p socialreach-bench --bin paper-artifacts            # all figures
//! cargo run -p socialreach-bench --bin paper-artifacts -- fig5   # one figure
//! ```

use socialreach_bench::Table;
use socialreach_core::examples::{paper_graph, q1, worked_query};
use socialreach_core::{online, plan, JoinIndexEngine, JoinStrategy, PlanConfig};
use socialreach_graph::export;
use socialreach_graph::SocialGraph;
use socialreach_reach::{
    JoinIndex, JoinIndexConfig, LineGraph, LineGraphConfig, ReachabilityTable,
};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty();
    let wants = |name: &str| all || which.iter().any(|w| w == name);

    if wants("fig1") {
        fig1();
    }
    if wants("fig2") {
        fig2();
    }
    if wants("fig3") {
        fig3();
    }
    if wants("fig4") {
        fig4();
    }
    if wants("fig5") {
        fig5();
    }
    if wants("fig6") {
        fig6();
    }
    if wants("fig7") {
        fig7();
    }
    if wants("joins") {
        joins();
    }
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// The line graph used by Figures 3–7: forward-only (as in the paper)
/// with the virtual `Null → Alice` vertex of Figure 5.
fn paper_line_graph(g: &SocialGraph) -> LineGraph {
    let alice = g.node_by_name("Alice").expect("Alice exists");
    LineGraph::build(
        g,
        &LineGraphConfig {
            augment_reverse: false,
            virtual_root: Some(alice),
        },
    )
}

fn paper_join_index(g: &SocialGraph) -> JoinIndex {
    JoinIndex::build_on_line(
        paper_line_graph(g),
        &JoinIndexConfig {
            augment_reverse: false,
            greedy_cover_max_comps: 256,
            virtual_root: None,
        },
    )
}

fn fig1() {
    header("Figure 1 — the example social subgraph (7 members, 12 edges)");
    let g = paper_graph();
    print!("{}", export::to_edge_list(&g));
    println!("\nδ(Alice) = (gender = female, age = 24)");
    println!("\nDOT rendering:\n{}", export::to_dot(&g));
}

fn fig2() {
    header("Figure 2 — reachability query Q1: Alice/friend+[1,2]/colleague+[1]");
    let mut g = paper_graph();
    let (alice, path) = q1(&mut g);
    println!("path: {}", path.to_text(g.vocab()));
    let out = online::evaluate(&g, alice, &path, None);
    let names: Vec<&str> = out.matched.iter().map(|&n| g.node_name(n)).collect();
    println!("audience granted by Q1: {names:?}");
}

fn fig3() {
    header("Figure 3 — the line graph L(G)");
    let g = paper_graph();
    let line = paper_line_graph(&g);
    println!(
        "L(G): {} vertices (12 edges + Null->Alice), {} arcs\n",
        line.num_nodes(),
        line.graph().num_edges()
    );
    for i in 0..line.num_nodes() as u32 {
        let succ: Vec<String> = line
            .graph()
            .successors(i)
            .iter()
            .map(|&j| line.display_name(&g, j))
            .collect();
        println!("{:>18} -> {}", line.display_name(&g, i), succ.join(", "));
    }
}

fn fig4() {
    header("Figure 4 — Q1 transformed into line queries");
    let mut g = paper_graph();
    let (_, path) = q1(&mut g);
    let plan = plan(&path, &PlanConfig::default()).expect("Q1 plans");
    println!(
        "{} line queries (depth set [1,2] on the friend step expands):",
        plan.queries.len()
    );
    for q in &plan.queries {
        let hops: Vec<String> = q
            .hops
            .iter()
            .map(|&(l, fwd)| format!("{}{}", g.vocab().label_name(l), if fwd { "" } else { "'" }))
            .collect();
        println!("  {}", hops.join(" / "));
    }
}

fn fig5() {
    header("Figure 5 — the reachability table (interval labeling of cond(L(G)))");
    let g = paper_graph();
    let line = paper_line_graph(&g);
    let table = ReachabilityTable::build(&g, &line);
    print!("{table}");
    println!(
        "\n(Exact digits depend on tie-breaking the paper leaves unspecified; \
         the containment property is checked against ground truth by the test \
         suite.)"
    );
}

fn fig6() {
    header("Figure 6 — the W-table");
    let g = paper_graph();
    let idx = paper_join_index(&g);
    let mut entries: Vec<(String, Vec<String>)> = idx
        .wtable()
        .iter()
        .map(|((x, y), centers)| {
            let name = |k: (socialreach_graph::LabelId, bool)| {
                format!(
                    "{}{}",
                    g.vocab().label_name(k.0),
                    if k.1 { "" } else { "'" }
                )
            };
            let comp_names: Vec<String> =
                centers.iter().map(|&w| comp_display(&g, &idx, w)).collect();
            (format!("({}, {})", name(x), name(y)), comp_names)
        })
        .collect();
    entries.sort();
    let mut t = Table::new(&["(label x, label y)", "relevant centers"]);
    for (pair, centers) in entries {
        t.row(vec![pair, format!("{{{}}}", centers.join(", "))]);
    }
    print!("{}", t.render());
}

/// Displays a 2-hop center (a condensation component) by its member line
/// vertices.
fn comp_display(g: &SocialGraph, idx: &JoinIndex, comp: u32) -> String {
    let members: Vec<String> = (0..idx.line().num_nodes() as u32)
        .filter(|&x| idx.labeling().comp_of(x) == comp)
        .map(|x| idx.line().display_name(g, x))
        .collect();
    if members.len() == 1 {
        members.into_iter().next().expect("single member")
    } else {
        format!("[{}]", members.join("≡"))
    }
}

fn fig7() {
    header("Figure 7 — the cluster-based join index (centers with U/V clusters)");
    let g = paper_graph();
    let idx = paper_join_index(&g);
    println!(
        "2-hop cover ({}): {} centers, label size {}\n",
        match idx.labeling().construction() {
            socialreach_reach::TwoHopConstruction::Greedy => "greedy max-coverage",
            socialreach_reach::TwoHopConstruction::Pruned => "pruned landmarks",
        },
        idx.clusters().num_centers(),
        idx.labeling().label_size()
    );
    let mut t = Table::new(&["center w", "U_w (reach w)", "V_w (reached from w)"]);
    for (w, cluster) in idx.clusters().iter() {
        let names = |xs: &[u32]| -> String {
            xs.iter()
                .map(|&x| idx.line().display_name(&g, x))
                .collect::<Vec<_>>()
                .join(", ")
        };
        t.row(vec![
            comp_display(&g, &idx, w),
            names(&cluster.u),
            names(&cluster.v),
        ]);
    }
    print!("{}", t.render());
}

fn joins() {
    header("§3.3 worked joins and the §3.4 end-to-end example");
    let g = paper_graph();
    let idx = paper_join_index(&g);
    let friend = g.vocab().label("friend").expect("friend");
    let colleague = g.vocab().label("colleague").expect("colleague");
    let parent = g.vocab().label("parent").expect("parent");

    println!("T_friend ⋈ T_colleague (candidates, x ⇝ y):");
    for (x, y) in idx.join_full((friend, true), (colleague, true)) {
        let adjacent = if idx.line().adjacent(x, y) {
            "adjacent"
        } else {
            "non-adjacent"
        };
        println!(
            "  ({}, {})  [{adjacent}]",
            idx.line().display_name(&g, x),
            idx.line().display_name(&g, y)
        );
    }

    println!("\nT_friend ⋈ T_parent (candidates):");
    for (x, y) in idx.join_full((friend, true), (parent, true)) {
        println!(
            "  ({}, {})",
            idx.line().display_name(&g, x),
            idx.line().display_name(&g, y)
        );
    }
    println!(
        "(The paper's Figure lists three of these; the reachability join \
         over the full tables also surfaces the friend-chain candidates \
         through Bill/Elena, which the Figure omits. Post-processing prunes \
         them all.)"
    );

    println!("\n§3.4: /friend/parent/friend from Alice, requester George:");
    let mut g2 = paper_graph();
    let (alice, path) = worked_query(&mut g2);
    let engine = JoinIndexEngine::build(
        &g2,
        socialreach_bench::forward_join_config(JoinStrategy::PaperFaithful),
    );
    let out = engine.evaluate(&g2, alice, &path, None).expect("evaluates");
    let names: Vec<&str> = out.matched.iter().map(|&n| g2.node_name(n)).collect();
    println!(
        "  candidates generated: {}, tuples kept after post-processing: {}",
        out.stats.candidate_tuples, out.stats.tuples_kept
    );
    println!("  audience: {names:?}  (the paper grants George — ✓)");
    let witness = online::evaluate(
        &g2,
        alice,
        &path,
        Some(g2.node_by_name("George").expect("George")),
    );
    if let Some(w) = witness.witness {
        let mut walk = vec!["Alice".to_string()];
        for (eid, fwd) in w {
            let rec = g2.edge(eid);
            let at = if fwd { rec.dst } else { rec.src };
            walk.push(g2.node_name(at).to_owned());
        }
        println!("  witness walk: {}", walk.join(" -> "));
    }
}
