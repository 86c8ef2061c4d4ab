//! Photo sharing on the paper's own Figure 1 subgraph.
//!
//! Replays the paper's running examples end to end:
//! * Q1 (Figure 2): *"the colleagues of Alice's friends within 2 hops"*;
//! * the §3.4 worked query: *"the friends of her friends' parents"*,
//!   which grants George through Alice → Colin → Fred → George;
//! * a denial with the reason surfaced to the user.
//!
//! Two deployments of the service API answer the same requests — the
//! online single-graph backend and a two-shard partition — and so does
//! the paper's §3 join index, as a library enforcer over the same graph
//! and policy store. All three must agree on every decision.
//!
//! ```text
//! cargo run --example photo_sharing
//! ```

use socialreach::core::examples::paper_graph;
use socialreach::{
    Decision, Deployment, Enforcer, JoinEngineConfig, JoinIndexEngine, JoinStrategy, PolicyStore,
};

fn main() {
    let mut g = paper_graph();
    println!(
        "Figure 1 graph: {} members, {} relationships",
        g.num_nodes(),
        g.num_edges()
    );

    let alice = g.node_by_name("Alice").expect("Alice");
    let mut store = PolicyStore::new();

    // Alice's birthday photos: colleagues of her friends (Q1).
    let photos = store.register_resource(alice);
    store
        .allow(photos, "friend+[1,2]/colleague+[1]", &mut g)
        .expect("valid policy");

    // Alice's jokes: friends of her friends' parents (§3.4).
    let jokes = store.register_resource(alice);
    store
        .allow(jokes, "friend+[1]/parent+[1]/friend+[1]", &mut g)
        .expect("valid policy");

    // Two deployments and the join index, same decisions.
    let backends =
        [Deployment::online(), Deployment::sharded(2, 1)].map(|d| d.from_graph(&g, store.clone()));
    let online = backends[0].reads();
    let join = Enforcer::new(JoinIndexEngine::build(
        &g,
        JoinEngineConfig {
            strategy: JoinStrategy::AdjacencyOnly,
            ..JoinEngineConfig::default()
        },
    ));

    for (rid, label) in [(photos, "birthday photos"), (jokes, "jokes")] {
        println!("\n== {label} ==");
        for name in ["Bill", "Colin", "David", "Elena", "Fred", "George"] {
            let user = online.resolve_user(name).expect("member");
            let d1 = online.check(rid, user).expect("ok");
            for other in &backends[1..] {
                let d2 = other.reads().check(rid, user).expect("ok");
                assert_eq!(
                    d1,
                    d2,
                    "{} must agree with {} on {name}",
                    other.reads().describe(),
                    online.describe()
                );
            }
            let d3 = join.check_access(&g, &store, rid, user).expect("ok");
            assert_eq!(d1, d3, "the join index must agree on {name}");
            println!("  {name:>6} -> {d1:?}");
        }
    }

    // The paper's two headline answers:
    let fred = online.resolve_user("Fred").expect("Fred");
    let george = online.resolve_user("George").expect("George");
    assert_eq!(
        online.check(photos, fred).expect("ok"),
        Decision::Grant,
        "Q1 grants Fred"
    );
    assert_eq!(
        online.check(jokes, george).expect("ok"),
        Decision::Grant,
        "§3.4 grants George"
    );
    assert_eq!(
        online.check(photos, george).expect("ok"),
        Decision::Deny,
        "George is not a colleague of Alice's friends"
    );
    // And the grant is explainable on every deployment, with the same
    // witness walk text.
    let walk = online
        .explain_lines(jokes, george)
        .expect("ok")
        .expect("granted");
    for other in &backends[1..] {
        let theirs = other
            .reads()
            .explain_lines(jokes, george)
            .expect("ok")
            .expect("granted");
        assert_eq!(walk, theirs, "{}", other.reads().describe());
    }
    println!("\nwhy George: {}", walk.join("; "));
    println!("Q1 grants Fred; §3.4 grants George — matching the paper.");
}
