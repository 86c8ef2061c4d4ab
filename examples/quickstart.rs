//! Quickstart: share a resource under a reachability policy and check a
//! few requests — through the deployment-agnostic service API.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use socialreach::{Decision, Deployment, MutateService, ServiceInstance};

/// The whole scenario, written once against the service traits: which
/// backend serves it is the caller's `Deployment` line.
fn run(mut svc: ServiceInstance) -> Vec<String> {
    println!("== {} ==", svc.reads().describe());

    // 1. Build a small social graph through the write surface.
    let alice = svc.add_user("Alice");
    let bob = svc.add_user("Bob");
    let carol = svc.add_user("Carol");
    let dan = svc.add_user("Dan");
    let eve = svc.add_user("Eve");

    svc.add_mutual_relationship(alice, "friend", bob);
    svc.add_mutual_relationship(bob, "friend", carol);
    svc.add_relationship(carol, "colleague", dan);
    svc.add_relationship(eve, "follows", alice);

    svc.set_user_attr(carol, "age", 26i64.into());
    svc.set_user_attr(dan, "age", 34i64.into());

    // 2. Alice shares her holiday album with friends up to two hops
    //    away, adults only.
    let album = svc.add_resource(alice);
    svc.add_rule(album, "friend+[1,2]{age>=18}")
        .expect("valid policy");

    // 3. Enforce access requests through the read surface.
    let reads = svc.reads();
    for name in ["Bob", "Carol", "Dan", "Eve"] {
        let user = reads.resolve_user(name).expect("user exists");
        let decision = reads.check(album, user).expect("evaluates");
        println!("{name:>5} -> {decision:?}");
        match name {
            "Carol" => assert_eq!(decision, Decision::Grant),
            _ => assert_eq!(decision, Decision::Deny),
        }
    }
    // Bob is a direct friend but has no age attribute: predicates fail
    // closed, so he is denied until his profile says he is an adult.
    svc.set_user_attr(bob, "age", 30i64.into());
    let bob_now = svc.reads().check(album, bob).expect("evaluates");
    println!("  Bob -> {bob_now:?} (after setting age)");
    assert_eq!(bob_now, Decision::Grant);

    // 4. Explain a grant as a concrete walk.
    let reads = svc.reads();
    let explanation = reads
        .explain_lines(album, carol)
        .expect("evaluates")
        .expect("granted");
    println!("why Carol: {}", explanation.join("; "));

    // 5. Materialize the audience.
    let audience = reads.audience(album).expect("evaluates");
    let names: Vec<String> = audience
        .iter()
        .map(|&n| reads.member_name(n).to_owned())
        .collect();
    println!("audience: {names:?}");
    names
}

fn main() {
    // The deployment is the only backend-specific line: one
    // epoch-published graph…
    let single = run(Deployment::online().build());

    // …or three hash-partitioned shards — same script, same answers.
    let sharded = run(Deployment::sharded(3, 7).build());
    assert_eq!(single, sharded, "deployments are interchangeable");
}
