//! Access control over a synthetic enterprise-scale graph: build a
//! 2,000-member community network with the workload generators, attach
//! policies, and replay the same request stream through **two
//! deployments** of the service API — the online single graph and a
//! four-shard partition — a miniature of the benchmark suite, runnable
//! as an example.
//!
//! ```text
//! cargo run --release --example enterprise_directory
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use socialreach::workload::{
    generate_policies, replay_requests, requests_with_grant_rate, AttributeModel, GraphSpec,
    LabelModel, PolicyWorkloadConfig, Topology,
};
use socialreach::{Deployment, PolicyStore};
use std::time::Instant;

fn main() {
    // Departments as communities: dense `colleague` ties inside a
    // department, `works_with` bridges across, sparse `manages` edges.
    let spec = GraphSpec {
        topology: Topology::Community {
            nodes: 2_000,
            communities: 40,
            p_in: 0.15,
            bridges: 600,
        },
        labels: LabelModel::CommunityAware {
            intra: "colleague".into(),
            inter: "works_with".into(),
            extra: "manages".into(),
            extra_per_100: 8,
        },
        attributes: AttributeModel::osn_default(),
        reciprocity: 0.9,
        seed: 2026,
    };
    let mut g = spec.build();
    println!(
        "directory: {} members, {} relationships, labels = {:?}",
        g.num_nodes(),
        g.num_edges(),
        g.vocab().labels().map(|(_, n)| n).collect::<Vec<_>>()
    );

    // Random policies in the enterprise's own vocabulary.
    let mut store = PolicyStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = PolicyWorkloadConfig {
        num_resources: 30,
        rules_per_resource: 1,
        steps: (1, 2),
        out_prob: 1.0,
        both_prob: 0.0,
        deep_prob: 0.3,
        pred_prob: 0.3,
    };
    let rids = generate_policies(&mut g, &mut store, &cfg, &mut rng);
    let requests = requests_with_grant_rate(&g, &store, &rids, 300, 0.5, &mut rng);
    println!(
        "policies: {} resources, {} rules; requests: {} (50% grants)",
        store.num_resources(),
        store.num_rules(),
        requests.len()
    );

    // The same stream through every deployment: the scenario below
    // holds nothing but `&dyn AccessService`.
    println!();
    let deployments = [Deployment::online(), Deployment::sharded(4, 9)];
    for deployment in deployments {
        let t0 = Instant::now();
        let svc = deployment.from_graph(&g, store.clone());
        let build = t0.elapsed();
        let t0 = Instant::now();
        let report = replay_requests(svc.reads(), &requests, 4).expect("replays");
        let serve = t0.elapsed();
        assert!(
            report.is_faithful(),
            "{} diverged from ground truth at {:?}",
            svc.reads().describe(),
            report.mismatches
        );
        assert_eq!(
            report.grants,
            requests.len() / 2,
            "workload targets 50% grants"
        );
        println!(
            "{:<22} {serve:>12?} for {} requests (+ {build:?} build), grants {}/{}",
            svc.reads().describe(),
            report.requests,
            report.grants,
            report.requests,
        );
    }
}
