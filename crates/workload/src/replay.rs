//! Deployment-agnostic request replay: drive a generated
//! [`Request`] stream through **any** serving backend and audit the
//! decisions against the stream's ground truth.
//!
//! The replay holds only a `&dyn AccessService`, so the same stream
//! exercises the single-graph system, the sharded system, or any
//! future backend — the examples use it to audit a deployment (or a
//! recovered history against the present) on identical traffic.

use crate::requests::Request;
use socialreach_core::{AccessService, Decision, EvalError, ResourceId};
use socialreach_graph::NodeId;

/// Outcome of replaying a request stream against one backend.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Requests replayed.
    pub requests: usize,
    /// Requests the backend granted.
    pub grants: usize,
    /// Requests the backend denied.
    pub denies: usize,
    /// Indices of requests whose decision contradicted the stream's
    /// ground truth (empty on a correct backend).
    pub mismatches: Vec<usize>,
}

impl ReplayReport {
    /// True when every decision matched the stream's ground truth.
    pub fn is_faithful(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// One request whose decision flipped between two replays of the same
/// stream (see [`compare_replays`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionFlip {
    /// Index of the request in the replayed stream.
    pub request: usize,
    /// The resource asked about.
    pub resource: ResourceId,
    /// The member asking.
    pub requester: NodeId,
    /// What the `then` service answered.
    pub then: Decision,
    /// What the `now` service answered.
    pub now: Decision,
}

/// How one request stream answers differently across two services —
/// typically two points in time of the same durable history
/// (`Deployment::durable_at` at `k1` vs `k2`), but any pair works.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriftReport {
    /// Requests replayed against both services.
    pub requests: usize,
    /// Requests granted by `then`.
    pub grants_then: usize,
    /// Requests granted by `now`.
    pub grants_now: usize,
    /// Every request whose decision flipped, in stream order.
    pub flips: Vec<DecisionFlip>,
}

impl DriftReport {
    /// True when both services answered every request identically.
    pub fn is_unchanged(&self) -> bool {
        self.flips.is_empty()
    }
}

/// Replays one stream through two backends and reports every decision
/// that flipped between them. The audit-read drills use it to answer
/// "which of these accesses would have been decided differently at
/// position `k`?" — the stream's own ground truth is ignored, only
/// the two services' answers are compared.
pub fn compare_replays(
    then: &dyn AccessService,
    now: &dyn AccessService,
    requests: &[Request],
    threads: usize,
) -> Result<DriftReport, EvalError> {
    let batch: Vec<(ResourceId, NodeId)> =
        requests.iter().map(|r| (r.resource, r.requester)).collect();
    let decisions_then = then.check_batch(&batch, threads)?;
    let decisions_now = now.check_batch(&batch, threads)?;
    let mut report = DriftReport {
        requests: requests.len(),
        ..DriftReport::default()
    };
    for (i, (r, (t, n))) in requests
        .iter()
        .zip(decisions_then.iter().zip(&decisions_now))
        .enumerate()
    {
        if *t == Decision::Grant {
            report.grants_then += 1;
        }
        if *n == Decision::Grant {
            report.grants_now += 1;
        }
        if t != n {
            report.flips.push(DecisionFlip {
                request: i,
                resource: r.resource,
                requester: r.requester,
                then: *t,
                now: *n,
            });
        }
    }
    Ok(report)
}

/// Replays the stream through [`AccessService::check_batch`] (one
/// coherent snapshot state, `threads` workers where the backend fans
/// out) and audits every decision against
/// [`Request::expect_grant`].
pub fn replay_requests(
    svc: &dyn AccessService,
    requests: &[Request],
    threads: usize,
) -> Result<ReplayReport, EvalError> {
    let batch: Vec<(ResourceId, NodeId)> =
        requests.iter().map(|r| (r.resource, r.requester)).collect();
    let decisions = svc.check_batch(&batch, threads)?;
    let mut report = ReplayReport {
        requests: requests.len(),
        ..ReplayReport::default()
    };
    for (i, (r, d)) in requests.iter().zip(&decisions).enumerate() {
        let granted = *d == Decision::Grant;
        if granted {
            report.grants += 1;
        } else {
            report.denies += 1;
        }
        if granted != r.expect_grant {
            report.mismatches.push(i);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{generate_policies, PolicyWorkloadConfig};
    use crate::requests::uniform_requests;
    use crate::spec::GraphSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socialreach_core::{Deployment, PolicyStore};

    #[test]
    fn every_deployment_replays_the_stream_faithfully() {
        let mut g = GraphSpec::ba_osn(80, 21).build();
        let mut store = PolicyStore::new();
        let mut rng = StdRng::seed_from_u64(22);
        let cfg = PolicyWorkloadConfig {
            num_resources: 10,
            ..PolicyWorkloadConfig::default()
        };
        let rids = generate_policies(&mut g, &mut store, &cfg, &mut rng);
        let requests = uniform_requests(&g, &store, &rids, 50, &mut rng);

        for deployment in [Deployment::online(), Deployment::sharded(3, 4)] {
            let svc = deployment.from_graph(&g, store.clone());
            let report = replay_requests(svc.reads(), &requests, 2).expect("replays");
            assert_eq!(report.requests, 50, "{}", svc.reads().describe());
            assert!(
                report.is_faithful(),
                "{}: mismatches at {:?}",
                svc.reads().describe(),
                report.mismatches
            );
            assert_eq!(report.grants + report.denies, report.requests);
        }
    }

    #[test]
    fn drift_between_two_policy_states_is_itemized() {
        // Same graph, two policy states: the `now` store gains a rule
        // the `then` store lacks, so exactly the requests that rule
        // decides differently must show up as flips.
        let mut g = GraphSpec::ba_osn(60, 15).build();
        let mut store = PolicyStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let rids = generate_policies(
            &mut g,
            &mut store,
            &PolicyWorkloadConfig {
                num_resources: 6,
                ..PolicyWorkloadConfig::default()
            },
            &mut rng,
        );
        let requests = uniform_requests(&g, &store, &rids, 60, &mut rng);

        let then = Deployment::online().from_graph(&g, store.clone());
        let mut now = Deployment::online().from_graph(&g, store);
        now.writes()
            .add_rule(rids[0], "friend+[1..3]")
            .expect("valid rule");

        let drift = compare_replays(then.reads(), now.reads(), &requests, 2).expect("replays");
        assert_eq!(drift.requests, 60);
        // A rule can only widen an audience: every flip is Deny→Grant.
        for flip in &drift.flips {
            assert_eq!(flip.resource, rids[0]);
            assert_eq!((flip.then, flip.now), (Decision::Deny, Decision::Grant));
        }
        assert_eq!(drift.grants_now - drift.flips.len(), drift.grants_then);

        // A service compared against itself never drifts.
        let same = compare_replays(then.reads(), then.reads(), &requests, 2).expect("replays");
        assert!(same.is_unchanged());
        assert_eq!(same.grants_then, same.grants_now);
    }

    #[test]
    fn mismatches_are_reported_not_hidden() {
        // Flip a ground-truth bit: the replay must notice exactly it.
        let mut g = GraphSpec::ba_osn(40, 9).build();
        let mut store = PolicyStore::new();
        let mut rng = StdRng::seed_from_u64(10);
        let rids = generate_policies(
            &mut g,
            &mut store,
            &PolicyWorkloadConfig {
                num_resources: 4,
                ..PolicyWorkloadConfig::default()
            },
            &mut rng,
        );
        let mut requests = uniform_requests(&g, &store, &rids, 20, &mut rng);
        requests[7].expect_grant = !requests[7].expect_grant;
        let svc = Deployment::online().from_graph(&g, store);
        let report = replay_requests(svc.reads(), &requests, 1).expect("replays");
        assert_eq!(report.mismatches, vec![7]);
        assert!(!report.is_faithful());
    }
}
