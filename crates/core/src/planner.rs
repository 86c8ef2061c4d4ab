//! Telemetry-fed adaptive read planner: pick the measured-cheapest
//! route per read, on any backend.
//!
//! Every deployment ships **interchangeable** read routes that return
//! identical answers and differ only in cost. An audience bundle runs
//! either `Batched` — the bundle's distinct conditions compiled into
//! one shared-prefix plan, 64 conditions per masked traversal (a
//! multi-source mask BFS on a single graph, one masked cross-shard
//! fixpoint on a sharded or networked one) — or `PerCondition`: one
//! independent walk per condition on a single graph, one masked
//! fixpoint per condition (its one-path plan, through the same driver
//! and engine) on a partitioned one. A check batch can materialize
//! those audiences either way or run early-exit targeted walks. The
//! ratios that once separated the routes are kept as history in
//! CHANGES.md; which route wins is left to measurement, per resource,
//! because owner-written policies differ in shape from resource to
//! resource.
//!
//! [`PlannedService`] decorates any [`ServiceInstance`] — exactly like
//! [`crate::DurableService`] wraps one for persistence — and fills the
//! unset route of every audience bundle and check batch of
//! [`AccessService::read`] from a [`Planner`]. The planner keeps, per
//! resource, one decayed measured cost (wall nanoseconds per resource,
//! per request on the targeted route) for each of five routes: bundle
//! batched, bundle per-condition, check via batched audiences, check
//! via per-condition audiences, and targeted. (A check batch's audience
//! routes are measured apart from the bundle routes: warm checks ride
//! the decision cache, and their near-zero timings must not convince
//! the planner that materializing a bundle is free.) Both read kinds
//! then follow one rule, where a candidate route's *evidence* is its
//! minimum sample count over the batch's deduped resources:
//!
//! 1. a forced [`PlannerMode`] offers a single candidate, which is
//!    served;
//! 2. every 256th decision probes the least-evidenced candidate, so a
//!    losing route's estimate cannot go permanently stale;
//! 3. with no evidence at all, the backend's default route is served,
//!    so the first reads behave exactly like an unplanned deployment;
//! 4. while any candidate has fewer than `MIN_ARM_SAMPLES`, the
//!    least-evidenced one is served, so a single cold-cache sample can
//!    never lock in a loser;
//! 5. after that the lowest summed cost wins, the targeted cost scaled
//!    from per request to the batch's request count;
//!
//! and the default wins every tie. Estimates average their first
//! samples, then decay (EWMA, α = ¼), which retires stale history
//! without any invalidation hook — mutations never touch the profile
//! table. Profiles are keyed by [`ResourceId`] in the decorator, **not**
//! in any epoch-published snapshot, so they survive republication; the
//! table sits behind one `RwLock` and all counters are atomic, so
//! concurrent readers plan and observe coherently. A misprediction
//! costs latency, never correctness: every route returns identical
//! decisions, audiences and witnesses (pinned by the planned legs of
//! `tests/differential_matrix.rs`).
//!
//! `explain` stays on the targeted witness path (the only route that
//! produces walks on every backend) but still warms the targeted cost.
//!
//! # Example
//!
//! ```
//! use socialreach_core::{
//!     AccessService, Decision, Deployment, MutateService, PlannerMode,
//! };
//!
//! let mut svc = Deployment::sharded(4, 7).planned(PlannerMode::Adaptive);
//! let alice = svc.add_user("Alice");
//! let bob = svc.add_user("Bob");
//! svc.add_relationship(alice, "friend", bob);
//! let album = svc.add_resource(alice);
//! svc.add_rule(album, "friend+[1,2]").unwrap();
//!
//! // Reads plan transparently; repeated bundles converge on the
//! // measured-cheapest engine.
//! for _ in 0..3 {
//!     assert_eq!(svc.check(album, bob).unwrap(), Decision::Grant);
//!     assert_eq!(svc.audience(album).unwrap(), vec![alice, bob]);
//! }
//! assert!(svc.planner().decisions() > 0);
//! let tally = svc.planner().executed();
//! assert!(tally.batched + tally.per_condition + tally.targeted > 0);
//! ```

use crate::error::EvalError;
use crate::policy::ResourceId;
use crate::service::{
    AccessResponse, AccessService, Applied, BundleStrategy, CheckPlan, Deployment, MutateService,
    Mutation, ReadBatch, ReadRequest, ServiceInstance,
};
use parking_lot::RwLock;
use socialreach_graph::{LabelId, NodeId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// EWMA blend factor: each new sample contributes a quarter, so ~8
/// samples retire 90% of stale history.
const ALPHA: f64 = 0.25;

/// Every `PROBE_PERIOD`-th planning decision re-measures the
/// least-evidenced candidate instead of exploiting the argmin, so the
/// losing route's estimate cannot go permanently stale. (The winning
/// route re-measures on every read, so its drift is self-correcting.)
const PROBE_PERIOD: u64 = 256;

/// Cost slots of a [`ResourceProfile`], one per measured route: the
/// two audience-bundle strategies, a check batch's two audience
/// routes, and the targeted route.
const S_BATCHED: usize = 0;
const S_PER_CONDITION: usize = 1;
const S_CHECK_BATCHED: usize = 2;
const S_CHECK_PER_CONDITION: usize = 3;
const S_TARGETED: usize = 4;
const ROUTES: usize = 5;

/// Minimum per-resource samples every candidate needs before the
/// planner exploits the argmin. Until the floor is met the planner
/// serves the least-evidenced candidate, so no estimate is built solely
/// from one cold-cache measurement — a single unlucky sample must never
/// lock in the losing route.
const MIN_ARM_SAMPLES: u64 = 3;

/// Estimates average their first few samples arithmetically before
/// switching to the EWMA, so the coldest (first) measurement doesn't
/// dominate the estimate during warm-up the way first-seeded EWMA
/// weighting (56% after three samples) would.
const SEED_SAMPLES: u64 = 4;

/// How a [`PlannedService`] picks strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlannerMode {
    /// Learn per-resource profiles and dispatch the measured argmin
    /// (cold start = backend default, deterministic periodic probe).
    Adaptive,
    /// Always the batched engines (audience bundles run the mask
    /// BFS / masked fixpoint; check batches decide by membership in
    /// batched audiences).
    ForcedBatch,
    /// Always the per-condition engines (audience bundles run one
    /// walk/fixpoint per deduped condition; check batches run
    /// early-exit targeted walks per request).
    ForcedPerCondition,
}

impl PlannerMode {
    /// Parses the `SOCIALREACH_PLANNER` lever (`adaptive` | `batch` |
    /// `per-condition`, case-insensitive). `None` for anything else.
    pub fn parse(text: &str) -> Option<PlannerMode> {
        match text.to_ascii_lowercase().as_str() {
            "adaptive" => Some(PlannerMode::Adaptive),
            "batch" => Some(PlannerMode::ForcedBatch),
            "per-condition" => Some(PlannerMode::ForcedPerCondition),
            _ => None,
        }
    }

    /// The lever spelling (`adaptive` | `batch` | `per-condition`).
    pub fn as_str(&self) -> &'static str {
        match self {
            PlannerMode::Adaptive => "adaptive",
            PlannerMode::ForcedBatch => "batch",
            PlannerMode::ForcedPerCondition => "per-condition",
        }
    }
}

/// A decayed per-route cost estimate. `samples == 0` means the route
/// was never measured for this resource — the planner treats its cost
/// as unknown rather than zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct CostEstimate {
    /// Measured wall nanoseconds per resource (audience routes) or per
    /// request (targeted route).
    pub(crate) cost_ns: f64,
    /// Samples absorbed so far.
    pub(crate) samples: u64,
}

impl CostEstimate {
    fn absorb(&mut self, sample_ns: f64) {
        if self.samples < SEED_SAMPLES {
            // Arithmetic mean while seeding (see [`SEED_SAMPLES`]).
            self.cost_ns =
                (self.cost_ns * self.samples as f64 + sample_ns) / (self.samples + 1) as f64;
        } else {
            self.cost_ns += ALPHA * (sample_ns - self.cost_ns);
        }
        self.samples += 1;
    }
}

/// The measured cost of one resource on each route, indexed by the
/// `S_*` slots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct ResourceProfile {
    pub(crate) costs: [CostEstimate; ROUTES],
}

/// A read route the planner measures, by the cost slot it is learned
/// in.
trait Route: Copy + PartialEq {
    fn slot(self) -> usize;
}

impl Route for BundleStrategy {
    fn slot(self) -> usize {
        match self {
            BundleStrategy::Batched => S_BATCHED,
            BundleStrategy::PerCondition => S_PER_CONDITION,
        }
    }
}

impl Route for CheckPlan {
    fn slot(self) -> usize {
        match self {
            CheckPlan::Audience(BundleStrategy::Batched) => S_CHECK_BATCHED,
            CheckPlan::Audience(BundleStrategy::PerCondition) => S_CHECK_PER_CONDITION,
            CheckPlan::Targeted => S_TARGETED,
        }
    }
}

/// Executed-strategy totals, one counter per dispatched read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerTally {
    /// Reads served by the batched engines.
    pub batched: u64,
    /// Reads served by the per-condition engines.
    pub per_condition: u64,
    /// Reads served by early-exit targeted walks.
    pub targeted: u64,
}

/// The cost model and telemetry store behind a [`PlannedService`].
///
/// Planning reads the profile table under a shared lock, observation
/// updates it under an exclusive lock, and the decision/tally counters
/// are atomics — concurrent readers of the wrapped service plan and
/// learn without coordination.
pub struct Planner {
    mode: PlannerMode,
    profiles: RwLock<HashMap<ResourceId, ResourceProfile>>,
    decisions: AtomicU64,
    /// Executed reads per cost slot.
    executed: [AtomicU64; ROUTES],
}

impl Planner {
    /// An empty planner (no profiles — everything cold-starts to the
    /// backend default until observations arrive).
    pub(crate) fn new(mode: PlannerMode) -> Planner {
        Planner {
            mode,
            profiles: RwLock::new(HashMap::new()),
            decisions: AtomicU64::new(0),
            executed: Default::default(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> PlannerMode {
        self.mode
    }

    /// Snapshot of one resource's profile, if any read observed it.
    #[cfg(test)]
    fn profile(&self, rid: ResourceId) -> Option<ResourceProfile> {
        self.profiles.read().get(&rid).copied()
    }

    /// Planning decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Executed-strategy totals.
    pub fn executed(&self) -> PlannerTally {
        let runs = |slot: usize| self.executed[slot].load(Ordering::Relaxed);
        PlannerTally {
            batched: runs(S_BATCHED) + runs(S_CHECK_BATCHED),
            per_condition: runs(S_PER_CONDITION) + runs(S_CHECK_PER_CONDITION),
            targeted: runs(S_TARGETED),
        }
    }

    /// Picks the bundle strategy for an audience read over `rids`.
    pub(crate) fn plan_audience(&self, rids: &[ResourceId]) -> BundleStrategy {
        let candidates: &[BundleStrategy] = match self.mode {
            PlannerMode::Adaptive => &[BundleStrategy::Batched, BundleStrategy::PerCondition],
            PlannerMode::ForcedBatch => &[BundleStrategy::Batched],
            PlannerMode::ForcedPerCondition => &[BundleStrategy::PerCondition],
        };
        self.choose(candidates, BundleStrategy::Batched, rids)
    }

    /// Picks the decision route for a check batch. `default` is the
    /// backend's unplanned behaviour for this batch size.
    pub(crate) fn plan_checks(
        &self,
        requests: &[(ResourceId, NodeId)],
        default: CheckPlan,
    ) -> CheckPlan {
        let candidates: &[CheckPlan] = match self.mode {
            PlannerMode::Adaptive => &[
                CheckPlan::Audience(BundleStrategy::Batched),
                CheckPlan::Audience(BundleStrategy::PerCondition),
                CheckPlan::Targeted,
            ],
            PlannerMode::ForcedBatch => &[CheckPlan::Audience(BundleStrategy::Batched)],
            PlannerMode::ForcedPerCondition => &[CheckPlan::Targeted],
        };
        let rids: Vec<ResourceId> = requests.iter().map(|&(r, _)| r).collect();
        self.choose(candidates, default, &rids)
    }

    /// The one rule of the module docs: picks among `candidates` for a
    /// read of `rids` (one per request, duplicates kept); `default` is
    /// the route the backend takes unplanned and wins every tie.
    fn choose<R: Route>(&self, candidates: &[R], default: R, rids: &[ResourceId]) -> R {
        let tick = self.decisions.fetch_add(1, Ordering::Relaxed);
        if let [only] = candidates {
            return *only;
        }
        let unique = dedup(rids);
        let profiles = self.profiles.read();
        let estimates = |route: R| {
            let profiles = &profiles;
            unique.iter().map(move |rid| {
                profiles
                    .get(rid)
                    .map_or_else(CostEstimate::default, |p| p.costs[route.slot()])
            })
        };
        let evidence = |route: R| estimates(route).map(|e| e.samples).min().unwrap_or(0);
        let least = candidates
            .iter()
            .copied()
            .min_by_key(|&route| (evidence(route), route != default))
            .unwrap_or(default);
        if tick % PROBE_PERIOD == PROBE_PERIOD - 1 {
            return least;
        }
        if candidates.iter().all(|&route| evidence(route) == 0) {
            return default;
        }
        if evidence(least) < MIN_ARM_SAMPLES {
            return least;
        }
        // Past the floor every resource has a sample on every route.
        // Targeted costs are per request, the rest per resource.
        let cost = |route: R| {
            let total: f64 = estimates(route).map(|e| e.cost_ns).sum();
            if route.slot() == S_TARGETED {
                total / unique.len() as f64 * rids.len() as f64
            } else {
                total
            }
        };
        candidates
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let by_cost = cost(a).total_cmp(&cost(b));
                by_cost.then((a != default).cmp(&(b != default)))
            })
            .unwrap_or(default)
    }

    /// Absorbs the wall time of an executed audience bundle.
    pub(crate) fn observe_audience(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
        elapsed_ns: u64,
    ) {
        self.observe(rids, strategy, elapsed_ns);
    }

    /// Absorbs the wall time of an executed check batch (an explain is
    /// a targeted one).
    pub(crate) fn observe_checks(
        &self,
        requests: &[(ResourceId, NodeId)],
        plan: CheckPlan,
        elapsed_ns: u64,
    ) {
        let rids: Vec<ResourceId> = requests.iter().map(|&(r, _)| r).collect();
        self.observe(&rids, plan, elapsed_ns);
    }

    /// Counts one executed read of `rids` (one per request) on `route`
    /// and blends its cost into the route's estimate of each deduped
    /// resource: `elapsed_ns` per request on the targeted route (each
    /// request walked), per deduped resource on the audience routes
    /// (each audience was materialized once).
    fn observe(&self, rids: &[ResourceId], route: impl Route, elapsed_ns: u64) {
        let unique = dedup(rids);
        if unique.is_empty() {
            return;
        }
        let slot = route.slot();
        self.executed[slot].fetch_add(1, Ordering::Relaxed);
        let per = if slot == S_TARGETED {
            rids.len()
        } else {
            unique.len()
        };
        let cost = elapsed_ns as f64 / per as f64;
        let mut profiles = self.profiles.write();
        for rid in unique {
            profiles.entry(rid).or_default().costs[slot].absorb(cost);
        }
    }
}

/// Order-preserving dedup of a resource list.
fn dedup(rids: &[ResourceId]) -> Vec<ResourceId> {
    let mut seen = std::collections::HashSet::new();
    rids.iter().copied().filter(|r| seen.insert(*r)).collect()
}

// ---------------------------------------------------------------------
// The decorator
// ---------------------------------------------------------------------

/// A [`ServiceInstance`] whose bundle and check reads are routed by a
/// [`Planner`]. Construct with [`Deployment::planned`] (empty backend)
/// or [`PlannedService::over`] (existing backend — the bench harness
/// path). Implements both service traits, so it drops in anywhere a
/// backend does; writes forward untouched and never invalidate
/// profiles (decay absorbs drift).
pub struct PlannedService {
    inner: ServiceInstance,
    planner: Planner,
}

impl Deployment {
    /// An empty backend for this deployment behind an adaptive (or
    /// forced) read planner. The planner lever of the CLI
    /// (`SOCIALREACH_PLANNER=adaptive|batch|per-condition`) lands
    /// here.
    pub fn planned(&self, mode: PlannerMode) -> PlannedService {
        PlannedService::over(self.build(), mode)
    }
}

impl PlannedService {
    /// Wraps an existing backend (profiles start empty — reads behave
    /// like the unplanned backend until telemetry accumulates).
    pub fn over(inner: ServiceInstance, mode: PlannerMode) -> PlannedService {
        PlannedService {
            inner,
            planner: Planner::new(mode),
        }
    }

    /// The planner (mode, tallies, decision count).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &ServiceInstance {
        &self.inner
    }

    /// Unwraps the backend, discarding learned profiles.
    pub fn into_inner(self) -> ServiceInstance {
        self.inner
    }
}

/// Forwards the metadata; [`AccessService::read`] plans, forwards and
/// observes.
impl AccessService for PlannedService {
    /// Answers each kind of read in the batch on its own, so each kind
    /// keeps its own timing: fills the kind's unset route from the
    /// planner, forwards, and observes the kind's wall time. A route
    /// the caller forced outranks the planner but still warms the
    /// profile; explains warm the targeted slot. Ad-hoc queries
    /// carry no [`ResourceId`] to profile: they pass through unplanned
    /// and unobserved.
    fn read(&self, batch: &ReadBatch) -> Result<Vec<AccessResponse>, EvalError> {
        batch.by_kind(|batch| {
            let reads = &batch.reads;
            let timed = |batch: &ReadBatch| {
                let start = Instant::now();
                let responses = self.inner.read(batch)?;
                Ok::<_, EvalError>((responses, start.elapsed().as_nanos() as u64))
            };
            match reads[0] {
                ReadRequest::Check { .. } | ReadRequest::Explain { .. } => {
                    let requests: Vec<_> = reads.iter().map(ReadRequest::request).collect();
                    let (plan, planned) = match (&reads[0], batch.plan) {
                        (ReadRequest::Explain { .. }, _) => {
                            (CheckPlan::Targeted, Cow::Borrowed(batch))
                        }
                        (_, Some(plan)) => (plan, Cow::Borrowed(batch)),
                        (_, None) => {
                            let default = self.inner.default_check_plan(requests.len());
                            let plan = self.planner.plan_checks(&requests, default);
                            (plan, Cow::Owned(batch.clone().with_plan(plan)))
                        }
                    };
                    let (responses, elapsed) = timed(&planned)?;
                    self.planner.observe_checks(&requests, plan, elapsed);
                    Ok(responses)
                }
                ReadRequest::Audience { .. } => {
                    let rids: Vec<_> = reads.iter().map(ReadRequest::resource).collect();
                    let (strategy, planned) = match batch.strategy {
                        Some(strategy) => (strategy, Cow::Borrowed(batch)),
                        None => {
                            let strategy = self.planner.plan_audience(&rids);
                            (strategy, Cow::Owned(batch.clone().with_strategy(strategy)))
                        }
                    };
                    let (responses, elapsed) = timed(&planned)?;
                    self.planner.observe_audience(&rids, strategy, elapsed);
                    Ok(responses)
                }
                ReadRequest::Query { .. } => self.inner.read(batch),
            }
        })
    }

    fn describe(&self) -> String {
        format!(
            "planned({}, {})",
            self.inner.describe(),
            self.planner.mode.as_str()
        )
    }

    fn num_members(&self) -> usize {
        self.inner.num_members()
    }

    fn num_relationships(&self) -> usize {
        self.inner.num_relationships()
    }

    fn resolve_user(&self, name: &str) -> Result<NodeId, EvalError> {
        self.inner.resolve_user(name)
    }

    fn member_name(&self, member: NodeId) -> &str {
        self.inner.member_name(member)
    }

    fn label_name(&self, label: LabelId) -> &str {
        self.inner.label_name(label)
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.inner.cache_stats()
    }

    fn default_check_plan(&self, len: usize) -> CheckPlan {
        self.inner.default_check_plan(len)
    }
}

impl MutateService for PlannedService {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        self.inner.apply(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Decision;

    fn rid(n: u64) -> ResourceId {
        ResourceId(n)
    }

    #[test]
    fn ewma_decay_math_is_exact() {
        let p = Planner::new(PlannerMode::Adaptive);
        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 100);
        let prof = p.profile(rid(0)).unwrap();
        // First sample seeds directly.
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 100.0);

        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 200);
        let prof = p.profile(rid(0)).unwrap();
        // Costs seed with the arithmetic mean: (100 + 200) / 2.
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 150.0);
        assert_eq!(prof.costs[S_BATCHED].samples, 2);

        // Two more samples complete the mean seeding…
        for ns in [300, 400] {
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, ns);
        }
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 250.0);
        // …after which the EWMA takes over: 250 + 0.25·(450−250).
        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 450);
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 300.0);
        assert_eq!(prof.costs[S_BATCHED].samples, 5);
    }

    #[test]
    fn cold_start_serves_the_defaults() {
        let p = Planner::new(PlannerMode::Adaptive);
        assert_eq!(p.plan_audience(&[rid(0), rid(1)]), BundleStrategy::Batched);
        let reqs = [(rid(0), NodeId(0)), (rid(1), NodeId(1))];
        assert_eq!(
            p.plan_checks(&reqs, CheckPlan::Targeted),
            CheckPlan::Targeted
        );
        assert_eq!(
            p.plan_checks(&reqs, CheckPlan::Audience(BundleStrategy::Batched)),
            CheckPlan::Audience(BundleStrategy::Batched)
        );
    }

    #[test]
    fn forced_modes_never_consult_profiles() {
        let batch = Planner::new(PlannerMode::ForcedBatch);
        let per = Planner::new(PlannerMode::ForcedPerCondition);
        let reqs = [(rid(0), NodeId(0))];
        assert_eq!(batch.plan_audience(&[rid(0)]), BundleStrategy::Batched);
        assert_eq!(per.plan_audience(&[rid(0)]), BundleStrategy::PerCondition);
        assert_eq!(
            batch.plan_checks(&reqs, CheckPlan::Targeted),
            CheckPlan::Audience(BundleStrategy::Batched)
        );
        assert_eq!(
            per.plan_checks(&reqs, CheckPlan::Audience(BundleStrategy::Batched)),
            CheckPlan::Targeted
        );
    }

    #[test]
    fn adaptive_picks_the_measured_cheaper_engine() {
        let p = Planner::new(PlannerMode::Adaptive);
        // Meet the evidence floor on both arms.
        for _ in 0..MIN_ARM_SAMPLES {
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, 9_000);
            p.observe_audience(&[rid(0)], BundleStrategy::PerCondition, 1_000);
        }
        assert_eq!(p.plan_audience(&[rid(0)]), BundleStrategy::PerCondition);
        // Flip the evidence; decay converges on the new winner.
        for _ in 0..8 {
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, 100);
            p.observe_audience(&[rid(0)], BundleStrategy::PerCondition, 20_000);
        }
        assert_eq!(p.plan_audience(&[rid(0)]), BundleStrategy::Batched);
    }

    #[test]
    fn periodic_probe_refreshes_the_least_sampled_candidate() {
        let p = Planner::new(PlannerMode::Adaptive);
        // Both arms past the evidence floor — batched cheap and
        // better-sampled, so the argmin alone would never run
        // per-condition again.
        for _ in 0..MIN_ARM_SAMPLES + 1 {
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, 10);
        }
        for _ in 0..MIN_ARM_SAMPLES {
            p.observe_audience(&[rid(0)], BundleStrategy::PerCondition, 90_000);
        }
        let mut probed = false;
        for _ in 0..PROBE_PERIOD {
            if p.plan_audience(&[rid(0)]) == BundleStrategy::PerCondition {
                probed = true;
            }
        }
        assert!(
            probed,
            "one decision per period must re-probe the least-sampled arm"
        );
    }

    #[test]
    fn evidence_floor_alternates_arms_before_exploiting() {
        let p = Planner::new(PlannerMode::Adaptive);
        // Drive audience planning closed-loop: execute whatever the
        // planner prescribes, with batched cheap and per-condition
        // expensive. The floor must alternate arms — the one
        // expensive probe never locks in, and argmin lands on batched.
        let mut per_cond_runs = 0;
        for _ in 0..2 * MIN_ARM_SAMPLES {
            let strategy = p.plan_audience(&[rid(0)]);
            let cost = match strategy {
                BundleStrategy::Batched => 10,
                BundleStrategy::PerCondition => {
                    per_cond_runs += 1;
                    90_000
                }
            };
            p.observe_audience(&[rid(0)], strategy, cost);
        }
        assert_eq!(per_cond_runs, MIN_ARM_SAMPLES, "arms must alternate");
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.costs[S_BATCHED].samples, MIN_ARM_SAMPLES);
        assert_eq!(prof.costs[S_PER_CONDITION].samples, MIN_ARM_SAMPLES);
        assert_eq!(p.plan_audience(&[rid(0)]), BundleStrategy::Batched);

        // Same discipline for check routing: all three routes gather
        // MIN_ARM_SAMPLES before the cheap targeted default wins.
        let reqs = [(rid(0), NodeId(1))];
        for _ in 0..3 * MIN_ARM_SAMPLES {
            let plan = p.plan_checks(&reqs, CheckPlan::Targeted);
            let cost = match plan {
                CheckPlan::Targeted => 10,
                CheckPlan::Audience(BundleStrategy::Batched) => 70_000,
                CheckPlan::Audience(BundleStrategy::PerCondition) => 80_000,
            };
            p.observe_checks(&reqs, plan, cost);
        }
        let prof = p.profile(rid(0)).unwrap();
        assert!(prof.costs[S_TARGETED].samples >= MIN_ARM_SAMPLES);
        assert!(prof.costs[S_CHECK_BATCHED].samples >= MIN_ARM_SAMPLES);
        assert!(prof.costs[S_CHECK_PER_CONDITION].samples >= MIN_ARM_SAMPLES);
        assert_eq!(
            p.plan_checks(&reqs, CheckPlan::Targeted),
            CheckPlan::Targeted
        );
    }

    #[test]
    fn profiles_survive_republication_under_racing_readers() {
        let mut svc = Deployment::online().planned(PlannerMode::Adaptive);
        let alice = svc.add_user("Alice");
        let mut members = vec![alice];
        for i in 0..24 {
            let m = svc.add_user(&format!("m{i}"));
            svc.add_relationship(alice, "friend", m);
            members.push(m);
        }
        let album = svc.add_resource(alice);
        svc.add_rule(album, "friend+[1,2]").unwrap();

        // Racing readers plan + observe concurrently.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let svc = &svc;
                let probe = members[3];
                scope.spawn(move || {
                    for _ in 0..16 {
                        svc.audience_batch(&[album]).unwrap();
                        svc.check_batch(&[(album, probe)], 1).unwrap();
                    }
                });
            }
        });
        let samples = |p: ResourceProfile| p.costs.iter().map(|c| c.samples).sum::<u64>();
        let before = svc.planner().profile(album).expect("profile learned");
        assert!(samples(before) > 0);
        let decisions = svc.planner().decisions();

        // Mutate (stales the epoch), then read again: the next read
        // republishes the snapshot while the profile table carries on.
        let zed = svc.add_user("Zed");
        svc.add_relationship(alice, "friend", zed);
        let audience = svc.audience(album).unwrap();
        assert!(audience.contains(&zed));
        let after = svc.planner().profile(album).expect("profile survived");
        assert!(samples(after) > samples(before));
        assert!(svc.planner().decisions() > decisions);
    }

    #[test]
    fn read_routes_through_the_planner() {
        let mut svc = Deployment::sharded(2, 7).planned(PlannerMode::Adaptive);
        let alice = svc.add_user("Alice");
        let bob = svc.add_user("Bob");
        svc.add_relationship(alice, "friend", bob);
        let album = svc.add_resource(alice);
        svc.add_rule(album, "friend+[1]").unwrap();
        let batch = ReadBatch::new()
            .check(album, bob)
            .audience(album)
            .explain(album, bob);
        let responses = svc.read(&batch).unwrap();
        assert_eq!(responses[0].decision, Some(Decision::Grant));
        assert_eq!(responses[1].audience, Some(vec![alice, bob]));
        assert!(responses[2].explanation.is_some());
        let tally = svc.planner().executed();
        assert!(tally.batched + tally.per_condition + tally.targeted >= 3);
    }
}
