//! Telemetry-fed adaptive read planner: pick the winning engine per
//! bundle, on either backend.
//!
//! Every deployment ships **interchangeable** read strategies whose
//! relative cost may flip with workload shape. An audience bundle runs
//! either `Batched` — the bundle's distinct conditions compiled into
//! one shared-prefix plan, 64 conditions per masked traversal (a
//! multi-source mask BFS on a single graph, one masked cross-shard
//! fixpoint on a sharded or networked one) — or `PerCondition`: one
//! independent walk per condition on a single graph, one masked
//! fixpoint per condition (its one-path plan, through the same driver
//! and engine) on a partitioned one. A small `check` batch can
//! materialize those audiences or run early-exit targeted walks. The
//! ratios that once separated the arms were measured before a masked
//! read cost only what it explores, and are kept as history in
//! CHANGES.md; which arm wins is left to measurement, per resource.
//!
//! [`PlannedService`] closes that gap. It decorates any
//! [`ServiceInstance`] — exactly like [`crate::DurableService`] wraps
//! one for persistence — and routes every `audience_batch` /
//! `check_batch` / `check` through a [`Planner`] that:
//!
//! 1. keeps a decaying [`ResourceProfile`] per resource (deduped
//!    conditions and shared-prefix share), learned from the
//!    [`ReadStats`] censuses of prior reads;
//! 2. keeps per-strategy decayed **measured cost** (wall nanoseconds
//!    per resource) in the same profile;
//! 3. at read time, sums the profile costs over the bundle's deduped
//!    resources per candidate strategy and dispatches the argmin
//!    through the backend's forced entry points
//!    ([`AccessService::audience_batch_forced`] /
//!    [`AccessService::check_batch_forced`]).
//!
//! Cold start is safe by construction: with no measurements at all
//! the planner serves the backend's current default, so the very
//! first reads behave exactly like an unplanned deployment. From
//! there it alternates arms — weakest evidence first — until every
//! candidate has `MIN_ARM_SAMPLES` per resource, and only then
//! exploits the argmin: a single cold-cache sample can therefore
//! never lock in the losing engine, and estimates seed with an
//! arithmetic mean before switching to the EWMA for the same reason.
//! (Check batches keep their own route costs, separate from the
//! audience-bundle slots: warm checks ride the decision cache, and
//! their near-zero timings must not convince the planner that
//! materializing audiences is free.) Every ~256th decision
//! deterministically re-probes the least-sampled candidate so
//! estimates track drift;
//! decay (EWMA, α = ¼) retires stale history without any invalidation
//! hook — mutations never touch the profile table. Profiles are keyed
//! by [`ResourceId`] in the decorator, **not** in any epoch-published
//! snapshot, so they survive republication; the table sits behind one
//! `RwLock` and all counters are atomic, so concurrent readers plan
//! and observe coherently. A misprediction costs latency, never
//! correctness: every strategy returns identical decisions, audiences
//! and witnesses (pinned by `tests/planner_differential.rs`).
//!
//! `explain` stays on the targeted witness path (the only strategy
//! that produces walks on both backends) but still feeds its census
//! into the profile, warming the targeted cost slot for later check
//! planning.
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
//! assert!(svc.planner().profile(album).is_some());
//! let tally = svc.planner().executed();
//! assert!(tally.batched + tally.per_condition + tally.targeted > 0);
//! ```

use crate::error::EvalError;
use crate::policy::{Decision, ResourceId};
use crate::service::{
    AccessService, Applied, BundleStrategy, CheckPlan, Deployment, Explanation, MutateService,
    Mutation, ReadStats, ServiceInstance,
};
use parking_lot::RwLock;
use socialreach_graph::{LabelId, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// EWMA blend factor: each new sample contributes a quarter, so ~8
/// samples retire 90% of stale history.
const ALPHA: f64 = 0.25;

/// Every `PROBE_PERIOD`-th planning decision re-measures the
/// least-sampled candidate instead of exploiting the argmin, so the
/// losing arm's estimate cannot go permanently stale. (The winning
/// arm re-measures on every read, so its drift is self-correcting.)
/// At the worst observed flip ratio (~3.7×, experiment P10 dense) the
/// amortized probe overhead is bounded by (3.7−1)/256 ≈ 1%.
const PROBE_PERIOD: u64 = 256;

/// Strategy slots inside a [`ResourceProfile`]'s cost table.
const S_BATCHED: usize = 0;
const S_PER_CONDITION: usize = 1;
const S_TARGETED: usize = 2;

/// Check bundles whose resources carry more profiled conditions than
/// this never consider the targeted route: each targeted walk pays
/// every condition again, so the audience routes dominate quickly.
const TARGETED_MAX_CONDITIONS: f64 = 2.0;

/// Minimum per-resource samples every candidate needs before the
/// planner exploits the argmin. Until the floor is met the planner
/// alternates arms (weakest evidence first), so no arm's estimate is
/// built solely from one cold-cache measurement — a single unlucky
/// sample must never lock in the losing engine.
const MIN_ARM_SAMPLES: u64 = 3;

/// Measured bundle costs within this relative margin of each other
/// count as a tie — timing noise routinely exceeds a 15% gap — and
/// the audience planner breaks the tie on learned workload *shape*
/// instead: the batched trie plan wins only when the bundle's learned
/// [`ResourceProfile::prefix_share`] shows real prefix overlap.
const NEAR_TIE_MARGIN: f64 = 0.15;

/// The learned prefix-share floor above which a near-tie prefers the
/// shared (batched) plan: 5% of product states eliminated by sharing.
const MIN_PREFIX_SHARE: f64 = 0.05;

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

/// A decayed per-strategy cost estimate. `samples == 0` means the
/// strategy was never measured for this resource — the planner treats
/// its cost as unknown rather than zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostEstimate {
    /// EWMA of measured wall nanoseconds per resource (audience
    /// routes) or per request (targeted route).
    pub cost_ns: f64,
    /// Samples absorbed so far.
    pub samples: u64,
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

/// The decaying telemetry profile of one resource: workload shape
/// learned from [`ReadStats`] censuses plus per-strategy measured
/// cost. All shape fields are EWMAs (α = ¼); the first observation
/// seeds them directly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceProfile {
    /// Deduped `(owner, path)` conditions attributable to this
    /// resource per bundle read.
    pub conditions: f64,
    /// Shared-prefix hit rate of the batched trie plan: the fraction
    /// of per-condition product states the bundle's shared-prefix
    /// compilation eliminated (`1 − plan/expr`, from
    /// [`ReadStats::prefix_share`]). Stays at its default (0) until a
    /// trie-planned batched read observes it — targeted and
    /// per-condition reads leave the EWMA untouched. Near-tie
    /// audience planning consults this field: the shared plan is only
    /// preferred over per-condition walks when prefixes actually
    /// overlap.
    pub prefix_share: f64,
    /// Shape observations absorbed (any strategy).
    pub shape_samples: u64,
    /// Measured cost per strategy slot: `[batched, per-condition,
    /// targeted]`. Slots 0–1 are **audience-bundle** evidence
    /// (nanoseconds per resource, fed only by audience reads); slot 2
    /// is the targeted per-request cost (single `check`/`explain` and
    /// targeted check batches).
    pub costs: [CostEstimate; 3],
    /// Measured cost of deciding a check batch **via** audience
    /// materialization: `[batched, per-condition]`, nanoseconds per
    /// deduped resource. Kept apart from `costs[0..2]` because warm
    /// check batches ride the decision cache — near-zero check
    /// timings must not convince the planner that materializing a
    /// full audience bundle is free.
    pub check_costs: [CostEstimate; 2],
}

impl ResourceProfile {
    fn absorb_shape(&mut self, sample: &ShapeSample) {
        let blend = |field: &mut f64, value: Option<f64>, first: bool| {
            if let Some(v) = value {
                if first {
                    *field = v;
                } else {
                    *field += ALPHA * (v - *field);
                }
            }
        };
        let first = self.shape_samples == 0;
        blend(&mut self.conditions, sample.conditions, first);
        blend(&mut self.prefix_share, sample.prefix_share, first);
        self.shape_samples += 1;
    }
}

/// One read's shape evidence for one resource, derived from a bundle
/// census. `None` fields leave the profile's EWMA untouched (e.g. a
/// read without a trie plan observes no prefix share).
struct ShapeSample {
    conditions: Option<f64>,
    prefix_share: Option<f64>,
}

impl ShapeSample {
    /// Shape evidence shared by every bundle read: per-resource
    /// condition share plus the bundle's prefix share.
    fn from_stats(stats: &ReadStats, resources: usize) -> ShapeSample {
        ShapeSample {
            conditions: (resources > 0).then(|| stats.conditions as f64 / resources as f64),
            prefix_share: stats.prefix_share(),
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
/// All methods take `&self`: planning reads the profile table under a
/// shared lock, observation updates it under an exclusive lock, and
/// the decision/tally counters are atomics — concurrent readers of
/// the wrapped service plan and learn without coordination.
pub struct Planner {
    mode: PlannerMode,
    profiles: RwLock<HashMap<ResourceId, ResourceProfile>>,
    decisions: AtomicU64,
    executed: [AtomicU64; 3],
}

impl Planner {
    /// An empty planner (no profiles — everything cold-starts to the
    /// backend default until observations arrive).
    pub fn new(mode: PlannerMode) -> Planner {
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
    pub fn profile(&self, rid: ResourceId) -> Option<ResourceProfile> {
        self.profiles.read().get(&rid).copied()
    }

    /// Planning decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Executed-strategy totals.
    pub fn executed(&self) -> PlannerTally {
        PlannerTally {
            batched: self.executed[S_BATCHED].load(Ordering::Relaxed),
            per_condition: self.executed[S_PER_CONDITION].load(Ordering::Relaxed),
            targeted: self.executed[S_TARGETED].load(Ordering::Relaxed),
        }
    }

    /// Picks the bundle strategy for an audience read over `rids`.
    pub fn plan_audience(&self, rids: &[ResourceId]) -> BundleStrategy {
        let tick = self.decisions.fetch_add(1, Ordering::Relaxed);
        match self.mode {
            PlannerMode::ForcedBatch => return BundleStrategy::Batched,
            PlannerMode::ForcedPerCondition => return BundleStrategy::PerCondition,
            PlannerMode::Adaptive => {}
        }
        let unique = dedup(rids);
        let profiles = self.profiles.read();
        let batched = bundle_cost(&profiles, &unique, |p| p.costs[S_BATCHED]);
        let per_cond = bundle_cost(&profiles, &unique, |p| p.costs[S_PER_CONDITION]);
        if tick % PROBE_PERIOD == PROBE_PERIOD - 1 {
            // Deterministic probe: refresh whichever candidate has the
            // thinner evidence.
            let s_batched = slot_samples(&profiles, &unique, |p| p.costs[S_BATCHED]);
            let s_per_cond = slot_samples(&profiles, &unique, |p| p.costs[S_PER_CONDITION]);
            return if s_per_cond < s_batched {
                BundleStrategy::PerCondition
            } else {
                BundleStrategy::Batched
            };
        }
        // Evidence floor: alternate arms (weakest first, tie → the
        // batched default) until every resource has MIN_ARM_SAMPLES of
        // both, so no single cold measurement can lock in a loser. A
        // probed misprediction costs latency, never correctness.
        let ev_batched = arm_evidence(&profiles, &unique, |p| p.costs[S_BATCHED]);
        let ev_per_cond = arm_evidence(&profiles, &unique, |p| p.costs[S_PER_CONDITION]);
        if ev_batched < MIN_ARM_SAMPLES || ev_per_cond < MIN_ARM_SAMPLES {
            return if ev_per_cond < ev_batched {
                BundleStrategy::PerCondition
            } else {
                BundleStrategy::Batched
            };
        }
        match (batched, per_cond) {
            // Near-tie: measured costs alone can't separate the arms
            // (timing noise exceeds the gap), so let the learned
            // workload shape decide — the batched trie plan only earns
            // its keep when the bundle's prefixes actually overlap.
            (Some(b), Some(p)) if (b - p).abs() <= NEAR_TIE_MARGIN * b.max(p) => {
                if bundle_prefix_share(&profiles, &unique) > MIN_PREFIX_SHARE {
                    BundleStrategy::Batched
                } else {
                    BundleStrategy::PerCondition
                }
            }
            (Some(b), Some(p)) if p < b => BundleStrategy::PerCondition,
            _ => BundleStrategy::Batched,
        }
    }

    /// Picks the decision route for a check batch. `default` is the
    /// backend's unplanned behaviour for this batch size and is served
    /// verbatim on cold start.
    pub fn plan_checks(&self, requests: &[(ResourceId, NodeId)], default: CheckPlan) -> CheckPlan {
        let tick = self.decisions.fetch_add(1, Ordering::Relaxed);
        match self.mode {
            PlannerMode::ForcedBatch => return CheckPlan::Audience(BundleStrategy::Batched),
            PlannerMode::ForcedPerCondition => return CheckPlan::Targeted,
            PlannerMode::Adaptive => {}
        }
        let unique: Vec<ResourceId> = dedup(&requests.iter().map(|&(r, _)| r).collect::<Vec<_>>());
        let profiles = self.profiles.read();

        // The targeted route replays every condition per request, so it
        // is only a candidate for thin-policy bundles (the ISSUE's
        // "1–2-condition check bundles"). Unprofiled resources pass the
        // gate — the cost model (not the gate) handles them.
        let targeted_ok = unique.iter().all(|rid| {
            profiles
                .get(rid)
                .is_none_or(|p| p.shape_samples == 0 || p.conditions <= TARGETED_MAX_CONDITIONS)
        });

        // Audience-route costs come from the check-specific estimates
        // (what deciding a batch via materialization actually cost,
        // decision cache included) — never from the audience-bundle
        // slots. Targeted cost is per *request* (duplicates re-walk,
        // modulo the decision cache), audience-route cost per deduped
        // resource.
        let cost_route = |slot: usize| bundle_cost(&profiles, &unique, |p| p.check_costs[slot]);
        let cost_targeted = || -> Option<f64> {
            let per_rid = bundle_cost(&profiles, &unique, |p| p.costs[S_TARGETED])?;
            Some(per_rid / unique.len().max(1) as f64 * requests.len() as f64)
        };

        // (plan, known bundle cost, per-resource evidence floor) per
        // candidate.
        let mut candidates = vec![
            (
                CheckPlan::Audience(BundleStrategy::Batched),
                cost_route(S_BATCHED),
                arm_evidence(&profiles, &unique, |p| p.check_costs[S_BATCHED]),
            ),
            (
                CheckPlan::Audience(BundleStrategy::PerCondition),
                cost_route(S_PER_CONDITION),
                arm_evidence(&profiles, &unique, |p| p.check_costs[S_PER_CONDITION]),
            ),
        ];
        if targeted_ok {
            candidates.push((
                CheckPlan::Targeted,
                cost_targeted(),
                arm_evidence(&profiles, &unique, |p| p.costs[S_TARGETED]),
            ));
        }

        if tick % PROBE_PERIOD == PROBE_PERIOD - 1 {
            // Deterministic probe: refresh whichever candidate has the
            // thinnest total evidence.
            return candidates
                .into_iter()
                .min_by_key(|&(_, _, evidence)| evidence)
                .map(|(plan, _, _)| plan)
                .unwrap_or(default);
        }

        // True cold start: nothing measured for any route → serve the
        // backend default verbatim.
        if candidates.iter().all(|&(_, _, evidence)| evidence == 0) {
            return default;
        }

        // Evidence floor: route batches to the weakest-evidenced
        // candidate (the backend default wins ties) until every route
        // has MIN_ARM_SAMPLES per resource — a single cold sample must
        // not lock in a loser.
        if let Some(&(plan, _, _)) = candidates
            .iter()
            .filter(|&&(_, _, evidence)| evidence < MIN_ARM_SAMPLES)
            .min_by_key(|&&(plan, _, evidence)| (evidence, plan != default))
        {
            return plan;
        }

        candidates
            .into_iter()
            .filter_map(|(plan, cost, _)| cost.map(|c| (c, plan)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(_, plan)| plan)
            .unwrap_or(default)
    }

    /// Absorbs the outcome of an executed audience bundle:
    /// per-resource shape evidence plus the executed strategy's
    /// measured cost (`elapsed_ns / resources`).
    pub fn observe_audience(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
        elapsed_ns: u64,
        stats: &ReadStats,
    ) {
        let unique = dedup(rids);
        if unique.is_empty() {
            return;
        }
        let slot = match strategy {
            BundleStrategy::Batched => S_BATCHED,
            BundleStrategy::PerCondition => S_PER_CONDITION,
        };
        self.executed[slot].fetch_add(1, Ordering::Relaxed);
        let sample = ShapeSample::from_stats(stats, unique.len());
        let cost = elapsed_ns as f64 / unique.len() as f64;
        let mut profiles = self.profiles.write();
        for rid in &unique {
            let profile = profiles.entry(*rid).or_default();
            profile.absorb_shape(&sample);
            profile.costs[slot].absorb(cost);
        }
    }

    /// Absorbs the outcome of an executed check batch. Audience routes
    /// attribute cost per deduped resource (they materialized those
    /// audiences); the targeted route per request (each request
    /// walked).
    pub fn observe_checks(
        &self,
        requests: &[(ResourceId, NodeId)],
        plan: CheckPlan,
        elapsed_ns: u64,
        stats: &ReadStats,
    ) {
        let unique: Vec<ResourceId> = dedup(&requests.iter().map(|&(r, _)| r).collect::<Vec<_>>());
        if unique.is_empty() {
            return;
        }
        let slot = match plan {
            CheckPlan::Targeted => S_TARGETED,
            CheckPlan::Audience(BundleStrategy::Batched) => S_BATCHED,
            CheckPlan::Audience(BundleStrategy::PerCondition) => S_PER_CONDITION,
        };
        self.executed[slot].fetch_add(1, Ordering::Relaxed);
        let sample = ShapeSample::from_stats(stats, unique.len());
        let cost = if plan == CheckPlan::Targeted {
            elapsed_ns as f64 / requests.len().max(1) as f64
        } else {
            elapsed_ns as f64 / unique.len() as f64
        };
        let mut profiles = self.profiles.write();
        for rid in &unique {
            let profile = profiles.entry(*rid).or_default();
            profile.absorb_shape(&sample);
            // Check evidence lands in check-route estimates; only the
            // targeted slot is shared with single check/explain reads.
            match plan {
                CheckPlan::Targeted => profile.costs[S_TARGETED].absorb(cost),
                CheckPlan::Audience(_) => profile.check_costs[slot].absorb(cost),
            }
        }
    }

    /// Absorbs a targeted single read (`check` / `explain`): warms the
    /// targeted cost slot and the shape profile.
    pub fn observe_targeted(&self, rid: ResourceId, elapsed_ns: u64, stats: &ReadStats) {
        self.executed[S_TARGETED].fetch_add(1, Ordering::Relaxed);
        let sample = ShapeSample::from_stats(stats, 1);
        let mut profiles = self.profiles.write();
        let profile = profiles.entry(rid).or_default();
        profile.absorb_shape(&sample);
        profile.costs[S_TARGETED].absorb(elapsed_ns as f64);
    }
}

/// Order-preserving dedup of a resource list.
fn dedup(rids: &[ResourceId]) -> Vec<ResourceId> {
    let mut seen = std::collections::HashSet::new();
    rids.iter().copied().filter(|r| seen.insert(*r)).collect()
}

/// Estimated bundle cost for one strategy's estimate (selected by
/// `est`): the sum of the deduped resources' per-resource EWMA costs.
/// `None` when *any* resource lacks a measurement — an unknown addend
/// makes the whole estimate unknown, which is what routes cold
/// bundles to the default (and partially-cold ones to a probe).
fn bundle_cost(
    profiles: &HashMap<ResourceId, ResourceProfile>,
    unique: &[ResourceId],
    est: impl Fn(&ResourceProfile) -> CostEstimate,
) -> Option<f64> {
    let mut total = 0.0;
    for rid in unique {
        let est = est(profiles.get(rid)?);
        if est.samples == 0 {
            return None;
        }
        total += est.cost_ns;
    }
    (!unique.is_empty()).then_some(total)
}

/// Per-resource evidence floor of one strategy's estimate across the
/// bundle: the *minimum* sample count over the deduped resources
/// (zero when any is unprofiled). The planner exploits the argmin
/// only once every candidate's floor reaches [`MIN_ARM_SAMPLES`].
fn arm_evidence(
    profiles: &HashMap<ResourceId, ResourceProfile>,
    unique: &[ResourceId],
    est: impl Fn(&ResourceProfile) -> CostEstimate,
) -> u64 {
    unique
        .iter()
        .map(|rid| profiles.get(rid).map_or(0, |p| est(p).samples))
        .min()
        .unwrap_or(0)
}

/// Mean learned shared-prefix hit rate across the bundle's deduped
/// resources (unprofiled resources contribute 0 — no evidence of
/// overlap is treated as no overlap).
fn bundle_prefix_share(
    profiles: &HashMap<ResourceId, ResourceProfile>,
    unique: &[ResourceId],
) -> f64 {
    if unique.is_empty() {
        return 0.0;
    }
    let total: f64 = unique
        .iter()
        .map(|rid| profiles.get(rid).map_or(0.0, |p| p.prefix_share))
        .sum();
    total / unique.len() as f64
}

/// Total measurement count of one strategy's estimate across the
/// bundle.
fn slot_samples(
    profiles: &HashMap<ResourceId, ResourceProfile>,
    unique: &[ResourceId],
    est: impl Fn(&ResourceProfile) -> CostEstimate,
) -> u64 {
    unique
        .iter()
        .map(|rid| profiles.get(rid).map_or(0, |p| est(p).samples))
        .sum()
}

// ---------------------------------------------------------------------
// The decorator
// ---------------------------------------------------------------------

/// A [`ServiceInstance`] whose bundle reads are routed by a
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

    /// The planner (profiles, tallies, decision count).
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

/// Forwards naming and the un-profiled reads, **observes** the
/// primitives that carry a census (an explicit force outranks the
/// planner but still warms the profile), and overrides exactly the two
/// provided reads where a policy is chosen.
impl AccessService for PlannedService {
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

    fn check_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Decision, ReadStats), EvalError> {
        let start = Instant::now();
        let (decision, stats) = self.inner.check_with_stats(resource, requester)?;
        self.planner
            .observe_targeted(resource, start.elapsed().as_nanos() as u64, &stats);
        Ok((decision, stats))
    }

    fn explain_with_stats(
        &self,
        resource: ResourceId,
        requester: NodeId,
    ) -> Result<(Option<Explanation>, ReadStats), EvalError> {
        let start = Instant::now();
        let (explanation, stats) = self.inner.explain_with_stats(resource, requester)?;
        self.planner
            .observe_targeted(resource, start.elapsed().as_nanos() as u64, &stats);
        Ok((explanation, stats))
    }

    fn audience_batch_forced(
        &self,
        rids: &[ResourceId],
        strategy: BundleStrategy,
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        let start = Instant::now();
        let (audiences, stats) = self.inner.audience_batch_forced(rids, strategy)?;
        self.planner
            .observe_audience(rids, strategy, start.elapsed().as_nanos() as u64, &stats);
        Ok((audiences, stats))
    }

    fn check_batch_forced(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
        plan: CheckPlan,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        let start = Instant::now();
        let (decisions, stats) = self.inner.check_batch_forced(requests, threads, plan)?;
        self.planner
            .observe_checks(requests, plan, start.elapsed().as_nanos() as u64, &stats);
        Ok((decisions, stats))
    }

    /// Read-only ad-hoc queries carry no [`ResourceId`] to profile, so
    /// they bypass the planner and ride the backend's default bundle
    /// strategy.
    fn query_audience_bundle(
        &self,
        queries: &[(NodeId, &str)],
    ) -> Result<Vec<Vec<NodeId>>, EvalError> {
        self.inner.query_audience_bundle(queries)
    }

    fn default_check_plan(&self, len: usize) -> CheckPlan {
        self.inner.default_check_plan(len)
    }

    /// The planner picks the bundle strategy.
    fn audience_batch_with_stats(
        &self,
        rids: &[ResourceId],
    ) -> Result<(Vec<Vec<NodeId>>, ReadStats), EvalError> {
        self.audience_batch_forced(rids, self.planner.plan_audience(rids))
    }

    /// The planner picks the decision route (cold start serves the
    /// backend's [`AccessService::default_check_plan`]).
    fn check_batch_with_stats(
        &self,
        requests: &[(ResourceId, NodeId)],
        threads: usize,
    ) -> Result<(Vec<Decision>, ReadStats), EvalError> {
        let default = self.default_check_plan(requests.len());
        let plan = self.planner.plan_checks(requests, default);
        self.check_batch_forced(requests, threads, plan)
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
    use crate::service::ReadBatch;

    fn rid(n: u64) -> ResourceId {
        ResourceId(n)
    }

    fn stats(conditions: usize, states: usize, exported: usize) -> ReadStats {
        ReadStats {
            conditions,
            traversals: 1,
            rounds: 1,
            states_expanded: states,
            exported_states: exported,
            plan_states: 0,
            expr_states: 0,
        }
    }

    #[test]
    fn ewma_decay_math_is_exact() {
        let p = Planner::new(PlannerMode::Adaptive);
        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 100, &stats(2, 40, 10));
        let prof = p.profile(rid(0)).unwrap();
        // First sample seeds directly.
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 100.0);
        assert_eq!(prof.conditions, 2.0);

        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 200, &stats(4, 40, 0));
        let prof = p.profile(rid(0)).unwrap();
        // Costs seed with the arithmetic mean: (100 + 200) / 2.
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 150.0);
        assert_eq!(prof.costs[S_BATCHED].samples, 2);
        // Shape fields blend with α = 0.25 from the first sample on.
        assert_eq!(prof.conditions, 2.5);

        // Two more samples complete the mean seeding…
        for ns in [300, 400] {
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, ns, &stats(4, 40, 0));
        }
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 250.0);
        // …after which the EWMA takes over: 250 + 0.25·(450−250).
        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 450, &stats(4, 40, 0));
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.costs[S_BATCHED].cost_ns, 300.0);
        assert_eq!(prof.costs[S_BATCHED].samples, 5);
    }

    #[test]
    fn prefix_share_ewma_math_is_exact() {
        let p = Planner::new(PlannerMode::Adaptive);
        // First trie-planned census: 100 per-condition states collapsed
        // to 50 plan states → share 0.5 seeds the field directly.
        let mut s = stats(2, 40, 0);
        s.plan_states = 50;
        s.expr_states = 100;
        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 100, &s);
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.prefix_share, 0.5);

        // Second census at share 0.25 blends with α = ¼:
        // 0.5 + 0.25·(0.25 − 0.5).
        s.plan_states = 75;
        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 100, &s);
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.prefix_share, 0.4375);

        // A census without a plan (targeted or per-condition read →
        // expr_states == 0) reports no share and must leave the EWMA
        // untouched.
        p.observe_audience(&[rid(0)], BundleStrategy::Batched, 100, &stats(2, 40, 0));
        let prof = p.profile(rid(0)).unwrap();
        assert_eq!(prof.prefix_share, 0.4375);
    }

    #[test]
    fn near_tie_breaks_on_learned_prefix_share() {
        // Costs within the 15% near-tie margin on both planners; only
        // the learned prefix overlap differs.
        let learn = |share_states: usize| {
            let p = Planner::new(PlannerMode::Adaptive);
            let mut batched_stats = stats(1, 10, 0);
            batched_stats.plan_states = share_states;
            batched_stats.expr_states = 100;
            for _ in 0..MIN_ARM_SAMPLES {
                p.observe_audience(&[rid(0)], BundleStrategy::Batched, 1_000, &batched_stats);
                p.observe_audience(
                    &[rid(0)],
                    BundleStrategy::PerCondition,
                    950,
                    &stats(1, 10, 0),
                );
            }
            p
        };
        // Disjoint bundle: the plan holds exactly the per-condition
        // states (share 0) — per-condition wins the tie.
        let disjoint = learn(100);
        assert_eq!(
            disjoint.plan_audience(&[rid(0)]),
            BundleStrategy::PerCondition
        );
        // Overlapping bundle: half the states shared — the trie plan
        // wins the tie even though per-condition measured nominally
        // cheaper.
        let shared = learn(50);
        assert_eq!(shared.plan_audience(&[rid(0)]), BundleStrategy::Batched);
        // Outside the margin the measured argmin still rules.
        let p = learn(50);
        for _ in 0..8 {
            p.observe_audience(
                &[rid(0)],
                BundleStrategy::PerCondition,
                100,
                &stats(1, 10, 0),
            );
        }
        assert_eq!(p.plan_audience(&[rid(0)]), BundleStrategy::PerCondition);
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
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, 9_000, &stats(1, 10, 0));
            p.observe_audience(
                &[rid(0)],
                BundleStrategy::PerCondition,
                1_000,
                &stats(1, 10, 0),
            );
        }
        assert_eq!(p.plan_audience(&[rid(0)]), BundleStrategy::PerCondition);
        // Flip the evidence; decay converges on the new winner.
        for _ in 0..8 {
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, 100, &stats(1, 10, 0));
            p.observe_audience(
                &[rid(0)],
                BundleStrategy::PerCondition,
                20_000,
                &stats(1, 10, 0),
            );
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
            p.observe_audience(&[rid(0)], BundleStrategy::Batched, 10, &stats(1, 10, 0));
        }
        for _ in 0..MIN_ARM_SAMPLES {
            p.observe_audience(
                &[rid(0)],
                BundleStrategy::PerCondition,
                90_000,
                &stats(1, 10, 0),
            );
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
            p.observe_audience(&[rid(0)], strategy, cost, &stats(1, 10, 0));
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
            p.observe_checks(&reqs, plan, cost, &stats(1, 10, 0));
        }
        let prof = p.profile(rid(0)).unwrap();
        assert!(prof.costs[S_TARGETED].samples >= MIN_ARM_SAMPLES);
        assert!(prof.check_costs[S_BATCHED].samples >= MIN_ARM_SAMPLES);
        assert!(prof.check_costs[S_PER_CONDITION].samples >= MIN_ARM_SAMPLES);
        assert_eq!(
            p.plan_checks(&reqs, CheckPlan::Targeted),
            CheckPlan::Targeted
        );
    }

    #[test]
    fn targeted_gate_respects_profiled_condition_count() {
        let p = Planner::new(PlannerMode::Adaptive);
        let reqs = [(rid(0), NodeId(1))];
        // Heavy policy (4 conditions) with targeted measured cheapest:
        // the gate must still refuse the targeted route.
        for _ in 0..MIN_ARM_SAMPLES {
            p.observe_checks(&reqs, CheckPlan::Targeted, 10, &stats(4, 100, 0));
            p.observe_checks(
                &reqs,
                CheckPlan::Audience(BundleStrategy::Batched),
                50_000,
                &stats(4, 100, 0),
            );
            p.observe_checks(
                &reqs,
                CheckPlan::Audience(BundleStrategy::PerCondition),
                40_000,
                &stats(4, 100, 0),
            );
        }
        let plan = p.plan_checks(&reqs, CheckPlan::Audience(BundleStrategy::Batched));
        assert_eq!(plan, CheckPlan::Audience(BundleStrategy::PerCondition));
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
        let before = svc.planner().profile(album).expect("profile learned");
        assert!(before.shape_samples > 0);
        let decisions = svc.planner().decisions();

        // Mutate (stales the epoch), then read again: the next read
        // republishes the snapshot while the profile table carries on.
        let zed = svc.add_user("Zed");
        svc.add_relationship(alice, "friend", zed);
        let audience = svc.audience(album).unwrap();
        assert!(audience.contains(&zed));
        let after = svc.planner().profile(album).expect("profile survived");
        assert!(after.shape_samples > before.shape_samples);
        assert!(svc.planner().decisions() > decisions);
    }

    #[test]
    fn read_batch_routes_through_the_planner() {
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
        let responses = svc.read_batch(&batch).unwrap();
        assert_eq!(responses[0].decision, Some(Decision::Grant));
        assert_eq!(responses[1].audience, Some(vec![alice, bob]));
        assert!(responses[2].explanation.is_some());
        let tally = svc.planner().executed();
        assert!(tally.batched + tally.per_condition + tally.targeted >= 3);
    }
}
