//! The masked cross-shard fixpoint: **one** round loop, two links.
//!
//! A partitioned read — sharded or networked, a whole bundle's
//! audiences or one targeted check — is the same algorithm: seed the
//! owners' home shards, let every shard with pending seeds drain its
//! local frontier, merge what the shards report in shard order, forward
//! each export to its member's home shard as received, and repeat until
//! nothing is pending (or the targeted requester is hit). The driver
//! keeps no record of the bits it forwarded: each shard's persistent
//! mask state already holds them. [`masked_fixpoint`] is the only place
//! that loop lives, and [`stitch`] the only place a witness is read off
//! the lanes' parent chains. Both are generic over [`ShardLane`] — *how
//! one read reaches one shard* — with exactly two production
//! implementations, one per [`crate::link::ShardLink`]: the in-process
//! lane (a function call into a `ShardCore`) and the remote lane of
//! [`crate::remote`] (a `Round` exchange on a socket). A round is
//! send-then-receive on the driver's thread: remote shards compute in
//! parallel between the two, an in-process lane inside `send`.
//!
//! The shard-local half of a round is shared as well: the in-process
//! lane and the shard server's `Round` handler both run
//! `ShardCore::round` — global→local seed translation, one seeded run of
//! the plan engine ([`crate::query::engine`]), ghost filtering,
//! local→global exports. A bundle chunk runs its shared-prefix plan, a
//! per-condition or targeted read the one-path plan of its condition.

use crate::coordinator::BundleFixpointStats;
use crate::path::PathExpr;
use crate::query::{BundlePlan, ChunkMasks};
use crate::remote::proto::WireMatch;
use crate::service::{ReadStats, WalkHop};
use crate::shard::Traced;
use socialreach_graph::shard::{MaskedExport, MaskedStateKey};
use socialreach_graph::NodeId;
use std::collections::HashMap;

/// A cross-shard product-state coordinate: global member, step index
/// (or plan node id), saturated depth.
pub type StateKey = (u32, u16, u32);

/// What one shard reports for one round, in **global** member ids (the
/// field-for-field shape of the wire's `Round` response).
#[derive(Debug, Default)]
pub struct LaneRound {
    /// Home members that completed the final step, with the condition
    /// bits that newly matched them (ghosts already filtered out).
    pub matched: Vec<WireMatch>,
    /// Masked states visited at ghost replicas, with the newly arrived
    /// bits.
    pub exports: Vec<MaskedExport>,
    /// The `(step, depth)` at which the stop member completed the final
    /// step, when it did (the shard's run returned early).
    pub hit: Option<(u16, u32)>,
    /// Product states the shard expanded this round.
    pub states_expanded: u64,
}

/// How the fixpoint reaches one shard. A lane is built knowing what it
/// runs — a compiled bundle-plan chunk, or one path's one-path plan —
/// and opens lazily, with its first `send`, so shards a traversal never
/// touches allocate and exchange nothing. Every call comes from the
/// driver's thread, so an in-process lane's engine takes its scratch
/// from that thread's pool and gives it back there ([`crate::online`],
/// "Pooled mask scratch"): a read allocates nothing after warm-up and
/// resets only what it touched.
pub trait ShardLane {
    /// Why a round can fail (`Infallible` in process, a transport or
    /// protocol error over the wire).
    type Error;

    /// Starts one round: delivers its seeds. `stop` names the member
    /// whose completion of the final step ends the run early (one-path
    /// lanes only). A remote lane writes one request frame and returns;
    /// an in-process lane runs the round here.
    fn send(&mut self, seeds: &[MaskedExport], stop: Option<u32>) -> Result<(), Self::Error>;

    /// Finishes the round `send` started: returns what the shard's run
    /// matched and exported.
    fn recv(&mut self) -> Result<LaneRound, Self::Error>;

    /// Walks the lane's parent chain back from the state `(member,
    /// step, depth)` at the shard's copy of `member` (lanes of a
    /// parent-tracked targeted read only).
    fn trace(&mut self, member: u32, step: u16, depth: u32) -> Result<Traced, Self::Error>;

    /// The error of a trace that reached `seed`, a seed no lane
    /// exported.
    fn stray_seed(&self, seed: StateKey) -> Self::Error;

    /// Closes the lane. The driver calls this exactly once on every
    /// lane it sent a round to, whatever the outcome.
    fn end(&mut self);
}

/// Result of one [`masked_fixpoint`].
#[derive(Debug, Default)]
pub(crate) struct FixpointRun {
    /// `audiences[bit]` — sorted members matched under condition bit
    /// `bit`. Left empty by targeted runs, which only want the hit.
    pub audiences: Vec<Vec<NodeId>>,
    /// `(lane, step, depth)` of the early-exit hit, if the stop member
    /// completed the final step.
    pub hit: Option<(usize, u16, u32)>,
    /// Which lane first exported each forwarded state — the hand-offs
    /// a stitched witness follows. Recorded by targeted runs only.
    pub origin: HashMap<StateKey, usize>,
    /// Fixpoint rounds run.
    pub rounds: usize,
    /// Masked boundary exports forwarded.
    pub exported_states: usize,
    /// Product states expanded, per lane.
    pub states_expanded: Vec<usize>,
}

/// The one seed of a targeted (bit 0, word 0) one-path fixpoint:
/// `owner` at the path's start state (plan node 0 is step 0).
pub(crate) fn owner_seed(owner: NodeId) -> MaskedExport {
    MaskedExport {
        key: MaskedStateKey {
            member: owner.0,
            step: 0,
            depth: 0,
            word: 0,
        },
        mask: 1,
    }
}

impl FixpointRun {
    /// Adds this run's round/export/expansion census to a read's.
    pub(crate) fn add_to(&self, stats: &mut ReadStats) {
        stats.rounds += self.rounds;
        stats.exported_states += self.exported_states;
        stats.states_expanded += self.states_expanded.iter().sum::<usize>();
    }
}

/// Runs one masked fixpoint over `lanes` (index = shard), then ends
/// every lane it opened — after success, an early-exit hit, and a lane
/// error alike.
///
/// `seeds` enter at their members' home lanes (`home_of`). With `stop =
/// Some((lane, member))` the run is **targeted**: that lane early-exits
/// when the member completes the final step, `origin` is recorded and
/// no audience is collected. `finish` runs on the result while the
/// lanes are still open — an `explain` reads its witness off the
/// lanes' parent chains there.
pub(crate) fn masked_fixpoint<L: ShardLane, T>(
    lanes: &mut [L],
    home_of: impl Fn(u32) -> usize,
    seeds: &[MaskedExport],
    stop: Option<(usize, u32)>,
    finish: impl FnOnce(&mut [L], FixpointRun) -> Result<T, L::Error>,
) -> Result<T, L::Error> {
    let mut opened = vec![false; lanes.len()];
    let result =
        run_rounds(lanes, &mut opened, home_of, seeds, stop).and_then(|run| finish(lanes, run));
    for (lane, _) in lanes.iter_mut().zip(&opened).filter(|(_, &o)| o) {
        lane.end();
    }
    result
}

/// The round loop of [`masked_fixpoint`]; `opened[i]` is set before
/// lane `i`'s first `send`.
fn run_rounds<L: ShardLane>(
    lanes: &mut [L],
    opened: &mut [bool],
    home_of: impl Fn(u32) -> usize,
    seeds: &[MaskedExport],
    stop: Option<(usize, u32)>,
) -> Result<FixpointRun, L::Error> {
    let bits = seeds.iter().fold(0, |all, s| all | s.mask);
    let mut run = FixpointRun {
        audiences: match stop {
            None => vec![Vec::new(); (u64::BITS - bits.leading_zeros()) as usize],
            Some(_) => Vec::new(),
        },
        states_expanded: vec![0; lanes.len()],
        ..FixpointRun::default()
    };
    let mut pending: Vec<Vec<MaskedExport>> = vec![Vec::new(); lanes.len()];
    for seed in seeds {
        pending[home_of(seed.key.member)].push(*seed);
    }

    while run.hit.is_none() {
        let active: Vec<usize> = (0..lanes.len())
            .filter(|&i| !pending[i].is_empty())
            .collect();
        if active.is_empty() {
            break;
        }
        run.rounds += 1;
        // Send to every active lane before receiving from any, so the
        // shards of a networked read compute in parallel.
        for &i in &active {
            opened[i] = true;
            let seeds = std::mem::take(&mut pending[i]);
            let stop = stop
                .filter(|&(lane, _)| lane == i)
                .map(|(_, member)| member);
            lanes[i].send(&seeds, stop)?;
        }

        // Receive and merge in lane order: deterministic whatever order
        // the shards finish in.
        for i in active {
            let out = lanes[i].recv()?;
            run.states_expanded[i] += out.states_expanded as usize;
            if run.hit.is_some() {
                continue; // past the hit only the work census counts
            }
            if let Some((step, depth)) = out.hit {
                // The chain to the hit consists of states seeded in
                // earlier rounds, so `origin` already covers every
                // hand-off a trace will follow — dropping this round's
                // remaining exports is safe (and the point of the early
                // exit).
                run.hit = Some((i, step, depth));
                continue;
            }
            if stop.is_none() {
                for m in &out.matched {
                    let mut bits = m.mask;
                    while bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        run.audiences[bit].push(NodeId(m.member));
                    }
                }
            }
            // Each export goes to its member's home shard as received.
            // A shard exports only bits newly arrived at its ghost copy,
            // and a home shard absorbs bits it already holds, so a state
            // two shards both export costs its home one no-op seed and
            // the rounds still end.
            run.exported_states += out.exports.len();
            for exp in &out.exports {
                if stop.is_some() {
                    let key = (exp.key.member, exp.key.step, exp.key.depth);
                    run.origin.entry(key).or_insert(i);
                }
                pending[home_of(exp.key.member)].push(*exp);
            }
        }
    }

    for audience in &mut run.audiences {
        // Each (member, bit) pair is reported at most once (the
        // engines' matched masks persist), so the dedup is a guard.
        audience.sort_unstable();
        audience.dedup();
    }
    Ok(run)
}

/// Stitches a targeted grant's witness off the lanes' parent chains
/// (no replay), starting `at` the hit `(lane, member, step, depth)`: the
/// hit lane's chain ends at a seed the driver forwarded; `origin` names
/// the lane that exported it, where the chain continues at the member's
/// ghost copy — until the owner seed ends the walk.
pub(crate) fn stitch<L: ShardLane>(
    lanes: &mut [L],
    origin: &HashMap<StateKey, usize>,
    owner: NodeId,
    at: (usize, u32, u16, u32),
) -> Result<Vec<WalkHop>, L::Error> {
    let (mut lane, mut member, mut step, mut depth) = at;
    let mut segments: Vec<Vec<WalkHop>> = Vec::new();
    loop {
        let (hops, seed) = lanes[lane].trace(member, step, depth)?;
        segments.push(hops);
        if seed == (owner.0, 0, 0) {
            break;
        }
        lane = match origin.get(&seed) {
            Some(&exporter) => exporter,
            None => return Err(lanes[lane].stray_seed(seed)),
        };
        (member, step, depth) = seed;
    }
    segments.reverse();
    Ok(segments.concat())
}

/// Materializes a bundle's condition audiences (in `conds` order, each
/// sorted) over `shards` lanes: compiles the conditions into
/// shared-prefix plans ([`BundlePlan::compile_all`] — one, unless the
/// bundle overflows the plan-node budget), seeds every 64-condition
/// chunk at its owners' root plan nodes, and has `run_chunk(plan,
/// masks, word, seeds)` run that chunk's [`masked_fixpoint`] over the
/// backend's lanes. Empty paths match their owner without traversing.
pub(crate) fn bundle_audiences<E, F>(
    conds: &[(NodeId, &PathExpr)],
    shards: usize,
    mut run_chunk: F,
) -> Result<(Vec<Vec<NodeId>>, BundleFixpointStats), E>
where
    F: FnMut(&BundlePlan, &ChunkMasks, u32, &[MaskedExport]) -> Result<FixpointRun, E>,
{
    let mut stats = BundleFixpointStats {
        states_expanded: vec![0; shards],
        ..BundleFixpointStats::default()
    };
    let mut audiences: Vec<Vec<NodeId>> = vec![Vec::new(); conds.len()];
    let paths: Vec<&PathExpr> = conds.iter().map(|&(_, p)| p).collect();
    for (part, plan) in BundlePlan::compile_all(&paths) {
        stats.plan_states += plan.plan_states();
        stats.expr_states += plan.expr_states();
        let base = part.start;
        let mut traversable: Vec<usize> = Vec::new();
        for (i, &(owner, _)) in conds[part].iter().enumerate() {
            match plan.root_of(i) {
                Some(_) => traversable.push(i),
                None => audiences[base + i].push(owner), // empty path: owner only
            }
        }
        for (word, chunk) in traversable.chunks(64).enumerate() {
            let word = word as u32;
            stats.fixpoints += 1;
            let masks = plan.chunk_masks(chunk);
            let seeds: Vec<MaskedExport> = chunk
                .iter()
                .enumerate()
                .map(|(bit, &ci)| MaskedExport {
                    key: MaskedStateKey {
                        member: conds[base + ci].0 .0,
                        step: plan.root_of(ci).expect("traversable condition"),
                        depth: 0,
                        word,
                    },
                    mask: 1 << bit,
                })
                .collect();
            let run = run_chunk(&plan, &masks, word, &seeds)?;
            stats.rounds += run.rounds;
            stats.exported_states += run.exported_states;
            for (total, n) in stats.states_expanded.iter_mut().zip(run.states_expanded) {
                *total += n;
            }
            for (&ci, audience) in chunk.iter().zip(run.audiences) {
                audiences[base + ci] = audience;
            }
        }
    }
    Ok((audiences, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{self, MaskedSeedState};
    use crate::query::{self, PlanBatchState};
    use socialreach_graph::csr::CsrSnapshot;
    use socialreach_graph::SocialGraph;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn export(member: u32, mask: u64) -> MaskedExport {
        MaskedExport {
            key: MaskedStateKey {
                member,
                step: 0,
                depth: 0,
                word: 0,
            },
            mask,
        }
    }

    /// What a scripted lane does on one round.
    enum Step {
        /// Matches every seeded member under the seed's bits and
        /// exports these states.
        Export(Vec<MaskedExport>),
        /// Early-exit hit.
        Hit,
        /// The lane fails to send the round.
        FailSend,
        /// The lane sends the round, then fails to receive its result.
        FailRecv,
    }

    /// An in-memory lane that replays a script (then keeps matching its
    /// seeds, exporting nothing) and records its life cycle: the seed
    /// batches it was handed and how often it was ended.
    struct ScriptedLane<'a> {
        script: VecDeque<Step>,
        heard: Vec<Vec<MaskedExport>>,
        /// The round `send` scripted, until `recv` returns it.
        sent: Option<Result<LaneRound, &'static str>>,
        ends: &'a AtomicUsize,
    }

    impl<'a> ScriptedLane<'a> {
        fn new(ends: &'a AtomicUsize, script: Vec<Step>) -> Self {
            ScriptedLane {
                script: script.into(),
                heard: Vec::new(),
                sent: None,
                ends,
            }
        }
    }

    impl ShardLane for ScriptedLane<'_> {
        type Error = &'static str;

        fn send(&mut self, seeds: &[MaskedExport], _stop: Option<u32>) -> Result<(), Self::Error> {
            assert!(self.sent.is_none(), "one round in flight at a time");
            self.heard.push(seeds.to_vec());
            let exports = match self.script.pop_front() {
                Some(Step::Export(exports)) => exports,
                Some(Step::Hit) => {
                    self.sent = Some(Ok(LaneRound {
                        hit: Some((0, 1)),
                        states_expanded: 1,
                        ..LaneRound::default()
                    }));
                    return Ok(());
                }
                Some(Step::FailSend) => return Err("lane failed to send"),
                Some(Step::FailRecv) => {
                    self.sent = Some(Err("lane failed to receive"));
                    return Ok(());
                }
                None => Vec::new(),
            };
            self.sent = Some(Ok(LaneRound {
                matched: seeds
                    .iter()
                    .map(|s| WireMatch {
                        member: s.key.member,
                        mask: s.mask,
                    })
                    .collect(),
                exports,
                hit: None,
                states_expanded: 1,
            }));
            Ok(())
        }

        fn recv(&mut self) -> Result<LaneRound, Self::Error> {
            self.sent.take().expect("received after a send")
        }

        fn trace(&mut self, _: u32, _: u16, _: u32) -> Result<Traced, Self::Error> {
            Err("scripted lanes keep no parent chains")
        }

        fn stray_seed(&self, _: StateKey) -> Self::Error {
            "stray seed"
        }

        fn end(&mut self) {
            assert!(!self.heard.is_empty(), "only lanes sent to are ended");
            self.ends.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Members 0–9 live on lane 0, 10–19 on lane 1, 20–29 on lane 2.
    fn home_of(member: u32) -> usize {
        member as usize / 10
    }

    fn run(
        lanes: &mut [ScriptedLane<'_>],
        seeds: &[MaskedExport],
        stop: Option<(usize, u32)>,
    ) -> Result<FixpointRun, &'static str> {
        masked_fixpoint(lanes, home_of, seeds, stop, |_, run| Ok(run))
    }

    fn loads(ends: &[AtomicUsize]) -> Vec<usize> {
        ends.iter().map(|e| e.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn every_opened_lane_is_ended_exactly_once_on_success() {
        let ends: [AtomicUsize; 3] = Default::default();
        let mut lanes = vec![
            ScriptedLane::new(&ends[0], vec![Step::Export(vec![export(10, 1)])]),
            ScriptedLane::new(&ends[1], vec![]),
            ScriptedLane::new(&ends[2], vec![]),
        ];
        let out = run(&mut lanes, &[export(0, 1)], None).unwrap();
        assert_eq!(out.audiences, vec![vec![NodeId(0), NodeId(10)]]);
        assert_eq!((out.rounds, out.exported_states), (2, 1));
        assert_eq!(out.states_expanded, vec![1, 1, 0]);
        assert_eq!(lanes[1].heard, vec![vec![export(10, 1)]]);
        assert_eq!(loads(&ends), vec![1, 1, 0], "lane 2 never opened");
    }

    #[test]
    fn an_early_exit_hit_stops_the_rounds_and_still_ends_the_lanes() {
        let ends: [AtomicUsize; 3] = Default::default();
        let mut lanes = vec![
            ScriptedLane::new(&ends[0], vec![Step::Export(vec![export(10, 1)])]),
            ScriptedLane::new(&ends[1], vec![Step::Hit]),
            ScriptedLane::new(&ends[2], vec![]),
        ];
        let out = run(&mut lanes, &[export(0, 1)], Some((1, 15))).unwrap();
        assert_eq!(out.hit, Some((1, 0, 1)));
        assert_eq!(out.origin.get(&(10, 0, 0)), Some(&0), "hand-off recorded");
        assert!(
            out.audiences.is_empty(),
            "targeted runs collect no audience"
        );
        assert_eq!(out.rounds, 2);
        assert_eq!(loads(&ends), vec![1, 1, 0]);
    }

    #[test]
    fn a_lane_error_mid_round_ends_every_opened_lane() {
        // Round 2 has lanes 1 and 2 active; lane 1 fails. A failed send
        // stops the round before lane 2 is sent to; a failed receive
        // comes after every active lane was sent its seeds.
        for (fail, err, ended) in [
            (Step::FailSend, "lane failed to send", vec![1, 1, 0]),
            (Step::FailRecv, "lane failed to receive", vec![1, 1, 1]),
        ] {
            let ends: [AtomicUsize; 3] = Default::default();
            let mut lanes = vec![
                ScriptedLane::new(
                    &ends[0],
                    vec![Step::Export(vec![export(10, 1), export(20, 1)])],
                ),
                ScriptedLane::new(&ends[1], vec![fail]),
                ScriptedLane::new(&ends[2], vec![]),
            ];
            assert_eq!(run(&mut lanes, &[export(0, 1)], None).unwrap_err(), err);
            assert_eq!(loads(&ends), ended, "failed and healthy alike: {err}");
        }
    }

    #[test]
    fn finish_sees_open_lanes_and_its_error_still_ends_them() {
        let ends = [AtomicUsize::new(0)];
        let mut lanes = vec![ScriptedLane::new(&ends[0], vec![Step::Hit])];
        let out: Result<(), _> = masked_fixpoint(
            &mut lanes,
            home_of,
            &[export(0, 1)],
            Some((0, 5)),
            |_, _| {
                assert_eq!(loads(&ends), vec![0], "lanes still open");
                Err("stitching failed")
            },
        );
        assert_eq!(out, Err("stitching failed"));
        assert_eq!(loads(&ends), vec![1]);
    }

    /// A lane over a real parent-tracked engine (member ids are node
    /// ids; nobody is a ghost) that runs its round in `send` and can
    /// panic in `recv` — with the scratch dirty and still lent out.
    struct EngineLane<'a> {
        graph: &'a SocialGraph,
        snap: &'a CsrSnapshot,
        plan: &'a BundlePlan,
        masks: &'a ChunkMasks,
        engine: Option<PlanBatchState>,
        sent: Option<LaneRound>,
        panics: bool,
    }

    impl ShardLane for EngineLane<'_> {
        type Error = std::convert::Infallible;

        fn send(&mut self, seeds: &[MaskedExport], _stop: Option<u32>) -> Result<(), Self::Error> {
            let (graph, snap, nodes) = (self.graph, self.snap, &self.plan.nodes);
            let engine = self
                .engine
                .get_or_insert_with(|| PlanBatchState::with_parents(graph, snap, nodes));
            let seeds: Vec<MaskedSeedState> = seeds
                .iter()
                .map(|e| (NodeId(e.key.member), e.key.step, e.key.depth, e.mask))
                .collect();
            let out = query::evaluate_plan_batch_seeded(
                graph,
                snap,
                nodes,
                self.masks,
                engine,
                &seeds,
                &[],
                None,
            );
            self.sent = Some(LaneRound {
                matched: out
                    .matched
                    .iter()
                    .map(|&(m, mask)| WireMatch { member: m.0, mask })
                    .collect(),
                states_expanded: out.stats.states_visited as u64,
                ..LaneRound::default()
            });
            Ok(())
        }

        fn recv(&mut self) -> Result<LaneRound, Self::Error> {
            assert!(!self.panics, "lane failed mid-round");
            Ok(self.sent.take().expect("received after a send"))
        }

        fn trace(&mut self, _: u32, _: u16, _: u32) -> Result<Traced, Self::Error> {
            unreachable!("audience reads trace nothing")
        }

        fn stray_seed(&self, _: StateKey) -> Self::Error {
            unreachable!("audience reads trace nothing")
        }

        fn end(&mut self) {}
    }

    #[test]
    fn a_lane_that_panics_mid_round_leaves_no_dirty_scratch_behind() {
        let mut g = SocialGraph::new();
        let members: Vec<NodeId> = (0..20).map(|i| g.add_node(&format!("m{i}"))).collect();
        for w in members.windows(2) {
            g.connect(w[0], "friend", w[1]);
        }
        let path = crate::path::parse_path("friend+[1..3]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        // One path, two conditions of it (bits 0 and 1).
        let plan = BundlePlan::compile(&[&path, &path]).unwrap();
        let masks = plan.chunk_masks(&[0, 1]);
        let lanes = |panics: bool| -> Vec<EngineLane<'_>> {
            [panics, false]
                .into_iter()
                .map(|panics| EngineLane {
                    graph: &g,
                    snap: &snap,
                    plan: &plan,
                    masks: &masks,
                    engine: None,
                    sent: None,
                    panics,
                })
                .collect()
        };
        // Both lanes are seeded, so both run their round in `send`
        // before lane 0 panics in `recv`, on the driver thread.
        let seeds = [export(0, 0b01), export(10, 0b10)];
        let read = |mut lanes: Vec<EngineLane<'_>>| {
            masked_fixpoint(&mut lanes, home_of, &seeds, None, |_, run| Ok(run))
                .unwrap_or_else(|e| match e {})
        };

        online::release_thread_caches();
        let before = online::thread_cache_stats().mask_pool;
        let unwound = std::panic::catch_unwind(|| read(lanes(true)));
        assert!(unwound.is_err(), "the lane's panic reaches the caller");
        let after = online::thread_cache_stats().mask_pool;
        assert_eq!(after.takes, before.takes + 2, "both lanes opened");
        assert_eq!(
            after.buffers_held, 0,
            "scratches dropped while unwinding are never recycled"
        );
        assert_eq!(
            (after.slots_reset, after.full_fills),
            (before.slots_reset, before.full_fills),
            "nor reset"
        );

        // The next read on this thread starts from fresh allocations
        // and answers correctly.
        let run = read(lanes(false));
        let fresh = online::thread_cache_stats().mask_pool;
        assert_eq!(fresh.grows, after.grows + 2, "nothing was left to reuse");
        assert_eq!(fresh.buffers_held, 2, "a clean read gives back");
        for (bit, owner) in [(0, members[0]), (1, members[10])] {
            let truth = online::decided_audience(&g, &snap, owner, &path);
            assert_eq!(run.audiences[bit], truth, "owner {owner}");
        }
        online::release_thread_caches();
    }

    #[test]
    fn duplicate_and_reordered_exports_change_neither_audiences_nor_census() {
        // Lanes 0 and 2 both reach member 10 (under different bits);
        // one of them reports its export twice, and `swap` exchanges
        // which lane says what — the order lane 1 hears them in.
        // Neither the audiences nor the census depend on that order.
        let outcome = |swap: bool| {
            let ends: [AtomicUsize; 3] = Default::default();
            let once = vec![export(10, 0b01), export(11, 0b01)];
            let twice = vec![export(10, 0b10), export(10, 0b10)];
            let (first, last) = if swap { (twice, once) } else { (once, twice) };
            let mut lanes = vec![
                ScriptedLane::new(&ends[0], vec![Step::Export(first)]),
                ScriptedLane::new(&ends[1], vec![]),
                ScriptedLane::new(&ends[2], vec![Step::Export(last)]),
            ];
            let out = run(&mut lanes, &[export(0, 0b01), export(20, 0b10)], None).unwrap();
            let heard: usize = lanes[1].heard.iter().map(Vec::len).sum();
            (out.audiences, out.exported_states, out.rounds, heard)
        };
        let forward = outcome(false);
        assert_eq!(
            forward.0,
            vec![
                vec![NodeId(0), NodeId(10), NodeId(11)],
                vec![NodeId(10), NodeId(20)]
            ]
        );
        // The driver forwards exports as received: the repeat reaches
        // lane 1, whose persistent mask state absorbs it, and the
        // census counts every export forwarded.
        assert_eq!(forward.1, 4, "the repeated export is forwarded");
        assert_eq!(forward.3, 4, "and delivered to the member's home");
        assert_eq!(outcome(true), forward, "lane order is immaterial");
    }
}
