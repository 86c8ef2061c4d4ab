//! Inputs: the social graph (a fixed dataset per size), the seeded
//! placement of the shared resources and the seeded request streams.
//! Everything here is a pure function of `(members, seed)`; the system
//! under test only ever sees the generated values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialreach_core::{PolicyStore, ResourceId};
use socialreach_graph::{NodeId, SocialGraph};
use socialreach_workload::GraphSpec;

/// The four rule templates, two grammars (classic path syntax and the
/// openCypher-flavoured front-end). Template `i` governs resource `r`
/// when `r % 4 == i`.
pub const TEMPLATES: [&str; 4] = [
    "friend+[1]",
    "friend+[1..2]",
    "friend*[1..2]/colleague+[1]",
    "MATCH (owner)-[:friend*1..3]->(v {age >= 18})",
];

/// Rule of the hub resources: everyone within two friend hops, either
/// direction, of a top-degree member.
pub const HUB_RULE: &str = "friend*[1..2]";

/// Seed of the social graph. The graph is a fixed dataset, like the
/// tables of a database benchmark: one Barabási–Albert realisation's
/// hub sizes move every latency by 15–20 % at these sizes (measured
/// across ten graphs), more than any regression bound worth having.
/// `--seed` places the resources and draws every request stream.
const GRAPH_SEED: u64 = 11;

/// Resources with a template rule (hub resources come on top).
pub const RESOURCES: usize = 4000;
/// Hub resources: one per top-degree member.
pub const HUBS: usize = 16;
/// Resources per feed bundle.
pub const BUNDLE: usize = 32;
/// Share of check pairs that repeat a recent pair (decision cache).
const REPEAT_SHARE: f64 = 0.2;
/// Recency window repeats are drawn from.
const REPEAT_WINDOW: usize = 4096;
/// Checks per popularity era (see `Inputs::popular`).
const ERA_CHECKS: usize = 100;

/// Generated graph + policy, shared by every backend of one run.
pub struct Inputs {
    pub graph: SocialGraph,
    pub store: PolicyStore,
    /// Owner of resource `i` (template resources first, then hubs).
    pub owners: Vec<NodeId>,
    /// Undirected adjacency (CSR) for neighbourhood sampling.
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    /// Zipf(1.0) cumulative weights over the template resources.
    zipf_cdf: Vec<f64>,
}

impl Inputs {
    /// Builds graph and policy for `members` members.
    pub fn generate(members: usize, seed: u64) -> Inputs {
        let mut graph = GraphSpec::ba_osn(members, GRAPH_SEED).build();
        let n = graph.num_nodes();

        let mut deg = vec![0u32; n + 1];
        for (_, e) in graph.edges() {
            deg[e.src.0 as usize + 1] += 1;
            deg[e.dst.0 as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let adj_off = deg;
        let mut cursor = adj_off.clone();
        let mut adj = vec![0u32; adj_off[n] as usize];
        for (_, e) in graph.edges() {
            for (a, b) in [(e.src.0, e.dst.0), (e.dst.0, e.src.0)] {
                adj[cursor[a as usize] as usize] = b;
                cursor[a as usize] += 1;
            }
        }

        // Members by falling degree. Owners are a systematic sample of
        // this ranking (every n/RESOURCES-th member from a seeded
        // offset), so every seed's resources cover the degree range in
        // the same proportions: a plain random draw of owners decides
        // how many resources sit next to a hub, and with it the latency
        // tail, by luck.
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_by_key(|&v| {
            let d = adj_off[v as usize + 1] - adj_off[v as usize];
            (std::cmp::Reverse(d), v)
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
        let offset = rng.gen_range(0..n);
        let mut store = PolicyStore::new();
        let mut owners = Vec::with_capacity(RESOURCES + HUBS);
        for r in 0..RESOURCES {
            let owner = NodeId(by_degree[(offset + r * n / RESOURCES) % n]);
            let rid = store.register_resource(owner);
            store
                .allow(rid, TEMPLATES[r % TEMPLATES.len()], &mut graph)
                .expect("template parses");
            owners.push(owner);
        }
        for &hub in by_degree.iter().take(HUBS) {
            let rid = store.register_resource(NodeId(hub));
            store
                .allow(rid, HUB_RULE, &mut graph)
                .expect("hub rule parses");
            owners.push(NodeId(hub));
        }

        let mut zipf_cdf = Vec::with_capacity(RESOURCES);
        let mut acc = 0.0;
        for rank in 1..=RESOURCES {
            acc += 1.0 / rank as f64;
            zipf_cdf.push(acc);
        }

        Inputs {
            graph,
            store,
            owners,
            adj_off,
            adj,
            zipf_cdf,
        }
    }

    pub fn members(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Rule text of resource `rid` (what `add_rule` is given).
    pub fn rule_text(&self, rid: ResourceId) -> &'static str {
        if (rid.0 as usize) < RESOURCES {
            TEMPLATES[rid.0 as usize % TEMPLATES.len()]
        } else {
            HUB_RULE
        }
    }

    fn neighbours(&self, v: u32) -> &[u32] {
        &self.adj[self.adj_off[v as usize] as usize..self.adj_off[v as usize + 1] as usize]
    }

    /// A member one or two undirected hops from `v` (or `v` itself when
    /// isolated): the end of a short random walk.
    fn near(&self, v: u32, rng: &mut StdRng) -> u32 {
        let first = self.neighbours(v);
        if first.is_empty() {
            return v;
        }
        let a = first[rng.gen_range(0..first.len())];
        if rng.gen_bool(0.5) {
            return a;
        }
        let second = self.neighbours(a);
        second[rng.gen_range(0..second.len())]
    }

    /// A template resource drawn by Zipf(1.0) popularity. What is
    /// popular drifts: in era `era` the ranking is dealt afresh (rank and
    /// id are decorrelated by a fixed stride, so every era spreads its
    /// head over the four templates). A run's latency distribution then
    /// mixes many hot sets instead of hanging on the few owners one
    /// ranking happens to favour.
    fn popular(&self, era: usize, rng: &mut StdRng) -> ResourceId {
        let total = *self.zipf_cdf.last().expect("resources exist");
        let x = rng.gen_range(0.0..total);
        let rank = self.zipf_cdf.partition_point(|&c| c <= x);
        ResourceId((((rank + era * 61) * 1597) % RESOURCES) as u64)
    }
}

/// One request stream. Each op kind draws from its own generator, so
/// the k-th check (bundle, hub read, write) is the same whatever mix a
/// workload interleaves them in — the shared prefix two backends are
/// compared on.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    checks: StdRng,
    bundles: StdRng,
    writes: StdRng,
    hubs_issued: usize,
    bundles_issued: usize,
    recent: Vec<(ResourceId, NodeId)>,
    issued: usize,
}

impl<'a> Stream<'a> {
    pub fn new(inputs: &'a Inputs, seed: u64) -> Stream<'a> {
        Stream {
            inputs,
            checks: StdRng::seed_from_u64(seed ^ 0x5eed_00c1),
            bundles: StdRng::seed_from_u64(seed ^ 0x5eed_00b2),
            writes: StdRng::seed_from_u64(seed ^ 0x5eed_00d4),
            hubs_issued: 0,
            bundles_issued: 0,
            recent: Vec::with_capacity(REPEAT_WINDOW),
            issued: 0,
        }
    }

    /// A requester for `owner`'s resource: half from the owner's
    /// neighbourhood (mostly grants, early exit), half uniform (mostly
    /// denies, full exploration).
    fn requester(&mut self, owner: NodeId) -> NodeId {
        if self.checks.gen_bool(0.5) {
            NodeId(self.inputs.near(owner.0, &mut self.checks))
        } else {
            NodeId(self.checks.gen_range(0..self.inputs.members() as u32))
        }
    }

    pub fn check(&mut self) -> (ResourceId, NodeId) {
        let pair = if !self.recent.is_empty() && self.checks.gen_bool(REPEAT_SHARE) {
            self.recent[self.checks.gen_range(0..self.recent.len())]
        } else {
            let rid = self
                .inputs
                .popular(self.issued / ERA_CHECKS, &mut self.checks);
            let owner = self.inputs.owners[rid.0 as usize];
            (rid, self.requester(owner))
        };
        if self.recent.len() < REPEAT_WINDOW {
            self.recent.push(pair);
        } else {
            self.recent[self.issued % REPEAT_WINDOW] = pair;
        }
        self.issued += 1;
        pair
    }

    /// A check on a given resource (the first view of a fresh post).
    pub fn check_of(&mut self, rid: ResourceId, owner: NodeId) -> (ResourceId, NodeId) {
        (rid, self.requester(owner))
    }

    /// A feed bundle: `BUNDLE` distinct popular resources sharing three
    /// of the four templates. Every bundle is an era of its own.
    pub fn bundle(&mut self) -> Vec<ResourceId> {
        self.bundles_issued += 1;
        let excluded = self.bundles.gen_range(0..TEMPLATES.len());
        let mut rids: Vec<ResourceId> = Vec::with_capacity(BUNDLE);
        while rids.len() < BUNDLE {
            let rid = self.inputs.popular(self.bundles_issued, &mut self.bundles);
            if rid.0 as usize % TEMPLATES.len() != excluded && !rids.contains(&rid) {
                rids.push(rid);
            }
        }
        rids
    }

    /// Hub reads visit the hub resources in turn, so a run of any
    /// length weighs them evenly.
    pub fn hub(&mut self) -> ResourceId {
        let rid = ResourceId((RESOURCES + self.hubs_issued % HUBS) as u64);
        self.hubs_issued += 1;
        rid
    }

    /// A new friendship: a member and someone near them (triadic
    /// closure), never a self-loop.
    pub fn friendship(&mut self) -> (NodeId, NodeId) {
        loop {
            let a = self.writes.gen_range(0..self.inputs.members() as u32);
            let b = self.inputs.near(a, &mut self.writes);
            if a != b {
                return (NodeId(a), NodeId(b));
            }
        }
    }

    /// Owner and rule template of a freshly shared resource.
    pub fn fresh_resource(&mut self) -> (NodeId, &'static str) {
        let owner = NodeId(self.writes.gen_range(0..self.inputs.members() as u32));
        let template = TEMPLATES[self.writes.gen_range(0..TEMPLATES.len())];
        (owner, template)
    }
}
