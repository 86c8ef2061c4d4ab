//! The metric catalogue: every name a run may print, with its unit.
//! `BENCHMARK.json` declares the same names; the self-test keeps the
//! two in step.

/// End-to-end metrics (untraced run), emitted by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("check_p50_us", "us"),
    ("bundle_p50_ms", "ms"),
    ("hub_p50_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): `(name, unit, exact)`. An exact
/// metric is a count that must repeat bit for bit across runs of one
/// seed. A metric whose layer does not run on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 58] = [
    // generator (workload crate) — kept out of setup_s
    ("gen.graph_s", "s", false),
    ("gen.stream_s", "s", false),
    // graph::csr
    ("csr.build_s", "s", false),
    ("csr.build_par_s", "s", false),
    ("csr.patch_us", "us", false),
    ("csr.heap_mb", "MB", false),
    // core::path + core::query (front-end, plan)
    ("parse.rule_ns", "ns", false),
    ("plan.compile_us", "us", false),
    ("plan.prefix_share", "ratio", true),
    // core::online + core::query::engine
    ("bfs.check_ns_per_state", "ns", false),
    ("bfs.states_per_check", "count", true),
    ("bfs.batch_ns_per_state", "ns", false),
    ("bfs.states_per_bundle", "count", true),
    ("bfs.hub_ms", "ms", false),
    // core::engine + core::system
    ("single.seam_overhead_us", "us", false),
    ("cache.hit_ratio", "ratio", true),
    ("single.republish_us", "us", false),
    // core::sharded
    ("shard.rounds_per_read", "count", true),
    ("shard.exported_per_read", "count", true),
    ("shard.states_per_read", "count", true),
    ("shard.work_amplification", "ratio", true),
    ("shard.read_floor_us", "us", false),
    ("shard.overhead_ratio", "ratio", false),
    // core::remote::{proto,frame}
    ("wire.encode_ns_per_byte", "ns/B", false),
    ("wire.decode_ns_per_byte", "ns/B", false),
    ("wire.bytes_per_export", "B", true),
    ("wire.frame_ns_per_byte", "ns/B", false),
    // core::remote::{router,server}
    ("net.rtt_us", "us", false),
    ("net.transport_share", "ratio", false),
    ("net.ingest_ops_per_s", "1/s", false),
    // core::planner
    ("planner.overhead_ratio", "ratio", false),
    // core::durability
    ("wal.append_us", "us", false),
    ("wal.bytes_per_op", "B", true),
    ("snapshot.write_s", "s", false),
    ("snapshot.bytes_per_member", "B", true),
    ("recover.snapshot_s", "s", false),
    ("recover.replay_s", "s", false),
    ("recover.records_per_s", "1/s", false),
    // user-visible on churn_durable only, so not end-to-end metrics
    // (those must exist on every workload)
    ("write_p50_us", "us", false),
    ("write_p99_us", "us", false),
    ("read_after_write_p50_us", "us", false),
    ("recovery_s", "s", false),
    // shed from the end-to-end set: the tails did not repeat within a
    // bound the contract allows, and this one must never read 0 there
    ("check_p99_us", "us", false),
    ("bundle_p95_ms", "ms", false),
    ("failed_ops_share", "ratio", true),
    // harness
    ("trace.overhead_ratio", "ratio", false),
    ("unattributed_share", "ratio", false),
    ("replay.overshoot_share", "ratio", false),
    // self-time share of each layer in the traced requests
    ("share.online_bfs", "ratio", false),
    ("share.query_plan", "ratio", false),
    ("share.csr_publish", "ratio", false),
    ("share.single_seam", "ratio", false),
    ("share.sharded_driver", "ratio", false),
    ("share.remote_wire", "ratio", false),
    ("share.remote_transport", "ratio", false),
    ("share.remote_router", "ratio", false),
    ("share.durability", "ratio", false),
    // traced requests behind the shares
    ("trace.requests", "count", false),
];
