//! The benchmark's vocabulary: every metric by name, unit and direction.
//! `BENCHMARK.json` is printed from these tables (`ffbench manifest`) and
//! a test keeps the committed file equal to them.

use crate::world::Workload;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the stack would see; gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 8] = [
    // Cold build of the workload's world up to its first completed
    // operation; undisturbed decile of the builds made in the process.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Median time to establish one more endpoint on the warm pair.
    e2e("connect_p50_us", "us", Better::Lower, 0.25),
    // Median over slices of the per-slice median, depth-1 64 B operation.
    e2e("lat_p50_us", "us", Better::Lower, 0.25),
    // Verified completed small messages per second, window 32.
    e2e("rate_kops", "kops/s", Better::Higher, 0.25),
    // 64 KiB pushed forward, payload bits only.
    e2e("bulk_gbps", "Gbit/s", Better::Higher, 0.25),
    // 64 KiB pulled back, payload bits only.
    e2e("pull_gbps", "Gbit/s", Better::Higher, 0.25),
    // Process CPU time (all threads, pumps included) per `rate` message.
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    // Peak resident set of the process.
    e2e("rss_mb", "MiB", Better::Lower, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Standalone probe timing a crate's public functions in isolation.
    Probe,
    /// The traced run: a harness-side span or a telemetry counter delta.
    Trace,
}

/// A metric of a single layer (layer = crate); reported, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Probe or traced run.
    pub source: Source,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

const fn probe(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Probe,
        moves,
    }
}

const fn traced(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Trace,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics; every traced run reports all of them (a traced
/// number is 0 on a workload that never enters the layer).
pub const PER_LAYER: [PerLayer; 60] = [
    // shmem
    probe(
        "shmem.ring_push_pop_ns",
        "ns",
        Lower,
        "rate_kops on verbs_relay, socket_*",
    ),
    probe(
        "shmem.chan_send_recv_ns",
        "ns",
        Lower,
        "rate_kops on *_relay",
    ),
    probe(
        "shmem.chan_wake_us",
        "us",
        Lower,
        "lat_p50_us on *_relay (>=4 wakes per round trip)",
    ),
    probe(
        "shmem.arena_alloc_free_ns",
        "ns",
        Lower,
        "bulk_gbps, pull_gbps on *_relay",
    ),
    traced(
        "shmem.recv_parks_per_op",
        "1/op",
        Lower,
        "lat_p50_us, cpu_us_per_op on *_relay",
    ),
    traced(
        "shmem.backpressure_parks_per_kop",
        "1/kop",
        Lower,
        "rate_kops on *_relay",
    ),
    // verbs
    probe("verbs.write64_ns", "ns", Lower, "lat_p50_us on verbs_shm"),
    probe(
        "verbs.write64_batched_ns",
        "ns",
        Lower,
        "rate_kops on verbs_shm",
    ),
    probe("verbs.write4k_ns", "ns", Lower, "rate_kops on verbs_shm"),
    probe(
        "verbs.send_recv1k_ns",
        "ns",
        Lower,
        "rate_kops on verbs_shm",
    ),
    probe("verbs.read64k_ns", "ns", Lower, "pull_gbps on verbs_shm"),
    probe(
        "verbs.qp_setup_us",
        "us",
        Lower,
        "connect_p50_us, setup_s on all",
    ),
    probe("verbs.mr_register_us", "us", Lower, "setup_s on all"),
    traced(
        "verbs.cq_wait_us",
        "us",
        Lower,
        "lat_p50_us on verbs_*: every lower layer's time surfaces here",
    ),
    traced(
        "verbs.cq_wait_blocks_per_op",
        "1/op",
        Lower,
        "lat_p50_us on all",
    ),
    // agent
    probe(
        "agent.relay_cpu_ns_per_msg",
        "ns",
        Lower,
        "cpu_us_per_op, rate_kops on verbs_relay",
    ),
    probe("agent.codec_encode_ns", "ns", Lower, "rate_kops on *_relay"),
    probe("agent.codec_decode_ns", "ns", Lower, "rate_kops on *_relay"),
    probe(
        "agent.codec_batch_decode_ns",
        "ns",
        Lower,
        "rate_kops on *_relay",
    ),
    traced(
        "agent.frames_per_wire_msg",
        "ratio",
        Higher,
        "rate_kops on *_relay",
    ),
    traced(
        "agent.doorbells_coalesced_per_op",
        "1/op",
        Higher,
        "rate_kops on *_relay",
    ),
    traced(
        "agent.relayed_msgs_per_op",
        "1/op",
        Lower,
        "rate_kops on socket_relay (out-of-band credit/ack frames)",
    ),
    traced(
        "agent.zero_copy_share",
        "ratio",
        Higher,
        "bulk_gbps on *_relay",
    ),
    traced(
        "agent.wire_retries_per_kop",
        "1/kop",
        Lower,
        "bulk_gbps on *_relay",
    ),
    traced(
        "agent.nacks",
        "count",
        Lower,
        "failed operations on *_relay; must be 0",
    ),
    // orchestrator
    probe(
        "orchestrator.decide_path_ns",
        "ns",
        Lower,
        "connect_p50_us, setup_s on all",
    ),
    probe("orchestrator.launch_us", "us", Lower, "setup_s on all"),
    // core
    probe("core.resolve_hit_ns", "ns", Lower, "connect_p50_us on all"),
    probe(
        "core.resolve_miss_ns",
        "ns",
        Lower,
        "connect_p50_us on all (cold), setup_s",
    ),
    probe(
        "core.shm_write64_ns",
        "ns",
        Lower,
        "lat_p50_us on verbs_shm",
    ),
    probe(
        "core.shm_tax_ns",
        "ns",
        Lower,
        "lat_p50_us on verbs_shm: FfQp cost over the bare engine",
    ),
    probe(
        "core.qp_connect_shm_us",
        "us",
        Lower,
        "connect_p50_us on verbs_shm",
    ),
    probe(
        "core.qp_connect_relay_us",
        "us",
        Lower,
        "connect_p50_us on verbs_relay",
    ),
    probe(
        "core.migrate_idle_p50_ms",
        "ms",
        Lower,
        "none of the four; keeps the migration blackout visible",
    ),
    traced(
        "core.post_send_self_ns",
        "ns",
        Lower,
        "rate_kops, cpu_us_per_op on verbs_*",
    ),
    traced(
        "core.post_recv_self_ns",
        "ns",
        Lower,
        "rate_kops on verbs_*",
    ),
    traced(
        "core.create_qp_us",
        "us",
        Lower,
        "connect_p50_us on verbs_*",
    ),
    traced(
        "core.qp_connect_us",
        "us",
        Lower,
        "connect_p50_us on verbs_*",
    ),
    // socket
    probe("socket.connect_cold_us", "us", Lower, "setup_s on socket_*"),
    probe(
        "socket.perqp_msg4k_kops",
        "kops/s",
        Higher,
        "baseline for rate_kops on socket_relay",
    ),
    probe(
        "socket.pooled_over_perqp",
        "ratio",
        Higher,
        "rate_kops on socket_relay (>=1.0 closes the pooled gap)",
    ),
    traced(
        "socket.write_all_self_us",
        "us",
        Lower,
        "rate_kops on socket_*",
    ),
    traced("socket.read_wait_us", "us", Lower, "lat_p50_us on socket_*"),
    traced(
        "socket.connect_us",
        "us",
        Lower,
        "connect_p50_us on socket_*",
    ),
    traced(
        "socket.credit_stall_ns_per_op",
        "ns",
        Lower,
        "rate_kops, bulk_gbps, pull_gbps on socket_*",
    ),
    traced(
        "socket.credit_stalls_per_kop",
        "1/kop",
        Lower,
        "rate_kops on socket_*",
    ),
    traced(
        "socket.retransmits",
        "count",
        Lower,
        "failed operations; must be 0 on a settled path",
    ),
    traced(
        "socket.reorders",
        "count",
        Lower,
        "failed operations; must be 0 on a settled path",
    ),
    traced(
        "socket.qp_reuse_per_connect",
        "ratio",
        Higher,
        "connect_p50_us on socket_* (both ends count: 2.0)",
    ),
    // mpi
    probe(
        "mpi.allreduce_1k_shm_us",
        "us",
        Lower,
        "tracks lat_p50_us on socket_shm",
    ),
    probe(
        "mpi.allreduce_1k_relay_us",
        "us",
        Lower,
        "tracks lat_p50_us on socket_relay",
    ),
    // telemetry
    probe(
        "telemetry.counter_inc_ns",
        "ns",
        Lower,
        "cpu_us_per_op on all",
    ),
    probe(
        "telemetry.histogram_record_ns",
        "ns",
        Lower,
        "cpu_us_per_op on all",
    ),
    probe(
        "telemetry.recorder_record_ns",
        "ns",
        Lower,
        "cpu_us_per_op on all",
    ),
    traced(
        "telemetry.snapshot_us",
        "us",
        Lower,
        "cost of a scrape after a workload",
    ),
    traced(
        "telemetry.dropped_events",
        "count",
        Lower,
        "flight-recorder events lost to overwriting",
    ),
    // the harness itself: diagnostics, never gated
    traced(
        "app.lat_p99_us",
        "us",
        Lower,
        "tail of lat; too unsteady on 2 shared cores to gate",
    ),
    traced(
        "app.rate_slice_cov",
        "ratio",
        Lower,
        "how steady rate_kops was within the run",
    ),
    traced(
        "app.trace_overhead_pct",
        "%",
        Lower,
        "traced vs untraced rate_kops in the same process",
    ),
    traced(
        "app.wall_s",
        "s",
        Lower,
        "wall time of the traced run with its probes (the time budget)",
    ),
];

/// JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"ffbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"ffbench\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
