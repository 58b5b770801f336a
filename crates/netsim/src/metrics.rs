//! Reports extracted from a finished (or paused) simulation.
//!
//! Everything the figures need: per-flow throughput and latency (with the
//! per-component breakdown for the stacked bars) and per-host CPU/NIC/bus
//! utilization. Reports are plain serializable data so the bench harness
//! can print tables or dump them for offline plotting.

use crate::fault::FaultRecord;
use freeflow_types::{Bandwidth, ByteSize, ContainerId, Nanos, TransportKind};

/// One live migration's outcome, surfaced in [`SimReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The container that migrated (or tried to).
    pub container: ContainerId,
    /// Sim host index it left.
    pub from: usize,
    /// Sim host index it was headed to.
    pub to: usize,
    /// Virtual time the blackout opened (container frozen).
    pub begin: Nanos,
    /// How long its flows were frozen (freeze → thaw, commits and aborts
    /// alike — the live stack's `ff_migration_blackout_ns`).
    pub blackout: Nanos,
    /// Whether the 2PC committed (`false` = aborted in place; the
    /// container never moved).
    pub committed: bool,
    /// Flows with an endpoint on the migrating container.
    pub flows_affected: u32,
}

/// Per-flow results.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Flow index within the simulation.
    pub flow: usize,
    /// The transport the flow rode on.
    pub transport: TransportKind,
    /// Forward payload bytes delivered.
    pub delivered_bytes: ByteSize,
    /// Forward messages delivered.
    pub delivered_msgs: u64,
    /// Observed forward throughput.
    pub throughput: Bandwidth,
    /// Mean round-trip time (ping-pong flows only).
    pub mean_rtt: Option<Nanos>,
    /// Median round-trip time.
    pub p50_rtt: Option<Nanos>,
    /// 99th-percentile round-trip time.
    pub p99_rtt: Option<Nanos>,
    /// Average per-message time spent in each stage category
    /// `(category name, avg ns)` — the stacked latency bars. For ping-pong
    /// flows this is per round trip (both directions). Category names are
    /// interned [`StageCategory`](crate::pipeline::StageCategory) names,
    /// so building a report never allocates per category.
    pub latency_breakdown: Vec<(&'static str, Nanos)>,
    /// Transport failovers performed (e.g. RDMA → TCP after NIC death).
    /// `transport` above reflects the transport the flow *ended* on.
    pub failovers: u32,
    /// Of those failovers, how many were decided while the orchestrator
    /// was unreachable from an endpoint host (degraded re-path: stale
    /// cache decision plus the exhausted-deadline delay).
    pub degraded_repaths: u32,
    /// Messages whose in-flight chunks were lost to injected faults
    /// (each was retransmitted unless the flow was killed).
    pub lost_msgs: u64,
    /// Whether a host crash killed the flow before it could finish.
    pub killed: bool,
}

impl FlowReport {
    /// Sum of the latency breakdown (≈ mean one-way or round-trip latency
    /// including queueing).
    pub fn breakdown_total(&self) -> Nanos {
        self.latency_breakdown
            .iter()
            .fold(Nanos::ZERO, |acc, (_, ns)| acc + *ns)
    }
}

/// Per-host resource utilization.
#[derive(Debug, Clone)]
pub struct HostCpuReport {
    /// Host index within the simulation.
    pub host: usize,
    /// Total CPU percentage (sum over cores + router + active poll cores;
    /// 100 = one core fully busy, like `top`).
    pub cpu_percent: f64,
    /// Share of `cpu_percent` burned by application cores.
    pub core_percent: f64,
    /// Share burned by the overlay software router.
    pub router_percent: f64,
    /// Share burned by DPDK poll cores (100 each whenever active).
    pub poll_percent: f64,
    /// Per-core utilizations (0..=1), for the multi-pair figure.
    pub core_utils: Vec<f64>,
    /// NIC TX utilization (0..=1).
    pub nic_tx_util: f64,
    /// NIC RX utilization (0..=1).
    pub nic_rx_util: f64,
    /// Memory-bus utilization (0..=1).
    pub membus_util: f64,
}

/// The whole simulation's results.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time the simulation covered.
    pub elapsed: Nanos,
    /// Per-flow results, in flow-creation order.
    pub flows: Vec<FlowReport>,
    /// Per-host utilization, in host-creation order.
    pub hosts: Vec<HostCpuReport>,
    /// Faults that fired during the run, in firing order.
    pub faults: Vec<FaultRecord>,
    /// Live migrations that ran (committed or aborted), in schedule order.
    pub migrations: Vec<MigrationRecord>,
}

impl SimReport {
    /// Sum of all flows' forward throughput — the aggregate the multi-pair
    /// scaling figure plots.
    pub fn aggregate_throughput(&self) -> Bandwidth {
        Bandwidth::from_bps(self.flows.iter().map(|f| f.throughput.as_bps()).sum())
    }

    /// Total CPU percentage across hosts.
    pub fn total_cpu_percent(&self) -> f64 {
        self.hosts.iter().map(|h| h.cpu_percent).sum()
    }

    /// How many migrations committed.
    pub fn migrations_committed(&self) -> usize {
        self.migrations.iter().filter(|m| m.committed).count()
    }

    /// How many migrations aborted (crash-torn 2PC).
    pub fn migrations_aborted(&self) -> usize {
        self.migrations.iter().filter(|m| !m.committed).count()
    }

    /// Blackout percentile (0.0 ..= 1.0) over every migration that ran.
    pub fn blackout_percentile(&self, p: f64) -> Option<Nanos> {
        if self.migrations.is_empty() {
            return None;
        }
        let mut sorted: Vec<Nanos> = self.migrations.iter().map(|m| m.blackout).collect();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_helpers() {
        let report = SimReport {
            elapsed: Nanos::from_millis(10),
            flows: vec![
                FlowReport {
                    flow: 0,
                    transport: TransportKind::SharedMemory,
                    delivered_bytes: ByteSize::from_mib(10),
                    delivered_msgs: 10,
                    throughput: Bandwidth::from_gbps(30),
                    mean_rtt: None,
                    p50_rtt: None,
                    p99_rtt: None,
                    latency_breakdown: vec![
                        ("copy", Nanos::from_micros(3)),
                        ("wakeup", Nanos::from_micros(2)),
                    ],
                    failovers: 0,
                    degraded_repaths: 0,
                    lost_msgs: 0,
                    killed: false,
                },
                FlowReport {
                    flow: 1,
                    transport: TransportKind::Rdma,
                    delivered_bytes: ByteSize::from_mib(10),
                    delivered_msgs: 10,
                    throughput: Bandwidth::from_gbps(10),
                    mean_rtt: None,
                    p50_rtt: None,
                    p99_rtt: None,
                    latency_breakdown: vec![],
                    failovers: 1,
                    degraded_repaths: 1,
                    lost_msgs: 2,
                    killed: false,
                },
            ],
            hosts: vec![HostCpuReport {
                host: 0,
                cpu_percent: 150.0,
                core_percent: 150.0,
                router_percent: 0.0,
                poll_percent: 0.0,
                core_utils: vec![1.0, 0.5, 0.0, 0.0],
                nic_tx_util: 0.2,
                nic_rx_util: 0.0,
                membus_util: 0.4,
            }],
            faults: vec![FaultRecord {
                at: Nanos::from_millis(5),
                kind: crate::fault::FaultKind::NicDown { host: 0 },
                flows_affected: 1,
            }],
            migrations: vec![
                MigrationRecord {
                    container: ContainerId::new(0),
                    from: 0,
                    to: 1,
                    begin: Nanos::from_millis(1),
                    blackout: Nanos::from_micros(200),
                    committed: true,
                    flows_affected: 1,
                },
                MigrationRecord {
                    container: ContainerId::new(1),
                    from: 1,
                    to: 0,
                    begin: Nanos::from_millis(2),
                    blackout: Nanos::from_micros(400),
                    committed: false,
                    flows_affected: 1,
                },
            ],
        };
        assert_eq!(report.aggregate_throughput(), Bandwidth::from_gbps(40));
        assert_eq!(report.total_cpu_percent(), 150.0);
        assert_eq!(report.flows[0].breakdown_total(), Nanos::from_micros(5));
        assert_eq!(report.migrations_committed(), 1);
        assert_eq!(report.migrations_aborted(), 1);
        assert_eq!(
            report.blackout_percentile(0.0),
            Some(Nanos::from_micros(200))
        );
        assert_eq!(
            report.blackout_percentile(1.0),
            Some(Nanos::from_micros(400))
        );
    }
}
