//! The cluster facade: hosts, agents, fabrics and the orchestrator,
//! assembled.
//!
//! [`FreeFlowCluster`] is the reproduction's testbed-in-a-box. Adding a
//! host stands up a per-host agent (with its shm arena and pump thread), a
//! per-host verbs fabric, and pairwise wires to every existing host whose
//! transport kind is the best both NICs support — the orchestration the
//! paper assumes an operator (or Mesos/Kubernetes integration) performs.

use crate::container::Container;
use crate::library::NetLibrary;
use crate::migrate::{
    MigrationCheckpoint, MigrationCrashPoint, MigrationOutcome, MigrationPhase, MigrationReport,
};
use crate::orch_client::OrchClient;
use freeflow_agent::{connect_agents, Agent, AgentPump};
use freeflow_orchestrator::registry::ContainerLocation;
use freeflow_orchestrator::{IpAssign, Orchestrator, PolicyConfig};
use freeflow_telemetry::{Event, LabelSet, Telemetry, TelemetrySnapshot};
use freeflow_types::{ContainerId, Error, HostCaps, HostId, Result, TenantId, TransportKind, VmId};
use freeflow_verbs::VerbsNetwork;
use parking_lot::Mutex;
use std::sync::Arc;

/// Default shared-arena size per host (memory registrations and zero-copy
/// staging both come out of this segment).
pub const DEFAULT_ARENA_SIZE: usize = 256 << 20; // 256 MiB

struct HostNode {
    id: HostId,
    caps: HostCaps,
    agent: Arc<Agent>,
    verbs: Arc<VerbsNetwork>,
    /// The host's control-plane client: forwarding-table refreshes go
    /// through it so an outage (or a per-host control partition) leaves
    /// the agent serving its last-known-good routes instead of blocking.
    client: OrchClient,
    /// The agent's pump thread; dropping the node stops and joins it.
    _pump: AgentPump,
}

struct ClusterInner {
    hosts: Vec<HostNode>,
    next_container: u64,
    next_vm: u64,
}

/// A FreeFlow deployment: the object experiments build their world on.
pub struct FreeFlowCluster {
    orchestrator: Arc<Orchestrator>,
    inner: Mutex<ClusterInner>,
    arena_size: usize,
    /// The cluster-wide telemetry hub: every layer (orchestrator, agents,
    /// libraries, QPs, CQs) feeds the same registry and flight recorder.
    telemetry: Arc<Telemetry>,
}

impl FreeFlowCluster {
    /// Cluster with the given control-plane policy.
    pub fn new(policy: PolicyConfig) -> Arc<Self> {
        let telemetry = Telemetry::new();
        let orchestrator = Orchestrator::new("10.0.0.0/16".parse().expect("static"), policy);
        orchestrator.attach_telemetry(&telemetry);
        Arc::new(Self {
            orchestrator,
            inner: Mutex::new(ClusterInner {
                hosts: Vec::new(),
                next_container: 0,
                next_vm: 0,
            }),
            arena_size: DEFAULT_ARENA_SIZE,
            telemetry,
        })
    }

    /// The cluster-wide telemetry hub (live handles; prefer
    /// [`FreeFlowCluster::telemetry`] for a consistent read).
    pub fn telemetry_hub(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Snapshot every metric and drain-read the flight recorder: the
    /// observability surface experiments and operators consume (text
    /// exposition via [`TelemetrySnapshot::to_prometheus_text`]).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Cluster with the default policy (kernel bypass on, same-tenant
    /// trust required).
    pub fn with_defaults() -> Arc<Self> {
        Self::new(PolicyConfig::default())
    }

    /// The control plane.
    pub fn orchestrator(&self) -> &Arc<Orchestrator> {
        &self.orchestrator
    }

    /// Every transport class both hosts' NICs support. One wire per class
    /// is stood up so that when a kernel-bypass NIC dies, the kernel TCP
    /// wire is already in place to fail over onto.
    fn wire_kinds(a: &HostCaps, b: &HostCaps) -> Vec<TransportKind> {
        let mut kinds = Vec::new();
        if a.nic.kind.supports_rdma() && b.nic.kind.supports_rdma() {
            kinds.push(TransportKind::Rdma);
        }
        if a.nic.kind.supports_dpdk() && b.nic.kind.supports_dpdk() {
            kinds.push(TransportKind::Dpdk);
        }
        // Kernel TCP always works while the host is alive.
        kinds.push(TransportKind::TcpHost);
        kinds
    }

    /// Add a physical host. Stands up agent + verbs fabric + wires.
    pub fn add_host(&self, caps: HostCaps) -> HostId {
        let mut inner = self.inner.lock();
        let id = HostId::new(inner.hosts.len() as u64);
        self.orchestrator.add_host(id, caps).expect("fresh host id");
        let agent = Agent::new(id, self.arena_size);
        agent.attach_telemetry(&self.telemetry);
        // Pairwise wires to every existing host, one per transport class.
        for node in &inner.hosts {
            for kind in Self::wire_kinds(&caps, &node.caps) {
                connect_agents(&agent, &node.agent, kind);
            }
        }
        let pump = agent.spawn_pump();
        inner.hosts.push(HostNode {
            id,
            caps,
            agent,
            verbs: VerbsNetwork::new(),
            client: OrchClient::new(
                Arc::clone(&self.orchestrator),
                Some(id),
                Arc::clone(&self.telemetry),
            ),
            _pump: pump,
        });
        id
    }

    /// Register a VM on a host (deployment cases (c)/(d)).
    pub fn add_vm(&self, host: HostId) -> Result<VmId> {
        let vm = {
            let mut inner = self.inner.lock();
            inner.next_vm += 1;
            VmId::new(inner.next_vm)
        };
        self.orchestrator.add_vm(vm, host)?;
        Ok(vm)
    }

    fn with_host<T>(&self, host: HostId, f: impl FnOnce(&HostNode) -> T) -> Result<T> {
        let inner = self.inner.lock();
        let node = inner
            .hosts
            .iter()
            .find(|h| h.id == host)
            .ok_or_else(|| Error::not_found(format!("{host}")))?;
        Ok(f(node))
    }

    /// Launch a container on a bare-metal host.
    pub fn launch(&self, tenant: TenantId, host: HostId) -> Result<Container> {
        self.launch_at(tenant, ContainerLocation::BareMetal(host))
    }

    /// Launch a container inside a VM.
    pub fn launch_in_vm(&self, tenant: TenantId, vm: VmId) -> Result<Container> {
        self.launch_at(tenant, ContainerLocation::InVm(vm))
    }

    fn launch_at(&self, tenant: TenantId, location: ContainerLocation) -> Result<Container> {
        let id = {
            let mut inner = self.inner.lock();
            inner.next_container += 1;
            ContainerId::new(inner.next_container)
        };
        let ip = self
            .orchestrator
            .register_container(id, tenant, location, IpAssign::Auto)?;
        let physical = self.orchestrator.locate(id)?;
        let lib = self.with_host(physical, |node| {
            let handle = node.agent.attach_container(ip)?;
            let device = node.verbs.create_device(ip);
            Ok::<NetLibrary, Error>(NetLibrary::new(
                id,
                tenant,
                physical,
                device,
                handle,
                Arc::clone(&self.orchestrator),
                Arc::clone(&self.telemetry),
            ))
        });
        let lib = match lib {
            Ok(Ok(lib)) => lib,
            Ok(Err(e)) => {
                let _ = self.orchestrator.deregister_container(id);
                return Err(e);
            }
            Err(e) => {
                let _ = self.orchestrator.deregister_container(id);
                return Err(e);
            }
        };
        self.refresh_routes();
        Ok(Container::new(id, tenant, lib))
    }

    /// Re-derive every agent's forwarding table from the orchestrator —
    /// called after any membership change. A host whose control channel is
    /// down keeps its last-known-good table: established paths keep
    /// forwarding on stale routes until the next successful refresh (which
    /// [`FreeFlowCluster::restore_orchestrator`] /
    /// [`FreeFlowCluster::heal_control`] trigger).
    pub fn refresh_routes(&self) {
        let inner = self.inner.lock();
        for node in &inner.hosts {
            let Ok(routes) = node.client.routes_for(node.id) else {
                continue; // control plane unreachable: serve stale routes
            };
            for (ip, peer_host) in routes {
                // Route over the fastest wire that is still up.
                if let Some(wire) = node.agent.best_wire_to(peer_host) {
                    let _ = node.agent.install_route(ip, wire);
                }
            }
        }
    }

    /// Kill `host`'s kernel-bypass NIC: the orchestrator records the
    /// failure and every RDMA/DPDK wire touching the host goes down (the
    /// link state is shared, so both endpoints see it). Forwarding tables
    /// are *not* rebuilt here — traffic in flight fails, QPs observe
    /// `RETRY_EXC_ERR` and re-path through the orchestrator; call
    /// [`FreeFlowCluster::refresh_routes`] to converge the agents onto the
    /// surviving TCP wires.
    pub fn fail_nic(&self, host: HostId) -> Result<()> {
        self.orchestrator.mark_nic_down(host)?;
        self.set_bypass_wires(host, false)
    }

    /// Bring `host`'s kernel-bypass NIC back: health is restored and its
    /// RDMA/DPDK wires come back up. Call
    /// [`FreeFlowCluster::refresh_routes`] to move traffic back onto them.
    pub fn restore_nic(&self, host: HostId) -> Result<()> {
        self.orchestrator.mark_nic_up(host)?;
        self.set_bypass_wires(host, true)
    }

    /// Crash the orchestrator (cluster-wide control-plane outage): client
    /// RPCs from every host fail after their retry budget and no events
    /// are delivered. The data plane must not care — established shm/RDMA
    /// traffic keeps flowing on cached routes, and new path decisions fall
    /// back to universal TCP. The registry's persisted state survives, so
    /// scheduler-driven changes (e.g. a migration) can land *during* the
    /// outage and are reconciled by snapshot resync after
    /// [`FreeFlowCluster::restore_orchestrator`]. Idempotent.
    pub fn fail_orchestrator(&self) {
        self.orchestrator.fail_control();
    }

    /// Restart the orchestrator after [`FreeFlowCluster::fail_orchestrator`]:
    /// publishes `ControlRestored` (every deaf subscriber observes its
    /// sequence gap and pulls a snapshot resync) and refreshes the agents'
    /// forwarding tables, which served stale routes during the outage.
    pub fn restore_orchestrator(&self) {
        self.orchestrator.restore_control();
        self.refresh_routes();
    }

    /// Partition `host`'s control channel: its libraries and agent lose
    /// the orchestrator (RPCs fail, events withheld) while the rest of the
    /// cluster — and all data-plane wires — stay up.
    pub fn partition_control(&self, host: HostId) {
        self.orchestrator.partition_control(host);
    }

    /// Heal a control partition created by
    /// [`FreeFlowCluster::partition_control`] and converge the host's
    /// routes again.
    pub fn heal_control(&self, host: HostId) {
        self.orchestrator.heal_control(host);
        self.refresh_routes();
    }

    fn set_bypass_wires(&self, host: HostId, up: bool) -> Result<()> {
        let inner = self.inner.lock();
        let node = inner
            .hosts
            .iter()
            .find(|h| h.id == host)
            .ok_or_else(|| Error::not_found(format!("{host}")))?;
        for peer in &inner.hosts {
            if peer.id == host {
                continue;
            }
            for kind in [TransportKind::Rdma, TransportKind::Dpdk] {
                if let Some(idx) = node.agent.wire_of_kind(peer.id, kind) {
                    let _ = node.agent.set_wire_up(idx, up);
                }
            }
        }
        Ok(())
    }

    /// Stop a container: release its IP, detach it everywhere.
    pub fn stop(&self, container: Container) -> Result<()> {
        let id = container.id();
        let ip = container.ip();
        let host = container.host();
        self.orchestrator.deregister_container(id)?;
        {
            let inner = self.inner.lock();
            for node in &inner.hosts {
                node.agent.remove_route(ip);
                if node.id == host {
                    node.agent.detach_container(ip);
                    node.verbs.remove_device(ip);
                }
            }
        }
        drop(container); // joins the library pump
        Ok(())
    }

    /// Live migration: move `container` to `to_host`, keeping its
    /// identity (id, IP, tenant) *and its open connections*. Drives the
    /// full two-phase protocol of [`FreeFlowCluster::migrate_with`] and
    /// returns the container wherever it ended up — on `to_host` after a
    /// commit, or resumed in place after a clean abort (e.g. the
    /// un-collapse boundary, see [`crate::migrate`]).
    pub fn migrate(&self, container: Container, to_host: HostId) -> Result<Container> {
        self.migrate_with(container, to_host, None).map(|(c, _)| c)
    }

    /// Quiesce, detach from the agent and leave the verbs fabric of
    /// `host` — the host-side half of moving a container off a machine.
    /// The device keeps its QPs, MRs and keys.
    fn detach_from_host(&self, host: HostId, ip: freeflow_types::OverlayIp) {
        let inner = self.inner.lock();
        for node in &inner.hosts {
            if node.id == host {
                node.agent.quiesce_container(ip);
                node.agent.detach_container(ip);
                node.verbs.remove_device(ip);
            }
        }
    }

    /// Resolve an in-flight migration as an abort: thaw every frozen
    /// binding (the pump re-settles each one onto whichever path is
    /// correct for wherever the container now runs), record the abort in
    /// counters and the flight recorder, and hand the container back.
    fn abort_migration(
        &self,
        container: Container,
        from_host: HostId,
        to_host: HostId,
        started: std::time::Instant,
        phase_reached: MigrationPhase,
    ) -> (Container, MigrationReport) {
        for qp in container.lib().live_qps() {
            qp.thaw_migration();
            qp.poll_binding();
        }
        let blackout_ns = started.elapsed().as_nanos() as u64;
        let reg = self.telemetry.registry();
        reg.counter(
            "ff_migrations_aborted_total",
            "cross-host migrations that aborted (container resumed on a legal placement)",
            LabelSet::none(),
        )
        .inc();
        reg.histogram(
            "ff_migration_blackout_ns",
            "freeze-to-thaw blackout of a cross-host migration, nanoseconds",
            LabelSet::none(),
        )
        .record(blackout_ns);
        self.telemetry.record(Event::Migration {
            container: container.id().raw(),
            from_host: from_host.raw(),
            to_host: to_host.raw(),
            kind: "abort",
            blackout_ns,
        });
        (
            container,
            MigrationReport {
                outcome: MigrationOutcome::Aborted,
                phase_reached,
                moved: false,
                blackout_ns,
                checkpoint_bytes: 0,
                qps: 0,
                mrs: 0,
            },
        )
    }

    /// The full cross-host migration protocol, with optional crash
    /// injection (DESIGN.md §14). A two-phase commit between the source
    /// host, the orchestrator and the target host:
    ///
    /// 1. **Prepare** — every binding freezes through `Draining`
    ///    (`RebindReason::Migrate`); in-flight work settles under the
    ///    freeze. A binding that cannot freeze (collapsed shared-memory
    ///    path) or a settle timeout aborts here: thaw in place, nothing
    ///    moved.
    /// 2. **Checkpoint** — QP/MR/ledger state is captured and serialized
    ///    with a checksum. A source crash mid-checkpoint
    ///    ([`MigrationCrashPoint::SourceCheckpoint`]) leaves a torn
    ///    checkpoint; decode fails and the migration aborts in place.
    /// 3. **Transfer + restore** — the device is adopted by the target
    ///    fabric, the library re-homed (MRs re-registered into the target
    ///    arena), and the orchestrator's `move_container` — the commit
    ///    point — publishes `ContainerMoved` to every peer. The restored
    ///    state is verified against the checkpoint; a target crash
    ///    ([`MigrationCrashPoint::TargetRestore`]) fails verification and
    ///    rolls the container back onto the source host.
    /// 4. **Commit** — bindings thaw on the target; parked chains and
    ///    unconfirmed socket frames replay exactly once. The blackout is
    ///    recorded in `ff_migration_blackout_ns`.
    ///
    /// Migrating onto the container's current placement is a guarded
    /// no-op: no drain, no `ContainerMoved`, no generation bump — peers
    /// never notice.
    pub fn migrate_with(
        &self,
        container: Container,
        to_host: HostId,
        crash: Option<MigrationCrashPoint>,
    ) -> Result<(Container, MigrationReport)> {
        let id = container.id();
        let ip = container.ip();
        let tenant = container.tenant();
        // The orchestrator's placement is the authority; the library's
        // own view is what peers already rebound to and can be stale.
        let from_host = self
            .orchestrator
            .locate(id)
            .unwrap_or_else(|_| container.host());
        if from_host == to_host {
            return Ok((
                container,
                MigrationReport {
                    outcome: MigrationOutcome::Committed,
                    phase_reached: MigrationPhase::Prepare,
                    moved: false,
                    blackout_ns: 0,
                    checkpoint_bytes: 0,
                    qps: 0,
                    mrs: 0,
                },
            ));
        }
        // Verify the target exists before tearing anything down.
        self.with_host(to_host, |_| ())?;

        // --- phase 1: prepare -------------------------------------------
        self.telemetry.record(Event::Migration {
            container: id.raw(),
            from_host: from_host.raw(),
            to_host: to_host.raw(),
            kind: "begin",
            blackout_ns: 0,
        });
        let started = std::time::Instant::now();
        let qps = container.lib().live_qps();
        for qp in &qps {
            // A collapsed (shared-memory) binding refuses the freeze —
            // the un-collapse boundary. It rides the move untouched and
            // observes staleness afterwards (see [`crate::migrate`]);
            // everything else drains through `Draining` and holds.
            let _ = qp.freeze_for_migration();
        }
        // In-flight work settles under the freeze (acks still arrive
        // through the pump); bounded, so a dead peer path cannot wedge
        // the migration.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !qps.iter().all(|qp| qp.migration_settled()) {
            if std::time::Instant::now() > deadline {
                return Ok(self.abort_migration(
                    container,
                    from_host,
                    to_host,
                    started,
                    MigrationPhase::Prepare,
                ));
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }

        // --- phase 2: checkpoint ----------------------------------------
        let checkpoint = MigrationCheckpoint::capture(&container, to_host);
        let mut bytes = checkpoint.encode();
        if crash == Some(MigrationCrashPoint::SourceCheckpoint) {
            // The source agent dies mid-write: the checkpoint is torn.
            bytes.truncate(bytes.len() / 2);
        }
        let checkpoint = match MigrationCheckpoint::decode(&bytes) {
            Ok(cp) => cp,
            Err(_) => {
                // Torn or corrupt checkpoint: nothing left the source
                // host, so the abort resumes the container in place.
                return Ok(self.abort_migration(
                    container,
                    from_host,
                    to_host,
                    started,
                    MigrationPhase::Checkpoint,
                ));
            }
        };
        let checkpoint_bytes = bytes.len() as u64;

        // --- phase 3: transfer + restore --------------------------------
        let mut lib = container.into_lib();
        self.detach_from_host(from_host, ip);
        // The commit point in the control plane: publishes
        // `ContainerMoved` → peers' caches invalidate and their bound
        // QPs plan rebinds; a peer that is now co-located collapses onto
        // shared memory once the device lands on the target fabric.
        self.orchestrator
            .move_container(id, ContainerLocation::BareMetal(to_host))?;
        // The existing device (QPs, MRs, keys) migrates onto the target
        // fabric wholesale; the library is re-homed onto the new agent,
        // re-registering arena-backed MRs into the target arena.
        let handle = self.with_host(to_host, |node| {
            node.verbs.adopt_device(lib.device());
            node.agent.attach_container(ip)
        })??;
        lib.rehome(to_host, handle);
        let restored = Container::new(id, tenant, lib);
        let verified = if crash == Some(MigrationCrashPoint::TargetRestore) {
            // The target agent dies mid-restore.
            Err(crate::migrate::MigrateError::RestoreMismatch(
                "target crashed mid-restore",
            ))
        } else {
            checkpoint.verify_restore(&restored)
        };
        if verified.is_err() {
            // Roll back: undo the placement, re-adopt the device on the
            // source fabric and re-home the library where it came from.
            // Peers see a second `ContainerMoved` and re-path again;
            // every binding transition stays legal.
            let mut lib = restored.into_lib();
            self.detach_from_host(to_host, ip);
            self.orchestrator
                .move_container(id, ContainerLocation::BareMetal(from_host))?;
            let handle = self.with_host(from_host, |node| {
                node.verbs.adopt_device(lib.device());
                node.agent.attach_container(ip)
            })??;
            lib.rehome(from_host, handle);
            self.refresh_routes();
            return Ok(self.abort_migration(
                Container::new(id, tenant, lib),
                from_host,
                to_host,
                started,
                MigrationPhase::Restore,
            ));
        }

        // --- phase 4: commit --------------------------------------------
        for qp in restored.lib().live_qps() {
            qp.thaw_migration();
            // Resolve each binding from the new host immediately (the
            // pump would too; doing it here bounds the blackout we
            // report by actual work, not pump latency).
            qp.poll_binding();
        }
        let blackout_ns = started.elapsed().as_nanos() as u64;
        let reg = self.telemetry.registry();
        reg.counter(
            "ff_migrations_committed_total",
            "cross-host migrations that committed on the target host",
            LabelSet::none(),
        )
        .inc();
        reg.histogram(
            "ff_migration_blackout_ns",
            "freeze-to-thaw blackout of a cross-host migration, nanoseconds",
            LabelSet::none(),
        )
        .record(blackout_ns);
        self.telemetry.record(Event::Migration {
            container: id.raw(),
            from_host: from_host.raw(),
            to_host: to_host.raw(),
            kind: "commit",
            blackout_ns,
        });
        self.refresh_routes();
        Ok((
            restored,
            MigrationReport {
                outcome: MigrationOutcome::Committed,
                phase_reached: MigrationPhase::Commit,
                moved: true,
                blackout_ns,
                checkpoint_bytes,
                qps: checkpoint.qps.len() as u32,
                mrs: checkpoint.mrs.len() as u32,
            },
        ))
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.inner.lock().hosts.len()
    }

    /// The agent of a host (tests/diagnostics).
    pub fn agent_of(&self, host: HostId) -> Result<Arc<Agent>> {
        self.with_host(host, |n| Arc::clone(&n.agent))
    }
}

impl std::fmt::Debug for FreeFlowCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeFlowCluster")
            .field("hosts", &self.host_count())
            .field("containers", &self.orchestrator.container_count())
            .finish()
    }
}
