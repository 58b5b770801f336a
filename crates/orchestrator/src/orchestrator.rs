//! The orchestrator facade: one thread-safe object combining registry,
//! IPAM, policy and the event feed — what agents and per-container
//! libraries hold an `Arc` of.

use crate::events::{EventFeed, FeedSubscription, OrchestratorEvent};
use crate::ipam::{IpAssign, Ipam};
use crate::policy::{PolicyConfig, PolicyEngine};
use crate::registry::{ContainerLocation, ContainerRecord, HostHealth, Registry};
use freeflow_telemetry::{Event, LabelSet, Telemetry};
use freeflow_types::transport::PathDecision;
use freeflow_types::{
    ContainerId, Doorbell, Error, HostCaps, HostId, OverlayCidr, OverlayIp, Result, TenantId, VmId,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct State {
    registry: Registry,
    ipam: Ipam,
}

/// Availability of the control plane's *dissemination* side (client RPCs
/// and event delivery). The state store itself stays consistent across an
/// outage — it models persisted registry state that survives an
/// orchestrator crash/restart, which is what lets a scheduler-driven
/// migration land *during* the outage and be reconciled afterwards.
#[derive(Debug, Default)]
struct ControlAvailability {
    /// Cluster-wide outage (orchestrator process down / restarting).
    down: AtomicBool,
    /// Hosts whose control channel is partitioned away.
    partitioned: Mutex<HashSet<HostId>>,
}

/// One container's placement in a [`ControlSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerSnapshot {
    /// The container's overlay IP (the cache key).
    pub ip: OverlayIp,
    /// Physical host it currently runs on.
    pub host: HostId,
    /// Registry placement generation (bumps on every move).
    pub generation: u64,
}

/// A consistent control-plane snapshot for one host: what a subscriber
/// that detected a sequence gap pulls to reconcile its cache and routes.
///
/// `seq` is the feed sequence the snapshot covers: every event numbered
/// below `seq` is reflected in it. (It may additionally reflect a state
/// change whose event carries `seq` or later — publishes happen after the
/// state commit — in which case the subscriber re-applies that event
/// idempotently.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlSnapshot {
    /// Feed sequence this snapshot covers (resume polling from here).
    pub seq: u64,
    /// Every container on an alive host, sorted by IP.
    pub containers: Vec<ContainerSnapshot>,
    /// The requesting host's routing view (same as `routes_for`).
    pub routes: Vec<(OverlayIp, HostId)>,
}

/// The central network orchestrator.
pub struct Orchestrator {
    state: RwLock<State>,
    policy: PolicyEngine,
    feed: EventFeed,
    control: ControlAvailability,
    /// Telemetry hub. Standalone orchestrators get a private hub; a
    /// cluster swaps in its shared one via [`Orchestrator::attach_telemetry`].
    telemetry: RwLock<Arc<Telemetry>>,
}

impl Orchestrator {
    /// Create an orchestrator managing `overlay` with the given policy.
    pub fn new(overlay: OverlayCidr, policy: PolicyConfig) -> Arc<Self> {
        Arc::new(Self {
            state: RwLock::new(State {
                registry: Registry::new(),
                ipam: Ipam::new(overlay),
            }),
            policy: PolicyEngine::new(policy),
            feed: EventFeed::new(),
            control: ControlAvailability::default(),
            telemetry: RwLock::new(Telemetry::new()),
        })
    }

    /// Replace the private telemetry hub with a shared (cluster-wide) one.
    /// Call before traffic starts; events recorded earlier stay in the
    /// old hub.
    pub fn attach_telemetry(&self, hub: &Arc<Telemetry>) {
        *self.telemetry.write() = Arc::clone(hub);
    }

    /// The telemetry hub currently in use.
    pub fn telemetry_hub(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry.read())
    }

    /// Publish one control-plane event: count it, record it in the flight
    /// recorder, then fan it out to every subscriber the control plane can
    /// currently reach. The sequence number advances even for withheld
    /// deliveries, so an outage or partition surfaces as a gap on the
    /// subscriber side, never as silence. Wedged subscribers pruned here
    /// are counted in `ff_orch_feed_drops_total`.
    fn publish(&self, event: OrchestratorEvent) {
        let hub = self.telemetry.read();
        hub.registry()
            .counter(
                "ff_orchestrator_events_total",
                "control-plane events published, by kind",
                LabelSet::none().with_extra("event", event.kind()),
            )
            .inc();
        hub.record(Event::Orchestrator {
            kind: event.kind(),
            host: event.host().map(HostId::raw).unwrap_or(u64::MAX),
        });
        let outcome = self
            .feed
            .publish_filtered(event, |host| self.control_reachable_from(host));
        if outcome.pruned > 0 {
            hub.registry()
                .counter(
                    "ff_orch_feed_drops_total",
                    "wedged/dead event-feed subscribers pruned on publish",
                    LabelSet::none(),
                )
                .add(outcome.pruned as u64);
        }
    }

    /// Orchestrator with the default overlay (`10.0.0.0/16`) and policy.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(
            "10.0.0.0/16".parse().expect("static"),
            PolicyConfig::default(),
        )
    }

    // --- infrastructure ---------------------------------------------------

    /// Register a physical host and its NIC capabilities.
    pub fn add_host(&self, id: HostId, caps: HostCaps) -> Result<()> {
        self.state.write().registry.add_host(id, caps)
    }

    /// Register a VM → machine mapping (fabric-controller input).
    pub fn add_vm(&self, vm: VmId, host: HostId) -> Result<()> {
        self.state.write().registry.add_vm(vm, host)
    }

    /// Host capabilities.
    pub fn host_caps(&self, id: HostId) -> Result<HostCaps> {
        self.state.read().registry.host_caps(id).copied()
    }

    // --- health -------------------------------------------------------------

    /// Current health of a host.
    pub fn host_health(&self, id: HostId) -> HostHealth {
        self.state.read().registry.host_health(id)
    }

    /// Record that `host`'s kernel-bypass NIC died. Path decisions through
    /// this host stop offering RDMA/DPDK; host TCP keeps working.
    pub fn mark_nic_down(&self, host: HostId) -> Result<()> {
        self.set_health(host, |h| h.nic_up = false)
    }

    /// Record that `host`'s kernel-bypass NIC recovered.
    pub fn mark_nic_up(&self, host: HostId) -> Result<()> {
        self.set_health(host, |h| h.nic_up = true)
    }

    /// Record that `host` crashed. Its containers become unreachable and
    /// drop out of every other host's routing view.
    pub fn mark_host_down(&self, host: HostId) -> Result<()> {
        self.set_health(host, |h| h.alive = false)
    }

    /// Record that `host` came back.
    pub fn mark_host_up(&self, host: HostId) -> Result<()> {
        self.set_health(host, |h| h.alive = true)
    }

    // --- control-plane availability -----------------------------------------

    /// Whether the control plane can currently be reached from `host`
    /// (`None` = an untagged observer). The state store stays consistent
    /// either way; only RPCs and event delivery are affected.
    pub fn control_reachable_from(&self, host: Option<HostId>) -> bool {
        if self.control.down.load(Ordering::Acquire) {
            return false;
        }
        match host {
            Some(h) => !self.control.partitioned.lock().contains(&h),
            None => true,
        }
    }

    /// Whether a cluster-wide control outage is in effect.
    pub fn is_control_down(&self) -> bool {
        self.control.down.load(Ordering::Acquire)
    }

    /// Take the control plane down cluster-wide: client RPCs fail after
    /// their retry budget and no events are delivered (sequence numbers
    /// keep advancing, so recovery surfaces the gap). Idempotent.
    pub fn fail_control(&self) {
        if !self.control.down.swap(true, Ordering::AcqRel) {
            self.telemetry.read().record(Event::ControlPlane {
                kind: "outage",
                host: u64::MAX,
                detail: self.feed.next_seq(),
            });
        }
    }

    /// Bring the control plane back. Publishes
    /// [`OrchestratorEvent::ControlRestored`] so every subscriber that was
    /// deaf during the outage promptly observes its sequence gap and
    /// resyncs — even if no further state change ever happens.
    pub fn restore_control(&self) {
        if self.control.down.swap(false, Ordering::AcqRel) {
            self.telemetry.read().record(Event::ControlPlane {
                kind: "restore",
                host: u64::MAX,
                detail: self.feed.next_seq(),
            });
            self.publish(OrchestratorEvent::ControlRestored { scope: None });
        }
    }

    /// Partition `host` away from the control plane: its RPCs fail and it
    /// receives no events; the rest of the cluster is unaffected.
    pub fn partition_control(&self, host: HostId) {
        if self.control.partitioned.lock().insert(host) {
            self.telemetry.read().record(Event::ControlPlane {
                kind: "partition",
                host: host.raw(),
                detail: self.feed.next_seq(),
            });
        }
    }

    /// Heal `host`'s control partition and publish
    /// [`OrchestratorEvent::ControlRestored`] scoped to it.
    pub fn heal_control(&self, host: HostId) {
        if self.control.partitioned.lock().remove(&host) {
            self.telemetry.read().record(Event::ControlPlane {
                kind: "heal",
                host: host.raw(),
                detail: self.feed.next_seq(),
            });
            self.publish(OrchestratorEvent::ControlRestored { scope: Some(host) });
        }
    }

    fn set_health(&self, host: HostId, update: impl FnOnce(&mut HostHealth)) -> Result<()> {
        let (prev, health) = {
            let mut st = self.state.write();
            let prev = st.registry.host_health(host);
            let mut health = prev;
            update(&mut health);
            st.registry.set_host_health(host, health)?;
            (prev, health)
        };
        self.publish(OrchestratorEvent::HostHealthChanged {
            host,
            nic_up: health.nic_up,
            alive: health.alive,
        });
        // Recoveries additionally announce that better paths may now be
        // available, so libraries holding failed-over connections through
        // this host can plan a live upgrade. Degradations do not: those
        // are handled reactively (failover on transport error), which
        // keeps fault handling deterministic under chaos testing.
        let improved = (!prev.nic_up && health.nic_up) || (!prev.alive && health.alive);
        if improved {
            self.publish(OrchestratorEvent::PathUpdated { host });
        }
        Ok(())
    }

    // --- container lifecycle ----------------------------------------------

    /// Register a container, assigning an overlay IP.
    pub fn register_container(
        &self,
        id: ContainerId,
        tenant: TenantId,
        location: ContainerLocation,
        ip: IpAssign,
    ) -> Result<OverlayIp> {
        let (assigned, physical_host) = {
            let mut st = self.state.write();
            // Validate the location first so a bad registration does not
            // leak an address.
            let physical_host = st.registry.physical_host(location)?;
            let assigned = st.ipam.allocate(ip)?;
            let record = ContainerRecord {
                id,
                tenant,
                location,
                ip: assigned,
                generation: 1,
            };
            if let Err(e) = st.registry.insert_container(record) {
                st.ipam.release(assigned).expect("just allocated");
                return Err(e);
            }
            (assigned, physical_host)
        };
        self.publish(OrchestratorEvent::ContainerUp {
            id,
            ip: assigned,
            location,
            physical_host,
        });
        Ok(assigned)
    }

    /// Move a container (reschedule / live migration). Its IP is kept.
    ///
    /// Moving a container onto the location it already occupies is a
    /// guarded no-op: no generation bump, no `ContainerMoved` — otherwise
    /// every peer would spuriously invalidate its cache and drain its
    /// bound QPs for a placement that never changed.
    pub fn move_container(&self, id: ContainerId, to: ContainerLocation) -> Result<()> {
        let (ip, generation, physical_host) = {
            let mut st = self.state.write();
            if st.registry.container(id)?.location == to {
                return Ok(());
            }
            st.registry.move_container(id, to)?;
            let rec = st.registry.container(id)?;
            let (ip, generation) = (rec.ip, rec.generation);
            (ip, generation, st.registry.physical_host(to)?)
        };
        self.publish(OrchestratorEvent::ContainerMoved {
            id,
            ip,
            location: to,
            physical_host,
            generation,
        });
        Ok(())
    }

    /// Deregister a container, releasing its IP.
    pub fn deregister_container(&self, id: ContainerId) -> Result<()> {
        let ip = {
            let mut st = self.state.write();
            let rec = st.registry.remove_container(id)?;
            st.ipam.release(rec.ip)?;
            rec.ip
        };
        self.publish(OrchestratorEvent::ContainerDown { id, ip });
        Ok(())
    }

    // --- queries ------------------------------------------------------------

    /// Full record for a container.
    pub fn container(&self, id: ContainerId) -> Result<ContainerRecord> {
        self.state.read().registry.container(id).cloned()
    }

    /// The physical machine a container currently runs on — the query the
    /// paper's library issues before picking a transport.
    pub fn locate(&self, id: ContainerId) -> Result<HostId> {
        let st = self.state.read();
        let rec = st.registry.container(id)?;
        st.registry.physical_host(rec.location)
    }

    /// Reverse lookup: who owns this overlay IP?
    pub fn whois(&self, ip: OverlayIp) -> Result<ContainerRecord> {
        self.state.read().registry.by_ip(ip).cloned()
    }

    /// Decide the data plane for `src → dst`.
    pub fn decide_path(&self, src: ContainerId, dst: ContainerId) -> Result<PathDecision> {
        let st = self.state.read();
        self.policy.decide(&st.registry, src, dst)
    }

    /// Decide by IP addresses (what a socket `connect()` knows).
    pub fn decide_path_by_ip(&self, src: OverlayIp, dst: OverlayIp) -> Result<PathDecision> {
        let st = self.state.read();
        let s = st.registry.by_ip(src)?.id;
        let d = st.registry.by_ip(dst)?.id;
        self.policy.decide(&st.registry, s, d)
    }

    /// Per-host routing view: every remote container's `(ip, physical
    /// host)` — what an agent installs into its forwarding table.
    /// Containers on crashed hosts are excluded: there is no point
    /// routing toward a machine that cannot answer.
    pub fn routes_for(&self, host: HostId) -> Vec<(OverlayIp, HostId)> {
        let st = self.state.read();
        let mut routes: Vec<(OverlayIp, HostId)> = st
            .registry
            .host_ids()
            .filter(|h| *h != host && st.registry.host_health(*h).alive)
            .flat_map(|h| {
                st.registry
                    .containers_on(h)
                    .into_iter()
                    .map(move |c| (c.ip, h))
            })
            .collect();
        routes.sort_by_key(|(ip, _)| *ip);
        routes
    }

    /// All containers on a host (an agent's local population).
    pub fn containers_on(&self, host: HostId) -> Vec<ContainerRecord> {
        self.state
            .read()
            .registry
            .containers_on(host)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Full state snapshot for a subscriber on `host` that detected a
    /// sequence gap: every alive container's `(ip, host, generation)`
    /// plus the host's routing view, stamped with the feed sequence it
    /// covers. The subscriber reconciles its cache against it and resumes
    /// polling from `seq` (see `FeedSubscription::advance_to`).
    pub fn snapshot_for(&self, host: HostId) -> ControlSnapshot {
        let st = self.state.read();
        // The feed sequence is read under the state lock: the snapshot can
        // only be *newer* than `seq` claims (publishes happen after state
        // commits), never older — re-applying a covered event is
        // idempotent on the subscriber side.
        let seq = self.feed.next_seq();
        let mut containers: Vec<ContainerSnapshot> = st
            .registry
            .host_ids()
            .filter(|h| st.registry.host_health(*h).alive)
            .flat_map(|h| {
                st.registry
                    .containers_on(h)
                    .into_iter()
                    .map(move |c| ContainerSnapshot {
                        ip: c.ip,
                        host: h,
                        generation: c.generation,
                    })
            })
            .collect();
        containers.sort_by_key(|c| c.ip);
        let mut routes: Vec<(OverlayIp, HostId)> = containers
            .iter()
            .filter(|c| c.host != host)
            .map(|c| (c.ip, c.host))
            .collect();
        routes.sort_by_key(|(ip, _)| *ip);
        ControlSnapshot {
            seq,
            containers,
            routes,
        }
    }

    /// Subscribe to cluster change events (untagged: never partitioned);
    /// every delivered event rings `bell`.
    pub fn subscribe(&self, bell: Arc<Doorbell>) -> FeedSubscription {
        self.feed.subscribe(bell)
    }

    /// Subscribe on behalf of a reader running on `host`, so that a
    /// control partition of that host withholds delivery (surfacing as a
    /// sequence gap on heal); every delivered event rings `bell`.
    pub fn subscribe_from(&self, host: HostId, bell: Arc<Doorbell>) -> FeedSubscription {
        self.feed.subscribe_from(host, bell)
    }

    /// Number of registered containers.
    pub fn container_count(&self) -> usize {
        self.state.read().registry.container_count()
    }

    /// Validate that an IP is currently assigned (debug/ops helper).
    pub fn ip_in_use(&self, ip: OverlayIp) -> bool {
        self.state.read().ipam.is_allocated(ip)
    }
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.read();
        f.debug_struct("Orchestrator")
            .field("containers", &st.registry.container_count())
            .field("overlay", &st.ipam.cidr())
            .finish()
    }
}

/// Convenience: an `Err` when the decision is unreachable.
pub fn require_transport(decision: PathDecision) -> Result<freeflow_types::TransportKind> {
    decision
        .transport()
        .ok_or_else(|| Error::unreachable("no transport available"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeflow_types::TransportKind;

    fn setup() -> Arc<Orchestrator> {
        let orch = Orchestrator::with_defaults();
        orch.add_host(HostId::new(0), HostCaps::paper_testbed())
            .unwrap();
        orch.add_host(HostId::new(1), HostCaps::paper_testbed())
            .unwrap();
        orch
    }

    fn bm(h: u64) -> ContainerLocation {
        ContainerLocation::BareMetal(HostId::new(h))
    }

    #[test]
    fn register_assigns_ips_and_publishes() {
        let orch = setup();
        let mut feed = orch.subscribe(Arc::default());
        let ip1 = orch
            .register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        let ip2 = orch
            .register_container(ContainerId::new(2), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        assert_ne!(ip1, ip2);
        assert!(orch.ip_in_use(ip1));
        match feed.try_next().event().unwrap() {
            OrchestratorEvent::ContainerUp { id, ip, .. } => {
                assert_eq!(id, ContainerId::new(1));
                assert_eq!(ip, ip1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_registration_does_not_leak_ip() {
        let orch = setup();
        let before_ip = orch
            .register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        // Same id again: must fail and release the would-be address.
        let err = orch
            .register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap_err();
        assert!(matches!(err, Error::AlreadyExists(_)));
        // Next registration gets the address the failed attempt touched
        // back eventually — at minimum, the pool didn't shrink by two.
        let ip3 = orch
            .register_container(ContainerId::new(3), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        assert_ne!(ip3, before_ip);
    }

    #[test]
    fn locate_and_whois() {
        let orch = setup();
        let ip = orch
            .register_container(ContainerId::new(1), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        assert_eq!(orch.locate(ContainerId::new(1)).unwrap(), HostId::new(1));
        assert_eq!(orch.whois(ip).unwrap().id, ContainerId::new(1));
    }

    #[test]
    fn path_decision_end_to_end() {
        let orch = setup();
        let ip1 = orch
            .register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        let ip2 = orch
            .register_container(ContainerId::new(2), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        let ip3 = orch
            .register_container(ContainerId::new(3), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        assert_eq!(
            orch.decide_path_by_ip(ip1, ip2).unwrap().transport(),
            Some(TransportKind::SharedMemory)
        );
        assert_eq!(
            orch.decide_path_by_ip(ip1, ip3).unwrap().transport(),
            Some(TransportKind::Rdma)
        );
    }

    #[test]
    fn migration_flips_the_decision() {
        let orch = setup();
        orch.register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        orch.register_container(ContainerId::new(2), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        assert_eq!(
            orch.decide_path(ContainerId::new(1), ContainerId::new(2))
                .unwrap()
                .transport(),
            Some(TransportKind::Rdma)
        );
        let mut feed = orch.subscribe(Arc::default());
        // Container 2 migrates onto host 0 → the same pair is now shm.
        orch.move_container(ContainerId::new(2), bm(0)).unwrap();
        assert_eq!(
            orch.decide_path(ContainerId::new(1), ContainerId::new(2))
                .unwrap()
                .transport(),
            Some(TransportKind::SharedMemory)
        );
        assert!(matches!(
            feed.try_next().event().unwrap(),
            OrchestratorEvent::ContainerMoved { generation: 2, .. }
        ));
    }

    #[test]
    fn deregister_releases_ip_for_reuse() {
        let orch = setup();
        let ip = orch
            .register_container(
                ContainerId::new(1),
                TenantId::new(1),
                bm(0),
                IpAssign::Static("10.0.0.77".parse().unwrap()),
            )
            .unwrap();
        assert_eq!(ip.to_string(), "10.0.0.77");
        orch.deregister_container(ContainerId::new(1)).unwrap();
        assert!(!orch.ip_in_use(ip));
        // The static address is takeable again.
        orch.register_container(
            ContainerId::new(2),
            TenantId::new(1),
            bm(0),
            IpAssign::Static(ip),
        )
        .unwrap();
    }

    #[test]
    fn routes_for_lists_remote_containers_only() {
        let orch = setup();
        let _ip1 = orch
            .register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        let ip2 = orch
            .register_container(ContainerId::new(2), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        let routes = orch.routes_for(HostId::new(0));
        assert_eq!(routes, vec![(ip2, HostId::new(1))]);
    }

    #[test]
    fn nic_death_steers_paths_onto_host_tcp() {
        let orch = setup();
        orch.register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        orch.register_container(ContainerId::new(2), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        assert_eq!(
            orch.decide_path(ContainerId::new(1), ContainerId::new(2))
                .unwrap()
                .transport(),
            Some(TransportKind::Rdma)
        );
        let mut feed = orch.subscribe(Arc::default());
        orch.mark_nic_down(HostId::new(1)).unwrap();
        assert!(!orch.host_health(HostId::new(1)).nic_up);
        assert!(matches!(
            feed.try_next().event().unwrap(),
            OrchestratorEvent::HostHealthChanged {
                host,
                nic_up: false,
                alive: true,
            } if host == HostId::new(1)
        ));
        // Kernel bypass is gone but the kernel TCP path survives.
        let t = orch
            .decide_path(ContainerId::new(1), ContainerId::new(2))
            .unwrap()
            .transport();
        assert!(matches!(
            t,
            Some(TransportKind::TcpHost | TransportKind::TcpBridge | TransportKind::TcpOverlay)
        ));
        // Recovery restores the fast path.
        orch.mark_nic_up(HostId::new(1)).unwrap();
        assert_eq!(
            orch.decide_path(ContainerId::new(1), ContainerId::new(2))
                .unwrap()
                .transport(),
            Some(TransportKind::Rdma)
        );
    }

    #[test]
    fn crashed_host_is_unreachable_and_unrouted() {
        let orch = setup();
        orch.register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        let ip2 = orch
            .register_container(ContainerId::new(2), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        assert_eq!(orch.routes_for(HostId::new(0)), vec![(ip2, HostId::new(1))]);
        orch.mark_host_down(HostId::new(1)).unwrap();
        assert!(orch
            .decide_path(ContainerId::new(1), ContainerId::new(2))
            .unwrap()
            .transport()
            .is_none());
        assert!(orch.routes_for(HostId::new(0)).is_empty());
        orch.mark_host_up(HostId::new(1)).unwrap();
        assert_eq!(orch.routes_for(HostId::new(0)), vec![(ip2, HostId::new(1))]);
    }

    #[test]
    fn health_marks_on_unknown_host_error() {
        let orch = setup();
        assert!(orch.mark_nic_down(HostId::new(99)).is_err());
        assert!(orch.mark_host_down(HostId::new(99)).is_err());
    }

    #[test]
    fn pool_exhaustion_is_a_clean_error() {
        // A /29 has 6 usable addresses.
        let orch = Orchestrator::new("10.9.0.0/29".parse().unwrap(), PolicyConfig::default());
        orch.add_host(HostId::new(0), HostCaps::paper_testbed())
            .unwrap();
        for i in 0..6u64 {
            orch.register_container(ContainerId::new(i), TenantId::new(1), bm(0), IpAssign::Auto)
                .unwrap();
        }
        let err = orch
            .register_container(ContainerId::new(6), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap_err();
        assert!(matches!(err, Error::Exhausted(_)));
        // The failed registration left no partial state behind.
        assert_eq!(orch.container_count(), 6);
        assert!(orch.container(ContainerId::new(6)).is_err());
    }

    #[test]
    fn deregistered_ip_is_reusable_after_exhaustion() {
        let orch = Orchestrator::new("10.9.0.0/29".parse().unwrap(), PolicyConfig::default());
        orch.add_host(HostId::new(0), HostCaps::paper_testbed())
            .unwrap();
        let mut ips = Vec::new();
        for i in 0..6u64 {
            ips.push(
                orch.register_container(
                    ContainerId::new(i),
                    TenantId::new(1),
                    bm(0),
                    IpAssign::Auto,
                )
                .unwrap(),
            );
        }
        orch.deregister_container(ContainerId::new(3)).unwrap();
        assert!(!orch.ip_in_use(ips[3]));
        // The freed address is the only one left: Auto must find it.
        let reused = orch
            .register_container(ContainerId::new(7), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        assert_eq!(reused, ips[3]);
    }

    #[test]
    fn published_events_land_in_telemetry() {
        let orch = setup();
        let hub = Telemetry::new();
        orch.attach_telemetry(&hub);
        orch.register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        orch.mark_nic_down(HostId::new(0)).unwrap();
        orch.mark_nic_up(HostId::new(0)).unwrap(); // health + path_updated
        orch.move_container(ContainerId::new(1), bm(1)).unwrap();
        orch.deregister_container(ContainerId::new(1)).unwrap();

        let snap = hub.snapshot();
        let count = |kind: &'static str| {
            snap.counter_value(
                "ff_orchestrator_events_total",
                LabelSet::none().with_extra("event", kind),
            )
        };
        assert_eq!(count("container_up"), Some(1));
        assert_eq!(count("host_health_changed"), Some(2));
        assert_eq!(count("path_updated"), Some(1));
        assert_eq!(count("container_moved"), Some(1));
        assert_eq!(count("container_down"), Some(1));
        // The flight recorder holds the same six events, in publish order.
        let kinds: Vec<&'static str> = snap
            .events
            .iter()
            .map(|e| match e.event {
                Event::Orchestrator { kind, .. } => kind,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "container_up",
                "host_health_changed",
                "host_health_changed",
                "path_updated",
                "container_moved",
                "container_down",
            ]
        );
        snap.verify_exposition_round_trip().unwrap();
    }

    #[test]
    fn outage_withholds_events_and_restore_reveals_the_gap() {
        use crate::events::FeedPoll;
        let orch = setup();
        let mut feed = orch.subscribe_from(HostId::new(0), Arc::default());
        orch.register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        assert!(matches!(feed.try_next(), FeedPoll::Event(_)));

        orch.fail_control();
        assert!(!orch.control_reachable_from(Some(HostId::new(0))));
        assert!(!orch.control_reachable_from(None));
        // The store keeps working during the outage (persisted registry
        // state): a scheduler-driven move lands, but nobody hears it.
        orch.move_container(ContainerId::new(1), bm(1)).unwrap();
        assert!(matches!(feed.try_next(), FeedPoll::Empty));

        orch.restore_control();
        assert!(orch.control_reachable_from(Some(HostId::new(0))));
        // ControlRestored arrives with a gap of exactly the deaf window.
        match feed.try_next() {
            FeedPoll::Gap { missed, event } => {
                assert_eq!(missed, 1);
                assert_eq!(event, OrchestratorEvent::ControlRestored { scope: None });
            }
            other => panic!("expected gap, got {other:?}"),
        }
        // Restoring twice is a no-op (no duplicate event).
        orch.restore_control();
        assert!(matches!(feed.try_next(), FeedPoll::Empty));
    }

    #[test]
    fn partition_is_per_host_and_heals_with_scoped_restore() {
        use crate::events::FeedPoll;
        let orch = setup();
        let mut on0 = orch.subscribe_from(HostId::new(0), Arc::default());
        let mut on1 = orch.subscribe_from(HostId::new(1), Arc::default());
        orch.partition_control(HostId::new(1));
        assert!(orch.control_reachable_from(Some(HostId::new(0))));
        assert!(!orch.control_reachable_from(Some(HostId::new(1))));
        orch.register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        assert!(matches!(on0.try_next(), FeedPoll::Event(_)));
        assert!(matches!(on1.try_next(), FeedPoll::Empty));
        orch.heal_control(HostId::new(1));
        assert!(matches!(on0.try_next(), FeedPoll::Event(_))); // ControlRestored
        match on1.try_next() {
            FeedPoll::Gap { missed, event } => {
                assert_eq!(missed, 1);
                assert_eq!(
                    event,
                    OrchestratorEvent::ControlRestored {
                        scope: Some(HostId::new(1))
                    }
                );
            }
            other => panic!("expected gap, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_covers_the_feed_and_reflects_moves() {
        let orch = setup();
        let ip1 = orch
            .register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        let ip2 = orch
            .register_container(ContainerId::new(2), TenantId::new(1), bm(1), IpAssign::Auto)
            .unwrap();
        let snap = orch.snapshot_for(HostId::new(0));
        assert_eq!(snap.containers.len(), 2);
        assert_eq!(snap.routes, vec![(ip2, HostId::new(1))]);
        let mut sub = orch.subscribe(Arc::default());
        assert_eq!(snap.seq, sub.expected_seq());

        // A move during an outage shows up in the next snapshot with a
        // bumped generation and a higher covered sequence.
        orch.fail_control();
        orch.move_container(ContainerId::new(1), bm(1)).unwrap();
        let snap2 = orch.snapshot_for(HostId::new(0));
        assert_eq!(snap2.seq, snap.seq + 1);
        let moved = snap2.containers.iter().find(|c| c.ip == ip1).unwrap();
        assert_eq!(moved.host, HostId::new(1));
        assert_eq!(moved.generation, 2);
        // advance_to(snap2.seq) leaves no gap to report after restore
        // beyond the ControlRestored event itself.
        sub.advance_to(snap2.seq);
        orch.restore_control();
        assert!(matches!(
            sub.try_next().event().unwrap(),
            OrchestratorEvent::ControlRestored { scope: None }
        ));
    }

    #[test]
    fn feed_drops_are_counted() {
        let orch = setup();
        let hub = Telemetry::new();
        orch.attach_telemetry(&hub);
        {
            let _dropped = orch.subscribe(Arc::default());
        }
        orch.register_container(ContainerId::new(1), TenantId::new(1), bm(0), IpAssign::Auto)
            .unwrap();
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter_value("ff_orch_feed_drops_total", LabelSet::none()),
            Some(1)
        );
    }

    #[test]
    fn concurrent_registrations_are_consistent() {
        let orch = setup();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let orch = Arc::clone(&orch);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        orch.register_container(
                            ContainerId::new(t * 100 + i),
                            TenantId::new(1),
                            bm(t % 2),
                            IpAssign::Auto,
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(orch.container_count(), 200);
        // All IPs distinct (registry would have rejected duplicates).
    }
}
