//! The control-plane client every library/agent call site goes through.
//!
//! In the paper the orchestrator is a remote service; in this reproduction
//! it is in-process, but the *failure surface* of a remote control plane is
//! reproduced here: every query carries a per-operation deadline and a
//! bounded retry budget with decorrelated-jitter backoff, and when the
//! orchestrator is unreachable (cluster-wide outage or a per-host control
//! partition — see `Orchestrator::fail_control` /
//! `Orchestrator::partition_control`) the call fails with
//! [`freeflow_types::Error::Unavailable`] instead of blocking the data
//! path.
//!
//! Callers are expected to degrade, not stall: the library keeps serving
//! established paths from its [`crate::cache::LocationCache`] and falls
//! back to the universal TCP path for new decisions (DESIGN.md §9).

use freeflow_orchestrator::orchestrator::require_transport;
use freeflow_orchestrator::{ContainerRecord, ControlSnapshot, FeedSubscription, Orchestrator};
use freeflow_telemetry::{LabelSet, Telemetry};
use freeflow_types::{Doorbell, Error, HostId, OverlayIp, Result, TransportKind};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry/deadline policy for control-plane calls.
///
/// The defaults are sized for the in-process reproduction (microsecond
/// "round trips"): tight enough that chaos tests run fast, loose enough
/// that a transient blip is ridden out rather than surfaced.
#[derive(Debug, Clone, Copy)]
pub struct OrchClientConfig {
    /// Total budget for one logical operation, retries included.
    pub op_deadline: Duration,
    /// Maximum attempts per operation (first try + retries).
    pub max_attempts: u32,
    /// Base backoff between attempts (the decorrelated-jitter floor).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for OrchClientConfig {
    fn default() -> Self {
        Self {
            op_deadline: Duration::from_millis(2),
            max_attempts: 3,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(500),
        }
    }
}

/// A per-host (or per-library) handle on the orchestrator with the failure
/// semantics of a real RPC client: deadlines, bounded retries, and an
/// explicit *degraded* flag once the control plane stops answering.
pub struct OrchClient {
    orchestrator: Arc<Orchestrator>,
    /// The host this client calls from (partitions are per-host). Swapped
    /// on library rehome.
    host: RwLock<Option<HostId>>,
    cfg: OrchClientConfig,
    /// Deterministic LCG state for decorrelated-jitter backoff.
    rng: Mutex<u64>,
    /// Whether the most recent call exhausted its retry budget.
    degraded: AtomicBool,
    telemetry: Arc<Telemetry>,
}

impl OrchClient {
    /// Client calling from `host` (`None` = untagged observer, unaffected
    /// by per-host partitions) with the default retry policy.
    pub fn new(
        orchestrator: Arc<Orchestrator>,
        host: Option<HostId>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Self::with_config(orchestrator, host, telemetry, OrchClientConfig::default())
    }

    /// Client with an explicit retry policy.
    pub fn with_config(
        orchestrator: Arc<Orchestrator>,
        host: Option<HostId>,
        telemetry: Arc<Telemetry>,
        cfg: OrchClientConfig,
    ) -> Self {
        let seed = host.map(HostId::raw).unwrap_or(u64::MAX) ^ 0x9E37_79B9_7F4A_7C15;
        Self {
            orchestrator,
            host: RwLock::new(host),
            cfg,
            rng: Mutex::new(seed),
            degraded: AtomicBool::new(false),
            telemetry,
        }
    }

    /// The host this client is tagged with.
    pub fn host(&self) -> Option<HostId> {
        *self.host.read()
    }

    /// Re-tag the client (library rehomed onto another host).
    pub fn set_host(&self, host: HostId) {
        *self.host.write() = Some(host);
    }

    /// The underlying orchestrator (tests/diagnostics; production call
    /// sites go through the RPC wrappers below so outages are honoured).
    pub fn orchestrator(&self) -> &Arc<Orchestrator> {
        &self.orchestrator
    }

    /// Whether the control plane currently answers calls from this host.
    pub fn reachable(&self) -> bool {
        self.orchestrator.control_reachable_from(self.host())
    }

    /// Whether the most recent call exhausted its retry budget (cleared by
    /// the next successful call).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Next decorrelated-jitter backoff: `min(cap, uniform(base, prev*3))`.
    fn next_backoff(&self, prev: Duration) -> Duration {
        let mut state = self.rng.lock();
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = *state >> 33;
        drop(state);
        let lo = self.cfg.backoff_base.as_nanos() as u64;
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let jittered = lo + r % (hi - lo);
        Duration::from_nanos(jittered).min(self.cfg.backoff_cap)
    }

    /// One logical control-plane operation: check reachability, retry with
    /// backoff while the deadline allows, fail with
    /// [`Error::Unavailable`] once the budget is gone. Errors returned by
    /// a *reachable* orchestrator (NotFound etc.) are authoritative and
    /// never retried.
    fn call<T>(&self, op: &'static str, f: impl Fn() -> Result<T>) -> Result<T> {
        let reg = self.telemetry.registry();
        reg.counter(
            "ff_orch_client_rpcs_total",
            "control-plane client operations issued, by op",
            LabelSet::none().with_extra("op", op),
        )
        .inc();
        let deadline = Instant::now() + self.cfg.op_deadline;
        let mut backoff = self.cfg.backoff_base;
        for attempt in 1..=self.cfg.max_attempts {
            if self.reachable() {
                self.degraded.store(false, Ordering::Relaxed);
                return f();
            }
            if attempt == self.cfg.max_attempts || Instant::now() + backoff >= deadline {
                break;
            }
            reg.counter(
                "ff_orch_client_retries_total",
                "control-plane client retries after an unreachable attempt",
                LabelSet::none().with_extra("op", op),
            )
            .inc();
            std::thread::sleep(backoff);
            backoff = self.next_backoff(backoff);
        }
        self.degraded.store(true, Ordering::Relaxed);
        reg.counter(
            "ff_orch_client_failures_total",
            "control-plane client operations that exhausted their budget",
            LabelSet::none().with_extra("op", op),
        )
        .inc();
        Err(Error::unavailable(op))
    }

    // --- RPC wrappers -----------------------------------------------------

    /// Reverse lookup: who owns this overlay IP?
    pub fn whois(&self, ip: OverlayIp) -> Result<ContainerRecord> {
        self.call("whois", || self.orchestrator.whois(ip))
    }

    /// Resolve everything a path decision needs in one round trip:
    /// `dst`'s physical host, its registry placement generation, and the
    /// transport policy picks for `src → dst`.
    pub fn resolve_route(
        &self,
        src: OverlayIp,
        dst: OverlayIp,
    ) -> Result<(HostId, u64, TransportKind)> {
        self.call("resolve_route", || {
            let rec = self.orchestrator.whois(dst)?;
            let host = self.orchestrator.locate(rec.id)?;
            let transport = require_transport(self.orchestrator.decide_path_by_ip(src, dst)?)?;
            Ok((host, rec.generation, transport))
        })
    }

    /// Per-host routing view (agent forwarding-table refresh).
    pub fn routes_for(&self, host: HostId) -> Result<Vec<(OverlayIp, HostId)>> {
        self.call("routes_for", || Ok(self.orchestrator.routes_for(host)))
    }

    /// Full resync snapshot for `host` (gap recovery — DESIGN.md §9).
    pub fn snapshot(&self, host: HostId) -> Result<ControlSnapshot> {
        self.call("snapshot", || Ok(self.orchestrator.snapshot_for(host)))
    }

    /// Subscribe to the event feed from this client's host (partitions of
    /// that host withhold delivery, surfacing as a gap on heal); every
    /// delivered event rings `bell`.
    pub fn subscribe(&self, bell: Arc<Doorbell>) -> FeedSubscription {
        match self.host() {
            Some(h) => self.orchestrator.subscribe_from(h, bell),
            None => self.orchestrator.subscribe(bell),
        }
    }
}

impl std::fmt::Debug for OrchClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrchClient")
            .field("host", &self.host())
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeflow_orchestrator::registry::ContainerLocation;
    use freeflow_orchestrator::IpAssign;
    use freeflow_types::{ContainerId, HostCaps, TenantId};

    fn setup() -> (Arc<Orchestrator>, OverlayIp, OverlayIp) {
        let orch = Orchestrator::with_defaults();
        orch.add_host(HostId::new(0), HostCaps::paper_testbed())
            .unwrap();
        orch.add_host(HostId::new(1), HostCaps::paper_testbed())
            .unwrap();
        let a = orch
            .register_container(
                ContainerId::new(1),
                TenantId::new(1),
                ContainerLocation::BareMetal(HostId::new(0)),
                IpAssign::Auto,
            )
            .unwrap();
        let b = orch
            .register_container(
                ContainerId::new(2),
                TenantId::new(1),
                ContainerLocation::BareMetal(HostId::new(1)),
                IpAssign::Auto,
            )
            .unwrap();
        (orch, a, b)
    }

    #[test]
    fn resolves_while_reachable() {
        let (orch, a, b) = setup();
        let client = OrchClient::new(Arc::clone(&orch), Some(HostId::new(0)), Telemetry::new());
        let (host, generation, transport) = client.resolve_route(a, b).unwrap();
        assert_eq!(host, HostId::new(1));
        assert_eq!(generation, 1);
        assert_eq!(transport, TransportKind::Rdma);
        assert!(!client.is_degraded());
    }

    #[test]
    fn outage_fails_fast_with_unavailable_and_sets_degraded() {
        let (orch, a, b) = setup();
        let hub = Telemetry::new();
        let client = OrchClient::new(Arc::clone(&orch), Some(HostId::new(0)), Arc::clone(&hub));
        orch.fail_control();
        let err = client.resolve_route(a, b).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)));
        assert!(err.is_transient());
        assert!(client.is_degraded());
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter_value(
                "ff_orch_client_failures_total",
                LabelSet::none().with_extra("op", "resolve_route"),
            ),
            Some(1)
        );
        assert!(
            snap.counter_value(
                "ff_orch_client_retries_total",
                LabelSet::none().with_extra("op", "resolve_route"),
            )
            .unwrap_or(0)
                >= 1
        );
        // Recovery clears the flag on the next successful call.
        orch.restore_control();
        client.resolve_route(a, b).unwrap();
        assert!(!client.is_degraded());
    }

    #[test]
    fn partition_only_affects_the_tagged_host() {
        let (orch, a, b) = setup();
        let hub = Telemetry::new();
        let on0 = OrchClient::new(Arc::clone(&orch), Some(HostId::new(0)), Arc::clone(&hub));
        let on1 = OrchClient::new(Arc::clone(&orch), Some(HostId::new(1)), Arc::clone(&hub));
        orch.partition_control(HostId::new(0));
        assert!(matches!(
            on0.resolve_route(a, b).unwrap_err(),
            Error::Unavailable(_)
        ));
        on1.resolve_route(b, a).unwrap();
        orch.heal_control(HostId::new(0));
        on0.resolve_route(a, b).unwrap();
    }

    #[test]
    fn authoritative_errors_are_not_retried() {
        let (orch, a, _) = setup();
        let hub = Telemetry::new();
        let client = OrchClient::new(Arc::clone(&orch), Some(HostId::new(0)), Arc::clone(&hub));
        let err = client
            .resolve_route(a, "10.0.99.99".parse().unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::NotFound(_)));
        assert!(!client.is_degraded());
        assert_eq!(
            hub.snapshot().counter_value(
                "ff_orch_client_retries_total",
                LabelSet::none().with_extra("op", "resolve_route"),
            ),
            None
        );
    }

    #[test]
    fn backoff_is_deterministic_for_a_seeded_host() {
        let (orch, _, _) = setup();
        let mk = || OrchClient::new(Arc::clone(&orch), Some(HostId::new(7)), Telemetry::new());
        let (c1, c2) = (mk(), mk());
        let seq1: Vec<Duration> = (0..8)
            .scan(Duration::from_micros(50), |p, _| {
                *p = c1.next_backoff(*p);
                Some(*p)
            })
            .collect();
        let seq2: Vec<Duration> = (0..8)
            .scan(Duration::from_micros(50), |p, _| {
                *p = c2.next_backoff(*p);
                Some(*p)
            })
            .collect();
        assert_eq!(seq1, seq2);
        assert!(seq1.iter().all(|d| *d <= Duration::from_micros(500)));
        assert!(seq1.iter().all(|d| *d >= Duration::from_micros(50)));
    }
}
