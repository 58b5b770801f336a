//! Seeded, reproducible fault plans injected into the event queue.
//!
//! Six fault classes cover the failure modes FreeFlow's control plane
//! must survive:
//!
//! * [`FaultKind::NicDown`] — the kernel-bypass NIC dies permanently;
//!   RDMA and DPDK flows touching the host lose their in-flight chunks and
//!   fail over to the kernel TCP path after a detection delay.
//! * [`FaultKind::LinkFlap`] — the host's uplink drops for a bounded
//!   duration; in-flight chunks are lost and retransmitted on the *same*
//!   transport once the link returns.
//! * [`FaultKind::HostCrash`] — the host dies outright; flows with an
//!   endpoint on it are killed, everyone else must still converge.
//! * [`FaultKind::OrchestratorOutage`] — the orchestrator's dissemination
//!   plane goes dark cluster-wide for a bounded duration. Established
//!   traffic is untouched; any *re-path* forced by a data-plane fault
//!   inside the window is degraded (decided from stale cache state, with
//!   an extra decision delay).
//! * [`FaultKind::ControlPartition`] — like an outage, but only one host
//!   loses its control channel; only re-paths involving that host degrade.
//! * [`FaultKind::MigrationCrash`] — the migration daemon on a host dies
//!   mid-2PC. Any live migration whose source ([`MigrationCrashPhase::Source`],
//!   checkpoint torn) or target ([`MigrationCrashPhase::Target`], restore
//!   torn) runs on that host aborts in place: the container stays put,
//!   frozen flows thaw after the blackout, nothing is lost twice. With no
//!   migration in flight the crash is a no-op — the 2PC has nothing to
//!   tear.
//!
//! A [`FaultPlan`] is either built explicitly or generated from a seed via
//! [`FaultPlan::randomized`]; either way the simulation consumes no other
//! randomness, so the same plan always reproduces the identical
//! [`crate::SimReport`].

use crate::rng::SimRng;
use freeflow_types::Nanos;

/// Which side of a live migration's two-phase commit a
/// [`FaultKind::MigrationCrash`] tears down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCrashPhase {
    /// The source host's daemon dies mid-checkpoint: the checkpoint is
    /// torn, the migration aborts before anything moved.
    Source,
    /// The target host's daemon dies mid-restore: the restore is torn,
    /// the migration rolls back to the source.
    Target,
}

impl MigrationCrashPhase {
    /// Stable lowercase label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationCrashPhase::Source => "source",
            MigrationCrashPhase::Target => "target",
        }
    }
}

/// One class of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The kernel-bypass NIC on `host` dies permanently.
    NicDown {
        /// Sim host index the NIC belongs to.
        host: usize,
    },
    /// The uplink of `host` drops for `duration`, then recovers.
    LinkFlap {
        /// Sim host index whose link flaps.
        host: usize,
        /// How long the link stays down.
        duration: Nanos,
    },
    /// `host` crashes and never returns.
    HostCrash {
        /// Sim host index that dies.
        host: usize,
    },
    /// The orchestrator's control plane is unreachable from every host for
    /// `duration`. Data-plane traffic keeps flowing; re-paths made inside
    /// the window are degraded.
    OrchestratorOutage {
        /// How long the orchestrator stays dark.
        duration: Nanos,
    },
    /// `host` loses its control channel to the orchestrator for
    /// `duration`; only re-paths involving that host degrade.
    ControlPartition {
        /// Sim host index cut off from the orchestrator.
        host: usize,
        /// How long the partition lasts.
        duration: Nanos,
    },
    /// The migration daemon on `host` dies mid-2PC: any migration in
    /// flight with that host on the `phase` side aborts cleanly (the
    /// container stays on its source host). A no-op when no migration is
    /// in progress there.
    MigrationCrash {
        /// Sim host index whose migration daemon dies.
        host: usize,
        /// Which 2PC side the crash tears (source checkpoint or target
        /// restore).
        phase: MigrationCrashPhase,
    },
}

impl FaultKind {
    /// The host the fault strikes, if it targets one
    /// ([`FaultKind::OrchestratorOutage`] is cluster-wide).
    pub fn host(&self) -> Option<usize> {
        match self {
            FaultKind::NicDown { host }
            | FaultKind::LinkFlap { host, .. }
            | FaultKind::HostCrash { host }
            | FaultKind::ControlPartition { host, .. }
            | FaultKind::MigrationCrash { host, .. } => Some(*host),
            FaultKind::OrchestratorOutage { .. } => None,
        }
    }

    /// Stable lowercase label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NicDown { .. } => "nic-down",
            FaultKind::LinkFlap { .. } => "link-flap",
            FaultKind::HostCrash { .. } => "host-crash",
            FaultKind::OrchestratorOutage { .. } => "orch-outage",
            FaultKind::ControlPartition { .. } => "control-partition",
            FaultKind::MigrationCrash { .. } => "migration-crash",
        }
    }
}

/// A fault scheduled at an absolute virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// When the fault fires.
    pub at: Nanos,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, reproducible schedule of faults.
///
/// Built fluently (`FaultPlan::new(seed).nic_down(..).link_flap(..)`) or
/// drawn from the seed with [`FaultPlan::randomized`]. The seed is carried
/// even for explicit plans so reports can name the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Empty plan carrying `seed` as its scenario label.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedule a permanent NIC death on `host` at `at`.
    pub fn nic_down(mut self, at: Nanos, host: usize) -> Self {
        self.faults.push(Fault {
            at,
            kind: FaultKind::NicDown { host },
        });
        self
    }

    /// Schedule a link flap on `host` at `at` lasting `duration`.
    pub fn link_flap(mut self, at: Nanos, host: usize, duration: Nanos) -> Self {
        self.faults.push(Fault {
            at,
            kind: FaultKind::LinkFlap { host, duration },
        });
        self
    }

    /// Schedule a crash of `host` at `at`.
    pub fn host_crash(mut self, at: Nanos, host: usize) -> Self {
        self.faults.push(Fault {
            at,
            kind: FaultKind::HostCrash { host },
        });
        self
    }

    /// Schedule a cluster-wide orchestrator outage at `at` lasting
    /// `duration`.
    pub fn orchestrator_outage(mut self, at: Nanos, duration: Nanos) -> Self {
        self.faults.push(Fault {
            at,
            kind: FaultKind::OrchestratorOutage { duration },
        });
        self
    }

    /// Schedule a control partition of `host` at `at` lasting `duration`.
    pub fn control_partition(mut self, at: Nanos, host: usize, duration: Nanos) -> Self {
        self.faults.push(Fault {
            at,
            kind: FaultKind::ControlPartition { host, duration },
        });
        self
    }

    /// Schedule a migration-daemon crash on `host` at `at`, tearing the
    /// given 2PC `phase` of whatever migration is then in flight there.
    pub fn migration_crash(mut self, at: Nanos, host: usize, phase: MigrationCrashPhase) -> Self {
        self.faults.push(Fault {
            at,
            kind: FaultKind::MigrationCrash { host, phase },
        });
        self
    }

    /// Draw `count` faults over `hosts` hosts, uniformly timed in
    /// `[horizon/10, horizon)`, entirely from `seed`.
    pub fn randomized(seed: u64, hosts: usize, count: usize, horizon: Nanos) -> Self {
        assert!(hosts > 0, "need at least one host");
        let mut rng = SimRng::new(seed);
        let lo = horizon.as_nanos() / 10;
        let hi = horizon.as_nanos().max(lo + 1);
        let mut plan = Self::new(seed);
        for _ in 0..count {
            let at = Nanos::from_nanos(rng.gen_range(lo, hi));
            let host = rng.index(hosts);
            plan = match rng.index(6) {
                0 => plan.nic_down(at, host),
                1 => {
                    let duration = Nanos::from_micros(rng.gen_range(50, 500));
                    plan.link_flap(at, host, duration)
                }
                2 => plan.host_crash(at, host),
                3 => {
                    let duration = Nanos::from_micros(rng.gen_range(50, 500));
                    plan.orchestrator_outage(at, duration)
                }
                4 => {
                    let duration = Nanos::from_micros(rng.gen_range(50, 500));
                    plan.control_partition(at, host, duration)
                }
                _ => {
                    let phase = if rng.index(2) == 0 {
                        MigrationCrashPhase::Source
                    } else {
                        MigrationCrashPhase::Target
                    };
                    plan.migration_crash(at, host, phase)
                }
            };
        }
        plan
    }
}

/// A fault that actually fired, surfaced in [`crate::SimReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Virtual time the fault fired.
    pub at: Nanos,
    /// What fired.
    pub kind: FaultKind,
    /// How many flows it touched.
    pub flows_affected: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluent_builder_preserves_order() {
        let plan = FaultPlan::new(9)
            .nic_down(Nanos::from_micros(10), 0)
            .link_flap(Nanos::from_micros(20), 1, Nanos::from_micros(5))
            .host_crash(Nanos::from_micros(30), 2)
            .orchestrator_outage(Nanos::from_micros(40), Nanos::from_micros(50))
            .control_partition(Nanos::from_micros(60), 1, Nanos::from_micros(5));
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.faults()[0].kind.name(), "nic-down");
        assert_eq!(plan.faults()[1].kind.host(), Some(1));
        assert_eq!(plan.faults()[2].kind, FaultKind::HostCrash { host: 2 });
        assert_eq!(plan.faults()[3].kind.name(), "orch-outage");
        assert_eq!(plan.faults()[3].kind.host(), None, "outage is cluster-wide");
        assert_eq!(plan.faults()[4].kind.name(), "control-partition");
        assert_eq!(plan.faults()[4].kind.host(), Some(1));
    }

    #[test]
    fn randomized_is_reproducible() {
        let a = FaultPlan::randomized(1234, 4, 6, Nanos::from_millis(5));
        let b = FaultPlan::randomized(1234, 4, 6, Nanos::from_millis(5));
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let c = FaultPlan::randomized(1235, 4, 6, Nanos::from_millis(5));
        assert_ne!(a, c, "different seed should give a different plan");
    }

    #[test]
    fn randomized_respects_bounds() {
        let horizon = Nanos::from_millis(2);
        let plan = FaultPlan::randomized(7, 3, 20, horizon);
        for f in plan.faults() {
            assert!(f.at < horizon);
            if let Some(host) = f.kind.host() {
                assert!(host < 3);
            }
        }
    }
}
