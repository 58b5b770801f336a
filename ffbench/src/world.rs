//! What the four workloads have in common: a world that can be built cold,
//! run one phase at a time, and torn down.

use crate::oracle::Ledger;
use crate::plan::{Phase, Plan};
use crate::stats::PhaseStats;
use crate::trace::Tracer;
use freeflow::qp::FfPath;
use freeflow::FreeFlowCluster;
use std::sync::Arc;

/// The 2×2: {Verbs, Socket} × {same-host shm, cross-host relay}.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Same-host `FfQp` pair: `core` + `verbs` + the `shmem` arena.
    VerbsShm,
    /// Cross-host `FfQp` pair: library ring → agent → wire → agent.
    VerbsRelay,
    /// One pooled same-host `FfStream`: `socket` does most of the work.
    SocketShm,
    /// One pooled cross-host `FfStream`: `socket` on top of the relay.
    SocketRelay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::VerbsShm,
        Workload::VerbsRelay,
        Workload::SocketShm,
        Workload::SocketRelay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VerbsShm => "verbs_shm",
            Workload::VerbsRelay => "verbs_relay",
            Workload::SocketShm => "socket_shm",
            Workload::SocketRelay => "socket_relay",
        }
    }

    /// One line on why the workload exists (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::VerbsShm => {
                "same-host FfQp pair on shared memory: core+verbs+shmem arena only, \
                 the paper's headline path and the control for relay/socket changes"
            }
            Workload::VerbsRelay => {
                "cross-host FfQp pair through both agents and the wire: \
                 where the relay floor, ring wakeups and agent coalescing live"
            }
            Workload::SocketShm => {
                "one pooled same-host FfStream: socket mux/credits/framing with no agent, \
                 so a socket-layer gain shows here and a pump/agent gain does not"
            }
            Workload::SocketRelay => {
                "one pooled cross-host FfStream: socket layer on top of everything \
                 verbs_relay crosses, where the pooled-vs-per-QP gap lives"
            }
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether both containers share a host.
    pub fn same_host(self) -> bool {
        matches!(self, Workload::VerbsShm | Workload::SocketShm)
    }

    /// Whether the workload drives the Socket API (else Verbs).
    pub fn is_socket(self) -> bool {
        matches!(self, Workload::SocketShm | Workload::SocketRelay)
    }
}

/// A built workload.
pub trait World: Sized {
    /// The cluster underneath (telemetry and agent statistics).
    fn cluster(&self) -> &Arc<FreeFlowCluster>;

    /// The data plane the workload's connection is bound to.
    fn path(&self) -> FfPath;

    /// Run one phase of round `round`: warm-up, then the measured slices.
    fn run_phase<T: Tracer>(
        &mut self,
        phase: Phase,
        round: usize,
        plan: &Plan,
        ledger: &Ledger,
        tr: &mut T,
    ) -> Result<PhaseStats, String>;

    /// Tear the world down in dependency order.
    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

/// The harness asserts the placement it asked for: `Local` for `*_shm`,
/// `Remote` for `*_relay`.
pub fn require_path(path: FfPath, same_host: bool) -> Result<(), String> {
    match (path, same_host) {
        (FfPath::Local { .. }, true) | (FfPath::Remote { .. }, false) => Ok(()),
        (other, _) => Err(format!(
            "wrong data plane: bound to {} for a {} pair",
            other.label(),
            if same_host { "same-host" } else { "cross-host" }
        )),
    }
}
