//! # freeflow — high performance container networking
//!
//! The core library of the FreeFlow reproduction (HotNets'16): a container
//! networking stack that gives every container a **virtual RDMA NIC**
//! speaking the standard Verbs API, while the library underneath picks the
//! best data plane per peer — **shared memory** when the peer is on the
//! same host, **RDMA** (or DPDK, or TCP) through the per-host agents when
//! it is not — using location and capability information from a
//! centralized **network orchestrator**. Applications never learn where
//! their peers run; that is the portability contract.
//!
//! ## The pieces (paper §3.2)
//!
//! * [`cluster::FreeFlowCluster`] — the deployment: hosts, per-host agents
//!   (`freeflow-agent`), per-host verbs fabrics (`freeflow-verbs`), and
//!   the orchestrator (`freeflow-orchestrator`) wired together.
//! * [`container::Container`] — one containerized application's handle:
//!   its overlay IP, its virtual NIC, and the FreeFlow network library.
//! * [`library::NetLibrary`] — the per-container network library: location
//!   cache, progress pump, memory registration (arena-backed by default so
//!   co-located traffic is zero-copy), QP/CQ factories.
//! * [`qp::FfQp`] — the virtual queue pair: standard Verbs semantics on
//!   top, transparent path selection below. Co-located peers bind to a
//!   real `freeflow-verbs` queue pair over the host's shared arena;
//!   remote peers ride the agent relay (`RelayMsg` over transport wires).
//! * [`binding::PathBinding`] — the path lifecycle state machine: every
//!   transition a QP's data plane can make (connect-time bind, failover,
//!   live TCP→RDMA upgrade, Remote→Local collapse) in one place, with
//!   epoch and drain rules (DESIGN.md §7).
//! * [`migrate`] — container migration. Live QPs now survive a
//!   [`cluster::FreeFlowCluster::migrate`]: the library is rehomed to the
//!   new host and peers' bindings collapse/re-path without reconnecting.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the one-minute version:
//!
//! ```
//! use freeflow::cluster::FreeFlowCluster;
//! use freeflow_types::{HostCaps, TenantId};
//! use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
//!
//! let cluster = FreeFlowCluster::with_defaults();
//! let h0 = cluster.add_host(HostCaps::paper_testbed());
//! let a = cluster.launch(TenantId::new(1), h0).unwrap();
//! let b = cluster.launch(TenantId::new(1), h0).unwrap();
//!
//! // Standard verbs flow, transparently on shared memory (same host).
//! let mr_a = a.register(4096, AccessFlags::all()).unwrap();
//! let mr_b = b.register(4096, AccessFlags::all()).unwrap();
//! let cq_a = a.create_cq(16);
//! let cq_b = b.create_cq(16);
//! let qp_a = a.create_qp(&cq_a, &cq_a, 16, 16).unwrap();
//! let qp_b = b.create_qp(&cq_b, &cq_b, 16, 16).unwrap();
//! qp_a.connect(qp_b.endpoint()).unwrap();
//! qp_b.connect(qp_a.endpoint()).unwrap();
//!
//! qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 4096))).unwrap();
//! mr_a.write(0, b"hello freeflow").unwrap();
//! qp_a.post_send(SendWr::send(2, mr_a.sge(0, 14))).unwrap();
//! let wc = cq_b.wait_one(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(wc.byte_len, 14);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binding;
pub mod cache;
pub mod cluster;
pub mod container;
pub mod endpoint;
pub mod library;
pub mod migrate;
pub mod orch_client;
pub mod qp;
#[cfg(test)]
mod tests;

pub use cluster::FreeFlowCluster;
pub use container::Container;
pub use endpoint::FfEndpoint;
pub use freeflow_shmem::{Pump, Step};
pub use library::{LibHandle, NetLibrary};
pub use migrate::{
    MigrateError, MigrationCheckpoint, MigrationCrashPoint, MigrationOutcome, MigrationPhase,
    MigrationReport,
};
pub use orch_client::{OrchClient, OrchClientConfig};
pub use qp::FfQp;
