//! # freeflow-agent
//!
//! The per-host FreeFlow network agent — the paper's customized overlay
//! router (building block 2). Two properties distinguish it from the
//! baseline overlay router:
//!
//! 1. *"the traffic between routers and its local containers goes through
//!    shared-memory instead of software bridge"* — containers attach over
//!    [`freeflow_shmem`] duplex channels, and large payloads are handed
//!    over as shared-arena blocks (descriptors, not byte copies);
//! 2. *"the traffic between different routers is delivered via kernel
//!    bypassing techniques, e.g. RDMA or DPDK, if the hardware on the
//!    hosts is capable"* — peer links carry a [`freeflow_types::TransportKind`]
//!    tag chosen by the orchestrator's policy, and per-transport statistics
//!    are kept so experiments can verify which plane traffic actually rode.
//!
//! The agent is a pure forwarder: it routes [`proto::RelayMsg`]s between
//! container channels and peer wires by destination overlay IP. Verbs
//! *semantics* (receive matching, rkey checks, completions) live in the
//! `freeflow` core library at the endpoints, exactly as the paper places
//! them in the per-container network library.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod proto;
pub mod wire;

pub use agent::{connect_agents, Agent, AgentHandle, ZERO_COPY_THRESHOLD};
pub use proto::{RelayMsg, RelayPayload, WireEp};
pub use wire::PeerWire;
