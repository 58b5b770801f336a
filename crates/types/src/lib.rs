//! # freeflow-types
//!
//! Common vocabulary types shared by every FreeFlow crate: identifiers for
//! cluster entities, overlay network addressing, host/NIC capability
//! descriptions, transport selection enums, bandwidth/size units, errors and
//! cluster configuration.
//!
//! The crate is deliberately dependency-light (its code uses only `std`,
//! with `std::sync` under the wake primitives) so every other crate can
//! depend on it without cycles.
//!
//! ## Layout
//!
//! * [`ids`] — strongly-typed identifiers (`ContainerId`, `HostId`, ...).
//! * [`addr`] — overlay IP addressing (`OverlayIp`, `OverlayCidr`,
//!   `OverlayAddr`) independent of container placement, which is the key
//!   portability property FreeFlow preserves.
//! * [`caps`] — NIC and host capability descriptors used by the
//!   orchestrator's path-selection policy.
//! * [`transport`] — the [`transport::TransportKind`] enum: which data plane
//!   a flow rides on (shared memory, RDMA, DPDK, TCP, overlay TCP).
//! * [`units`] — bandwidth, byte-size and time units with checked
//!   conversions, used by both the simulator and the benchmark harness.
//! * [`error`] — the crate-spanning [`error::Error`] type.
//! * [`config`] — cluster/host configuration including the calibration
//!   anchors from the paper (40 Gb/s NIC, 2.4 GHz 4-core Xeon, ...).
//! * [`wire`] — the bounded byte codec every wire and checkpoint format
//!   is written in.
//! * [`doorbell`] — edge-triggered wakeups between threads: every pump
//!   parks on one.
//! * [`queue`] — a bounded queue whose pushes ring the consumer's
//!   doorbell.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod caps;
pub mod config;
pub mod doorbell;
pub mod error;
pub mod ids;
pub mod queue;
pub mod transport;
pub mod units;
pub mod wire;

pub use addr::{OverlayAddr, OverlayCidr, OverlayIp};
pub use caps::{HostCaps, NicCaps, NicKind};
pub use config::{ClusterConfig, HostConfig};
pub use doorbell::{block_on, deadline_in, Doorbell, DoorbellStats, Look, Waited};
pub use error::{Error, Result};
pub use ids::{AgentId, ContainerId, FlowId, HostId, QpId, TenantId, VmId};
pub use queue::{Queue, QueueSender};
pub use transport::TransportKind;
pub use units::{Bandwidth, ByteSize, Nanos};
