//! # freeflow-shmem
//!
//! The shared-memory data plane: the fabric FreeFlow uses between
//! co-located containers, and between a container and its host's network
//! agent (the paper replaces the veth/bridge hop with exactly this).
//!
//! Real containers would map a POSIX `shm` segment into both address
//! spaces. Here, "containers" are threads of one process (see the
//! substitution table in `DESIGN.md`), so a shared segment is an
//! [`arena::SharedArena`] — reference-counted memory addressed by offsets,
//! never by raw pointers, exactly as cross-process shm must be.
//!
//! ## Components
//!
//! * [`ring`] — a lock-free single-producer/single-consumer byte ring, the
//!   primitive every channel is built on. Producer and consumer each own
//!   one cache-padded atomic index; data moves with exactly one `memcpy`
//!   per side.
//! * [`arena`] — offset-addressed shared memory segments with a free-list
//!   block allocator, used for zero-copy segment handoff.
//! * [`doorbell`] — edge-triggered wakeup between two threads (the shm
//!   analog of an RDMA completion interrupt or an eventfd), supporting both
//!   blocking waits and poll mode.
//! * [`channel`] — framed, bidirectional message channels built from two
//!   rings plus doorbells; this is the container↔agent and
//!   container↔container pipe.
//! * [`fabric`] — the per-host rendezvous: named endpoints, connect/accept,
//!   so two containers (or a container and the agent) can find each other.
//! * [`stats`] — cheap atomic counters exported to the metrics pipeline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod channel;
pub mod doorbell;
pub mod fabric;
pub mod ring;
pub mod stats;

pub use arena::{ArenaHandle, SharedArena};
pub use channel::{
    channel_pair, channel_pair_on, duplex_pair, ChannelTelemetry, ShmDuplex, ShmMessage,
    ShmReceiver, ShmSender,
};
pub use doorbell::{Doorbell, DoorbellStats};
pub use fabric::ShmFabric;
pub use ring::SpscRing;
pub use stats::{ChannelStats, StatsSnapshot};
