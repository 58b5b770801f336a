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
//! * [`Doorbell`] — edge-triggered wakeup between two threads (the shm
//!   analog of an RDMA completion interrupt or an eventfd), supporting both
//!   blocking waits and poll mode; and [`Queue`], a bounded queue whose
//!   pushes ring one. Both live in `freeflow-types`, so crates that do not
//!   depend on this one can ring too, and are re-exported here.
//! * [`pump`] — the one event loop: a thread running a step function that
//!   parks on a doorbell between steps (agent, library, socket channels).
//! * [`channel`] — framed, bidirectional message channels built from two
//!   rings plus doorbells; this is the container↔agent and
//!   container↔container pipe.
//! * [`stats`] — cheap atomic counters exported to the metrics pipeline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod channel;
pub mod pump;
pub mod ring;
pub mod stats;

pub use arena::{ArenaHandle, SharedArena, Taken};
pub use channel::{
    channel_pair, channel_pair_on, ChannelTelemetry, ShmDuplex, ShmMessage, ShmReceiver, ShmSender,
};
pub use freeflow_types::{Doorbell, DoorbellStats, Queue, QueueSender};
pub use pump::{Pump, Step};
pub use ring::SpscRing;
pub use stats::{ChannelStats, StatsSnapshot};
