//! # freeflow-socket
//!
//! The Socket-API half of FreeFlow's network abstraction (paper §4):
//! *"There are already libraries available to translate TCP/IP ... to RDMA
//! Verbs semantics"* — this crate is that translation layer (the `rsocket`
//! analog), built from scratch over `freeflow`'s virtual queue pairs.
//!
//! Applications get familiar stream sockets — [`SocketStack::bind`] /
//! [`FfListener::accept`] / [`SocketStack::connect`] / `read` / `write` —
//! and underneath every byte rides whichever data plane FreeFlow selected
//! for the peer pair: shared memory when co-located, RDMA/DPDK/TCP wires
//! otherwise. The socket code cannot tell and does not care; that is the
//! point.
//!
//! ## Translation scheme (TSoR layering)
//!
//! * **Channel pool** (`channel`): connections between a container pair
//!   share a small pool of RC QPs. The first `connect` between a pair
//!   builds a channel (QP + CQs + slotted MRs; its step runs on waiting
//!   threads and the container's library pump, not a thread of its own);
//!   every further socket is a stream-id allocation on it — thousands of
//!   streams per QP, counted by `ff_channel_qp_reuse_total`.
//! * **Mux framing** (`mux`): every frame names its stream; flow
//!   control is per-stream credits returned only as the application
//!   consumes bytes, so a stalled reader blocks its own writer and never
//!   the channel (no head-of-line blocking across streams). The channel's
//!   shared CQs are drained in batches and demuxed fairly.
//! * **One reliability layer.** The channel's QP delivers every frame
//!   exactly once and in order, across a failover, a TCP→RDMA upgrade or
//!   a Remote→Local collapse alike: a failed-over `FfQp` re-sends its
//!   unanswered ops, and the responder executes each once. So frames
//!   carry no sequence number, the mux recovers nothing, and a failed
//!   send completion kills the channel. The application sees one
//!   contiguous byte stream, never a reconnect.
//! * Connection setup goes through a [`SocketStack`] — the connection
//!   manager that maps `ip:port` to listeners and brokers the channel /
//!   stream handshake (what rsockets does over a TCP side channel).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod channel;
pub(crate) mod mux;
#[cfg(test)]
mod proptests;
pub mod stack;
pub mod stream;

// Hidden: exported only for the mux frame's hostile-input harness.
pub use mux::Frame;
pub use stack::{FfListener, SocketStack};
pub use stream::FfStream;
