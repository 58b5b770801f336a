//! # freeflow-verbs
//!
//! An emulation of the RDMA Verbs API — the single data-transfer
//! abstraction FreeFlow standardizes on (paper §4: *"RDMA Verbs is
//! selected as the basic interface for data transfers in the network
//! abstraction"*). Applications program against the familiar object model
//! (device → protection domain → memory regions, queue pairs, completion
//! queues) and the usual operations (`SEND`/`RECV`, one-sided
//! `WRITE`/`READ`, `WRITE_WITH_IMM`), with the same state machine
//! (`RESET → INIT → RTR → RTS`, error on misuse) and completion semantics
//! as `libibverbs` — but everything executes in software against a
//! pluggable [`network::VerbsNetwork`] instead of a Mellanox NIC (the
//! substitution table in `DESIGN.md`).
//!
//! The FreeFlow library (`freeflow` crate) gives each container a *virtual
//! NIC* that is exactly a [`device::Device`] here; whether a queue pair's
//! bytes move through a shared-memory arena (co-located peers) or a
//! simulated wire (remote peers) is decided underneath this API, invisible
//! to the application — the paper's central transparency claim.
//!
//! ## Quick tour
//!
//! ```
//! use freeflow_verbs::network::VerbsNetwork;
//! use freeflow_verbs::wr::{AccessFlags, RecvWr, SendWr};
//! use freeflow_types::OverlayIp;
//!
//! let net = VerbsNetwork::new();
//! let dev_a = net.create_device(OverlayIp::from_octets(10, 0, 0, 1));
//! let dev_b = net.create_device(OverlayIp::from_octets(10, 0, 0, 2));
//!
//! // Receiver: register memory, create CQ + QP, post a receive.
//! let pd_b = dev_b.alloc_pd();
//! let mr_b = pd_b.register(1024, AccessFlags::local_rw()).unwrap();
//! let cq_b = dev_b.create_cq(16);
//! let qp_b = pd_b.create_qp(&cq_b, &cq_b, 16, 16).unwrap();
//!
//! // Sender side.
//! let pd_a = dev_a.alloc_pd();
//! let mr_a = pd_a.register(1024, AccessFlags::local_rw()).unwrap();
//! let cq_a = dev_a.create_cq(16);
//! let qp_a = pd_a.create_qp(&cq_a, &cq_a, 16, 16).unwrap();
//!
//! // Out-of-band endpoint exchange, then connect (INIT→RTR→RTS).
//! qp_a.connect(qp_b.endpoint()).unwrap();
//! qp_b.connect(qp_a.endpoint()).unwrap();
//!
//! qp_b.post_recv(RecvWr::new(1, mr_b.sge(0, 1024))).unwrap();
//! mr_a.write(0, b"hello verbs").unwrap();
//! qp_a.post_send(SendWr::send(2, mr_a.sge(0, 11))).unwrap();
//!
//! let wc = cq_b.poll_one().expect("receive completion");
//! assert_eq!(wc.byte_len, 11);
//! let mut buf = [0u8; 11];
//! mr_b.read(0, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello verbs");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cq;
pub mod device;
pub mod error;
pub mod mr;
pub mod network;
pub mod pd;
pub mod qp;
pub mod wr;

pub use cq::{CompletionQueue, CqInstruments, WakeBatch};
pub use device::Device;
pub use error::{VerbsError, VerbsResult, WcStatus};
pub use mr::MemoryRegion;
pub use network::VerbsNetwork;
pub use pd::ProtectionDomain;
pub use qp::{QpEndpoint, QpState, QueuePair};
pub use wr::{AccessFlags, RecvWr, SendWr, Sge, WorkCompletion, WrOpcode};
