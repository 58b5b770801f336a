//! # ffbench
//!
//! One benchmark for FreeFlow's central claim — one library picks shared
//! memory or the agent relay behind unmodified Verbs and Socket calls, and
//! costs almost nothing for doing so — measured strictly from outside the
//! stack: the 2×2 of {Verbs, Socket} × {same-host shm, cross-host relay},
//! each workload through the same five phases ([`plan::Phase`]), with
//! payloads verified by a seeded oracle ([`oracle`]).
//!
//! * End-to-end numbers ([`metrics::END_TO_END`]) come from a run with
//!   tracing off.
//! * Per-layer numbers ([`metrics::PER_LAYER`]) come from a separate
//!   traced run — harness-side spans ([`trace`]) around every call into a
//!   layer's public function, and deltas of the stack's own telemetry
//!   counters around each phase ([`counters`]) — plus standalone probes
//!   of each crate's public entry points ([`probes`]).
//!
//! `README.md` beside this crate has the metric tables, the commands and
//! the measured run-to-run spread behind every bound.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod metrics;
pub mod oracle;
pub mod plan;
pub mod probes;
pub mod report;
pub mod run;
pub mod socket_wl;
pub mod stats;
pub mod trace;
pub mod verbs_wl;
pub mod world;
