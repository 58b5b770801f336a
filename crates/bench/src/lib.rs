//! # freeflow-bench
//!
//! The evaluation harness: one function per table/figure in the paper,
//! each returning a [`table::Table`] whose rows mirror what the paper
//! plots. Run the whole battery with
//!
//! ```text
//! cargo bench -p freeflow-bench --bench figures
//! ```
//!
//! (the `figures` bench target is a plain binary, not criterion — it
//! regenerates every figure deterministically on the simulator), and the
//! real-data-path microbenchmarks with
//!
//! ```text
//! cargo bench -p freeflow-bench --bench realpath
//! ```
//!
//! The per-figure index — which paper figure, which workload, which
//! modules — lives in `DESIGN.md`; measured-vs-paper numbers are recorded
//! in `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod migration;
pub mod realpath;
pub mod report;
pub mod socket;
pub mod table;

pub use table::Table;
