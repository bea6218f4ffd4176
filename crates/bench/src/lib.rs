//! # tlc-bench — the figure/table reproduction harness
//!
//! One function per exhibit of Jouppi & Wilton (WRL 93/3): `figures::fig1`
//! through `figures::fig26` and `figures::table1` each regenerate the data
//! behind the corresponding figure or table as an aligned text report.
//! The `repro` binary drives them from the command line:
//!
//! ```text
//! cargo run --release -p tlc-bench --bin repro -- all
//! cargo run --release -p tlc-bench --bin repro -- fig5 fig23 --quick
//! ```
//!
//! Absolute numbers differ from the paper (the workloads are synthetic
//! reconstructions — see `DESIGN.md`), but the harness reproduces the
//! *shape* of every exhibit: who wins, by what factor, and where the
//! crossovers fall. `EXPERIMENTS.md` records a full run against the
//! paper's claims.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod harness;

pub use harness::Harness;
