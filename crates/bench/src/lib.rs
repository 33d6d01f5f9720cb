//! # ehj-bench — figure regeneration
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation section (§5, Figures 2–13):
//!
//! ```text
//! cargo run -p ehj-bench --release --bin figures -- all --scale 100
//! cargo run -p ehj-bench --release --bin figures -- fig10 --scale 50
//! ```
//!
//! [`scenarios`] builds the per-experiment configurations; [`figures`] runs
//! them and renders the paper's series alongside *shape checks* — the
//! qualitative claims the paper makes about each figure, evaluated on the
//! reproduced data. Host wall-clock speed is measured by the repository
//! benchmark (`BENCHMARK.json`, `benchmark/`), not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod scenarios;

pub use figures::{all_figures, figure, Figure, ShapeCheck, ALL_FIGURE_IDS};
