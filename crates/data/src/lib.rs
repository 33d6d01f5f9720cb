//! # ehj-data — data substrate for the EHJA reproduction
//!
//! This crate provides the data layer used by the Expanding Hash-based Join
//! Algorithms (Zhang et al., HPDC 2004): tuple and relation-schema types,
//! deterministic random-number generation, the paper's synthetic workload
//! generators (uniform and Gaussian join-attribute distributions), and the
//! shared tuple batches that carry every chunk a data source ships to a
//! join process.
//!
//! The paper's synthetic relations R and S share one column structure: a
//! 64-bit index, a 64-bit join attribute and an `n`-byte opaque payload
//! (§5, "Data Generation"). In this reproduction a [`Tuple`] carries the two
//! 64-bit columns; the payload is represented *by size* through [`Schema`],
//! which every byte-accounting site (network, memory, disk) consults.
//!
//! All generation is deterministic: a single `u64` seed fans out into
//! independent per-source streams via [`rng::SplitMix64`] /
//! [`rng::Xoshiro256StarStar`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod dist;
pub mod gen;
pub mod pool;
pub mod rng;
pub mod schema;
pub mod tuple;

pub use batch::{TupleBatch, DEFAULT_CHUNK_TUPLES};
pub use dist::{Distribution, JoinAttrSampler, DEFAULT_ATTR_DOMAIN};
pub use gen::{Correlation, RelationSpec, SourceGenerator};
pub use pool::{BufferPool, Pooled};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use schema::Schema;
pub use tuple::{JoinAttr, Tuple, TupleIndex};
