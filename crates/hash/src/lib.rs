//! # ehj-hash — hashing substrate for the EHJA reproduction
//!
//! Everything the three Expanding Hash-based Join Algorithms (Zhang et al.,
//! HPDC 2004) need to address, partition and store hash-table entries:
//!
//! * [`hasher`] — attribute hashing and the global [`hasher::PositionSpace`];
//! * [`linear`] — the split-based algorithm's linear-hashing machinery
//!   (`h_i`/`h_{i+1}` pairs, split pointer, bucket-to-owner map);
//! * [`range`] — contiguous hash-range partitioning with replica lists for
//!   the replication-based and hybrid algorithms;
//! * [`partition`] — the hybrid reshuffle's greedy equal-load heuristic and
//!   its skew-aware variant;
//! * [`sketch`] — the space-saving heavy-hitter sketch behind hot-key
//!   detection (DESIGN §4i);
//! * [`table`] — the per-node, memory-accounted, position-ordered hash table;
//! * [`kernels`] — the probe-kernel selector (scalar reference | batched)
//!   and the probe scratch;
//! * [`chained`] — the original `BTreeMap`-chained table, kept as a
//!   reference for differential tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chained;
pub mod hasher;
pub mod kernels;
pub mod linear;
pub mod partition;
pub mod range;
pub mod sketch;
pub mod table;

pub use chained::ChainedTable;
pub use hasher::{AttrHasher, PositionSpace};
pub use kernels::{ProbeKernel, ProbeScratch};
pub use linear::{BucketMap, SplitStep};
pub use partition::{greedy_equal_partition, part_loads, skew_aware_partition};
pub use range::{HashRange, ReplicaEntry, ReplicaMap};
pub use sketch::SpaceSaving;
pub use table::{
    filter_fingerprint, BatchProbeStats, JoinHashTable, ProbeResult, TableFull,
    ENTRY_OVERHEAD_BYTES,
};
