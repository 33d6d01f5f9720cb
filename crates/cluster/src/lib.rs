//! # ehj-cluster — cluster model for the EHJA reproduction
//!
//! Node descriptors and the scheduler's bookkeeping over them: the
//! working / potential / full join-node lists of §4.1.1–4.1.2 and the
//! paper's new-node selection rule (largest available memory first).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod book;
pub mod node;
pub mod quota;

pub use book::SchedulerBook;
pub use node::{ClusterSpec, NodeId, NodeSpec};
pub use quota::{QuotaError, QuotaGrant, QuotaLedger};
