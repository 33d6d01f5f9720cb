//! # ehj-sim — simulation substrate for the EHJA reproduction
//!
//! The paper (Zhang et al., HPDC 2004) evaluates its join algorithms on
//! "OSUMed": a 24-node PC cluster of Pentium III 933 MHz nodes with 512 MB
//! RAM and switched 100 Mb/s Ethernet. This crate substitutes that testbed
//! with:
//!
//! * a **deterministic discrete-event engine** ([`engine::Engine`]) with a
//!   calibrated cost model — per-NIC link serialization and switch latency
//!   ([`net`]), blocking local-disk I/O ([`disk`]), and per-actor CPUs; and
//! * a **threaded runtime** ([`executor::Executor`]) that runs the same
//!   [`actor::Actor`] implementations on a fixed work-stealing worker pool
//!   over bounded batch mailboxes ([`mailbox`]), one admitted group per
//!   query.
//!
//! Algorithms are written once against [`actor::Context`]; the figures use
//! the simulated backend (bit-for-bit reproducible for a given seed), the
//! repository benchmark (`benchmark/`) uses the threaded backend.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actor;
pub mod disk;
pub mod engine;
pub mod executor;
pub mod mailbox;
pub mod net;
pub mod time;

pub use actor::{Actor, ActorId, Context, Message};
pub use disk::{DiskConfig, DiskState};
pub use ehj_metrics::ExecutorStats;
pub use engine::{Engine, EngineConfig, RunSummary};
pub use executor::{Admission, Executor, ExecutorConfig, GroupOutcome, ThreadedSummary};
pub use mailbox::{Mailbox, PushReport};
pub use net::{NetConfig, Network};
pub use time::SimTime;
