//! The multi-tenant join service: a stream of join queries on one shared
//! executor.
//!
//! [`crate::runner::JoinRunner`] runs one join per call and tears the
//! runtime down afterwards. A [`JoinService`] instead keeps one
//! work-stealing executor alive and **admits** queries onto it as they
//! arrive — mixed algorithms, scales and key distributions, concurrently.
//! Each query is built, waited for and ended by the same `QueryRun` a
//! standalone run uses; what the service adds is around it:
//!
//! * **Namespacing** — every admitted query is a pool group of its own, and
//!   a group numbers its actors from 0 ([`crate::Topology::new`]): ids are
//!   the query's own, on both backends, so concurrent schedulers, sources
//!   and join nodes never address one another, and a query's
//!   [`ehj_sim::Context::stop`] quiesces only its own group.
//! * **Admission control** — a query's demand is the aggregate hash memory
//!   its cluster spec declares; the service's [`QuotaLedger`] blocks
//!   submissions until running queries release enough budget, and rejects
//!   demands no amount of waiting could satisfy.
//! * **Per-query observability** — each query gets its own metrics
//!   registry and trace harness, so its [`JoinReport`] carries rollups
//!   unpolluted by its neighbours (the registries and monitors used to
//!   assume one run per process).
//!
//! The service is the threaded backend's: a simulated query runs alone, in
//! an engine of its own, through [`crate::runner::JoinRunner::run_with`].

use crate::config::JoinConfig;
use crate::report::JoinReport;
use crate::runner::{Backend, JoinError, QueryRun, RunOptions};
use ehj_cluster::QuotaLedger;
use ehj_metrics::{MetricsRegistry, TraceLevel};
use ehj_sim::{Admission, Executor, ExecutorConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::msg::Msg;

/// Identifies one admitted query within a [`JoinService`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Tuning of a [`JoinService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the shared executor (`0` = available
    /// parallelism).
    pub workers: usize,
    /// Total hash-memory budget arbitrated across concurrent queries;
    /// `None` admits without memory arbitration.
    pub memory_budget_bytes: Option<u64>,
    /// How long one submission may block waiting for quota.
    pub admission_patience: Duration,
    /// Per-query completion deadline in [`JoinService::wait`]; a query
    /// that blows it is cancelled and reported as stalled.
    pub query_deadline: Duration,
    /// Trace level of each query's private harness.
    pub trace_level: TraceLevel,
    /// Whether each query gets a live metrics registry.
    pub metrics: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            memory_budget_bytes: None,
            admission_patience: Duration::from_secs(30),
            query_deadline: Duration::from_secs(120),
            trace_level: TraceLevel::Summary,
            metrics: true,
        }
    }
}

/// Handle to one admitted query: pass it to [`JoinService::wait`] to
/// collect the query's own [`JoinReport`], or to [`JoinService::cancel`]
/// to quiesce it early.
pub struct QueryHandle {
    /// The query's id (dense, in admission order).
    pub id: QueryId,
    admission: Admission<Msg>,
    run: QueryRun,
    cancelled: AtomicBool,
}

/// A long-lived join service: one executor, many concurrent queries.
pub struct JoinService {
    executor: Executor<Msg>,
    quota: Option<QuotaLedger>,
    cfg: ServiceConfig,
    next_query: AtomicU64,
}

impl JoinService {
    /// Starts the service's executor pool. Workers park while no query is
    /// running.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Self {
        let exec_cfg = ExecutorConfig {
            workers: cfg.workers,
            ..ExecutorConfig::default()
        };
        // Worker-level instruments would mix tenants; per-query registries
        // carry the meaningful (join-side) metrics instead.
        let executor = Executor::start(&exec_cfg, &MetricsRegistry::disabled());
        let quota = cfg.memory_budget_bytes.map(QuotaLedger::new);
        Self {
            executor,
            quota,
            cfg,
            next_query: AtomicU64::new(0),
        }
    }

    /// Admits one query: validates its configuration, reserves its memory
    /// quota (blocking up to the admission patience), and starts its
    /// actors on the shared executor with the configuration's scheduling
    /// weight. Returns immediately after admission; the query runs
    /// concurrently with every other admitted query.
    ///
    /// # Errors
    /// [`JoinError::Config`] on validation failure, [`JoinError::Admission`]
    /// when the quota cannot be reserved.
    pub fn submit(&self, cfg: &JoinConfig) -> Result<QueryHandle, JoinError> {
        cfg.validate().map_err(JoinError::Config)?;
        let demand = cfg.cluster.total_hash_memory_bytes();
        let grant = match &self.quota {
            Some(ledger) => Some(
                ledger
                    .reserve(demand, self.cfg.admission_patience)
                    .map_err(|e| JoinError::Admission(e.to_string()))?,
            ),
            None => None,
        };
        let id = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        let run = QueryRun::new(&RunOptions {
            backend: Backend::Threaded,
            trace_level: self.cfg.trace_level,
            metrics: self.cfg.metrics,
            ..RunOptions::default()
        })?;
        let admission = run.admit(&self.executor, &Arc::new(cfg.clone()));
        if let Some(grant) = grant {
            // The grant frees when the query *completes*, not when the
            // caller reaps the handle — a submitter streaming admissions
            // must not be able to wedge the ledger with unreaped handles.
            admission.hold_until_done(Box::new(grant));
        }
        Ok(QueryHandle {
            id,
            admission,
            run,
            cancelled: AtomicBool::new(false),
        })
    }

    /// Cancels a running query: its group quiesces with the documented
    /// stop semantics (enqueued-before delivered, after dropped); other
    /// queries are unaffected. Advisory — a query that completes before
    /// the cancel lands still yields its report.
    pub fn cancel(&self, handle: &QueryHandle) {
        handle.cancelled.store(true, Ordering::Relaxed);
        self.executor.cancel(&handle.admission);
    }

    /// Blocks until the query completes and returns its own report: match
    /// counts, per-query latency, traffic, metrics rollup — all scoped to
    /// this query alone.
    ///
    /// # Errors
    /// [`JoinError::Cancelled`] for a cancelled query,
    /// [`JoinError::Stalled`] / [`JoinError::Protocol`] when the query
    /// quiesced without a report; a query past the deadline is cancelled
    /// and ends `Stalled` with [`ehj_metrics::StopCause::TimeLimit`].
    pub fn wait(&self, handle: QueryHandle) -> Result<JoinReport, JoinError> {
        // Wall total and traffic come from the group's own ledger; the pool
        // keeps no traffic total.
        let end = handle.run.reap(
            &self.executor,
            &handle.admission,
            Some(self.cfg.query_deadline),
            handle.cancelled.load(Ordering::Relaxed),
        );
        handle.run.finish(end)
    }

    /// Submit-and-wait convenience for sequential callers.
    ///
    /// # Errors
    /// See [`JoinService::submit`] and [`JoinService::wait`].
    pub fn run(&self, cfg: &JoinConfig) -> Result<JoinReport, JoinError> {
        let handle = self.submit(cfg)?;
        self.wait(handle)
    }

    /// Stops the workers (running queries are abandoned) and returns the
    /// pool's lifetime executor stats.
    pub fn shutdown(self) -> ehj_sim::ThreadedSummary {
        self.executor.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::reference::expected_matches_for;

    fn quick(algorithm: Algorithm) -> JoinConfig {
        JoinConfig::paper_scaled(algorithm, 1000)
    }

    #[test]
    fn oversized_tenants_are_refused_admission() {
        let cfg = quick(Algorithm::Hybrid);
        let service = JoinService::start(ServiceConfig {
            // One byte short of the query's demand: can never be granted.
            memory_budget_bytes: Some(cfg.cluster.total_hash_memory_bytes() - 1),
            ..ServiceConfig::default()
        });
        let err = service.run(&cfg).unwrap_err();
        assert!(matches!(err, JoinError::Admission(_)), "got {err:?}");
        service.shutdown();
    }

    #[test]
    fn a_bad_distribution_is_refused_and_the_pool_runs_on() {
        // Admitted, it used to panic a worker inside a source's
        // `start_phase` and hang the pool; now `submit` refuses it.
        let service = JoinService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let mut bad = quick(Algorithm::Hybrid);
        bad.r.dist = ehj_data::Distribution::Zipf { theta: 0.0 };
        let err = match service.submit(&bad) {
            Ok(_) => panic!("theta = 0 must not be admitted"),
            Err(e) => e,
        };
        assert!(matches!(err, JoinError::Config(_)), "got {err:?}");
        let cfg = quick(Algorithm::Hybrid);
        let report = service.run(&cfg).expect("the same pool runs a valid query");
        assert_eq!(report.matches, expected_matches_for(&cfg));
        service.shutdown();
    }

    #[test]
    fn service_queries_get_sequential_ids_and_correct_counts() {
        let service = JoinService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let cfg = quick(Algorithm::Split);
        let h1 = service.submit(&cfg).expect("admitted");
        let h2 = service.submit(&cfg).expect("admitted");
        assert_eq!(h1.id, QueryId(0));
        assert_eq!(h2.id, QueryId(1));
        let r1 = service.wait(h1).expect("q0 completes");
        let r2 = service.wait(h2).expect("q1 completes");
        let want = expected_matches_for(&cfg);
        assert_eq!(r1.matches, want);
        assert_eq!(r2.matches, want);
        assert!(r1.times.total_secs > 0.0);
        service.shutdown();
    }

    #[test]
    fn weighted_tenants_share_the_pool_and_keep_their_counts() {
        let service = JoinService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let mut heavy = quick(Algorithm::Split);
        heavy.tenant_weight = 8;
        let light = quick(Algorithm::Replicated);
        let h1 = service.submit(&heavy).expect("admitted");
        let h2 = service.submit(&light).expect("admitted");
        let r1 = service.wait(h1).expect("heavy completes");
        let r2 = service.wait(h2).expect("light completes");
        assert_eq!(r1.matches, expected_matches_for(&heavy));
        assert_eq!(r2.matches, expected_matches_for(&light));
        service.shutdown();
    }

    #[test]
    fn cancel_after_completion_is_advisory() {
        let service = JoinService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let cfg = quick(Algorithm::Replicated);
        let handle = service.submit(&cfg).expect("admitted");
        // Let the query finish, then cancel: the report must survive.
        service.executor.wait(&handle.admission);
        service.cancel(&handle);
        let report = service.wait(handle).expect("completed before cancel");
        assert_eq!(report.matches, expected_matches_for(&cfg));
        service.shutdown();
    }
}
