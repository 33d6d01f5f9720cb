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
//! * **Namespacing** — every admitted query gets a dense, disjoint actor-id
//!   block ([`crate::Topology::with_base`]), so concurrent schedulers,
//!   sources and join nodes coexist without id collisions, and a query's
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
//! For the deterministic backend, [`JoinService::run_interleaved`] runs a
//! batch of queries *interleaved in one simulation* — per-actor NIC, CPU
//! and disk state means disjoint queries do not contend in the cost model,
//! and per-group accounting reproduces each query's standalone report
//! byte for byte (the service-suite test pins this).

use crate::config::JoinConfig;
use crate::report::JoinReport;
use crate::runner::{run_simulated, Backend, JoinError, QueryRun, RunEnd, RunOptions};
use ehj_cluster::{QuotaError, QuotaGrant, QuotaLedger};
use ehj_metrics::registry::names;
use ehj_metrics::{Histogram, MetricsRegistry, TraceLevel};
use ehj_sim::{Admission, Executor, ExecutorConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// Bounded mailbox capacity per actor.
    pub mailbox_capacity: usize,
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
    /// Latency-targeted admission: refuse (after the admission patience)
    /// submissions whose predicted completion latency — the service's
    /// observed p99 scaled by the post-admission inflight-to-worker ratio
    /// — would exceed this budget. `None` admits on quota alone.
    pub latency_budget: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            mailbox_capacity: 1024,
            memory_budget_bytes: None,
            admission_patience: Duration::from_secs(30),
            query_deadline: Duration::from_secs(120),
            trace_level: TraceLevel::Summary,
            metrics: true,
            latency_budget: None,
        }
    }
}

/// Handle to one admitted query: pass it to [`JoinService::wait`] to
/// collect the query's own [`JoinReport`], or to [`JoinService::cancel`]
/// to quiesce it early.
pub struct QueryHandle {
    /// The query's id (dense, in admission order).
    pub id: QueryId,
    /// First actor id of the query's block (its scheduler).
    pub base_actor: u32,
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
    /// Query-latency histogram feeding latency-targeted admission, minted
    /// from a service-scoped registry (per-query registries stay separate).
    latency: Histogram,
    /// Admitted-but-unfinished query count plus the condvar completions
    /// signal, so a gated submission can re-evaluate its prediction.
    inflight: Arc<(Mutex<usize>, Condvar)>,
}

/// Holds one slot of the service's inflight count for a query's lifetime;
/// dropping it (when the query's group retires) decrements the count and
/// wakes submissions parked on the latency gate.
struct InflightGuard {
    inflight: Arc<(Mutex<usize>, Condvar)>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let (lock, cv) = &*self.inflight;
        let mut count = lock.lock().expect("inflight gate");
        *count = count.saturating_sub(1);
        cv.notify_all();
    }
}

impl JoinService {
    /// Starts the service's executor pool. Workers park while no query is
    /// running.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Self {
        let exec_cfg = ExecutorConfig {
            workers: cfg.workers,
            mailbox_capacity: cfg.mailbox_capacity,
        };
        // Worker-level instruments would mix tenants; per-query registries
        // carry the meaningful (join-side) metrics instead.
        let executor = Executor::start(&exec_cfg, &MetricsRegistry::disabled());
        let quota = cfg.memory_budget_bytes.map(QuotaLedger::new);
        let latency = MetricsRegistry::new()
            .handle()
            .histogram(names::SERVICE_QUERY_LATENCY_NS);
        Self {
            executor,
            quota,
            cfg,
            next_query: AtomicU64::new(0),
            latency,
            inflight: Arc::new((Mutex::new(0), Condvar::new())),
        }
    }

    /// Worker threads in the shared pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// The service's observed p99 query latency scaled by what the
    /// inflight-to-worker ratio would become if one more query were
    /// admitted — the load model behind latency-targeted admission. Zero
    /// until the first query completes (a cold service admits freely).
    fn predicted_latency_ns(&self, inflight: usize) -> u64 {
        let snap = self.latency.snapshot();
        if snap.count == 0 {
            return 0;
        }
        let p99 = snap.percentile(99.0);
        let workers = self.executor.workers().max(1);
        let load = ((inflight + 1) as f64 / workers as f64).max(1.0);
        (p99 as f64 * load) as u64
    }

    /// Latency-targeted admission: holds the submission until its
    /// predicted latency fits the budget *and* the memory quota is free
    /// (probed without parking, so the prediction is re-evaluated on
    /// every wakeup), or until the admission patience expires.
    fn admit_latency_gated(
        &self,
        demand: u64,
        budget: Duration,
    ) -> Result<(Option<QuotaGrant>, InflightGuard), JoinError> {
        let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
        let deadline = Instant::now() + self.cfg.admission_patience;
        let (lock, cv) = &*self.inflight;
        let mut count = lock.lock().expect("inflight gate");
        loop {
            let predicted = self.predicted_latency_ns(*count);
            if predicted <= budget_ns {
                let grant = match &self.quota {
                    None => None,
                    Some(ledger) => match ledger.try_reserve(demand) {
                        Ok(grant) => Some(grant),
                        Err(e @ QuotaError::Oversized { .. }) => {
                            return Err(JoinError::Admission(e.to_string()));
                        }
                        Err(QuotaError::TimedOut { .. }) => {
                            // Quota held by running queries: park below and
                            // re-probe when a completion signals the gate.
                            let left = deadline.saturating_duration_since(Instant::now());
                            if left.is_zero() {
                                return Err(JoinError::Admission(format!(
                                    "timed out waiting for {demand} bytes under a latency gate"
                                )));
                            }
                            let (guard, _timeout) =
                                cv.wait_timeout(count, left).expect("inflight gate");
                            count = guard;
                            continue;
                        }
                    },
                };
                *count += 1;
                return Ok((
                    grant,
                    InflightGuard {
                        inflight: Arc::clone(&self.inflight),
                    },
                ));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(JoinError::Admission(format!(
                    "predicted p99 of {predicted}ns exceeds the {budget_ns}ns latency budget \
                     ({count} queries inflight on {} workers)",
                    self.executor.workers()
                )));
            }
            let (guard, _timeout) = cv.wait_timeout(count, left).expect("inflight gate");
            count = guard;
        }
    }

    /// Admits one query: validates its configuration, reserves its memory
    /// quota (blocking up to the admission patience), and starts its
    /// actors on the shared executor with the configuration's scheduling
    /// weight. Returns immediately after admission; the query runs
    /// concurrently with every other admitted query.
    ///
    /// With a [`ServiceConfig::latency_budget`] set, admission also
    /// requires the predicted post-admission p99 to fit the budget; the
    /// submission waits (up to the patience) for running queries to
    /// finish, then is refused.
    ///
    /// # Errors
    /// [`JoinError::Config`] on validation failure, [`JoinError::Admission`]
    /// when the quota cannot be reserved or the latency budget would be
    /// blown.
    pub fn submit(&self, cfg: &JoinConfig) -> Result<QueryHandle, JoinError> {
        cfg.validate().map_err(JoinError::Config)?;
        let demand = cfg.cluster.total_hash_memory_bytes();
        let (grant, inflight) = match self.cfg.latency_budget {
            Some(budget) => {
                let (grant, guard) = self.admit_latency_gated(demand, budget)?;
                (grant, Some(guard))
            }
            None => {
                let grant = match &self.quota {
                    Some(ledger) => Some(
                        ledger
                            .reserve(demand, self.cfg.admission_patience)
                            .map_err(|e| JoinError::Admission(e.to_string()))?,
                    ),
                    None => None,
                };
                (grant, None)
            }
        };
        let id = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        let run = QueryRun::new(&RunOptions {
            backend: Backend::Threaded,
            trace_level: self.cfg.trace_level,
            metrics: self.cfg.metrics,
            ..RunOptions::default()
        })?;
        let admission = run.admit(
            &self.executor,
            &Arc::new(cfg.clone()),
            self.cfg.mailbox_capacity,
        );
        if grant.is_some() || inflight.is_some() {
            // The grant (and inflight slot) frees when the query
            // *completes*, not when the caller reaps the handle — a
            // submitter streaming admissions must not be able to wedge the
            // ledger (or the latency gate) with unreaped handles.
            admission.hold_until_done(Box::new((grant, inflight)));
        }
        Ok(QueryHandle {
            id,
            base_actor: admission.base,
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
    /// quiesced without a report (the deadline cancels it first).
    pub fn wait(&self, handle: QueryHandle) -> Result<JoinReport, JoinError> {
        let deadline = Some(self.cfg.query_deadline);
        let outcome = handle
            .run
            .reap(&self.executor, &handle.admission, deadline)?;
        // Wall total and traffic come from the group's own ledger (wire
        // bytes charged per send, self-sends included), not pool totals.
        let end = RunEnd::of_group(&outcome, handle.cancelled.load(Ordering::Relaxed));
        // Feed the admission gate's latency estimate — every completed
        // query counts, reaped or cancelled alike.
        self.latency.record(end.at_nanos);
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
    /// pool's lifetime totals.
    pub fn shutdown(self) -> ehj_sim::ThreadedSummary {
        self.executor.shutdown()
    }

    /// Runs a batch of queries **interleaved in one deterministic
    /// simulation**: every query's actors are registered up front in
    /// disjoint id blocks (one engine group per query), the event loop
    /// interleaves them, and per-group accounting gives each query a
    /// report identical to what it would get running alone — per-actor
    /// NIC/CPU/disk state means disjoint queries never contend in the
    /// cost model, and relative event order within a query is preserved.
    ///
    /// All queries must share the same net/disk cost model (they model
    /// one cluster).
    ///
    /// # Errors
    /// An outer [`JoinError::Config`] for an invalid or incompatible
    /// batch; per-query errors are returned in the corresponding slot.
    pub fn run_interleaved(
        cfgs: &[JoinConfig],
    ) -> Result<Vec<Result<JoinReport, JoinError>>, JoinError> {
        run_simulated(cfgs, &RunOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::reference::expected_matches_for;
    use ehj_sim::SimTime;

    fn quick(algorithm: Algorithm) -> JoinConfig {
        JoinConfig::paper_scaled(algorithm, 1000)
    }

    #[test]
    fn empty_interleaved_batch_is_fine() {
        let out = JoinService::run_interleaved(&[]).expect("empty batch");
        assert!(out.is_empty());
    }

    #[test]
    fn interleaved_batch_must_share_the_cost_model() {
        let a = quick(Algorithm::Split);
        let mut b = quick(Algorithm::Replicated);
        b.net.latency = SimTime::from_millis(42);
        let err = JoinService::run_interleaved(&[a, b]).unwrap_err();
        assert!(matches!(err, JoinError::Config(_)), "got {err:?}");
    }

    #[test]
    fn interleaved_queries_each_produce_their_own_report() {
        let cfgs = [quick(Algorithm::Split), quick(Algorithm::Replicated)];
        let reports = JoinService::run_interleaved(&cfgs).expect("batch runs");
        assert_eq!(reports.len(), 2);
        for (cfg, report) in cfgs.iter().zip(&reports) {
            let report = report.as_ref().expect("query completed");
            assert_eq!(report.algorithm, cfg.algorithm);
            assert_eq!(report.matches, expected_matches_for(cfg));
            assert!(report.sim_events > 0);
            assert!(report.net_bytes > 0);
        }
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
        assert_ne!(h1.base_actor, h2.base_actor, "disjoint id blocks");
        let r1 = service.wait(h1).expect("q0 completes");
        let r2 = service.wait(h2).expect("q1 completes");
        let want = expected_matches_for(&cfg);
        assert_eq!(r1.matches, want);
        assert_eq!(r2.matches, want);
        assert!(r1.times.total_secs > 0.0);
        service.shutdown();
    }

    #[test]
    fn latency_budget_refuses_once_observed_p99_exceeds_it() {
        let service = JoinService::start(ServiceConfig {
            workers: 2,
            // One nanosecond: any real completion blows it.
            latency_budget: Some(Duration::from_nanos(1)),
            admission_patience: Duration::from_millis(50),
            ..ServiceConfig::default()
        });
        let cfg = quick(Algorithm::Hybrid);
        // A cold service has no latency samples yet, so the first query
        // admits freely and seeds the estimate.
        let first = service.run(&cfg).expect("cold service admits");
        assert_eq!(first.matches, expected_matches_for(&cfg));
        // Now the observed p99 is a real (multi-microsecond) latency, far
        // over the 1ns budget: the gate must refuse after the patience.
        let err = match service.submit(&cfg) {
            Ok(_) => panic!("hot service must refuse under a 1ns budget"),
            Err(e) => e,
        };
        let JoinError::Admission(msg) = err else {
            panic!("expected admission refusal, got {err:?}");
        };
        assert!(msg.contains("latency budget"), "unexpected message: {msg}");
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
        heavy.probe_slice = 64;
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
