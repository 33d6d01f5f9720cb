//! Memory-quota arbitration for the multi-tenant join service.
//!
//! One executor hosts many concurrent queries, but the machine's hash
//! memory is finite. The service gives each query a quota equal to the
//! hash memory its [`crate::ClusterSpec`] declares, and admits it only
//! when the ledger can cover that demand; otherwise the submission blocks
//! until running queries finish and release their grants. This is the
//! service-level analogue of the paper's scheduler book: the book
//! arbitrates node memory *within* one join, the ledger arbitrates total
//! memory *across* joins.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct LedgerState {
    budget: u64,
    reserved: u64,
}

/// A shared memory ledger. Clones share the same budget; reservations
/// block until enough is free (or a timeout expires) and are released by
/// dropping the [`QuotaGrant`].
#[derive(Clone)]
pub struct QuotaLedger {
    inner: Arc<(Mutex<LedgerState>, Condvar)>,
}

/// Why a reservation could not be granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaError {
    /// The demand exceeds the whole budget: it can never be granted, no
    /// matter how many queries finish first.
    Oversized {
        /// Bytes requested.
        demand: u64,
        /// The ledger's total budget.
        budget: u64,
    },
    /// The demand is satisfiable but enough memory did not free up within
    /// the caller's patience.
    TimedOut {
        /// Bytes requested.
        demand: u64,
        /// Bytes still reserved by running queries when time ran out.
        reserved: u64,
    },
}

impl std::fmt::Display for QuotaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oversized { demand, budget } => write!(
                f,
                "query demands {demand} bytes of hash memory, service budget is {budget}"
            ),
            Self::TimedOut { demand, reserved } => write!(
                f,
                "timed out waiting for {demand} bytes ({reserved} still reserved)"
            ),
        }
    }
}

impl std::error::Error for QuotaError {}

impl QuotaLedger {
    /// A ledger over `budget_bytes` of total hash memory.
    #[must_use]
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            inner: Arc::new((
                Mutex::new(LedgerState {
                    budget: budget_bytes,
                    reserved: 0,
                }),
                Condvar::new(),
            )),
        }
    }

    /// Bytes currently reserved by admitted queries.
    #[must_use]
    pub fn reserved(&self) -> u64 {
        self.inner.0.lock().expect("quota ledger").reserved
    }

    /// Reserves `demand` bytes, blocking up to `patience` for running
    /// queries to release theirs. An oversized demand fails immediately —
    /// waiting could never help.
    ///
    /// # Errors
    /// [`QuotaError::Oversized`] or [`QuotaError::TimedOut`].
    pub fn reserve(&self, demand: u64, patience: Duration) -> Result<QuotaGrant, QuotaError> {
        let (lock, cv) = &*self.inner;
        let deadline = Instant::now() + patience;
        let mut state = lock.lock().expect("quota ledger");
        if demand > state.budget {
            return Err(QuotaError::Oversized {
                demand,
                budget: state.budget,
            });
        }
        while state.reserved + demand > state.budget {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(QuotaError::TimedOut {
                    demand,
                    reserved: state.reserved,
                });
            }
            let (guard, _timeout) = cv.wait_timeout(state, left).expect("quota ledger");
            state = guard;
        }
        state.reserved += demand;
        Ok(QuotaGrant {
            ledger: self.clone(),
            bytes: demand,
        })
    }
}

/// An admitted query's reservation; dropping it releases the bytes and
/// wakes blocked submissions.
pub struct QuotaGrant {
    ledger: QuotaLedger,
    bytes: u64,
}

impl QuotaGrant {
    /// Bytes this grant holds.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Debug for QuotaGrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuotaGrant")
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl Drop for QuotaGrant {
    fn drop(&mut self) {
        let (lock, cv) = &*self.ledger.inner;
        let mut state = lock.lock().expect("quota ledger");
        state.reserved = state.reserved.saturating_sub(self.bytes);
        cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn grants_release_on_drop_and_unblock_waiters() {
        let ledger = QuotaLedger::new(100);
        let g1 = ledger.reserve(70, Duration::ZERO).expect("fits");
        assert_eq!(ledger.reserved(), 70);
        // Does not fit while g1 is live.
        assert!(matches!(
            ledger.reserve(40, Duration::from_millis(5)),
            Err(QuotaError::TimedOut { .. })
        ));
        let waiter = {
            let ledger = ledger.clone();
            thread::spawn(move || ledger.reserve(40, Duration::from_secs(10)))
        };
        drop(g1);
        let g2 = waiter
            .join()
            .expect("no panic")
            .expect("granted after release");
        assert_eq!(g2.bytes(), 40);
        assert_eq!(ledger.reserved(), 40);
    }

    #[test]
    fn oversized_demands_fail_fast() {
        let ledger = QuotaLedger::new(100);
        let err = ledger.reserve(101, Duration::from_secs(60)).unwrap_err();
        assert_eq!(
            err,
            QuotaError::Oversized {
                demand: 101,
                budget: 100
            }
        );
        assert_eq!(ledger.reserved(), 0, "nothing was held");
    }
}
