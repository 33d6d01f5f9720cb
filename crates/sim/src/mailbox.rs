//! Bounded per-actor mailboxes with batch enqueue/dequeue.
//!
//! Each actor of the threaded runtime owns one [`Mailbox`]: a bounded
//! ring buffer ([`std::collections::VecDeque`]) guarded by a mutex, with a
//! condition variable for producer-side backpressure. Producers that find
//! the ring at capacity **park with wakeup** (bounded waits on the
//! condvar) instead of growing the queue; only after
//! `BACKPRESSURE_ROUNDS` expired waits — or once the engine is shutting
//! down — does a push overflow the bound, which keeps cyclic actor
//! topologies live (a worker blocked forever on a peer that is itself
//! blocked sending back would deadlock the pool). Overflows are counted
//! and surface in the executor statistics; in a healthy run they are zero
//! and mailbox memory is bounded by `capacity`.
//!
//! `capacity` is a *logical* bound, not an allocation: the ring starts
//! empty and grows with what is actually queued, so an actor that only
//! ever holds a handful of envelopes (most of a tiny query's 33) never
//! pays for the ~120 KB a full 1024-envelope ring would take.
//!
//! All operations move *batches*: one lock acquisition covers a whole
//! coalesced send buffer on the way in and up to a dequeue budget on the
//! way out, so the per-message locking cost amortizes away exactly like
//! the `TupleBatch` allocation cost did in the shipping path. The
//! consumer side makes no system call unless a producer is really parked:
//! parked producers count themselves under the lock, and
//! [`Mailbox::pop_batch`] notifies only when that count is non-zero
//! (`Condvar::notify_all` is a `futex` call whether or not anyone waits).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long one backpressure park waits before re-checking.
const BACKPRESSURE_WAIT: Duration = Duration::from_micros(500);

/// How many expired parks a producer tolerates before overflowing the
/// bound. Bounded so that producer/consumer cycles cannot deadlock.
const BACKPRESSURE_ROUNDS: u32 = 4;

/// What one batch push observed (feeds the executor counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushReport {
    /// The queue was empty before this push (the consumer may need a
    /// wakeup / scheduling).
    pub was_empty: bool,
    /// Times the producer parked on the not-full condvar.
    pub parks: u64,
    /// Items enqueued past the capacity bound (liveness escape).
    pub overflows: u64,
    /// Queue depth right after this push (feeds the depth histogram
    /// without a second lock acquisition).
    pub depth: usize,
}

struct Inner<T> {
    ring: VecDeque<T>,
    /// Messages are dropped instead of enqueued once closed (dead actor).
    closed: bool,
    /// Producers parked on `not_full` right now.
    waiters: usize,
}

/// A bounded multi-producer / single-consumer batch mailbox.
///
/// "Single consumer" is a scheduling-level property: the executor's actor
/// state machine guarantees at most one worker drains a given mailbox at a
/// time, the mailbox itself is safe under any interleaving.
pub struct Mailbox<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    capacity: usize,
}

impl<T> Mailbox<T> {
    /// Creates a mailbox bounded at `capacity` items (minimum 1). Nothing
    /// is allocated until the first push.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                closed: false,
                waiters: 0,
            }),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues every item of `batch` (drained in order) under one lock
    /// acquisition, parking while the ring is full. `no_wait` skips the
    /// backpressure parks entirely (self-sends and shutdown paths must not
    /// stall the calling worker).
    pub fn push_batch(&self, batch: &mut Vec<T>, no_wait: bool) -> PushReport {
        self.push_batch_or(batch, || no_wait)
    }

    /// [`Mailbox::push_batch`] for a caller whose `no_wait` is costly to
    /// work out: it is asked at most once, and only when `batch` does not
    /// fit. It runs under this mailbox's lock and must not touch the
    /// mailbox.
    pub(crate) fn push_batch_or(
        &self,
        batch: &mut Vec<T>,
        no_wait: impl FnOnce() -> bool,
    ) -> PushReport {
        self.push(batch.drain(..), no_wait)
    }

    /// Enqueues one item, never parking (control messages such as the stop
    /// sentinel must always get through).
    pub fn push_control(&self, item: T) -> PushReport {
        self.push(std::iter::once(item), || true)
    }

    /// The one enqueue path: appends `items` (dropped instead once the
    /// mailbox is closed), parking first while they do not fit unless
    /// `no_wait` says otherwise, and counts those that land past the bound.
    fn push(
        &self,
        items: impl ExactSizeIterator<Item = T>,
        no_wait: impl FnOnce() -> bool,
    ) -> PushReport {
        let mut report = PushReport::default();
        let mut inner = self.inner.lock().expect("mailbox lock");
        if inner.closed {
            return report;
        }
        report.was_empty = inner.ring.is_empty();
        if inner.ring.len() + items.len() > self.capacity && !no_wait() {
            let mut rounds = 0u32;
            while inner.ring.len() + items.len() > self.capacity && rounds < BACKPRESSURE_ROUNDS {
                inner.waiters += 1;
                let (guard, timeout) = self
                    .not_full
                    .wait_timeout(inner, BACKPRESSURE_WAIT)
                    .expect("mailbox lock");
                inner = guard;
                inner.waiters -= 1;
                report.parks += 1;
                if inner.closed {
                    return report;
                }
                if timeout.timed_out() {
                    rounds += 1;
                }
            }
            // The consumer may have fully drained us while we parked.
            report.was_empty = inner.ring.is_empty();
        }
        report.overflows = (inner.ring.len() + items.len())
            .saturating_sub(self.capacity.max(inner.ring.len())) as u64;
        inner.ring.extend(items);
        report.depth = inner.ring.len();
        report
    }

    /// Moves up to `max` items into `out` (appended in FIFO order) and
    /// wakes parked producers, if there are any. Returns how many were
    /// moved.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut inner = self.inner.lock().expect("mailbox lock");
        let n = inner.ring.len().min(max);
        out.extend(inner.ring.drain(..n));
        if n > 0 && inner.waiters > 0 {
            self.not_full.notify_all();
        }
        n
    }

    /// Returns already-popped items to the *front* of the queue, preserving
    /// their original order. Only the single consumer calls this (to hand
    /// back the unprocessed tail of a dequeue batch when it is preempted
    /// mid-batch), and producers only ever append — so FIFO order is
    /// preserved end to end. Items are dropped if the mailbox closed while
    /// they were checked out, exactly like a late push.
    pub fn requeue_front<I>(&self, items: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut items = items.into_iter().rev().peekable();
        if items.peek().is_none() {
            return;
        }
        let mut inner = self.inner.lock().expect("mailbox lock");
        if inner.closed {
            return;
        }
        for item in items {
            inner.ring.push_front(item);
        }
    }

    /// Whether any items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("mailbox lock").ring.is_empty()
    }

    /// Drops everything queued and the ring's allocation, marks the
    /// mailbox closed (future pushes are silently discarded) and frees
    /// parked producers.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("mailbox lock");
        inner.ring = VecDeque::new();
        inner.closed = true;
        if inner.waiters > 0 {
            self.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn batch_push_pop_preserves_fifo() {
        let mb = Mailbox::new(16);
        let mut batch: Vec<u32> = (0..10).collect();
        let report = mb.push_batch(&mut batch, false);
        assert!(report.was_empty);
        assert_eq!(report.depth, 10, "depth is the post-push queue length");
        assert!(batch.is_empty(), "push drains the input batch");
        let mut more: Vec<u32> = (10..14).collect();
        assert!(!mb.push_batch(&mut more, false).was_empty);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 8), 8);
        assert_eq!(mb.pop_batch(&mut out, 100), 6);
        assert_eq!(out, (0..14).collect::<Vec<u32>>());
    }

    #[test]
    fn a_fresh_mailbox_holds_no_ring_until_its_first_push() {
        let ring_capacity =
            |mb: &Mailbox<u32>| mb.inner.lock().expect("mailbox lock").ring.capacity();
        let mb = Mailbox::new(1024);
        assert_eq!(ring_capacity(&mb), 0, "the bound is not an allocation");
        let mut batch: Vec<u32> = (0..10).collect();
        mb.push_batch(&mut batch, false);
        let grown = ring_capacity(&mb);
        assert!((10..1024).contains(&grown), "sized to use: {grown}");
        mb.close();
        assert_eq!(ring_capacity(&mb), 0, "and given back at close");
    }

    #[test]
    fn full_mailbox_parks_then_overflows() {
        let mb = Mailbox::new(2);
        let mut batch = vec![1u32, 2, 3, 4];
        let report = mb.push_batch(&mut batch, false);
        assert!(report.parks >= 1, "must have parked before overflowing");
        assert!(report.overflows > 0, "bound exceeded is counted");
        assert_eq!(
            mb.inner.lock().expect("mailbox lock").waiters,
            0,
            "a producer that gave up waiting is not owed a wakeup"
        );
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 100), 4, "liveness: nothing lost");
    }

    #[test]
    fn no_wait_push_skips_backpressure() {
        let mb = Mailbox::new(1);
        let mut batch = vec![1u32, 2];
        let report = mb.push_batch(&mut batch, true);
        assert_eq!(report.parks, 0);
        assert!(report.overflows > 0);
    }

    #[test]
    fn no_wait_is_asked_only_when_the_batch_does_not_fit() {
        let mb = Mailbox::new(4);
        let mut batch = vec![1u32, 2];
        mb.push_batch_or(&mut batch, || panic!("there is room"));
        let mut asked = false;
        let mut batch = vec![3u32, 4, 5];
        let report = mb.push_batch_or(&mut batch, || {
            asked = true;
            true
        });
        assert!(asked);
        assert_eq!((report.parks, report.overflows, report.depth), (0, 1, 5));
    }

    #[test]
    fn push_control_never_parks_and_counts_its_overflow() {
        let mb = Mailbox::new(1);
        assert_eq!(mb.push_control(7u32).overflows, 0);
        let report = mb.push_control(8);
        assert_eq!((report.parks, report.overflows, report.depth), (0, 1, 2));
        mb.close();
        assert_eq!(mb.push_control(9), PushReport::default(), "dropped");
    }

    #[test]
    fn parked_producer_wakes_when_consumer_drains() {
        let mb = Arc::new(Mailbox::new(4));
        let mut batch: Vec<u32> = (0..4).collect();
        mb.push_batch(&mut batch, false);
        let producer = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                let mut batch = vec![9u32];
                mb.push_batch(&mut batch, false)
            })
        };
        std::thread::sleep(Duration::from_micros(200));
        let mut out = Vec::new();
        mb.pop_batch(&mut out, 4);
        // Whether the producer woke in time or took the overflow escape is
        // timing-dependent; the deterministic property is no loss.
        let _ = producer.join().expect("producer");
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 10), 1);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn requeue_front_restores_fifo_order() {
        let mb = Mailbox::new(16);
        let mut batch: Vec<u32> = (0..8).collect();
        mb.push_batch(&mut batch, false);
        let mut out = Vec::new();
        mb.pop_batch(&mut out, 8);
        // Consumer processed 0..3, got preempted, hands 3..8 back.
        let leftover: Vec<u32> = out.split_off(3);
        mb.requeue_front(leftover);
        let mut more = vec![8u32, 9];
        mb.push_batch(&mut more, false);
        let mut rest = Vec::new();
        mb.pop_batch(&mut rest, 100);
        assert_eq!(rest, (3..10).collect::<Vec<u32>>());
    }

    #[test]
    fn requeue_front_on_closed_mailbox_drops() {
        let mb = Mailbox::new(4);
        mb.close();
        mb.requeue_front(vec![1u32, 2]);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 10), 0);
    }

    #[test]
    fn closed_mailbox_drops_pushes() {
        let mb = Mailbox::new(4);
        let mut batch = vec![1u32];
        mb.push_batch(&mut batch, false);
        mb.close();
        let mut late = vec![2u32, 3];
        let report = mb.push_batch(&mut late, false);
        assert!(late.is_empty(), "push consumed (and discarded) the batch");
        assert_eq!(report.overflows, 0);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 10), 0, "close discards the queue");
    }
}
