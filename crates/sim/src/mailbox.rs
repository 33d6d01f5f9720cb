//! Unbounded per-actor mailboxes with batch enqueue/dequeue.
//!
//! Each actor of the threaded runtime owns one [`Mailbox`]: a FIFO ring
//! ([`std::collections::VecDeque`]) behind a mutex. A push never blocks
//! and never refuses: the ring grows with what is queued, as a simulated
//! channel does, so every channel is an unbounded FIFO on both backends.
//! Flow control is the protocol's own — the data sources' per-destination
//! credit windows (`CREDIT_CHUNKS` in `ehj-core`'s `source.rs`) bound what
//! a source has in flight, and a join node ships at most what it holds —
//! and no worker ever sleeps inside a send.
//!
//! The ring starts empty and grows with use, so an actor that only ever
//! holds a handful of envelopes (most of a tiny query's 33) never pays for
//! a big one, and [`Mailbox::close`] gives the allocation back.
//!
//! All operations move *batches*: one lock acquisition covers a whole
//! coalesced send buffer on the way in and up to a dequeue budget on the
//! way out, so the per-message locking cost amortizes away exactly like
//! the `TupleBatch` allocation cost did in the shipping path.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A multi-producer / single-consumer batch mailbox.
///
/// "Single consumer" is a scheduling-level property: the executor's actor
/// state machine guarantees at most one worker drains a given mailbox at a
/// time, the mailbox itself is safe under any interleaving.
pub struct Mailbox<T> {
    /// `None` once closed.
    ring: Mutex<Option<VecDeque<T>>>,
}

impl<T> Default for Mailbox<T> {
    /// An open, empty mailbox. Nothing is allocated until the first push.
    fn default() -> Self {
        Self {
            ring: Mutex::new(Some(VecDeque::new())),
        }
    }
}

impl<T> Mailbox<T> {
    /// An open, empty mailbox, as [`Mailbox::default`]. `capacity` is
    /// accepted and ignored: a mailbox is unbounded. The argument stays
    /// because the repository benchmark calls this signature.
    #[must_use]
    pub fn new(_capacity: usize) -> Self {
        Self::default()
    }

    /// Moves every item of `batch` (drained in order) to the tail under
    /// one lock acquisition and returns the queue depth right after it;
    /// a closed mailbox drops them and reports 0.
    pub fn append(&self, batch: &mut Vec<T>) -> usize {
        self.extend(batch.drain(..))
    }

    /// [`Mailbox::append`]. `no_wait` is accepted and ignored: a push
    /// never waits. The argument stays because the repository benchmark
    /// calls this signature.
    pub fn push_batch(&self, batch: &mut Vec<T>, _no_wait: bool) -> usize {
        self.append(batch)
    }

    /// Enqueues one item (a control message such as the stop sentinel).
    pub fn push(&self, item: T) -> usize {
        self.extend(std::iter::once(item))
    }

    fn extend(&self, items: impl Iterator<Item = T>) -> usize {
        match self.ring.lock().expect("mailbox lock").as_mut() {
            Some(ring) => {
                ring.extend(items);
                ring.len()
            }
            None => 0,
        }
    }

    /// Moves up to `max` items into `out` (appended in FIFO order).
    /// Returns how many were moved.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut ring = self.ring.lock().expect("mailbox lock");
        let Some(ring) = ring.as_mut() else { return 0 };
        let n = ring.len().min(max);
        out.extend(ring.drain(..n));
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
        if let Some(ring) = self.ring.lock().expect("mailbox lock").as_mut() {
            for item in items {
                ring.push_front(item);
            }
        }
    }

    /// Whether any items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring
            .lock()
            .expect("mailbox lock")
            .as_ref()
            .is_none_or(VecDeque::is_empty)
    }

    /// Drops everything queued and the ring's allocation, and marks the
    /// mailbox closed: future pushes are silently discarded.
    pub fn close(&self) {
        *self.ring.lock().expect("mailbox lock") = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_push_pop_preserves_fifo() {
        let mb = Mailbox::default();
        let mut batch: Vec<u32> = (0..10).collect();
        assert_eq!(mb.append(&mut batch), 10, "the post-push depth");
        assert!(batch.is_empty(), "push drains the input batch");
        let mut more: Vec<u32> = (10..14).collect();
        assert_eq!(mb.append(&mut more), 14);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 8), 8);
        assert_eq!(mb.pop_batch(&mut out, 100), 6);
        assert_eq!(out, (0..14).collect::<Vec<u32>>());
    }

    #[test]
    fn a_fresh_mailbox_holds_no_ring_until_its_first_push() {
        let ring_capacity = |mb: &Mailbox<u32>| {
            let ring = mb.ring.lock().expect("mailbox lock");
            ring.as_ref().map_or(0, VecDeque::capacity)
        };
        let mb = Mailbox::default();
        assert_eq!(ring_capacity(&mb), 0, "nothing until a push");
        let mut batch: Vec<u32> = (0..10).collect();
        mb.append(&mut batch);
        let grown = ring_capacity(&mb);
        assert!((10..1024).contains(&grown), "sized to use: {grown}");
        mb.close();
        assert_eq!(ring_capacity(&mb), 0, "and given back at close");
    }

    #[test]
    fn requeue_front_restores_fifo_order() {
        let mb = Mailbox::default();
        let mut batch: Vec<u32> = (0..8).collect();
        mb.append(&mut batch);
        let mut out = Vec::new();
        mb.pop_batch(&mut out, 8);
        // Consumer processed 0..3, got preempted, hands 3..8 back.
        let leftover: Vec<u32> = out.split_off(3);
        mb.requeue_front(leftover);
        let mut more = vec![8u32, 9];
        mb.append(&mut more);
        let mut rest = Vec::new();
        mb.pop_batch(&mut rest, 100);
        assert_eq!(rest, (3..10).collect::<Vec<u32>>());
    }

    #[test]
    fn requeue_front_on_closed_mailbox_drops() {
        let mb = Mailbox::default();
        mb.close();
        mb.requeue_front(vec![1u32, 2]);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 10), 0);
    }

    #[test]
    fn closed_mailbox_drops_pushes() {
        let mb = Mailbox::default();
        let mut batch = vec![1u32];
        mb.append(&mut batch);
        mb.close();
        let mut late = vec![2u32, 3];
        assert_eq!(mb.append(&mut late), 0);
        assert!(late.is_empty(), "push consumed (and discarded) the batch");
        assert_eq!(mb.push(4), 0);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(&mut out, 10), 0, "close discards the queue");
    }
}
