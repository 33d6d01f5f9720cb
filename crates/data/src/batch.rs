//! Shared, sliceable tuple batches — the unit of data movement.
//!
//! The hot shipping path (source → join node → forwarded node → replicas)
//! used to deep-copy `Vec<Tuple>` at every hop. A [`TupleBatch`] is instead
//! a cheap *view* into an immutable, reference-counted tuple buffer:
//! cloning one (probe fan-out to every replica of a range, re-forwarding a
//! whole batch that routed to a single destination) copies an `Arc` and two
//! integers, never the tuples. Splitting a frozen buffer into fixed-size
//! wire chunks ([`TupleBatch::chunks`]) is equally free.
//!
//! Batches are immutable once frozen; staging buffers stay plain
//! `Vec<Tuple>`s and convert with [`TupleBatch::from`] (zero-copy). When
//! the last view of a buffer drops, a buffer large enough for the
//! [`BufferPool`] goes back to it: a range extract shipped as one batch is
//! the next extract's buffer.

use crate::pool::{BufferPool, MIN_POOLED_BYTES};
use crate::tuple::Tuple;
use std::ops::Deref;
use std::sync::Arc;

/// The paper's chunk granularity: 10 000 tuples per chunk (Figures 4, 11).
/// A data source keeps one buffer per join process and ships it as one
/// chunk when full (§4.1.2).
pub const DEFAULT_CHUNK_TUPLES: usize = 10_000;

/// An immutable, reference-counted slice of tuples.
///
/// Dereferences to `[Tuple]`, so all slice reads work directly. Equality is
/// by contents (two views over different buffers holding the same tuples
/// compare equal), which keeps tests natural.
#[derive(Debug, Clone)]
pub struct TupleBatch {
    buf: Arc<Vec<Tuple>>,
    start: u32,
    len: u32,
}

impl TupleBatch {
    /// An empty batch.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            buf: Arc::new(Vec::new()),
            start: 0,
            len: 0,
        }
    }

    /// Number of tuples in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-view of `self` (panics if out of bounds, like slice
    /// indexing).
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len(), "batch slice out of bounds");
        Self {
            buf: Arc::clone(&self.buf),
            start: self.start + start as u32,
            len: len as u32,
        }
    }

    /// Splits the batch into consecutive zero-copy views of at most
    /// `chunk_tuples` tuples each (an empty batch yields nothing).
    pub fn chunks(&self, chunk_tuples: usize) -> impl Iterator<Item = TupleBatch> + '_ {
        assert!(chunk_tuples > 0, "chunk size must be positive");
        (0..self.len()).step_by(chunk_tuples).map(move |start| {
            let len = chunk_tuples.min(self.len() - start);
            self.slice(start, len)
        })
    }

    /// Copies the viewed tuples into an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.as_slice().to_vec()
    }

    /// The viewed tuples as a plain slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Tuple] {
        &self.buf[self.start as usize..(self.start + self.len) as usize]
    }
}

impl From<Vec<Tuple>> for TupleBatch {
    /// Freezes a staging buffer into a batch without copying the tuples.
    fn from(v: Vec<Tuple>) -> Self {
        let len = v.len() as u32;
        Self {
            buf: Arc::new(v),
            start: 0,
            len,
        }
    }
}

impl Drop for TupleBatch {
    fn drop(&mut self) {
        // Checked first so a small batch never pays `get_mut`'s atomics.
        if self.buf.capacity() * std::mem::size_of::<Tuple>() < MIN_POOLED_BYTES {
            return;
        }
        if let Some(buf) = Arc::get_mut(&mut self.buf) {
            BufferPool::global().give(std::mem::take(buf));
        }
    }
}

impl Deref for TupleBatch {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        self.as_slice()
    }
}

impl PartialEq for TupleBatch {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TupleBatch {}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(n: u64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(i, i * 10)).collect()
    }

    #[test]
    fn from_vec_is_zero_copy_and_deref_works() {
        let v = tuples(5);
        let ptr = v.as_ptr();
        let b = TupleBatch::from(v);
        assert_eq!(b.len(), 5);
        assert_eq!(b.as_ptr(), ptr, "freezing must not copy the buffer");
        assert_eq!(b[3].join_attr, 30);
    }

    #[test]
    fn clones_share_the_buffer() {
        let b = TupleBatch::from(tuples(4));
        let c = b.clone();
        assert_eq!(b.as_ptr(), c.as_ptr());
        assert_eq!(b, c);
    }

    #[test]
    fn chunks_cover_everything_without_copying() {
        let b = TupleBatch::from(tuples(10));
        let chunks: Vec<TupleBatch> = b.chunks(4).collect();
        assert_eq!(
            chunks.iter().map(TupleBatch::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let flat: Vec<Tuple> = chunks.iter().flat_map(|c| c.to_vec()).collect();
        assert_eq!(flat, b.to_vec());
        assert!(chunks.iter().all(|c| c.as_ptr() >= b.as_ptr()));
        assert!(TupleBatch::empty().chunks(4).next().is_none());
    }

    #[test]
    fn equality_is_by_contents() {
        let a = TupleBatch::from(tuples(3));
        let b = TupleBatch::from(tuples(3));
        assert_eq!(a, b);
        assert_ne!(a, a.slice(0, 2));
    }

    #[test]
    fn empty_batch_edge_cases() {
        let e = TupleBatch::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.as_slice(), &[]);
        assert_eq!(e.to_vec(), Vec::<Tuple>::new());
        assert_eq!(e, TupleBatch::from(Vec::new()), "empty views compare equal");
        assert_eq!(e.slice(0, 0).len(), 0, "zero-length slice of empty is fine");
        assert!(e.into_iter().next().is_none());
    }

    #[test]
    fn single_tuple_freeze_round_trips() {
        let b = TupleBatch::from(vec![Tuple::new(7, 42)]);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert_eq!(b[0].join_attr, 42);
        let only: Vec<TupleBatch> = b.chunks(16).collect();
        assert_eq!(only.len(), 1, "one undersized chunk");
        assert_eq!(only[0], b);
        assert_eq!(b.slice(1, 0).len(), 0, "slice at the end is empty");
    }

    #[test]
    fn shared_slice_routes_to_multiple_replicas_without_copying() {
        // Probe fan-out: one frozen batch sliced and cloned to N replicas
        // must stay a single allocation, and dropping all but one replica's
        // view must keep the buffer alive.
        let b = TupleBatch::from(tuples(8));
        let base = b.as_ptr();
        let replicas: Vec<TupleBatch> = (0..3).map(|_| b.slice(2, 4)).collect();
        for r in &replicas {
            assert_eq!(r.as_ptr(), unsafe { base.add(2) }, "views share the buffer");
            assert_eq!(r.to_vec(), b.to_vec()[2..6]);
        }
        let survivor = replicas[1].clone();
        drop(replicas);
        drop(b);
        assert_eq!(survivor.len(), 4);
        assert_eq!(survivor[0].join_attr, 20, "buffer outlives the other views");
    }

    #[test]
    #[should_panic(expected = "batch slice out of bounds")]
    fn out_of_bounds_slice_panics() {
        let _ = TupleBatch::from(tuples(3)).slice(2, 2);
    }
}
