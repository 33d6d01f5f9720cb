//! A process-wide pool of large vector buffers.
//!
//! glibc serves a request of 128 KB or more (its initial mmap threshold)
//! with a fresh `mmap` and unmaps it on free, so every page of it faults in
//! again on the next request. A join grows tens of megabytes of such
//! buffers per query: table arenas, `order()`'s sorted copies, range
//! extracts, spill reads. Whether a query paid those faults used to rest on
//! an accident: once anything in the process freed a large mapped block,
//! glibc raised its threshold to that size and from then on kept freed
//! memory in its heap. A [`BufferPool`] makes the join own the buffers
//! instead: a buffer that would grow goes through [`BufferPool::reserve`],
//! which takes the bigger buffer from the pool and gives the old one back,
//! and a finished buffer goes back through [`BufferPool::give`].
//!
//! The pool keeps only buffers of [`MIN_POOLED_BYTES`] or more, hands out
//! the smallest one that fits, always empty, and holds at most its byte cap
//! idle; anything else is dropped as before. Below the size floor
//! [`BufferPool::reserve`] is `Vec`'s own growth, so small tables behave
//! exactly as they did.

use crate::tuple::Tuple;
use std::sync::{Mutex, PoisonError};

/// Smallest buffer the pool keeps, in bytes: twice glibc's initial mmap
/// threshold, so every kept buffer is one the allocator would otherwise
/// map and unmap whole.
pub const MIN_POOLED_BYTES: usize = 256 * 1024;

/// Bytes the process-wide pool holds idle at most.
///
/// Sized on the benchmark's `expand-*` workloads (paper / 5, 16 nodes, 2
/// workers, 2 cores). Unbounded, the idle pool grows to 95–115 MB over a
/// 10 s run of `expand-split` or `expand-hybrid`: a request that misses
/// allocates while buffers of other sizes sit idle. At the cap every
/// further buffer is freed, and glibc, seeing a large mapped block freed,
/// raises its mmap threshold and starts keeping freed memory in its heap.
/// `expand-split`'s `peak_rss_mb` read 105–114 at a 32 or 64 MiB cap (4 s
/// runs), 87–100 at 96 MiB and 76–82 at 128 MiB (10 s runs), with
/// `tuples_per_s` within noise at every cap.
pub const POOL_CAP_BYTES: usize = 128 << 20;

/// Element types the pool keeps buffers of.
pub trait Pooled: sealed::Shelved {}

impl Pooled for Tuple {}
impl Pooled for u32 {}

mod sealed {
    use crate::tuple::Tuple;

    /// Idle buffers, each shelf sorted by capacity, and their total bytes.
    #[derive(Debug)]
    pub struct Shelves {
        pub tuples: Vec<Vec<Tuple>>,
        pub positions: Vec<Vec<u32>>,
        pub bytes: usize,
    }

    pub trait Shelved: Copy + Sized {
        fn shelf(shelves: &mut Shelves) -> &mut Vec<Vec<Self>>;
    }

    impl Shelved for Tuple {
        fn shelf(shelves: &mut Shelves) -> &mut Vec<Vec<Self>> {
            &mut shelves.tuples
        }
    }

    impl Shelved for u32 {
        fn shelf(shelves: &mut Shelves) -> &mut Vec<Vec<Self>> {
            &mut shelves.positions
        }
    }
}

/// Bytes of a buffer of `capacity` elements of `T`.
fn bytes_of<T>(capacity: usize) -> usize {
    capacity.saturating_mul(std::mem::size_of::<T>())
}

/// A bounded pool of large, empty `Vec<Tuple>` and `Vec<u32>` buffers (see
/// the module docs). [`BufferPool::global`] is the one the engine uses.
#[derive(Debug)]
pub struct BufferPool {
    shelves: Mutex<sealed::Shelves>,
    cap_bytes: usize,
}

static GLOBAL: BufferPool = BufferPool::new(POOL_CAP_BYTES);

impl BufferPool {
    /// An empty pool that holds at most `cap_bytes` idle.
    #[must_use]
    pub const fn new(cap_bytes: usize) -> Self {
        Self {
            shelves: Mutex::new(sealed::Shelves {
                tuples: Vec::new(),
                positions: Vec::new(),
                bytes: 0,
            }),
            cap_bytes,
        }
    }

    /// The process-wide pool, capped at [`POOL_CAP_BYTES`].
    #[must_use]
    pub fn global() -> &'static Self {
        &GLOBAL
    }

    fn shelves(&self) -> std::sync::MutexGuard<'_, sealed::Shelves> {
        // Every critical section leaves the shelves consistent, so a
        // poisoned lock still guards valid data.
        self.shelves.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes of the buffers held idle.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.shelves().bytes
    }

    /// An empty vector with room for `capacity` elements: the smallest
    /// pooled buffer that fits, or a fresh allocation.
    #[must_use]
    pub fn take<T: Pooled>(&self, capacity: usize) -> Vec<T> {
        if bytes_of::<T>(capacity) >= MIN_POOLED_BYTES {
            let mut shelves = self.shelves();
            let shelf = T::shelf(&mut shelves);
            let fit = shelf.partition_point(|b| b.capacity() < capacity);
            if fit < shelf.len() {
                let buf = shelf.remove(fit);
                shelves.bytes -= bytes_of::<T>(buf.capacity());
                return buf;
            }
        }
        Vec::with_capacity(capacity)
    }

    /// Keeps `buf`'s allocation for a later [`Self::take`] if it is at
    /// least [`MIN_POOLED_BYTES`] and fits under the cap; drops it
    /// otherwise.
    pub fn give<T: Pooled>(&self, mut buf: Vec<T>) {
        let bytes = bytes_of::<T>(buf.capacity());
        if bytes < MIN_POOLED_BYTES {
            return;
        }
        buf.clear();
        let mut shelves = self.shelves();
        if shelves.bytes + bytes > self.cap_bytes {
            return;
        }
        shelves.bytes += bytes;
        let shelf = T::shelf(&mut shelves);
        let at = shelf.partition_point(|b| b.capacity() < buf.capacity());
        shelf.insert(at, buf);
    }

    /// Makes room for `additional` more elements in `v`, growing it as
    /// `Vec::reserve` would (to at least twice its capacity), but into a
    /// pooled buffer once that is large enough, giving the old one back.
    #[inline]
    pub fn reserve<T: Pooled>(&self, v: &mut Vec<T>, additional: usize) {
        if v.capacity() - v.len() < additional {
            self.grow(v, additional);
        }
    }

    #[cold]
    #[inline(never)]
    fn grow<T: Pooled>(&self, v: &mut Vec<T>, additional: usize) {
        let needed = v.len().checked_add(additional).expect("capacity overflow");
        let want = needed.max(v.capacity().saturating_mul(2));
        if bytes_of::<T>(want) < MIN_POOLED_BYTES {
            v.reserve(additional);
            return;
        }
        let mut grown = self.take(want);
        grown.extend_from_slice(v);
        self.give(std::mem::replace(v, grown));
    }

    /// Pushes `x` onto `v`, growing it through [`Self::reserve`].
    #[inline]
    pub fn push<T: Pooled>(&self, v: &mut Vec<T>, x: T) {
        self.reserve(v, 1);
        v.push(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Elements of `T` in a buffer of `bytes`.
    fn elems<T>(bytes: usize) -> usize {
        bytes / std::mem::size_of::<T>()
    }

    #[test]
    fn buffers_below_the_floor_are_not_kept() {
        let pool = BufferPool::new(usize::MAX);
        pool.give(Vec::<Tuple>::with_capacity(
            elems::<Tuple>(MIN_POOLED_BYTES) - 1,
        ));
        pool.give(Vec::<u32>::with_capacity(16));
        assert_eq!(pool.held_bytes(), 0);
        let at_floor = Vec::<u32>::with_capacity(elems::<u32>(MIN_POOLED_BYTES));
        pool.give(at_floor);
        assert_eq!(pool.held_bytes(), MIN_POOLED_BYTES);
        // A small request never takes a pooled buffer.
        let small: Vec<u32> = pool.take(100);
        assert!(small.capacity() < elems::<u32>(MIN_POOLED_BYTES));
        assert_eq!(pool.held_bytes(), MIN_POOLED_BYTES);
    }

    #[test]
    fn best_fit_wins() {
        let pool = BufferPool::new(usize::MAX);
        let sizes = [4 * MIN_POOLED_BYTES, MIN_POOLED_BYTES, 2 * MIN_POOLED_BYTES];
        for bytes in sizes {
            pool.give(Vec::<Tuple>::with_capacity(elems::<Tuple>(bytes)));
        }
        let want = elems::<Tuple>(MIN_POOLED_BYTES) + 1;
        let got: Vec<Tuple> = pool.take(want);
        assert_eq!(got.capacity(), elems::<Tuple>(2 * MIN_POOLED_BYTES));
        let exact: Vec<Tuple> = pool.take(elems::<Tuple>(MIN_POOLED_BYTES));
        assert_eq!(exact.capacity(), elems::<Tuple>(MIN_POOLED_BYTES));
        let too_big: Vec<Tuple> = pool.take(elems::<Tuple>(5 * MIN_POOLED_BYTES));
        assert_eq!(too_big.capacity(), elems::<Tuple>(5 * MIN_POOLED_BYTES));
        assert_eq!(pool.held_bytes(), 4 * MIN_POOLED_BYTES, "a miss allocates");
        // The two shelves are separate.
        let none: Vec<u32> = pool.take(elems::<u32>(MIN_POOLED_BYTES));
        assert_eq!(pool.held_bytes(), 4 * MIN_POOLED_BYTES);
        drop(none);
    }

    #[test]
    fn buffers_come_back_empty() {
        let pool = BufferPool::new(usize::MAX);
        let n = elems::<Tuple>(MIN_POOLED_BYTES);
        let full: Vec<Tuple> = (0..n as u64).map(|i| Tuple::new(i, i)).collect();
        let ptr = full.as_ptr();
        pool.give(full);
        let again: Vec<Tuple> = pool.take(n);
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), ptr, "the same allocation comes back");
        // Growth through the pool keeps the contents and recycles the old
        // buffer.
        let mut v: Vec<u32> = (0..elems::<u32>(MIN_POOLED_BYTES) as u32).collect();
        let old = v.as_ptr();
        pool.push(&mut v, 7);
        assert_eq!(v.len(), elems::<u32>(MIN_POOLED_BYTES) + 1);
        assert!(v.iter().take(5).copied().eq(0..5));
        assert_eq!(v.last(), Some(&7));
        let back: Vec<u32> = pool.take(elems::<u32>(MIN_POOLED_BYTES));
        assert!(back.is_empty());
        assert_eq!(back.as_ptr(), old, "the outgrown buffer was given back");
    }

    #[test]
    fn the_byte_cap_holds() {
        let pool = BufferPool::new(3 * MIN_POOLED_BYTES);
        for _ in 0..5 {
            pool.give(Vec::<u32>::with_capacity(elems::<u32>(MIN_POOLED_BYTES)));
        }
        assert_eq!(pool.held_bytes(), 3 * MIN_POOLED_BYTES);
        pool.give(Vec::<Tuple>::with_capacity(elems::<Tuple>(
            MIN_POOLED_BYTES,
        )));
        assert_eq!(
            pool.held_bytes(),
            3 * MIN_POOLED_BYTES,
            "shelves share one cap"
        );
        let _taken: Vec<u32> = pool.take(elems::<u32>(MIN_POOLED_BYTES));
        assert_eq!(pool.held_bytes(), 2 * MIN_POOLED_BYTES);
        pool.give(Vec::<u32>::with_capacity(elems::<u32>(
            2 * MIN_POOLED_BYTES,
        )));
        assert_eq!(
            pool.held_bytes(),
            2 * MIN_POOLED_BYTES,
            "over the cap: dropped"
        );
    }
}
