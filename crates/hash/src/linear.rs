//! Linear hashing machinery for the split-based algorithm.
//!
//! §4.2.1: the split-based EHJA is "based on the linear and dynamic hashing
//! scheme proposed in [Litwin'80, Larson'88]". Buckets are addressed by a
//! pair of hash functions `h_i` / `h_{i+1}` and a *split pointer* that
//! designates the next bucket to split on overflow; the pointer cycles
//! round-robin, a round doubles the bucket count, and the scheduler's
//! *barrier split pointer* guarantees a bucket is never split while a split
//! of it is in flight and that at most two hash functions (levels) are ever
//! active — splits within one round may overlap, a new round cannot begin
//! until the previous round's splits are done.
//!
//! Per the paper's setup, "each bucket is associated with a disjoint
//! subrange of hash values" (§4), so `h_i` subdivides the hash-value range:
//! splitting a bucket halves its subrange and ships the upper half to the
//! new bucket. [`BucketMap`] keeps the explicit `[lo, hi)` directory per
//! bucket (bucket numbers are assigned in creation order and never change)
//! plus the split-pointer round discipline. Subdividing *ranges* rather
//! than residue classes is what makes the split-based algorithm suffer
//! under extreme skew exactly as the paper reports: a hot subrange keeps
//! re-splitting one halving per round, moving the same tuples many times,
//! while a single hot cell can never be separated at all.

/// Description of one split step: bucket `old`'s subrange `[lo, hi)` halves
/// at `mid`; values in `[mid, hi)` move to the new bucket `new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitStep {
    /// The bucket that was split (the pre-split split pointer).
    pub old: u32,
    /// The newly created bucket.
    pub new: u32,
    /// The halving point: hash values `>= mid` (within the old bucket's
    /// subrange) move to the new bucket.
    pub mid: u64,
}

impl SplitStep {
    /// Whether a hash value currently stored in the old bucket moves to the
    /// new bucket.
    #[must_use]
    pub fn moves_to_new(&self, v: u64) -> bool {
        v >= self.mid
    }
}

/// The split-based algorithm's routing table: an explicit directory of
/// disjoint hash-value subranges, one per bucket, with the linear-hashing
/// split-pointer discipline ordering the splits. `T` is the owner handle
/// (a node id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketMap<T> {
    /// `[lo, hi)` per bucket id (creation order; ids never change).
    buckets: Vec<(u64, u64)>,
    owners: Vec<T>,
    /// Next bucket id to split.
    split_ptr: u32,
    /// Bucket count when the current round started; reaching it resets the
    /// pointer and starts the next round (the "level" increment).
    round_end: u32,
    /// Completed doubling rounds (the paper's level `i`).
    level: u32,
    domain: u64,
    /// Lookup index: bucket ids sorted by range start.
    index: Vec<(u64, u32)>,
}

impl<T: Copy + Eq> BucketMap<T> {
    /// Creates the initial map over `[0, domain)`: bucket `b` owned by
    /// `owners[b]`, each holding an equal subrange.
    ///
    /// # Panics
    /// Panics if `owners` is empty or `domain == 0`.
    #[must_use]
    pub fn new(owners: Vec<T>, domain: u64) -> Self {
        assert!(!owners.is_empty(), "need at least one owner");
        assert!(domain > 0, "hash-value domain must be non-empty");
        let n = owners.len() as u64;
        let buckets: Vec<(u64, u64)> = (0..n)
            .map(|i| (domain * i / n, domain * (i + 1) / n))
            .collect();
        let mut map = Self {
            index: Vec::with_capacity(buckets.len()),
            buckets,
            round_end: owners.len() as u32,
            owners,
            split_ptr: 0,
            level: 0,
            domain,
        };
        map.rebuild_index();
        map
    }

    fn rebuild_index(&mut self) {
        self.index.clear();
        self.index.extend(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &(lo, hi))| lo < hi)
                .map(|(id, &(lo, _))| (lo, id as u32)),
        );
        self.index.sort_unstable();
    }

    /// Number of buckets (including any empty-subrange buckets produced by
    /// futile splits of single-cell ranges).
    #[must_use]
    pub fn bucket_count(&self) -> u32 {
        self.buckets.len() as u32
    }

    /// The paper's level `i`: completed doubling rounds.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The split pointer: the next bucket to split.
    #[must_use]
    pub fn split_ptr(&self) -> u32 {
        self.split_ptr
    }

    /// Whether the *next* split starts a new round (the barrier split
    /// pointer forbids that while splits of the current round are pending).
    #[must_use]
    pub fn next_split_starts_round(&self) -> bool {
        self.split_ptr == 0
    }

    /// Bucket holding hash value `v` (values ≥ `domain` wrap). Routed
    /// values are positions below the domain, so the division is skipped
    /// for them.
    #[must_use]
    pub fn bucket_of(&self, v: u64) -> u32 {
        let v = if v < self.domain { v } else { v % self.domain };
        let i = self.index.partition_point(|&(lo, _)| lo <= v);
        debug_assert!(i > 0, "index covers the domain from 0");
        self.index[i - 1].1
    }

    /// Every non-empty bucket as `(subrange, bucket id)`, in value order:
    /// the subranges tile `[0, domain)`.
    pub fn ranges_in_order(&self) -> impl Iterator<Item = ((u64, u64), u32)> + '_ {
        self.index
            .iter()
            .map(|&(_, b)| (self.buckets[b as usize], b))
    }

    /// Owner of the bucket for hash value `v`.
    #[must_use]
    pub fn route(&self, v: u64) -> T {
        self.owners[self.bucket_of(v) as usize]
    }

    /// Owner of bucket `b`.
    #[must_use]
    pub fn owner_of_bucket(&self, b: u32) -> T {
        self.owners[b as usize]
    }

    /// Splits the pointer bucket, assigning the upper half to `new_owner`,
    /// and advances the pointer (and round/level at round boundaries).
    /// Returns the step plus the owner of the old (split) bucket.
    ///
    /// A single-cell bucket cannot halve: the step then has
    /// `mid == hi` and nothing moves (the caller sees `moved == 0`).
    pub fn split(&mut self, new_owner: T) -> (SplitStep, T) {
        let old = self.split_ptr;
        let (lo, hi) = self.buckets[old as usize];
        // Halve; a width-1 (or empty) range yields an empty upper half.
        let mid = if hi - lo >= 2 { lo + (hi - lo) / 2 } else { hi };
        let new = self.buckets.len() as u32;
        self.buckets[old as usize] = (lo, mid);
        self.buckets.push((mid, hi));
        self.owners.push(new_owner);
        self.rebuild_index();
        self.split_ptr += 1;
        if self.split_ptr == self.round_end {
            self.split_ptr = 0;
            self.round_end = self.buckets.len() as u32;
            self.level += 1;
        }
        (SplitStep { old, new, mid }, self.owners[old as usize])
    }

    /// All distinct owners, in bucket order (duplicates removed).
    #[must_use]
    pub fn distinct_owners(&self) -> Vec<T> {
        let mut seen = Vec::new();
        for &o in &self.owners {
            if !seen.contains(&o) {
                seen.push(o);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: u64 = 1024;

    #[test]
    fn initial_addressing_is_equal_ranges() {
        let m = BucketMap::new(vec![0u32, 1, 2, 3], D);
        assert_eq!(m.bucket_of(0), 0);
        assert_eq!(m.bucket_of(255), 0);
        assert_eq!(m.bucket_of(256), 1);
        assert_eq!(m.bucket_of(767), 2);
        assert_eq!(m.bucket_of(768), 3);
        assert_eq!(m.bucket_of(1023), 3);
        assert_eq!(m.bucket_count(), 4);
        assert_eq!(m.level(), 0);
    }

    #[test]
    fn split_advances_pointer_then_level() {
        let mut m = BucketMap::new(vec![0u32, 1], D);
        let (s1, _) = m.split(2);
        assert_eq!((s1.old, s1.new, s1.mid), (0, 2, 256));
        assert_eq!(m.bucket_count(), 3);
        assert_eq!(m.level(), 0);
        let (s2, _) = m.split(3);
        assert_eq!((s2.old, s2.new, s2.mid), (1, 3, 768));
        // Round complete: level bumps, pointer resets, round covers 4.
        assert_eq!(m.level(), 1);
        assert_eq!(m.split_ptr(), 0);
        assert!(m.next_split_starts_round());
        let (s3, _) = m.split(4);
        assert_eq!((s3.old, s3.new, s3.mid), (0, 4, 128));
        assert!(!m.next_split_starts_round());
    }

    #[test]
    fn split_halves_the_pointer_buckets_range() {
        let mut m = BucketMap::new(vec![10u32, 11], D);
        let (step, old_owner) = m.split(12); // bucket 0 [0,512) halves at 256
        assert_eq!(old_owner, 10);
        assert_eq!(m.bucket_of(0), 0);
        assert_eq!(m.bucket_of(255), 0);
        assert_eq!(m.bucket_of(256), 2);
        assert_eq!(m.bucket_of(511), 2);
        assert_eq!(m.bucket_of(512), 1);
        assert_eq!(m.route(300), 12);
        assert!(step.moves_to_new(256));
        assert!(step.moves_to_new(511));
        assert!(!step.moves_to_new(255));
    }

    #[test]
    fn numbering_survives_round_boundaries() {
        // The bug this guards against: routing must agree with where split
        // steps physically placed data, across level transitions.
        let mut m = BucketMap::new(vec![0u32, 1], D);
        let mut assignment: Vec<u32> = (0..D).map(|v| m.bucket_of(v)).collect();
        for i in 2..20u32 {
            let (step, _) = m.split(i);
            for v in 0..D {
                let b = assignment[v as usize];
                if b == step.old && step.moves_to_new(v) {
                    assignment[v as usize] = step.new;
                }
            }
            for v in 0..D {
                assert_eq!(
                    m.bucket_of(v),
                    assignment[v as usize],
                    "value {v} diverged after split #{i}"
                );
            }
        }
    }

    #[test]
    fn buckets_stay_contiguous_subranges() {
        let mut m = BucketMap::new(vec![0u32, 1, 2, 3], D);
        for i in 4..11u32 {
            let _ = m.split(i);
        }
        let assignment: Vec<u32> = (0..D).map(|v| m.bucket_of(v)).collect();
        for b in 0..m.bucket_count() {
            let first = assignment.iter().position(|&x| x == b);
            let last = assignment.iter().rposition(|&x| x == b);
            if let (Some(f), Some(l)) = (first, last) {
                assert!(
                    assignment[f..=l].iter().all(|&x| x == b),
                    "bucket {b} is not contiguous"
                );
            }
        }
    }

    #[test]
    fn uniform_values_balance_across_buckets() {
        let mut m = BucketMap::new(vec![0u32, 1, 2, 3], 1 << 20);
        for i in 4..16u32 {
            let _ = m.split(i); // full round: 4 → 16 buckets
        }
        let mut counts = vec![0u64; m.bucket_count() as usize];
        for v in (0..(1u64 << 20)).step_by(17) {
            counts[m.bucket_of(v) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < min * 2 + 2, "uniform data should balance: {counts:?}");
    }

    #[test]
    fn skewed_hot_range_keeps_landing_in_one_bucket() {
        // A narrow hot range stays inside one bucket until the pointer
        // reaches it — the mechanism behind the paper's split storm under
        // extreme skew.
        let mut m = BucketMap::new(vec![0u32, 1, 2, 3], 1 << 20);
        let hot = (1u64 << 19) + 100;
        let b0 = m.bucket_of(hot);
        let _ = m.split(4); // splits bucket 0; hot value lives in bucket 2
        assert_eq!(m.bucket_of(hot), b0);
        assert_eq!(
            m.bucket_of(hot + 50),
            b0,
            "hot neighbourhood sticks together"
        );
    }

    #[test]
    fn single_cell_bucket_split_is_futile_but_consistent() {
        let mut m = BucketMap::new(vec![0u32], 2);
        let (s1, _) = m.split(1); // [0,2) → [0,1) + [1,2)
        assert_eq!(s1.mid, 1);
        let (s2, _) = m.split(2); // [0,1) cannot halve
        assert_eq!(s2.mid, 1, "mid == hi: empty upper half");
        assert!(!s2.moves_to_new(0));
        // Value 0 still routes to bucket 0.
        assert_eq!(m.bucket_of(0), 0);
        assert_eq!(m.bucket_of(1), 1);
    }

    #[test]
    fn long_split_chain_is_consistent() {
        let mut m = BucketMap::new(vec![0u32], 4096);
        for i in 1..64u32 {
            let _ = m.split(i);
        }
        assert_eq!(m.bucket_count(), 64);
        for v in 0..4096u64 {
            assert!(m.route(v) < 64);
        }
    }

    #[test]
    fn values_beyond_domain_wrap() {
        let mut m = BucketMap::new(vec![0u32, 1, 2, 3], 100);
        assert_eq!(m.bucket_of(105), m.bucket_of(5));
        // Below the domain the division is skipped; at and above it every
        // value still lands where `v % domain` put it.
        let _ = m.split(4);
        for v in (0..1000u64).chain([u64::MAX - 1, u64::MAX]) {
            let i = m.index.partition_point(|&(lo, _)| lo <= v % 100);
            assert_eq!(m.bucket_of(v), m.index[i - 1].1, "value {v}");
        }
    }

    #[test]
    fn ordered_ranges_tile_the_domain_and_agree_with_bucket_of() {
        let mut m = BucketMap::new(vec![0u32], 5);
        for i in 1..9u32 {
            let _ = m.split(i); // past width 1, splits leave empty buckets
        }
        let mut next = 0;
        for ((lo, hi), b) in m.ranges_in_order() {
            assert_eq!(lo, next, "ranges are contiguous");
            assert!(lo < hi, "empty buckets are skipped");
            for v in lo..hi {
                assert_eq!(m.bucket_of(v), b);
            }
            next = hi;
        }
        assert_eq!(next, 5, "ranges reach the domain's end");
    }

    #[test]
    fn distinct_owners_dedup() {
        let mut m = BucketMap::new(vec![7u32, 7, 8], 90);
        let _ = m.split(9);
        assert_eq!(m.distinct_owners(), vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_owners_panics() {
        let _: BucketMap<u32> = BucketMap::new(vec![], 10);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn zero_domain_panics() {
        let _ = BucketMap::new(vec![0u32], 0);
    }
}
