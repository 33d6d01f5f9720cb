//! Space-saving heavy-hitter sketch (Metwally et al., "Efficient
//! Computation of Frequent and Top-k Elements in Data Streams").
//!
//! The data sources maintain one [`SpaceSaving`] sketch each over the
//! build-relation *positions* they route, and ship them to the scheduler,
//! which merges them and decides whether the workload is skewed enough to
//! install the hot-key routing overlay (DESIGN §4i). The sketch gives two
//! guarantees the routing layer leans on:
//!
//! * **no false negatives** — after `N` observations into a sketch of
//!   capacity `k`, every key with true count `> N/k` is guaranteed to be
//!   monitored (if it were not, the minimum counter would exceed `N/k`,
//!   which is impossible since the counters sum to `N`);
//! * **bounded over-estimate** — each monitored counter over-estimates its
//!   key's true count by at most the entry's recorded error, which is the
//!   value of the minimum counter at the moment the key took over that
//!   slot (and therefore at most `N/k`).
//!
//! Sketches are mergeable (Agarwal et al., "Mergeable Summaries"): summing
//! counters key-wise and keeping the top `k` preserves both guarantees for
//! the combined stream, which is how the scheduler aggregates the
//! per-source views.

use std::collections::HashMap;

/// One monitored key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    /// Estimated count (upper bound on the true count).
    count: u64,
    /// Over-estimate bound: the evicted minimum this entry absorbed when
    /// its key claimed the slot. `count - err` lower-bounds the true count.
    err: u64,
}

/// A fixed-capacity space-saving sketch over `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    capacity: usize,
    total: u64,
    entries: Vec<Entry>,
    /// Key → index into `entries`.
    index: HashMap<u64, usize>,
}

impl SpaceSaving {
    /// Creates an empty sketch monitoring at most `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        Self {
            capacity,
            total: 0,
            entries: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
        }
    }

    /// The configured counter capacity `k`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total observations absorbed (the stream length `N`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of monitored keys (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records one occurrence of `key`.
    pub fn observe(&mut self, key: u64) {
        self.observe_n(key, 1);
    }

    /// Records `n` occurrences of `key`.
    pub fn observe_n(&mut self, key: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        if let Some(&i) = self.index.get(&key) {
            self.entries[i].count += n;
            return;
        }
        if self.entries.len() < self.capacity {
            self.index.insert(key, self.entries.len());
            self.entries.push(Entry {
                key,
                count: n,
                err: 0,
            });
            return;
        }
        // Evict the minimum counter; the new key inherits its count as the
        // over-estimate error (ties broken by slot order, deterministic).
        let (mut min_i, mut min_c) = (0usize, u64::MAX);
        for (i, e) in self.entries.iter().enumerate() {
            if e.count < min_c {
                min_i = i;
                min_c = e.count;
            }
        }
        let evicted = self.entries[min_i].key;
        self.index.remove(&evicted);
        self.index.insert(key, min_i);
        self.entries[min_i] = Entry {
            key,
            count: min_c + n,
            err: min_c,
        };
    }

    /// The smallest monitored counter, or 0 while the sketch has free
    /// slots. Any key *not* monitored has true count ≤ this value.
    #[must_use]
    pub fn min_count(&self) -> u64 {
        if self.entries.len() < self.capacity {
            return 0;
        }
        self.entries.iter().map(|e| e.count).min().unwrap_or(0)
    }

    /// Estimated count of `key`: the monitored upper bound, or
    /// [`Self::min_count`] if unmonitored.
    #[must_use]
    pub fn estimate(&self, key: u64) -> u64 {
        self.index
            .get(&key)
            .map_or_else(|| self.min_count(), |&i| self.entries[i].count)
    }

    /// Monitored keys as `(key, estimated_count, error_bound)`, sorted by
    /// count descending, key ascending on ties (deterministic across
    /// platforms regardless of hash-map iteration order).
    #[must_use]
    pub fn top_k(&self) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = self
            .entries
            .iter()
            .map(|e| (e.key, e.count, e.err))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Merges `other` into `self` key-wise (counts and error bounds add),
    /// then keeps the top `capacity` counters — the mergeable-summaries
    /// construction, preserving both sketch guarantees for the combined
    /// stream.
    pub fn merge(&mut self, other: &SpaceSaving) {
        // Keys monitored by only one side are under-counted by at most the
        // other side's min counter; absorbing that bound into both count
        // and err keeps the upper-bound/lower-bound invariants exact.
        let self_min = self.min_count();
        let other_min = other.min_count();
        let mut combined: HashMap<u64, Entry> = HashMap::new();
        for e in &self.entries {
            combined.insert(
                e.key,
                Entry {
                    key: e.key,
                    count: e.count + other_min,
                    err: e.err + other_min,
                },
            );
        }
        for e in &other.entries {
            combined
                .entry(e.key)
                .and_modify(|c| {
                    // Was counted (pessimistically) as other_min; replace
                    // that filler with the real monitored counter. Subtract
                    // the filler first — `e.err` may be below `other_min`.
                    c.count = c.count - other_min + e.count;
                    c.err = c.err - other_min + e.err;
                })
                .or_insert(Entry {
                    key: e.key,
                    count: e.count + self_min,
                    err: e.err + self_min,
                });
        }
        let mut merged: Vec<Entry> = combined.into_values().collect();
        merged.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        merged.truncate(self.capacity);
        self.total += other.total;
        self.entries = merged;
        self.index = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key, i))
            .collect();
    }

    /// Bytes this sketch occupies on the wire (key + count + error per
    /// monitored entry).
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        24 * self.entries.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal deterministic RNG (xorshift*) so the property tests need no
    /// cross-crate dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// A zipf-ish stream: key `i` appears with weight ~ 1/(i+1).
    fn skewed_stream(seed: u64, n: usize, keys: u64) -> Vec<u64> {
        let mut rng = Rng(seed | 1);
        (0..n)
            .map(|_| {
                // Inverse-CDF of 1/(i+1) over [0, keys): repeated halving.
                let mut k = 0u64;
                let mut r = rng.next();
                while k + 1 < keys && r & 1 == 1 {
                    k += 1;
                    r >>= 1;
                }
                k
            })
            .collect()
    }

    fn true_counts(stream: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &k in stream {
            *m.entry(k).or_insert(0u64) += 1;
        }
        m
    }

    #[test]
    fn heavy_hitters_always_monitored() {
        // Space-saving guarantee: every key with count > N/k is in the
        // sketch, on any stream.
        for seed in 1..=8u64 {
            for k in [4usize, 8, 16] {
                let stream = skewed_stream(seed * 77, 5000, 64);
                let mut s = SpaceSaving::new(k);
                for &key in &stream {
                    s.observe(key);
                }
                assert_eq!(s.total(), stream.len() as u64);
                let truth = true_counts(&stream);
                let threshold = s.total() / k as u64;
                let monitored: Vec<u64> = s.top_k().iter().map(|e| e.0).collect();
                for (&key, &count) in &truth {
                    if count > threshold {
                        assert!(
                            monitored.contains(&key),
                            "seed {seed} k {k}: key {key} with count {count} > N/k \
                             {threshold} missing from top-k {monitored:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimates_bracket_true_counts() {
        // count - err ≤ true ≤ count for monitored keys; unmonitored keys
        // have true count ≤ min_count.
        for seed in [3u64, 9, 27] {
            let stream = skewed_stream(seed, 4000, 128);
            let mut s = SpaceSaving::new(8);
            for &key in &stream {
                s.observe(key);
            }
            let truth = true_counts(&stream);
            for (key, count, err) in s.top_k() {
                let t = truth.get(&key).copied().unwrap_or(0);
                assert!(t <= count, "estimate must upper-bound truth");
                assert!(count - err <= t, "count-err must lower-bound truth");
                assert!(err <= s.total() / 8, "err bounded by N/k");
            }
            for (&key, &t) in &truth {
                if s.top_k().iter().all(|e| e.0 != key) {
                    assert!(t <= s.min_count(), "unmonitored key exceeds min counter");
                }
            }
        }
    }

    #[test]
    fn merge_preserves_guarantees() {
        for seed in [5u64, 11] {
            let a_stream = skewed_stream(seed, 3000, 64);
            let b_stream = skewed_stream(seed ^ 0xFFFF, 2000, 64);
            let mut a = SpaceSaving::new(8);
            let mut b = SpaceSaving::new(8);
            for &k in &a_stream {
                a.observe(k);
            }
            for &k in &b_stream {
                b.observe(k);
            }
            a.merge(&b);
            assert_eq!(a.total(), (a_stream.len() + b_stream.len()) as u64);
            let mut combined = a_stream;
            combined.extend_from_slice(&b_stream);
            let truth = true_counts(&combined);
            let threshold = a.total() / 8;
            let monitored: Vec<u64> = a.top_k().iter().map(|e| e.0).collect();
            for (&key, &count) in &truth {
                if count > threshold {
                    assert!(
                        monitored.contains(&key),
                        "merged sketch lost heavy hitter {key} ({count} > {threshold})"
                    );
                }
            }
            for (key, count, _) in a.top_k() {
                let t = truth.get(&key).copied().unwrap_or(0);
                assert!(t <= count, "merged estimate must upper-bound truth");
            }
        }
    }

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(16);
        for k in 0..10u64 {
            s.observe_n(k, k + 1);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.min_count(), 0, "free slots: nothing was ever evicted");
        for k in 0..10u64 {
            assert_eq!(s.estimate(k), k + 1);
        }
        let top = s.top_k();
        for &(k, count, err) in &top {
            assert_eq!(count - err, k + 1, "guaranteed count of {k}");
        }
        assert_eq!(top[0], (9, 10, 0));
        assert_eq!(top.last().copied(), Some((0, 1, 0)));
    }

    #[test]
    fn deterministic_top_k_ordering() {
        let mut s = SpaceSaving::new(8);
        for k in [5u64, 3, 9, 3, 5, 1] {
            s.observe(k);
        }
        // Ties (count 1) break by ascending key.
        assert_eq!(s.top_k(), vec![(3, 2, 0), (5, 2, 0), (1, 1, 0), (9, 1, 0)]);
    }

    #[test]
    fn wire_bytes_track_entries() {
        let mut s = SpaceSaving::new(4);
        assert_eq!(s.wire_bytes(), 0);
        s.observe(1);
        s.observe(2);
        assert_eq!(s.wire_bytes(), 48);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::new(0);
    }
}
