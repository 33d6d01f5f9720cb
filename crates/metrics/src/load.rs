//! Load-balance statistics.
//!
//! Figures 12 and 13 report the maximum, minimum and average load (in
//! chunks of tuples) across join nodes after the build (and, for the
//! hybrid, the reshuffle).

/// Min / avg / max of a per-node load distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadStats {
    /// Smallest per-node load.
    pub min: u64,
    /// Largest per-node load.
    pub max: u64,
    /// Mean per-node load.
    pub avg: f64,
    /// Number of nodes measured.
    pub nodes: usize,
}

impl LoadStats {
    /// Computes stats over per-node tuple counts. Empty input yields all
    /// zeros.
    #[must_use]
    pub fn from_counts(counts: &[u64]) -> Self {
        let (Some(&min), Some(&max)) = (counts.iter().min(), counts.iter().max()) else {
            return Self::default();
        };
        let sum: u128 = counts.iter().map(|&c| u128::from(c)).sum();
        Self {
            min,
            max,
            avg: sum as f64 / counts.len() as f64,
            nodes: counts.len(),
        }
    }

    /// Max / avg — 1.0 means perfectly balanced; large values mean one node
    /// carries far more than its share.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.avg == 0.0 {
            1.0
        } else {
            self.max as f64 / self.avg
        }
    }

    /// Converts tuple-denominated stats into paper chunks.
    #[must_use]
    pub fn in_chunks(&self, chunk_tuples: u64) -> Self {
        let ct = chunk_tuples.max(1);
        Self {
            min: self.min / ct,
            max: self.max.div_ceil(ct),
            avg: self.avg / ct as f64,
            nodes: self.nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_over_counts() {
        let s = LoadStats::from_counts(&[10, 20, 30, 40]);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 40);
        assert_eq!(s.avg, 25.0);
        assert_eq!(s.nodes, 4);
        assert!((s.imbalance() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        let s = LoadStats::from_counts(&[]);
        assert_eq!(s, LoadStats::default());
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn balanced_imbalance_is_one() {
        let s = LoadStats::from_counts(&[7, 7, 7]);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn chunk_conversion() {
        let s = LoadStats::from_counts(&[10_000, 25_000]).in_chunks(10_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3); // rounds up
        assert!((s.avg - 1.75).abs() < 1e-12);
    }

    #[test]
    fn all_zero_counts() {
        let s = LoadStats::from_counts(&[0, 0]);
        assert_eq!(s.max, 0);
        assert_eq!(s.imbalance(), 1.0);
    }
}
