//! Synthetic relation generation.
//!
//! Relations are "generated on-the-fly on multiple nodes as the join
//! operation progressed" (§5), simulating table streams from a distributed
//! database. A [`RelationSpec`] describes one relation; each data source
//! owns a [`SourceGenerator`] producing a disjoint slice of the relation
//! with its own deterministic RNG stream.

use crate::dist::{Distribution, JoinAttrSampler, DEFAULT_ATTR_DOMAIN};
use crate::rng::SplitMix64;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// Orientation of a skewed relation's hot region relative to its join
/// partner (the matched/anti-matched scenario axis).
///
/// With two zipf relations, [`Correlation::Matched`] aims both hot heads
/// at the same attribute values (rank 0 of R joins rank 0 of S — the
/// worst-case match product), while [`Correlation::AntiMatched`] mirrors
/// the sampled attribute across the domain so R's hot keys land on S's
/// coldest values: routing load is still skewed, but the match product is
/// not. For [`Distribution::Uniform`] the mirror is distribution-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Correlation {
    /// Hot regions of R and S coincide (default; the historical behavior).
    #[default]
    Matched,
    /// Sampled attributes are mirrored to `domain - 1 - attr`, pushing this
    /// relation's hot region to the far end of the domain.
    AntiMatched,
}

/// Description of one synthetic relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelationSpec {
    /// Total number of tuples across all data sources.
    pub tuples: u64,
    /// Row layout (payload size).
    pub schema: Schema,
    /// Join-attribute distribution.
    pub dist: Distribution,
    /// Attribute domain `[0, domain)`.
    pub domain: u64,
    /// Relation-level seed; per-source streams are derived from it.
    pub seed: u64,
    /// Hot-region orientation relative to the join partner.
    pub correlation: Correlation,
}

impl RelationSpec {
    /// A uniform relation with the paper's default schema and domain.
    #[must_use]
    pub fn uniform(tuples: u64, seed: u64) -> Self {
        Self {
            tuples,
            schema: Schema::default_paper(),
            dist: Distribution::Uniform,
            domain: DEFAULT_ATTR_DOMAIN,
            seed,
            correlation: Correlation::Matched,
        }
    }

    /// A skewed (Gaussian) relation with the paper's default schema.
    #[must_use]
    pub fn gaussian(tuples: u64, sigma: f64, seed: u64) -> Self {
        Self {
            tuples,
            schema: Schema::default_paper(),
            dist: Distribution::Gaussian { mean: 0.5, sigma },
            domain: DEFAULT_ATTR_DOMAIN,
            seed,
            correlation: Correlation::Matched,
        }
    }

    /// Returns a copy with a different hot-region orientation.
    #[must_use]
    pub fn with_correlation(mut self, correlation: Correlation) -> Self {
        self.correlation = correlation;
        self
    }

    /// Returns a copy with a different payload size (Figure 7 axis).
    #[must_use]
    pub fn with_payload(mut self, payload_bytes: u32) -> Self {
        self.schema = Schema::with_payload(payload_bytes);
        self
    }

    /// Returns a copy with a different attribute domain.
    #[must_use]
    pub fn with_domain(mut self, domain: u64) -> Self {
        self.domain = domain;
        self
    }

    /// Total raw bytes of the relation.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.schema.tuples_bytes(self.tuples)
    }

    /// Splits the relation across `sources` data sources, returning the
    /// half-open index range `[start, end)` generated by `source`.
    ///
    /// Slices differ in size by at most one tuple.
    ///
    /// # Panics
    /// Panics if `sources == 0` or `source >= sources`.
    #[must_use]
    pub fn slice_for_source(&self, source: usize, sources: usize) -> (u64, u64) {
        assert!(sources > 0, "need at least one data source");
        assert!(source < sources, "source index out of range");
        let s = sources as u64;
        let i = source as u64;
        let base = self.tuples / s;
        let extra = self.tuples % s;
        // The first `extra` sources get one extra tuple.
        let start = i * base + i.min(extra);
        let len = base + u64::from(i < extra);
        (start, start + len)
    }

    /// Creates the deterministic generator for `source`'s slice.
    #[must_use]
    pub fn generator_for_source(&self, source: usize, sources: usize) -> SourceGenerator {
        let (start, end) = self.slice_for_source(source, sources);
        let seed = SplitMix64::new(self.seed).derive(source as u64 + 1);
        SourceGenerator::new(*self, start, end, seed)
    }

    /// Generates the whole relation in one pass (test / reference use).
    #[must_use]
    pub fn generate_all(&self) -> Vec<Tuple> {
        self.generate_distributed(1)
    }

    /// Generates exactly what `sources` data sources would produce in a
    /// distributed run: the concatenation of every source's slice, each
    /// from its own derived RNG stream. Reference/oracle computations must
    /// use the same source count as the run they validate, because the
    /// streams (and thus the join attributes) differ per source.
    #[must_use]
    pub fn generate_distributed(&self, sources: usize) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.tuples as usize);
        for s in 0..sources {
            let mut g = self.generator_for_source(s, sources);
            while let Some(t) = g.next_tuple() {
                out.push(t);
            }
        }
        out
    }
}

/// Iterator-style generator for one data source's slice of a relation.
#[derive(Debug, Clone)]
pub struct SourceGenerator {
    sampler: JoinAttrSampler,
    next_index: u64,
    end_index: u64,
    schema: Schema,
    /// `Some(domain - 1)` when anti-matched: sampled attributes are mirrored
    /// to `mirror - attr`, flipping the hot region to the far end of the
    /// domain without perturbing the RNG stream.
    mirror: Option<u64>,
}

impl SourceGenerator {
    fn new(spec: RelationSpec, start: u64, end: u64, seed: u64) -> Self {
        Self {
            sampler: JoinAttrSampler::new(spec.dist, spec.domain, seed),
            next_index: start,
            end_index: end,
            schema: spec.schema,
            mirror: match spec.correlation {
                Correlation::Matched => None,
                Correlation::AntiMatched => Some(spec.domain - 1),
            },
        }
    }

    #[inline]
    fn attr(&mut self) -> u64 {
        let a = self.sampler.sample();
        match self.mirror {
            Some(m) => m - a,
            None => a,
        }
    }

    /// Row layout of the generated tuples.
    #[must_use]
    pub fn schema(&self) -> Schema {
        self.schema
    }

    /// Number of tuples not yet generated.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.end_index - self.next_index
    }

    /// Generates the next tuple, or `None` when the slice is exhausted.
    pub fn next_tuple(&mut self) -> Option<Tuple> {
        if self.next_index >= self.end_index {
            return None;
        }
        let t = Tuple::new(self.next_index, self.attr());
        self.next_index += 1;
        Some(t)
    }

    /// Generates up to `n` tuples into `out`, returning how many were
    /// produced: the same tuples as `n` calls of [`Self::next_tuple`], with
    /// the distribution and the mirror decided once per call
    /// (`JoinAttrSampler::sample_each`) instead of once per tuple.
    pub fn fill(&mut self, n: u64, out: &mut Vec<Tuple>) -> u64 {
        let take = n.min(self.remaining());
        out.reserve(take as usize);
        let mut index = self.next_index;
        let mut push = |attr| {
            out.push(Tuple::new(index, attr));
            index += 1;
        };
        match self.mirror {
            None => self.sampler.sample_each(take, push),
            Some(m) => self.sampler.sample_each(take, |a| push(m - a)),
        }
        self.next_index = index;
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_partition_exactly() {
        let spec = RelationSpec::uniform(1003, 1);
        let sources = 4;
        let mut covered = 0u64;
        let mut prev_end = 0u64;
        for s in 0..sources {
            let (start, end) = spec.slice_for_source(s, sources);
            assert_eq!(start, prev_end, "slices must be contiguous");
            covered += end - start;
            prev_end = end;
        }
        assert_eq!(covered, 1003);
        assert_eq!(prev_end, 1003);
    }

    #[test]
    fn slices_balanced_within_one() {
        let spec = RelationSpec::uniform(10, 3);
        let sizes: Vec<u64> = (0..3)
            .map(|s| {
                let (a, b) = spec.slice_for_source(s, 3);
                b - a
            })
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn generator_yields_slice_indices_in_order() {
        let spec = RelationSpec::uniform(100, 5);
        let mut g = spec.generator_for_source(1, 4);
        let (start, end) = spec.slice_for_source(1, 4);
        let mut expect = start;
        while let Some(t) = g.next_tuple() {
            assert_eq!(t.index, expect);
            expect += 1;
        }
        assert_eq!(expect, end);
        assert_eq!(g.remaining(), 0);
    }

    #[test]
    fn fill_matches_next_tuple_stream() {
        let zipf = |theta| RelationSpec {
            dist: Distribution::Zipf { theta },
            ..RelationSpec::uniform(257, 42)
        };
        let specs = [
            RelationSpec::gaussian(257, 0.01, 42),
            RelationSpec::uniform(257, 42).with_domain(1000),
            zipf(0.9).with_domain(1 << 12),
            zipf(1.2).with_domain(1 << 18),
            RelationSpec::uniform(257, 42).with_correlation(Correlation::AntiMatched),
            zipf(0.5)
                .with_domain(1 << 10)
                .with_correlation(Correlation::AntiMatched),
        ];
        for spec in specs {
            let mut a = spec.generator_for_source(0, 2);
            let mut b = spec.generator_for_source(0, 2);
            let mut via_next = Vec::new();
            while let Some(t) = a.next_tuple() {
                via_next.push(t);
            }
            let mut via_fill = Vec::new();
            while b.fill(100, &mut via_fill) > 0 {}
            assert_eq!(via_next, via_fill, "{spec:?}");
        }
    }

    #[test]
    fn different_sources_have_different_streams() {
        let spec = RelationSpec::uniform(1000, 9);
        let g0: Vec<_> = {
            let mut g = spec.generator_for_source(0, 2);
            std::iter::from_fn(|| g.next_tuple().map(|t| t.join_attr))
                .take(100)
                .collect()
        };
        let g1: Vec<_> = {
            let mut g = spec.generator_for_source(1, 2);
            std::iter::from_fn(|| g.next_tuple().map(|t| t.join_attr))
                .take(100)
                .collect()
        };
        assert_ne!(g0, g1);
    }

    #[test]
    fn generate_all_is_deterministic() {
        let spec = RelationSpec::gaussian(500, 0.001, 77);
        assert_eq!(spec.generate_all(), spec.generate_all());
    }

    #[test]
    fn generate_all_respects_count_and_domain() {
        let spec = RelationSpec::uniform(321, 5).with_domain(1 << 10);
        let all = spec.generate_all();
        assert_eq!(all.len(), 321);
        assert!(all.iter().all(|t| t.join_attr < (1 << 10)));
    }

    #[test]
    fn total_bytes_uses_schema() {
        let spec = RelationSpec::uniform(10, 1).with_payload(200);
        assert_eq!(spec.total_bytes(), 10 * 216);
    }

    #[test]
    fn anti_matched_mirrors_the_attribute_stream() {
        let spec = RelationSpec::uniform(500, 21).with_domain(1 << 12);
        let anti = spec.with_correlation(Correlation::AntiMatched);
        let a = spec.generate_all();
        let b = anti.generate_all();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(y.join_attr, (1 << 12) - 1 - x.join_attr);
        }
    }

    #[test]
    fn anti_matched_zipf_moves_the_hot_head() {
        let spec = RelationSpec {
            dist: Distribution::Zipf { theta: 1.2 },
            ..RelationSpec::uniform(5_000, 33)
        }
        .with_domain(1 << 16);
        let low_hits = |c: Correlation| {
            spec.with_correlation(c)
                .generate_all()
                .iter()
                .filter(|t| t.join_attr < 64)
                .count()
        };
        let matched = low_hits(Correlation::Matched);
        let anti = low_hits(Correlation::AntiMatched);
        assert!(
            matched > 1_000 && anti < 100,
            "hot head must flip ends: matched {matched}, anti {anti}"
        );
    }

    #[test]
    fn matched_is_the_default_and_byte_identical() {
        let spec = RelationSpec::gaussian(300, 0.01, 9);
        assert_eq!(spec.correlation, Correlation::Matched);
        let explicit = spec.with_correlation(Correlation::Matched);
        assert_eq!(spec.generate_all(), explicit.generate_all());
    }

    #[test]
    fn empty_relation_generates_nothing() {
        let spec = RelationSpec::uniform(0, 1);
        assert!(spec.generate_all().is_empty());
        let (a, b) = spec.slice_for_source(2, 4);
        assert_eq!(a, b);
    }
}
