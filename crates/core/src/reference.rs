//! Reference (oracle) join used to validate every algorithm's output.
//!
//! The equi-join cardinality of R and S is `Σ_v count_R(v) · count_S(v)`;
//! [`expected_matches`] computes it by generating both relations through
//! the same deterministic per-source generators the distributed run uses
//! (each data source has its own derived RNG stream, so the source count is
//! part of the data's identity), making any discrepancy an algorithm bug,
//! never a data mismatch.
//!
//! It is a partitioned sort-merge count. Each relation streams through
//! `SourceGenerator::fill` a block at a time; only the join attributes are
//! kept, binned by their top bits into partitions sized to hold about
//! `PARTITION_ATTRS` values each on uniform data, each attribute cut to
//! the low bits that tell it apart within its partition (32 of them
//! whenever a partition spans at most 2^32 values). Then each partition
//! pair is radix-sorted and merged. No relation is materialised, and
//! at the benchmark's scale (paper / 5, 2M tuples a side) no buffer comes
//! near glibc's 128 KB mmap threshold: a check that freed one large block
//! would change how the allocator serves the very join it checks (see
//! `ehj_data::pool`). Skewed data piles into fewer, larger partitions; the
//! count stays exact, only the buffers grow.

use crate::config::JoinConfig;
use ehj_data::{JoinAttr, RelationSpec, Tuple};

/// Tuples generated per `fill` call (32 KB).
const FILL_BLOCK: u64 = 2048;

/// Attributes per partition and relation on uniform data (16 KB of keys).
const PARTITION_ATTRS: u64 = 4096;

/// Widest digit of a least-significant-digit radix pass: a histogram of
/// `2^11` counts is 16 KB, in L1 beside the partition it sorts.
const MAX_DIGIT_BITS: u32 = 11;

/// Exact number of matching pairs for two relation specs as generated by
/// `sources` data sources each.
#[must_use]
pub fn expected_matches(r: &RelationSpec, s: &RelationSpec, sources: usize) -> u64 {
    // Partition by the top `part_bits` of the attribute's bit width, so
    // partition `i` holds one contiguous range of values for both sides and
    // its attributes differ only in their low `shift` bits.
    let bits = u64::BITS - (r.domain.max(s.domain).max(1) - 1).leading_zeros();
    let wanted = (r.tuples.max(s.tuples) / PARTITION_ATTRS).max(1);
    let part_bits = wanted.next_power_of_two().trailing_zeros().min(bits);
    let shift = bits - part_bits;
    if shift <= u32::BITS {
        sort_merge::<u32>(r, s, sources, shift, part_bits)
    } else {
        sort_merge::<u64>(r, s, sources, shift, part_bits)
    }
}

/// A join attribute as kept inside its partition: its low bits, at least
/// the partition's `shift` of them, which is all that tells two attributes
/// of one partition apart.
trait Key: Copy + Ord + Default {
    fn of(attr: JoinAttr) -> Self;
    fn digit(self, lo: u32, mask: usize) -> usize;
}

impl Key for u32 {
    fn of(attr: JoinAttr) -> Self {
        attr as u32
    }
    fn digit(self, lo: u32, mask: usize) -> usize {
        (self >> lo) as usize & mask
    }
}

impl Key for u64 {
    fn of(attr: JoinAttr) -> Self {
        attr
    }
    fn digit(self, lo: u32, mask: usize) -> usize {
        (self >> lo) as usize & mask
    }
}

/// Partitions both relations, then sorts and merges partition by partition.
fn sort_merge<K: Key>(
    r: &RelationSpec,
    s: &RelationSpec,
    sources: usize,
    shift: u32,
    part_bits: u32,
) -> u64 {
    let r_parts = partition::<K>(r, sources, shift, part_bits);
    let s_parts = partition::<K>(s, sources, shift, part_bits);
    let mut scratch = Vec::new();
    r_parts
        .into_iter()
        .zip(s_parts)
        .map(|(mut r, mut s)| {
            radix_sort(&mut r, shift, &mut scratch);
            radix_sort(&mut s, shift, &mut scratch);
            merge_count(&r, &s)
        })
        .sum()
}

/// The join attributes of `spec`'s tuples as `sources` sources generate
/// them, as keys binned by `attr >> shift` into `2^part_bits` partitions.
fn partition<K: Key>(
    spec: &RelationSpec,
    sources: usize,
    shift: u32,
    part_bits: u32,
) -> Vec<Vec<K>> {
    let per_part = (spec.tuples >> part_bits) as usize;
    let mut parts: Vec<Vec<K>> = (0..1 << part_bits)
        .map(|_| Vec::with_capacity(per_part + per_part / 4))
        .collect();
    let mut block: Vec<Tuple> = Vec::with_capacity(FILL_BLOCK as usize);
    for source in 0..sources {
        let mut gen = spec.generator_for_source(source, sources);
        loop {
            block.clear();
            if gen.fill(FILL_BLOCK, &mut block) == 0 {
                break;
            }
            for t in &block {
                // `shift` is 64 only when there is a single partition.
                let part = t.join_attr.checked_shr(shift).unwrap_or(0) as usize;
                parts[part].push(K::of(t.join_attr));
            }
        }
    }
    parts
}

/// Sorts `v`, whose keys agree on every bit from `bits` up (one
/// partition's), by LSD radix passes over the low `bits`: as few passes as
/// digits of at most [`MAX_DIGIT_BITS`] allow. `scratch` is reused across
/// calls.
fn radix_sort<K: Key>(v: &mut Vec<K>, bits: u32, scratch: &mut Vec<K>) {
    if v.len() < 2 || bits == 0 {
        return;
    }
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let digit_bits = bits.div_ceil(passes);
    let mask = (1usize << digit_bits) - 1;
    scratch.resize(v.len(), K::default());
    let mut offsets = [0usize; 1 << MAX_DIGIT_BITS];
    for pass in 0..passes {
        let lo = pass * digit_bits;
        let offsets = &mut offsets[..=mask];
        offsets.fill(0);
        for &k in v.iter() {
            offsets[k.digit(lo, mask)] += 1;
        }
        let mut sum = 0;
        for o in offsets.iter_mut() {
            (*o, sum) = (sum, sum + *o);
        }
        for &k in v.iter() {
            let o = &mut offsets[k.digit(lo, mask)];
            scratch[*o] = k;
            *o += 1;
        }
        std::mem::swap(v, scratch);
    }
}

/// `Σ_v count_r(v) · count_s(v)` over two sorted slices.
fn merge_count<K: Key>(r: &[K], s: &[K]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0u64);
    while i < r.len() && j < s.len() {
        match r[i].cmp(&s[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let v = r[i];
                let r_end = i + r[i..].partition_point(|&a| a == v);
                let s_end = j + s[j..].partition_point(|&a| a == v);
                total += ((r_end - i) * (s_end - j)) as u64;
                (i, j) = (r_end, s_end);
            }
        }
    }
    total
}

/// Exact number of matching pairs for a [`JoinConfig`] (build/probe sides
/// are symmetric for counting).
#[must_use]
pub fn expected_matches_for(cfg: &JoinConfig) -> u64 {
    expected_matches(&cfg.r, &cfg.s, cfg.sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehj_data::{Correlation, Distribution};
    use std::collections::HashMap;

    /// The hash-map count this module's sort-merge replaced: both relations
    /// materialised, R's attribute counts in a map, S looked up in it.
    fn hash_map_oracle(r: &RelationSpec, s: &RelationSpec, sources: usize) -> u64 {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for t in r.generate_distributed(sources) {
            *counts.entry(t.join_attr).or_default() += 1;
        }
        s.generate_distributed(sources)
            .iter()
            .map(|t| counts.get(&t.join_attr).copied().unwrap_or(0))
            .sum()
    }

    #[test]
    fn sort_merge_agrees_with_the_hash_map_oracle() {
        let dists = [
            Distribution::Uniform,
            Distribution::Gaussian {
                mean: 0.5,
                sigma: 0.01,
            },
            Distribution::Zipf { theta: 0.5 },
            Distribution::Zipf { theta: 0.9 },
            Distribution::Zipf { theta: 1.2 },
        ];
        let domains = [1u64, 2, 7, 1 << 10, 1 << 20];
        let mut cases = 0;
        for (d, dist) in dists.into_iter().enumerate() {
            for (k, domain) in domains.into_iter().enumerate() {
                // Zipf needs two values; a one-value domain is uniform only.
                if domain < 2 && matches!(dist, Distribution::Zipf { .. }) {
                    continue;
                }
                for correlation in [Correlation::Matched, Correlation::AntiMatched] {
                    for sources in [1, 3, 8] {
                        let seed = (d * 31 + k * 7 + sources) as u64;
                        let spec = |tuples, seed| RelationSpec {
                            dist,
                            ..RelationSpec::uniform(tuples, seed)
                        };
                        let r = spec(20_000, seed).with_domain(domain);
                        let s = spec(9_000, seed + 100)
                            .with_domain(domain)
                            .with_correlation(correlation);
                        let want = hash_map_oracle(&r, &s, sources);
                        assert_eq!(
                            expected_matches(&r, &s, sources),
                            want,
                            "{dist:?} domain {domain} {correlation:?} sources {sources}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 100);
        // An empty side, either way round.
        let some = RelationSpec::uniform(5_000, 4).with_domain(1 << 10);
        let none = RelationSpec::uniform(0, 5).with_domain(1 << 10);
        for sources in [1, 8] {
            assert_eq!(expected_matches(&some, &none, sources), 0);
            assert_eq!(expected_matches(&none, &some, sources), 0);
            assert_eq!(hash_map_oracle(&some, &none, sources), 0);
        }
    }

    #[test]
    fn domains_wider_than_the_partition_bits_and_the_full_u64_range() {
        // Many partitions over a 2^32 domain, and one partition whose shift
        // would be 64.
        let r = RelationSpec::uniform(50_000, 1).with_domain(1 << 32);
        let s = RelationSpec::uniform(50_000, 2).with_domain(1 << 32);
        assert_eq!(expected_matches(&r, &s, 4), hash_map_oracle(&r, &s, 4));
        assert_eq!(expected_matches(&r, &r, 4), hash_map_oracle(&r, &r, 4));
        let r = RelationSpec::uniform(300, 3).with_domain(u64::MAX);
        assert_eq!(
            expected_matches(&r, &r, 2),
            300,
            "distinct values self-join once"
        );
    }

    #[test]
    fn disjoint_relations_have_zero_matches() {
        let r = RelationSpec::uniform(100, 1).with_domain(10);
        // A 1-value domain makes S constant 0; count R's zeros by hand.
        let s = RelationSpec::uniform(100, 2).with_domain(1);
        let r_zero = r.generate_all().iter().filter(|t| t.join_attr == 0).count() as u64;
        assert_eq!(expected_matches(&r, &s, 1), r_zero * 100);
    }

    #[test]
    fn symmetric_in_arguments() {
        let r = RelationSpec::uniform(500, 7).with_domain(64);
        let s = RelationSpec::gaussian(300, 0.1, 9).with_domain(64);
        assert_eq!(expected_matches(&r, &s, 3), expected_matches(&s, &r, 3));
    }

    #[test]
    fn self_join_counts_squares() {
        let r = RelationSpec::uniform(50, 3).with_domain(4);
        let all = r.generate_all();
        let mut per_value = [0u64; 4];
        for t in &all {
            per_value[t.join_attr as usize] += 1;
        }
        let expect: u64 = per_value.iter().map(|c| c * c).sum();
        assert_eq!(expected_matches(&r, &r, 1), expect);
    }

    #[test]
    fn source_count_changes_the_data() {
        // The per-source RNG streams differ, so the oracle must be told how
        // many sources generated the data.
        let r = RelationSpec::uniform(1000, 7).with_domain(32);
        let s = RelationSpec::uniform(1000, 8).with_domain(32);
        let one = expected_matches(&r, &s, 1);
        let eight = expected_matches(&r, &s, 8);
        assert_ne!(one, eight, "different source counts → different data");
    }

    #[test]
    fn empty_relation_yields_zero() {
        let r = RelationSpec::uniform(0, 1);
        let s = RelationSpec::uniform(100, 2);
        assert_eq!(expected_matches(&r, &s, 2), 0);
        assert_eq!(expected_matches(&s, &r, 2), 0);
    }
}
