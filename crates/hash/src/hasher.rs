//! Hash functions over join-attribute values and the global position space.
//!
//! The paper's hash table is a single logical array whose *range* (its
//! position space) is partitioned among join nodes as "disjoint subranges of
//! hash values" (§4). A [`PositionSpace`] maps a join attribute to a
//! position in `[0, positions)` by first applying an [`AttrHasher`] to get a
//! hash value in the attribute domain and then scaling linearly.
//!
//! The default hasher is [`AttrHasher::Identity`]: hash value = attribute
//! value, so contiguous position subranges correspond to contiguous
//! attribute subranges. This matches the paper's observed behaviour under
//! skew — "with higher data skew, larger number of tuples will be hashed to
//! a few join nodes" (§5) — which can only happen when the hash preserves
//! value locality. [`AttrHasher::Fibonacci`] is provided as an ablation that
//! scatters values uniformly.

use ehj_data::{JoinAttr, Tuple};

/// Maps a join-attribute value to a hash value within the same domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttrHasher {
    /// Hash value = attribute value (the paper's locality-preserving
    /// behaviour; default).
    #[default]
    Identity,
    /// Fibonacci (multiplicative) scrambling: decorrelates value clusters
    /// from position clusters. Ablation only.
    Fibonacci,
}

impl AttrHasher {
    /// Golden-ratio multiplier for Fibonacci hashing.
    pub(crate) const PHI64: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The hash value before it is reduced into the domain.
    #[inline]
    fn mix(self, attr: JoinAttr) -> u64 {
        match self {
            Self::Identity => attr,
            Self::Fibonacci => attr.wrapping_mul(Self::PHI64),
        }
    }
}

/// A divisor with its reciprocal, so `n % d` costs two multiplies instead
/// of a hardware divide when both fit 32 bits (Lemire, Kaser & Kurz,
/// "Faster remainder by direct computation", 2019): with
/// `m = ceil(2^64 / d)`, `n % d == (m * n mod 2^64) * d >> 64` exactly for
/// every `n, d < 2^32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Divisor {
    d: u64,
    /// `ceil(2^64 / d)`; wraps to 0 for `d == 1`, which still yields the
    /// right remainder (0).
    m: u64,
}

impl Divisor {
    fn new(d: u64) -> Self {
        Self {
            d,
            m: (u64::MAX / d).wrapping_add(1),
        }
    }

    /// `n % d`, bit-identical to the operator for every `u64`.
    #[inline]
    fn rem(self, n: u64) -> u64 {
        if (n | self.d) >> 32 == 0 {
            let low = self.m.wrapping_mul(n);
            ((u128::from(low) * u128::from(self.d)) >> 64) as u64
        } else {
            n % self.d
        }
    }
}

/// The global hash-table position space: `positions` slots over an attribute
/// domain of `domain` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositionSpace {
    /// Number of hash-table positions (the paper's "hash table consists of
    /// H elements").
    pub positions: u32,
    /// Attribute domain `[0, domain)`.
    pub domain: u64,
    /// Attribute-to-hash-value function.
    pub hasher: AttrHasher,
    /// `domain` and `positions` with their reciprocals, fixed by
    /// [`Self::new`]: the public fields are for reading.
    by_domain: Divisor,
    by_positions: Divisor,
}

impl PositionSpace {
    /// Default position count: ~1M positions keeps chains short at the
    /// paper's relation sizes while staying cheap to histogram.
    pub const DEFAULT_POSITIONS: u32 = 1 << 20;

    /// Creates a position space.
    ///
    /// # Panics
    /// Panics if `positions == 0` or `domain == 0`.
    #[must_use]
    pub fn new(positions: u32, domain: u64, hasher: AttrHasher) -> Self {
        assert!(positions > 0, "need at least one position");
        assert!(domain > 0, "attribute domain must be non-empty");
        Self {
            positions,
            domain,
            hasher,
            by_domain: Divisor::new(domain),
            by_positions: Divisor::new(u64::from(positions)),
        }
    }

    /// `(hv % domain) % positions` without a hardware divide on the common
    /// path: a hash value already inside the domain (every generated
    /// attribute under the identity hasher) skips the first reduction, and
    /// the second goes through the reciprocal.
    #[inline]
    fn reduce(&self, hv: u64) -> u64 {
        let hv = if hv < self.domain {
            hv
        } else {
            self.by_domain.rem(hv)
        };
        self.by_positions.rem(hv)
    }

    /// Position of `attr`: its hash value mod `positions`.
    ///
    /// Modulo (rather than linear scaling) is what makes the skew behaviour
    /// match the paper's Figure 10: a Gaussian whose width exceeds the
    /// position count *wraps around* the table and spreads evenly (the
    /// σ = 0.001 case, where "all join algorithms adapt well"), while a
    /// narrower Gaussian (σ = 0.0001) concentrates on a contiguous band of
    /// positions and overloads "a few join nodes". Local value order is
    /// still preserved within a wrap, so each band is contiguous.
    #[must_use]
    #[inline]
    pub fn position_of(&self, attr: JoinAttr) -> u32 {
        self.reduce(self.hasher.mix(attr)) as u32
    }

    /// Bulk [`Self::position_of`] over a tuple batch: fills `out` (cleared
    /// first) with one position per tuple, in batch order. This is the
    /// pass-1 kernel of the batched probe pipeline and the hash-once source
    /// routing path.
    pub fn bulk_positions(&self, tuples: &[Tuple], out: &mut Vec<u32>) {
        out.clear();
        self.extend_positions(tuples, out);
    }

    /// [`Self::bulk_positions`] that appends to `out` instead of replacing
    /// its contents (a table's position log grows this way). The hasher
    /// dispatch is hoisted out of the loop and the body runs four
    /// independent hash chains per iteration.
    pub fn extend_positions(&self, tuples: &[Tuple], out: &mut Vec<u32>) {
        const PHI: u64 = AttrHasher::PHI64;
        let domain = self.domain;
        let positions = u64::from(self.positions);
        out.reserve(tuples.len());
        // x % 2^k == x & (2^k - 1) for unsigned x: when both spaces are
        // powers of two (the common configuration) the two modulos
        // strength-reduce to masks — and since positions <= domain, the
        // Identity pair folds into a single AND the compiler vectorizes.
        if domain.is_power_of_two() && positions.is_power_of_two() {
            let dm = domain - 1;
            let pm = positions - 1;
            match self.hasher {
                AttrHasher::Identity => fill_positions(tuples, out, |a| (a & dm) & pm),
                AttrHasher::Fibonacci => {
                    fill_positions(tuples, out, |a| (a.wrapping_mul(PHI) & dm) & pm);
                }
            }
        } else {
            match self.hasher {
                AttrHasher::Identity => fill_positions(tuples, out, |a| self.reduce(a)),
                AttrHasher::Fibonacci => {
                    fill_positions(tuples, out, |a| self.reduce(a.wrapping_mul(PHI)));
                }
            }
        }
    }
}

/// Four-wide unrolled position fill (the shared body of
/// [`PositionSpace::extend_positions`]'s specialized loops).
#[inline]
fn fill_positions(tuples: &[Tuple], out: &mut Vec<u32>, f: impl Fn(JoinAttr) -> u64) {
    let mut chunks = tuples.chunks_exact(4);
    for c in chunks.by_ref() {
        out.push(f(c[0].join_attr) as u32);
        out.push(f(c[1].join_attr) as u32);
        out.push(f(c[2].join_attr) as u32);
        out.push(f(c[3].join_attr) as u32);
    }
    for t in chunks.remainder() {
        out.push(f(t.join_attr) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_preserves_local_order() {
        // Within one wrap of the position space, larger values map to
        // larger positions (value locality for the range algorithms).
        let ps = PositionSpace::new(1024, 1 << 20, AttrHasher::Identity);
        assert_eq!(ps.position_of(100), 100);
        assert_eq!(ps.position_of(500), 500);
        assert!(ps.position_of(100) < ps.position_of(500));
        // And the mapping wraps modulo the position count.
        assert_eq!(ps.position_of(1024 + 5), 5);
    }

    #[test]
    fn positions_are_in_range() {
        let ps = PositionSpace::new(77, 1 << 32, AttrHasher::Identity);
        for attr in [0u64, 1, 12345, (1 << 32) - 1] {
            assert!(ps.position_of(attr) < 77);
        }
        let ps = PositionSpace::new(77, 1 << 32, AttrHasher::Fibonacci);
        for attr in [0u64, 1, 12345, (1 << 32) - 1] {
            assert!(ps.position_of(attr) < 77);
        }
    }

    #[test]
    fn wide_clusters_wrap_to_uniform_coverage() {
        // A value window wider than the position count covers every
        // position (the σ = 0.001 "adapts well" mechanism).
        let ps = PositionSpace::new(100, 10_000, AttrHasher::Identity);
        let mut seen = [false; 100];
        for v in 4000..4300u64 {
            seen[ps.position_of(v) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "300-wide window must cover 100 positions"
        );
        // A narrow window concentrates on a contiguous band.
        let mut band = [false; 100];
        for v in 4000..4010u64 {
            band[ps.position_of(v) as usize] = true;
        }
        assert_eq!(band.iter().filter(|&&s| s).count(), 10);
    }

    #[test]
    fn fibonacci_scatters_adjacent_values() {
        let ps = PositionSpace::new(1 << 16, 1 << 32, AttrHasher::Fibonacci);
        let a = ps.position_of(1000);
        let b = ps.position_of(1001);
        assert!(
            a.abs_diff(b) > 10,
            "adjacent values should scatter: {a} vs {b}"
        );
    }

    #[test]
    fn attrs_above_domain_wrap() {
        let ps = PositionSpace::new(10, 100, AttrHasher::Identity);
        assert_eq!(ps.position_of(105), ps.position_of(5));
    }

    #[test]
    fn identity_distribution_is_balanced() {
        // Uniform attrs through identity hashing fill positions evenly.
        let ps = PositionSpace::new(16, 1 << 16, AttrHasher::Identity);
        let mut counts = [0u32; 16];
        for attr in 0..(1u64 << 16) {
            counts[ps.position_of(attr) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == (1 << 12)));
    }

    #[test]
    fn bulk_positions_matches_per_tuple_position_of() {
        let mut state = 0xB17_C0DEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 3
        };
        for hasher in [AttrHasher::Identity, AttrHasher::Fibonacci] {
            for len in [0usize, 1, 3, 4, 5, 127, 1000] {
                let positions = 1 + (next() % 100_000) as u32;
                let domain = 1 + next() % (1 << 40);
                let ps = PositionSpace::new(positions, domain, hasher);
                let tuples: Vec<Tuple> = (0..len as u64).map(|i| Tuple::new(i, next())).collect();
                let mut out = vec![7; 2]; // must be cleared
                ps.bulk_positions(&tuples, &mut out);
                assert_eq!(out.len(), len);
                for (t, &pos) in tuples.iter().zip(&out) {
                    assert_eq!(pos, ps.position_of(t.join_attr));
                }
            }
        }
    }

    #[test]
    fn reciprocal_positions_equal_plain_modulo() {
        // Edge divisors (1, powers of two and their neighbours, the 32-bit
        // boundary, the benchmark's own sizes) against edge attributes
        // around each of them and around the 32- and 64-bit limits.
        let around = |x: u64| [x.wrapping_sub(1), x, x.wrapping_add(1)];
        let all_positions = [1u32, 2, 3, 1 << 16, (1 << 20) + 1, 209_715, u32::MAX];
        let domains = [
            1u64,
            2,
            7,
            1 << 20,
            53_687_091,
            u64::from(u32::MAX),
            1 << 32,
            (1 << 40) + 9,
            u64::MAX,
        ];
        let mut state = 0x5EED_0FD1_u64;
        let mut out = Vec::new();
        for positions in all_positions {
            for domain in domains {
                let mut attrs: Vec<u64> = [0, domain, u64::from(positions), 1 << 32, u64::MAX]
                    .into_iter()
                    .flat_map(around)
                    .collect();
                for _ in 0..64 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Mixed magnitudes: shift some draws under 32 bits.
                    attrs.push(state >> (state % 61));
                }
                let tuples: Vec<Tuple> = attrs.iter().map(|&a| Tuple::new(0, a)).collect();
                for hasher in [AttrHasher::Identity, AttrHasher::Fibonacci] {
                    let ps = PositionSpace::new(positions, domain, hasher);
                    ps.bulk_positions(&tuples, &mut out);
                    for (&a, &bulk) in attrs.iter().zip(&out) {
                        let plain = hasher.mix(a) % domain % u64::from(positions);
                        assert_eq!(
                            u64::from(ps.position_of(a)),
                            plain,
                            "{hasher:?} attr {a} domain {domain} positions {positions}"
                        );
                        assert_eq!(u64::from(bulk), plain, "bulk, attr {a}");
                    }
                }
            }
        }
    }

    #[test]
    fn extend_positions_appends_where_bulk_positions_replaces() {
        let ps = PositionSpace::new(77, 1000, AttrHasher::Identity);
        let tuples: Vec<Tuple> = (0..9).map(|i| Tuple::new(i, i * 131)).collect();
        let mut out = vec![5, 6];
        ps.extend_positions(&tuples, &mut out);
        assert_eq!(out.len(), 11);
        assert_eq!(&out[..2], &[5, 6]);
        let mut fresh = vec![9];
        ps.bulk_positions(&tuples, &mut fresh);
        assert_eq!(&out[2..], fresh.as_slice());
    }

    #[test]
    #[should_panic(expected = "position")]
    fn zero_positions_panics() {
        let _ = PositionSpace::new(0, 10, AttrHasher::Identity);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn zero_domain_panics() {
        let _ = PositionSpace::new(10, 0, AttrHasher::Identity);
    }
}
