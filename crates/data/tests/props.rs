//! Randomized-property tests for the data substrate, driven by the crate's
//! own deterministic generators (fixed seeds, no external property-testing
//! dependency).

use ehj_data::{Distribution, JoinAttrSampler, RelationSpec, SplitMix64, Xoshiro256StarStar};

#[test]
fn xoshiro_next_below_is_always_in_range() {
    let mut g = Xoshiro256StarStar::new(0x1001);
    for _ in 0..64 {
        let seed = g.next_u64();
        let bound = 1 + g.next_below(u64::MAX - 1);
        let mut x = Xoshiro256StarStar::new(seed);
        for _ in 0..64 {
            assert!(x.next_below(bound) < bound);
        }
    }
}

#[test]
fn xoshiro_streams_are_reproducible() {
    let mut g = Xoshiro256StarStar::new(0x2002);
    for _ in 0..64 {
        let seed = g.next_u64();
        let mut a = Xoshiro256StarStar::new(seed);
        let mut b = Xoshiro256StarStar::new(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

#[test]
fn derive_is_pure_and_distinct() {
    let mut g = Xoshiro256StarStar::new(0x3003);
    for _ in 0..256 {
        let seed = g.next_u64();
        let n = g.next_below(1000);
        let sm = SplitMix64::new(seed);
        assert_eq!(sm.derive(n), sm.derive(n));
        assert_ne!(sm.derive(n), sm.derive(n + 1));
    }
}

#[test]
fn sampler_stays_in_domain() {
    let mut g = Xoshiro256StarStar::new(0x4004);
    for _ in 0..128 {
        let seed = g.next_u64();
        let domain = 1 + g.next_below(u64::MAX / 2 - 1);
        let mean = g.next_f64();
        let sigma = 1e-6 + g.next_f64() * 10.0;
        let mut s = JoinAttrSampler::new(Distribution::Gaussian { mean, sigma }, domain, seed);
        for _ in 0..64 {
            assert!(s.sample() < domain);
        }
    }
}

#[test]
fn source_slices_partition_the_relation() {
    let mut g = Xoshiro256StarStar::new(0x5005);
    for _ in 0..256 {
        let tuples = g.next_below(100_000);
        let sources = 1 + g.next_below(31) as usize;
        let spec = RelationSpec::uniform(tuples, 1);
        let mut covered = 0u64;
        let mut prev_end = 0u64;
        for s in 0..sources {
            let (start, end) = spec.slice_for_source(s, sources);
            assert_eq!(start, prev_end);
            assert!(end >= start);
            covered += end - start;
            prev_end = end;
        }
        assert_eq!(covered, tuples);
    }
}

#[test]
fn distributed_generation_is_a_permutation_invariant_multiset() {
    let mut g = Xoshiro256StarStar::new(0x6006);
    for _ in 0..32 {
        let tuples = 1 + g.next_below(2999);
        let sources = 1 + g.next_below(7) as usize;
        let seed = g.next_u64();
        // Indices must cover 0..tuples exactly once regardless of the
        // source count (attribute streams differ by design).
        let spec = RelationSpec::uniform(tuples, seed);
        let mut indices: Vec<u64> = spec
            .generate_distributed(sources)
            .iter()
            .map(|t| t.index)
            .collect();
        indices.sort_unstable();
        let expect: Vec<u64> = (0..tuples).collect();
        assert_eq!(indices, expect);
    }
}
