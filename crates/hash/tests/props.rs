//! Randomized-property tests for the hashing substrate: the invariants every
//! algorithm's correctness rests on.
//!
//! Cases are driven by the repo's own deterministic [`Xoshiro256StarStar`]
//! generator (fixed seeds), so the suite is reproducible and needs no
//! external property-testing dependency.

use ehj_data::{Schema, Tuple, Xoshiro256StarStar};
use ehj_hash::{
    greedy_equal_partition, part_loads, AttrHasher, BucketMap, ChainedTable, HashRange,
    JoinHashTable, PositionSpace, ProbeKernel, ProbeScratch, ReplicaMap,
};

#[test]
fn positions_are_always_in_range() {
    let mut g = Xoshiro256StarStar::new(0xA11CE);
    for _ in 0..256 {
        let positions = 1 + g.next_below(1_000_000 - 1) as u32;
        let domain = 1 + g.next_below(u64::MAX / 2 - 1);
        let attr = g.next_u64();
        for hasher in [AttrHasher::Identity, AttrHasher::Fibonacci] {
            let ps = PositionSpace::new(positions, domain, hasher);
            assert!(ps.position_of(attr) < positions);
        }
    }
}

#[test]
fn range_partition_covers_disjointly() {
    let mut g = Xoshiro256StarStar::new(0xB0B);
    for _ in 0..256 {
        let total = 1 + g.next_below(1_000_000 - 1) as u32;
        let k = 1 + g.next_below(63) as usize;
        let parts = HashRange::partition(total, k);
        assert_eq!(parts.len(), k);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[k - 1].end, total);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}

/// Every position has exactly one owner in a ReplicaMap, and replication
/// only ever appends owners.
#[test]
fn replica_map_owner_lists_only_grow() {
    let mut g = Xoshiro256StarStar::new(0xC0FFEE);
    for _ in 0..128 {
        let positions = 8 + g.next_below(4096 - 8) as u32;
        let owners = 2 + g.next_below(6) as usize;
        let replications = g.next_below(6) as usize;
        let probe_pos = g.next_below(4096) as u32;

        let owner_ids: Vec<u32> = (0..owners as u32).collect();
        let mut m = ReplicaMap::partitioned(positions, &owner_ids);
        for next in 100..100 + replications as u32 {
            let active = m.active_of(probe_pos % positions);
            let before = m.owners_of(probe_pos % positions).len();
            let _ = m.replicate(active, next);
            let after = m.owners_of(probe_pos % positions).len();
            assert_eq!(after, before + 1);
            assert_eq!(m.active_of(probe_pos % positions), next);
        }
    }
}

/// BucketMap routing must always agree with incrementally applying each
/// SplitStep's predicate — this is exactly what keeps data placement and
/// probe routing consistent in the split-based algorithm.
#[test]
fn bucket_map_routing_tracks_split_steps() {
    let mut g = Xoshiro256StarStar::new(0xD00D);
    for _ in 0..24 {
        let n0 = 1 + g.next_below(5) as usize;
        let domain = 64 + g.next_below(8192 - 64);
        let splits = g.next_below(40) as usize;

        let owners: Vec<u32> = (0..n0 as u32).collect();
        let mut m = BucketMap::new(owners, domain);
        let mut assignment: Vec<u32> = (0..domain).map(|v| m.bucket_of(v)).collect();
        for i in 0..splits {
            let (step, _) = m.split(n0 as u32 + i as u32);
            for (v, slot) in assignment.iter_mut().enumerate() {
                if *slot == step.old && step.moves_to_new(v as u64) {
                    *slot = step.new;
                }
            }
            for v in 0..domain {
                assert_eq!(m.bucket_of(v), assignment[v as usize]);
            }
        }
    }
}

/// The reshuffle heuristic's contract: k contiguous parts covering the
/// histogram, each no heavier than the ideal share plus one cell.
#[test]
fn greedy_partition_is_balanced_cover() {
    let mut g = Xoshiro256StarStar::new(0xFACE);
    for _ in 0..200 {
        let len = g.next_below(400) as usize;
        let counts: Vec<u64> = (0..len).map(|_| g.next_below(10_000)).collect();
        let k = 1 + g.next_below(16) as usize;

        let parts = greedy_equal_partition(&counts, k);
        assert_eq!(parts.len(), k);
        assert_eq!(parts.first().map(|p| p.0), Some(0));
        assert_eq!(parts.last().map(|p| p.1), Some(counts.len()));
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        let loads = part_loads(&counts, &parts);
        let total: u64 = counts.iter().sum();
        assert_eq!(loads.iter().sum::<u64>(), total);
        let max_cell = counts.iter().copied().max().unwrap_or(0);
        let ideal = total / k as u64;
        for &l in &loads {
            assert!(l <= ideal + max_cell + 1);
        }
    }
}

/// Hash-table conservation: histogram totals, extraction and probes
/// must all agree with the inserted multiset.
#[test]
fn table_conserves_tuples() {
    let mut g = Xoshiro256StarStar::new(0xBEEF);
    for _ in 0..100 {
        let len = g.next_below(300) as usize;
        let attrs: Vec<u64> = (0..len).map(|_| g.next_below(500)).collect();
        let cut = g.next_below(100) as u32;

        let space = PositionSpace::new(100, 500, AttrHasher::Identity);
        let mut t = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        for (i, &a) in attrs.iter().enumerate() {
            t.insert(Tuple::new(i as u64, a)).expect("unbounded");
        }
        let hist = t.position_histogram(0, 100);
        assert_eq!(hist.iter().sum::<u64>(), attrs.len() as u64);
        let lower = t.extract_range(0, cut);
        let upper_count = t.len();
        assert_eq!(lower.len() as u64 + upper_count, attrs.len() as u64);
        for tp in &lower {
            assert!(space.position_of(tp.join_attr) < cut);
        }
        for tp in t.iter() {
            assert!(space.position_of(tp.join_attr) >= cut);
        }
    }
}

/// Probing counts exactly the number of equal-attribute build tuples.
#[test]
fn probe_counts_equal_attrs() {
    let mut g = Xoshiro256StarStar::new(0x5EED);
    for _ in 0..100 {
        let len = 1 + g.next_below(299) as usize;
        let attrs: Vec<u64> = (0..len).map(|_| g.next_below(64)).collect();
        let probe = g.next_below(64);

        let space = PositionSpace::new(16, 64, AttrHasher::Identity);
        let mut t = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        for (i, &a) in attrs.iter().enumerate() {
            t.insert(Tuple::new(i as u64, a)).expect("unbounded");
        }
        let expect = attrs.iter().filter(|&&a| a == probe).count() as u64;
        assert_eq!(t.probe(probe).matches, expect);
    }
}

/// Capacity is a hard wall: inserts succeed exactly `capacity` times.
#[test]
fn capacity_is_exact() {
    let mut g = Xoshiro256StarStar::new(0xCAFE);
    for _ in 0..64 {
        let cap_tuples = g.next_below(200);
        let space = PositionSpace::new(16, 64, AttrHasher::Identity);
        let schema = Schema::default_paper();
        let bpt = schema.tuple_bytes() + ehj_hash::ENTRY_OVERHEAD_BYTES;
        let mut t = JoinHashTable::new(space, schema, cap_tuples * bpt);
        let mut ok = 0u64;
        for i in 0..cap_tuples + 10 {
            if t.insert(Tuple::new(i, i % 64)).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, cap_tuples);
    }
}

/// Differential property: the position-ordered [`JoinHashTable`] must be
/// observably equivalent to the reference [`ChainedTable`] — identical
/// [`ehj_hash::ProbeResult`]s, per-position histograms, [`ehj_hash::TableFull`]
/// trigger points, extraction/drain contents (as multisets) and byte
/// accounting — across randomized insert/probe/extract/drain sequences.
#[test]
fn flat_table_equals_chained_reference() {
    /// Sorts a removal result so multiset comparison ignores the two
    /// layouts' different internal orders.
    fn canon(mut v: Vec<Tuple>) -> Vec<Tuple> {
        v.sort_unstable_by_key(|t| (t.join_attr, t.index));
        v
    }

    let mut g = Xoshiro256StarStar::new(0xD1FF);
    for case in 0..100 {
        let positions = 16 + g.next_below(256 - 16) as u32;
        let domain = positions as u64 * (1 + g.next_below(8));
        let cap_tuples = g.next_below(400);
        let hasher = if case % 2 == 0 {
            AttrHasher::Identity
        } else {
            AttrHasher::Fibonacci
        };
        let space = PositionSpace::new(positions, domain, hasher);
        let schema = Schema::default_paper();
        let bpt = schema.tuple_bytes() + ehj_hash::ENTRY_OVERHEAD_BYTES;
        let mut flat = JoinHashTable::new(space, schema, cap_tuples * bpt);
        let mut chained = ChainedTable::new(space, schema, cap_tuples * bpt);

        let ops = 20 + g.next_below(60);
        let mut next_index = 0u64;
        for _ in 0..ops {
            match g.next_below(100) {
                // Insert a burst of tuples (the dominant operation).
                0..=59 => {
                    for _ in 0..g.next_below(40) {
                        let t = Tuple::new(next_index, g.next_below(domain));
                        next_index += 1;
                        assert_eq!(
                            flat.insert(t),
                            chained.insert(t),
                            "TableFull must trigger at the same insert"
                        );
                    }
                }
                // Unchecked insert (reshuffle receiver path).
                60..=64 => {
                    let t = Tuple::new(next_index, g.next_below(domain));
                    next_index += 1;
                    flat.insert_unchecked(t);
                    chained.insert_unchecked(t);
                }
                // Probe a random attribute.
                65..=84 => {
                    let attr = g.next_below(domain);
                    assert_eq!(flat.probe(attr), chained.probe(attr));
                    assert_eq!(
                        canon(flat.probe_collect(attr)),
                        canon(chained.probe_collect(attr))
                    );
                }
                // Histogram over a random subrange.
                85..=89 => {
                    let a = g.next_below(positions as u64) as u32;
                    let b = a + g.next_below((positions - a) as u64 + 1) as u32;
                    assert_eq!(
                        flat.position_histogram(a, b),
                        chained.position_histogram(a, b)
                    );
                }
                // Extract a random subrange (reshuffle).
                90..=94 => {
                    let a = g.next_below(positions as u64) as u32;
                    let b = a + g.next_below((positions - a) as u64 + 1) as u32;
                    assert_eq!(
                        canon(flat.extract_range(a, b)),
                        canon(chained.extract_range(a, b))
                    );
                }
                // Predicate drain (linear-hash bucket split).
                95..=97 => {
                    let m = 2 + g.next_below(5);
                    assert_eq!(
                        canon(flat.drain_filter(|t| t.join_attr % m == 0)),
                        canon(chained.drain_filter(|t| t.join_attr % m == 0))
                    );
                }
                // Full drain (spill activation).
                _ => {
                    assert_eq!(canon(flat.drain_all()), canon(chained.drain_all()));
                }
            }
            assert_eq!(flat.len(), chained.len());
            assert_eq!(flat.bytes_used(), chained.bytes_used());
            assert_eq!(flat.remaining_tuples(), chained.remaining_tuples());
            // Unchecked inserts may exceed the capacity: nothing more fits.
            if flat.bytes_used() > flat.capacity_bytes() {
                assert_eq!(flat.remaining_tuples(), 0);
            }
        }
        assert_eq!(
            canon(flat.iter().copied().collect()),
            canon(chained.iter().copied().collect()),
            "final contents must agree"
        );
    }
}

/// Ordering invariants of the lazily position-ordered arena, over random
/// sequences of insert / probe / batch probe / histogram / extract / drain:
/// the directory always equals a brute-force recount of `iter()`; the sort
/// is stable (`probe_collect` returns a position's matches in insertion
/// order); `extract_range` returns position-major, insertion-minor order;
/// a position drain on a table that was never probed or range-extracted
/// returns exact insertion order; and probing between inserts never changes
/// what a later probe finds.
#[test]
fn ordered_arena_invariants_hold_across_mutations() {
    let mut g = Xoshiro256StarStar::new(0x0BDE2);
    for case in 0..80 {
        let positions = 16 + g.next_below(112) as u32;
        let domain = positions as u64 * (1 + g.next_below(6));
        let hasher = if case % 2 == 0 {
            AttrHasher::Identity
        } else {
            AttrHasher::Fibonacci
        };
        let space = PositionSpace::new(positions, domain, hasher);
        let mut t = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        // The model: every resident tuple, in insertion order (indices are
        // issued in increasing order, so sorting by index recovers it).
        let mut model: Vec<Tuple> = Vec::new();
        // Whether anything has ordered the arena yet.
        let mut ordered_once = false;
        let mut next_index = 0u64;
        let mut scratch = ProbeScratch::new();
        for _ in 0..20 + g.next_below(40) {
            match g.next_below(100) {
                0..=44 => {
                    for _ in 0..g.next_below(30) {
                        let tp = Tuple::new(next_index, g.next_below(domain));
                        next_index += 1;
                        t.insert_unchecked(tp);
                        model.push(tp);
                    }
                }
                45..=59 => {
                    let attr = g.next_below(domain);
                    let expect: Vec<Tuple> = model
                        .iter()
                        .filter(|m| m.join_attr == attr)
                        .copied()
                        .collect();
                    assert_eq!(t.probe(attr).matches, expect.len() as u64);
                    assert_eq!(t.probe_collect(attr), expect, "the sort must be stable");
                    ordered_once = true;
                }
                60..=69 => {
                    let probes: Vec<Tuple> = (0..g.next_below(40))
                        .map(|i| Tuple::new(i, g.next_below(domain)))
                        .collect();
                    let stats = t.probe_batch_with(&probes, &mut scratch, ProbeKernel::Batched);
                    let expect = probes
                        .iter()
                        .map(|p| model.iter().filter(|m| m.join_attr == p.join_attr).count())
                        .sum::<usize>();
                    assert_eq!(stats.matches, expect as u64);
                    ordered_once = true;
                }
                70..=79 => {
                    let a = g.next_below(positions as u64) as u32;
                    let b = a + g.next_below((positions - a) as u64 + 1) as u32;
                    let mut expect: Vec<Tuple> = model
                        .iter()
                        .filter(|m| (a..b).contains(&space.position_of(m.join_attr)))
                        .copied()
                        .collect();
                    // Position-major, insertion-minor (the model is in
                    // insertion order and the sort is stable).
                    expect.sort_by_key(|m| space.position_of(m.join_attr));
                    assert_eq!(t.extract_range(a, b), expect);
                    model.retain(|m| !(a..b).contains(&space.position_of(m.join_attr)));
                    ordered_once = true;
                }
                80..=89 => {
                    let cut = g.next_below(positions as u64) as u32;
                    let moved = t.drain_positions(|p| p >= cut);
                    let mut expect: Vec<Tuple> = model
                        .iter()
                        .filter(|m| space.position_of(m.join_attr) >= cut)
                        .copied()
                        .collect();
                    if ordered_once {
                        // Arena order is then some mix of position and
                        // insertion order: compare as multisets.
                        let mut moved = moved;
                        moved.sort_unstable_by_key(|m| m.index);
                        expect.sort_unstable_by_key(|m| m.index);
                        assert_eq!(moved, expect);
                    } else {
                        assert_eq!(moved, expect, "an unordered drain keeps insertion order");
                    }
                    model.retain(|m| space.position_of(m.join_attr) < cut);
                }
                _ => {
                    let m = 2 + g.next_below(5);
                    let mut moved = t.drain_filter(|tp| tp.join_attr % m == 0);
                    moved.sort_unstable_by_key(|tp| tp.index);
                    let expect: Vec<Tuple> = model
                        .iter()
                        .filter(|tp| tp.join_attr % m == 0)
                        .copied()
                        .collect();
                    assert_eq!(moved, expect);
                    model.retain(|tp| tp.join_attr % m != 0);
                }
            }
            // The directory equals a brute-force recount of the arena.
            let mut recount = vec![0u64; positions as usize];
            for tp in t.iter() {
                recount[space.position_of(tp.join_attr) as usize] += 1;
            }
            assert_eq!(t.position_histogram(0, positions), recount);
            assert_eq!(t.len(), model.len() as u64);
        }
        // One probe of the final contents finds what the interleaved probes
        // and inserts built up: compare against a table built in one go.
        let mut fresh = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        fresh.insert_batch_unchecked(&model);
        for attr in 0..domain {
            assert_eq!(t.probe(attr), fresh.probe(attr), "case {case}, attr {attr}");
        }
    }
}

/// The batched probe pipeline must be observably identical to running the
/// scalar probe over the same tuples: same total matches, same total
/// compares (the fingerprint filter only skips chain walks whose compare
/// count it can charge exactly), and positions computed as the scalar path
/// would.
#[test]
fn probe_batch_equals_scalar_probe_sequence() {
    let mut g = Xoshiro256StarStar::new(0xBA7C4);
    for case in 0..100 {
        let positions = 16 + g.next_below(128 - 16) as u32;
        let domain = positions as u64 * (1 + g.next_below(8));
        let hasher = if case % 2 == 0 {
            AttrHasher::Identity
        } else {
            AttrHasher::Fibonacci
        };
        let space = PositionSpace::new(positions, domain, hasher);
        let mut t = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        // Duplicate-heavy inserts so chains form and some probes miss.
        let build = g.next_below(300) as usize;
        for i in 0..build {
            t.insert(Tuple::new(i as u64, g.next_below(domain)))
                .expect("unbounded");
        }
        // Occasionally exercise the range-extraction path first.
        if g.next_below(4) == 0 {
            let cut = g.next_below(positions as u64) as u32;
            let _ = t.extract_range(0, cut);
        }
        let probes: Vec<Tuple> = (0..g.next_below(200))
            .map(|i| Tuple::new(10_000 + i, g.next_below(domain)))
            .collect();

        let mut scalar_matches = 0u64;
        let mut scalar_compared = 0u64;
        for p in &probes {
            let r = t.probe(p.join_attr);
            scalar_matches += r.matches;
            scalar_compared += r.compared;
        }
        let mut scratch = ProbeScratch::new();
        let stats = t.probe_batch_with(&probes, &mut scratch, ProbeKernel::Batched);
        assert_eq!(stats.matches, scalar_matches);
        assert_eq!(stats.compared, scalar_compared);
        assert_eq!(stats.probes, probes.len() as u64);
        assert_eq!(scratch.positions().len(), probes.len());
        for (p, &pos) in probes.iter().zip(scratch.positions()) {
            assert_eq!(pos, space.position_of(p.join_attr));
        }
    }
}

/// Both probe kernels must agree byte-for-byte on `matches` and `compared`
/// with the scalar probe sequence, across random tables, both hashers,
/// extractions and batch lengths straddling both prefetch distances.
#[test]
fn probe_kernels_agree_with_scalar_probe_sequence() {
    let mut g = Xoshiro256StarStar::new(0x5E1EC7);
    for case in 0..100 {
        let positions = 16 + g.next_below(128 - 16) as u32;
        let domain = positions as u64 * (1 + g.next_below(8));
        let hasher = if case % 2 == 0 {
            AttrHasher::Identity
        } else {
            AttrHasher::Fibonacci
        };
        let space = PositionSpace::new(positions, domain, hasher);
        let mut t = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        for i in 0..g.next_below(300) {
            t.insert(Tuple::new(i, g.next_below(domain)))
                .expect("unbounded");
        }
        if g.next_below(4) == 0 {
            let cut = g.next_below(positions as u64) as u32;
            let _ = t.extract_range(0, cut);
        }
        let probes: Vec<Tuple> = (0..g.next_below(200))
            .map(|i| Tuple::new(10_000 + i, g.next_below(domain)))
            .collect();

        let mut scalar_matches = 0u64;
        let mut scalar_compared = 0u64;
        for p in &probes {
            let r = t.probe(p.join_attr);
            scalar_matches += r.matches;
            scalar_compared += r.compared;
        }
        let mut scratch = ProbeScratch::new();
        for kernel in ProbeKernel::ALL {
            let stats = t.probe_batch_with(&probes, &mut scratch, kernel);
            assert_eq!(stats.matches, scalar_matches, "case {case}, {kernel}");
            assert_eq!(stats.compared, scalar_compared, "case {case}, {kernel}");
            assert_eq!(stats.probes, probes.len() as u64, "case {case}, {kernel}");
        }
    }
}

/// The long-run match memo must never answer from before a mutation: on a
/// duplicate-heavy table (a few positions, a handful of keys, runs far past
/// the memo threshold) every way the contents can change is interleaved
/// with batched probes that repeat the same keys, and after every step the
/// batched stats equal the scalar sum and the [`ChainedTable`] reference.
#[test]
fn long_run_memo_is_never_stale_across_mutations() {
    let mut g = Xoshiro256StarStar::new(0x3E30);
    for case in 0..60 {
        let positions = 1 + g.next_below(8) as u32;
        let domain = u64::from(positions) * (2 + g.next_below(6));
        let hasher = if case % 2 == 0 {
            AttrHasher::Identity
        } else {
            AttrHasher::Fibonacci
        };
        let space = PositionSpace::new(positions, domain, hasher);
        let schema = Schema::default_paper();
        let mut flat = JoinHashTable::new(space, schema, u64::MAX);
        let mut chained = ChainedTable::new(space, schema, u64::MAX);
        let keys: Vec<u64> = (0..3 + g.next_below(4))
            .map(|_| g.next_below(domain))
            .collect();
        let mut scratch = ProbeScratch::new();
        let mut next_index = 0u64;
        for step in 0..40 {
            match g.next_below(100) {
                // A burst of one key, checked: its run outgrows the threshold.
                0..=29 => {
                    let key = keys[g.next_below(keys.len() as u64) as usize];
                    for _ in 0..20 + g.next_below(60) {
                        let t = Tuple::new(next_index, key);
                        next_index += 1;
                        flat.insert(t).expect("unbounded");
                        chained.insert(t).expect("unbounded");
                    }
                }
                // A mixed bulk batch (the reshuffle receiver's path).
                30..=44 => {
                    let batch: Vec<Tuple> = (0..g.next_below(80))
                        .map(|i| {
                            let key = keys[g.next_below(keys.len() as u64) as usize];
                            Tuple::new(next_index + i, key)
                        })
                        .collect();
                    next_index += batch.len() as u64;
                    flat.insert_batch_unchecked(&batch);
                    for &t in &batch {
                        chained.insert_unchecked(t);
                    }
                }
                45..=54 => {
                    let a = g.next_below(u64::from(positions)) as u32;
                    let b = a + g.next_below(u64::from(positions - a) + 1) as u32;
                    let moved = flat.extract_range(a, b).len();
                    assert_eq!(moved, chained.extract_range(a, b).len());
                }
                55..=62 => {
                    let m = 2 + g.next_below(3);
                    let moved = flat.drain_filter(|t| t.join_attr % m == 0).len();
                    assert_eq!(moved, chained.drain_filter(|t| t.join_attr % m == 0).len());
                }
                63..=70 => {
                    let cut = g.next_below(u64::from(positions)) as u32;
                    let moved = flat.drain_positions(|p| p >= cut).len();
                    let expect = chained.drain_filter(|t| space.position_of(t.join_attr) >= cut);
                    assert_eq!(moved, expect.len());
                }
                71..=74 => {
                    assert_eq!(flat.drain_all().len(), chained.drain_all().len());
                }
                // A copy carries its own memo and generation along.
                75..=82 => flat = flat.clone(),
                // Probe again with nothing changed: the memo's hit path.
                _ => {}
            }
            let probes: Vec<Tuple> = (0..g.next_below(120))
                .map(|i| {
                    let attr = if g.next_below(8) == 0 {
                        g.next_below(domain)
                    } else {
                        keys[g.next_below(keys.len() as u64) as usize]
                    };
                    Tuple::new(i, attr)
                })
                .collect();
            let reference = probes.iter().fold((0, 0), |(m, c), p| {
                let r = chained.probe(p.join_attr);
                (m + r.matches, c + r.compared)
            });
            // Either kernel may be the first reader after the mutation, and
            // so the one whose `order()` re-sorts.
            let mut kernels = ProbeKernel::ALL;
            if g.next_below(2) == 0 {
                kernels.reverse();
            }
            for kernel in kernels {
                let stats = flat.probe_batch_with(&probes, &mut scratch, kernel);
                assert_eq!(
                    (stats.matches, stats.compared),
                    reference,
                    "case {case}, step {step}, {kernel}"
                );
            }
        }
    }
}

/// `bulk_positions` must agree with per-tuple `position_of` over random
/// domains, both hashers and awkward lengths.
#[test]
fn bulk_positions_agrees_with_position_of() {
    let mut g = Xoshiro256StarStar::new(0xB01_CA5E);
    let mut positions_out = Vec::new();
    for _ in 0..200 {
        let domain = 1 + g.next_below(u64::MAX / 2);
        let positions = 1 + g.next_below(1 << 20) as u32;
        let len = g.next_below(70) as usize;
        let tuples: Vec<Tuple> = (0..len as u64)
            .map(|i| Tuple::new(i, g.next_u64()))
            .collect();
        for hasher in [AttrHasher::Identity, AttrHasher::Fibonacci] {
            let ps = PositionSpace::new(positions, domain, hasher);
            ps.bulk_positions(&tuples, &mut positions_out);
            assert_eq!(positions_out.len(), len);
            for (t, &pos) in tuples.iter().zip(&positions_out) {
                assert_eq!(pos, ps.position_of(t.join_attr), "{hasher:?}");
            }
        }
    }
}

/// Filter-maintenance invariants across every mutation path: the per-position
/// chain counts always equal the histogram, every resident attribute's
/// fingerprint is present in its position's tag (no false negatives), and
/// emptied positions carry an empty tag.
#[test]
fn filters_track_histogram_across_mutations() {
    let mut g = Xoshiro256StarStar::new(0xF117E2);
    for _ in 0..60 {
        let positions = 16 + g.next_below(96) as u32;
        let domain = positions as u64 * (1 + g.next_below(6));
        let space = PositionSpace::new(positions, domain, AttrHasher::Identity);
        let mut t = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        let mut next_index = 0u64;
        for _ in 0..20 + g.next_below(40) {
            match g.next_below(100) {
                0..=49 => {
                    for _ in 0..g.next_below(30) {
                        let _ = t.insert(Tuple::new(next_index, g.next_below(domain)));
                        next_index += 1;
                    }
                }
                50..=59 => {
                    t.insert_unchecked(Tuple::new(next_index, g.next_below(domain)));
                    next_index += 1;
                }
                60..=69 => {
                    let batch: Vec<Tuple> = (0..g.next_below(30))
                        .map(|_| {
                            next_index += 1;
                            Tuple::new(next_index, g.next_below(domain))
                        })
                        .collect();
                    t.insert_batch_unchecked(&batch);
                }
                70..=79 => {
                    let a = g.next_below(positions as u64) as u32;
                    let b = a + g.next_below((positions - a) as u64 + 1) as u32;
                    let _ = t.extract_range(a, b);
                }
                80..=89 => {
                    let m = 2 + g.next_below(5);
                    let _ = t.drain_filter(|tp| tp.join_attr % m == 0);
                }
                90..=94 => {
                    let _ = t.drain_all();
                }
                _ => {
                    let cut = g.next_below(positions as u64 / 2) as u32;
                    let _ = t.drain_positions(|pos| pos < cut);
                }
            }
            let hist = t.position_histogram(0, positions);
            for pos in 0..positions {
                assert_eq!(
                    u64::from(t.chain_count(pos)),
                    hist[pos as usize],
                    "chain count must track the histogram at {pos}"
                );
                if t.chain_count(pos) == 0 {
                    assert_eq!(t.filter_tag(pos), 0, "empty position keeps no tag");
                }
            }
            for tp in t.iter().copied().collect::<Vec<_>>() {
                let pos = space.position_of(tp.join_attr);
                let fp = ehj_hash::filter_fingerprint(tp.join_attr);
                assert_eq!(
                    t.filter_tag(pos) & fp,
                    fp,
                    "resident attr's fingerprint must be present (no false negatives)"
                );
            }
        }
    }
}
