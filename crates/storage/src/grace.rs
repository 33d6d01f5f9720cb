//! Grace-style out-of-core join for one node.
//!
//! §2 of the paper: "The basic out-of-core join algorithm partitions the
//! hash table into `k` buckets so that each bucket fits in memory. ...
//! relation R is partitioned among the buckets using a hash function. The
//! buckets are written to disk. In the second phase, relation S is scanned
//! and partitioned into buckets using the same hash function. ... In the
//! third phase, the basic in-core hash-based join algorithm is applied to
//! each pair of buckets."
//!
//! [`GraceJoin`] implements that per node: once a node's in-memory table
//! overflows, its contents and all subsequent build tuples are partitioned
//! into fragment files by position subrange; probe tuples stream into
//! matching fragment files; [`GraceJoin::finalize`] then joins each
//! fragment pair in memory, recursively re-partitioning fragments that
//! still do not fit and falling back to block nested-loop when a fragment
//! cannot be subdivided (e.g. one hot value under extreme skew).
//!
//! The struct only *stores* data and counts I/O volume; the caller charges
//! simulated disk time from the returned byte counts (or real I/O happens
//! inside a [`crate::backend::FileBackend`]). Every fragment read goes back
//! to the [`BufferPool`] once joined or re-partitioned, as does each
//! in-memory table's arena, so finalizing fragment after fragment reuses
//! one set of buffers.

use crate::backend::{PartitionId, SpillBackend};
use ehj_data::{BufferPool, Schema, Tuple};
use ehj_hash::{
    HashRange, JoinHashTable, PositionSpace, ProbeKernel, ProbeScratch, ENTRY_OVERHEAD_BYTES,
};

/// Tuning parameters for the out-of-core join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraceConfig {
    /// Fan-out: fragments created per (re-)partitioning step.
    pub fragments: u32,
    /// Maximum re-partitioning depth before falling back to block
    /// nested-loop join.
    pub max_depth: u32,
}

impl Default for GraceConfig {
    fn default() -> Self {
        Self {
            fragments: 16,
            max_depth: 4,
        }
    }
}

/// Aggregate result of the out-of-core join of one node's fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraceResult {
    /// Matching (r, s) pairs found.
    pub matches: u64,
    /// Chain elements compared while probing.
    pub compares: u64,
    /// Raw tuple bytes read back from disk during finalize.
    pub bytes_read: u64,
    /// Raw tuple bytes re-written during recursive re-partitioning.
    pub bytes_rewritten: u64,
    /// Build tuples inserted into in-memory tables during finalize (each
    /// block-nested-loop pass counts its block inserts) — the CPU driver
    /// for the caller's cost accounting.
    pub build_inserts: u64,
    /// Deepest re-partitioning level used (0 = every fragment fit).
    pub max_depth_reached: u32,
    /// Fragment pairs joined by block nested-loop fallback.
    pub nested_loop_fragments: u64,
}

struct Fragment {
    range: HashRange,
    build: PartitionId,
    probe: PartitionId,
    depth: u32,
}

/// Reused routing scratch: the incoming batch's positions and one outgoing
/// buffer per fragment.
#[derive(Default)]
struct Scatter {
    positions: Vec<u32>,
    groups: Vec<Vec<Tuple>>,
}

impl Scatter {
    /// Appends each tuple to the build or probe partition of the fragment
    /// of `frags` whose subrange holds its position (the last one for a
    /// position past them all): one bulk hash of the batch, one backend
    /// append per fragment that received anything.
    fn append<B: SpillBackend>(
        &mut self,
        space: PositionSpace,
        backend: &mut B,
        frags: &[Fragment],
        tuples: &[Tuple],
        probe_side: bool,
    ) {
        space.bulk_positions(tuples, &mut self.positions);
        if self.groups.len() < frags.len() {
            self.groups.resize_with(frags.len(), Vec::new);
        }
        for (t, &pos) in tuples.iter().zip(&self.positions) {
            let i = frags
                .partition_point(|f| f.range.end <= pos)
                .min(frags.len() - 1);
            self.groups[i].push(*t);
        }
        for (frag, group) in frags.iter().zip(&mut self.groups) {
            if group.is_empty() {
                continue;
            }
            let part = if probe_side { frag.probe } else { frag.build };
            backend.append(part, group);
            group.clear();
        }
    }
}

/// Probe tuples per batched-kernel call while joining a fragment pair.
const PROBE_CHUNK: usize = 4096;

/// Per-node Grace out-of-core join state.
pub struct GraceJoin<B: SpillBackend> {
    space: PositionSpace,
    schema: Schema,
    capacity_bytes: u64,
    config: GraceConfig,
    backend: B,
    frags: Vec<Fragment>,
    bytes_written: u64,
    scatter: Scatter,
}

impl<B: SpillBackend> GraceJoin<B> {
    /// Creates the spill state for a node owning `range`, fragmenting it
    /// into `config.fragments` subranges (clamped to the range width).
    ///
    /// # Panics
    /// Panics if `range` is empty.
    pub fn new(
        space: PositionSpace,
        schema: Schema,
        range: HashRange,
        capacity_bytes: u64,
        config: GraceConfig,
        mut backend: B,
    ) -> Self {
        assert!(!range.is_empty(), "cannot spill an empty range");
        let f = config.fragments.clamp(1, range.len()) as usize;
        let sub = partition_range(range, f);
        let frags = sub
            .into_iter()
            .map(|r| Fragment {
                range: r,
                build: backend.create(),
                probe: backend.create(),
                depth: 0,
            })
            .collect();
        Self {
            space,
            schema,
            capacity_bytes,
            config,
            backend,
            frags,
            bytes_written: 0,
            scatter: Scatter::default(),
        }
    }

    /// Bytes per tuple when resident in the in-memory table.
    fn table_bpt(&self) -> u64 {
        self.schema.tuple_bytes() + ENTRY_OVERHEAD_BYTES
    }

    fn append_side(&mut self, tuples: &[Tuple], probe_side: bool) -> u64 {
        self.scatter.append(
            self.space,
            &mut self.backend,
            &self.frags,
            tuples,
            probe_side,
        );
        let bytes = self.schema.tuples_bytes(tuples.len() as u64);
        self.bytes_written += bytes;
        bytes
    }

    /// Spills build-side tuples (the drained in-memory table on activation,
    /// then every subsequent build arrival). Returns bytes written so the
    /// caller can charge disk time.
    pub fn append_build(&mut self, tuples: &[Tuple]) -> u64 {
        self.append_side(tuples, false)
    }

    /// Spills probe-side tuples. Returns bytes written.
    pub fn append_probe(&mut self, tuples: &[Tuple]) -> u64 {
        self.append_side(tuples, true)
    }

    /// Total raw bytes appended so far (both sides).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of fragment pairs the spilled data is partitioned into
    /// (diagnostic: surfaces in the spill trace events).
    #[must_use]
    pub fn fragments(&self) -> usize {
        self.frags.len()
    }

    /// Build-side tuples spilled so far.
    #[must_use]
    pub fn build_tuples(&self) -> u64 {
        self.frags.iter().map(|f| self.backend.len(f.build)).sum()
    }

    /// Joins every fragment pair, consuming the spill state.
    pub fn finalize(mut self) -> GraceResult {
        let mut result = GraceResult::default();
        let mut scratch = ProbeScratch::new();
        let mut work: Vec<Fragment> = std::mem::take(&mut self.frags);
        // Process LIFO; recursion pushes children.
        while let Some(frag) = work.pop() {
            let build_count = self.backend.len(frag.build);
            let probe_count = self.backend.len(frag.probe);
            if build_count == 0 || probe_count == 0 {
                // Nothing can match; still account the read of whichever
                // side has data only if we must discard it — we don't.
                self.backend.remove(frag.build);
                self.backend.remove(frag.probe);
                continue;
            }
            result.max_depth_reached = result.max_depth_reached.max(frag.depth);
            let fits = build_count * self.table_bpt() <= self.capacity_bytes;
            if fits {
                self.join_fragment(&frag, &mut scratch, &mut result);
            } else if frag.depth < self.config.max_depth && frag.range.len() >= 2 {
                self.repartition(&frag, &mut work, &mut result);
            } else {
                self.nested_loop(&frag, &mut scratch, &mut result);
            }
            self.backend.remove(frag.build);
            self.backend.remove(frag.probe);
        }
        result
    }

    /// Builds an in-memory table over `build` and probes it with `probe`
    /// through the batched kernel — the "basic in-core hash-based join" both
    /// the fitting-fragment path and each nested-loop block apply.
    fn join_in_memory(
        &self,
        build: &[Tuple],
        probe: &[Tuple],
        scratch: &mut ProbeScratch,
        result: &mut GraceResult,
    ) {
        let mut table = JoinHashTable::new(self.space, self.schema, u64::MAX);
        result.build_inserts += build.len() as u64;
        table.insert_batch_unchecked(build);
        for chunk in probe.chunks(PROBE_CHUNK) {
            let stats = table.probe_batch_with(chunk, scratch, ProbeKernel::Batched);
            result.matches += stats.matches;
            result.compares += stats.compared;
        }
    }

    /// In-memory hash join of one fragment pair.
    fn join_fragment(
        &mut self,
        frag: &Fragment,
        scratch: &mut ProbeScratch,
        result: &mut GraceResult,
    ) {
        let build = self.backend.read(frag.build);
        result.bytes_read += self.schema.tuples_bytes(build.len() as u64);
        let probe = self.backend.read(frag.probe);
        result.bytes_read += self.schema.tuples_bytes(probe.len() as u64);
        self.join_in_memory(&build, &probe, scratch, result);
        BufferPool::global().give(build);
        BufferPool::global().give(probe);
    }

    /// Re-partitions an oversized fragment into sub-fragments.
    fn repartition(&mut self, frag: &Fragment, work: &mut Vec<Fragment>, result: &mut GraceResult) {
        let f = self.config.fragments.clamp(2, frag.range.len()) as usize;
        let subranges = partition_range(frag.range, f);
        let children: Vec<Fragment> = subranges
            .into_iter()
            .map(|r| Fragment {
                range: r,
                build: self.backend.create(),
                probe: self.backend.create(),
                depth: frag.depth + 1,
            })
            .collect();
        for probe_side in [false, true] {
            let part = if probe_side { frag.probe } else { frag.build };
            let tuples = self.backend.read(part);
            let bytes = self.schema.tuples_bytes(tuples.len() as u64);
            result.bytes_read += bytes;
            result.bytes_rewritten += bytes;
            self.scatter.append(
                self.space,
                &mut self.backend,
                &children,
                &tuples,
                probe_side,
            );
            BufferPool::global().give(tuples);
        }
        work.extend(children);
    }

    /// Block nested-loop fallback for an indivisible oversized fragment:
    /// build side in capacity-sized blocks, probe side rescanned per block.
    fn nested_loop(
        &mut self,
        frag: &Fragment,
        scratch: &mut ProbeScratch,
        result: &mut GraceResult,
    ) {
        result.nested_loop_fragments += 1;
        let build = self.backend.read(frag.build);
        result.bytes_read += self.schema.tuples_bytes(build.len() as u64);
        let block_tuples = (self.capacity_bytes / self.table_bpt()).max(1) as usize;
        let probe = self.backend.read(frag.probe);
        let probe_bytes = self.schema.tuples_bytes(probe.len() as u64);
        for block in build.chunks(block_tuples) {
            // Each block rescans the probe fragment.
            result.bytes_read += probe_bytes;
            self.join_in_memory(block, &probe, scratch, result);
        }
        BufferPool::global().give(build);
        BufferPool::global().give(probe);
    }
}

/// Splits `range` into `k` near-equal contiguous subranges.
fn partition_range(range: HashRange, k: usize) -> Vec<HashRange> {
    let len = range.len() as u64;
    (0..k as u64)
        .map(|i| {
            let s = range.start + (len * i / k as u64) as u32;
            let e = range.start + (len * (i + 1) / k as u64) as u32;
            HashRange::new(s, e)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FileBackend, MemBackend};
    use ehj_hash::AttrHasher;
    use std::collections::HashMap;

    fn space() -> PositionSpace {
        PositionSpace::new(1000, 10_000, AttrHasher::Identity)
    }

    fn schema() -> Schema {
        Schema::default_paper()
    }

    fn capacity_for(tuples: u64) -> u64 {
        tuples * (schema().tuple_bytes() + ENTRY_OVERHEAD_BYTES)
    }

    /// Reference join count: sum over values of count_R(v) * count_S(v).
    fn expected_matches(r: &[Tuple], s: &[Tuple]) -> u64 {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for t in r {
            *counts.entry(t.join_attr).or_default() += 1;
        }
        s.iter()
            .map(|t| counts.get(&t.join_attr).copied().unwrap_or(0))
            .sum()
    }

    fn make_relations(n: u64, domain: u64) -> (Vec<Tuple>, Vec<Tuple>) {
        // Deterministic pseudo-data with guaranteed collisions.
        let r: Vec<Tuple> = (0..n).map(|i| Tuple::new(i, (i * 7919) % domain)).collect();
        let s: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(i, (i * 104_729) % domain))
            .collect();
        (r, s)
    }

    fn run_grace<B: SpillBackend>(
        backend: B,
        r: &[Tuple],
        s: &[Tuple],
        capacity: u64,
        config: GraceConfig,
    ) -> GraceResult {
        let mut g = GraceJoin::new(
            space(),
            schema(),
            HashRange::new(0, 1000),
            capacity,
            config,
            backend,
        );
        let w1 = g.append_build(r);
        assert_eq!(w1, schema().tuples_bytes(r.len() as u64));
        let _ = g.append_probe(s);
        assert_eq!(g.build_tuples(), r.len() as u64);
        g.finalize()
    }

    #[test]
    fn matches_reference_when_fragments_fit() {
        // Domain spans the full position space so tuples spread over all 16
        // fragments (~125 build tuples each, well under the 500 budget).
        let (r, s) = make_relations(2000, 10_000);
        let result = run_grace(
            MemBackend::new(),
            &r,
            &s,
            capacity_for(500),
            GraceConfig::default(),
        );
        assert_eq!(result.matches, expected_matches(&r, &s));
        assert_eq!(result.max_depth_reached, 0);
        assert_eq!(result.nested_loop_fragments, 0);
        assert!(result.bytes_read >= schema().tuples_bytes(4000));
    }

    #[test]
    fn recursion_triggers_and_stays_correct() {
        let (r, s) = make_relations(4000, 300);
        // Tiny capacity: every first-level fragment (16 of them, ~250 each)
        // overflows a 100-tuple budget and must re-partition.
        let result = run_grace(
            MemBackend::new(),
            &r,
            &s,
            capacity_for(100),
            GraceConfig {
                fragments: 4,
                max_depth: 6,
            },
        );
        assert_eq!(result.matches, expected_matches(&r, &s));
        assert!(result.max_depth_reached >= 1, "must have re-partitioned");
        assert!(result.bytes_rewritten > 0);
    }

    #[test]
    fn nested_loop_fallback_on_hot_value() {
        // All tuples share one join value: no subdivision can ever help.
        let r: Vec<Tuple> = (0..500).map(|i| Tuple::new(i, 42)).collect();
        let s: Vec<Tuple> = (0..200).map(|i| Tuple::new(i, 42)).collect();
        let result = run_grace(
            MemBackend::new(),
            &r,
            &s,
            capacity_for(100),
            GraceConfig {
                fragments: 4,
                max_depth: 2,
            },
        );
        assert_eq!(result.matches, 500 * 200);
        assert!(result.nested_loop_fragments >= 1);
    }

    #[test]
    fn file_backend_end_to_end() {
        let (r, s) = make_relations(1000, 200);
        let result = run_grace(
            FileBackend::new(),
            &r,
            &s,
            capacity_for(150),
            GraceConfig::default(),
        );
        assert_eq!(result.matches, expected_matches(&r, &s));
    }

    #[test]
    fn empty_sides_produce_zero_matches() {
        let result = run_grace(
            MemBackend::new(),
            &[],
            &[],
            capacity_for(10),
            GraceConfig::default(),
        );
        assert_eq!(result, GraceResult::default());
    }

    #[test]
    fn probe_only_fragment_is_skipped_cheaply() {
        let s: Vec<Tuple> = (0..100).map(|i| Tuple::new(i, i % 50)).collect();
        let result = run_grace(
            MemBackend::new(),
            &[],
            &s,
            capacity_for(10),
            GraceConfig::default(),
        );
        assert_eq!(result.matches, 0);
        assert_eq!(result.bytes_read, 0, "no fragment pair needs reading");
    }

    #[test]
    fn single_position_range_works() {
        let mut g = GraceJoin::new(
            space(),
            schema(),
            HashRange::new(5, 6),
            capacity_for(10),
            GraceConfig::default(),
            MemBackend::new(),
        );
        // Attrs mapping to position 5: values 50..60 under 1000/10000 scaling.
        let r: Vec<Tuple> = (0..50).map(|i| Tuple::new(i, 50 + i % 10)).collect();
        let s: Vec<Tuple> = (0..20).map(|i| Tuple::new(i, 50 + i % 10)).collect();
        let _ = g.append_build(&r);
        let _ = g.append_probe(&s);
        let result = g.finalize();
        assert_eq!(result.matches, expected_matches(&r, &s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = GraceJoin::new(
            space(),
            schema(),
            HashRange::new(5, 5),
            100,
            GraceConfig::default(),
            MemBackend::new(),
        );
    }
}
