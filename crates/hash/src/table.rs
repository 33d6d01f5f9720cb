//! The per-node join hash table with byte-accurate memory accounting.
//!
//! A join process "is responsible for building and maintaining a portion of
//! the hash table" (§4.1.3). [`JoinHashTable`] stores build-side tuples per
//! global hash-table position, charges every insert against a byte capacity
//! (the paper's bucket-overflow trigger: "if memory for data elements cannot
//! be allocated"), and supports the operations the three EHJAs need:
//!
//! * probe with per-comparison accounting (Algorithm 1 scans the whole
//!   chain at a position);
//! * per-position entry counts (input to the hybrid reshuffle histogram);
//! * range extraction (reshuffle redistribution) and predicate drains
//!   (split-based bucket splits).
//!
//! ## Memory layout
//!
//! The table is an *append log whose index is derived after the fact*. The
//! arena is two parallel vectors, `pos` and `tuples` (20 bytes per stored
//! tuple). An insert is two pushes and a cleared `ordered` flag — it
//! touches nothing else, so a table that is only being built has no
//! directory at all, and one that spills ([`JoinHashTable::drain_all`])
//! before anything reads it never allocates one.
//!
//! The directory — one 16-byte `{start, count, tag}` entry per position —
//! belongs to the readers. Every one of them (histograms, probes, range
//! extraction, the diagnostic accessors) first runs the private `settle()`:
//! one pass over the not-yet-counted tail of the log, `pos[counted..]`,
//! that finds the tail's span, makes the directory cover it, and then
//! bumps each position's exact `count` and ORs the attribute's two-bit
//! bloom fingerprint ([`filter_fingerprint`]) into its 64-bit `tag`. The
//! directory covers only the span `lo..hi` of positions the table holds
//! and is based at `lo`: a node that owns 1/16 of the position space, or a
//! Grace fragment that holds 1/64 of it, pays for that share and no more.
//! A later tail outside the span (a reshuffle receiver's new range)
//! re-bases the directory with the old counts copied, and a range
//! extraction that empties either end of the span trims it, so a node that
//! gave most of its range away stops paying for it. Bulk removals by
//! predicate do not recount: they drop the directory and reset `counted`,
//! so the next reader counts the survivors as one long tail.
//!
//! The first probe or range extraction after an insert also runs the
//! private `order()`: a stable counting sort of the arena by position,
//! whose scatter prefetches the slot each tuple lands in a fixed number of
//! tuples ahead. From then on a position's chain is the contiguous run
//! `tuples[start..start + count]`, in insertion order. Build-time
//! operations — histograms, predicate drains, spills — settle at most;
//! they never order the arena, so until the build barrier it stays in
//! insertion order, which is what callers that re-home drained tuples
//! under a capacity check observe. Counting is a read of the log: it
//! cannot move a tuple.
//!
//! ## Probing
//!
//! Algorithm 1 always scans the entire chain, so a probe is charged
//! `compared = count` straight from the directory whatever the scan finds.
//! The batched pipeline hashes a whole batch in one pass, then consults the
//! tag before touching the arena: a probe can match only where the tag
//! holds both bits of its fingerprint, and a rejection proves no element
//! can (bloom tags have no false negatives), so it charges the same `count`
//! with `matches = 0` — byte-for-byte the scalar outcome. The directory
//! entry alone answers such a probe; at the paper's base case that is nine
//! probes in ten.
//!
//! So the kernel filters before it scans, a block of `PROBE_BLOCK`
//! probes at a time. The filter pass reads each probe's directory entry
//! (prefetched a fixed distance ahead), charges its `count`, and writes the
//! probe to the next slot of a fixed candidate buffer, keeping the slot
//! only if the tag lets it through — a selection vector built without a
//! branch on the tag test, which a one-in-ten survivor rate would
//! mispredict. The scan pass then walks the survivors in probe order, each
//! run's first line prefetched a few candidates ahead.
//!
//! A probe the tag lets through scans its run — unless the run is long
//! (`MEMO_MIN_RUN`), where the same key tends to come back: a small
//! direct-mapped memo keyed by attribute remembers how many tuples of the
//! run matched, so a hot run is scanned once per key rather than once per
//! probe tuple, and every probe tuple is still charged its own `count` and
//! credited its own exact `matches`. A memo entry is valid only under the
//! *ordering generation* that wrote it. The generation moves in the two
//! places a run can change while the arena stays ordered — a re-sort in
//! `order()` (every insert and predicate drain leads there before the next
//! probe) and `extract_range` — so a stale count is unreachable, not
//! merely unlikely.
//!
//! ## Buffers
//!
//! The arena's two vectors, `order()`'s sorted copies and the vectors range
//! extracts and drains return are the table's big allocations. All of them
//! come from, and go back to, the process-wide [`BufferPool`]: an arena
//! grows through [`BufferPool::reserve`] (a cold branch on the insert
//! paths), `order()` gives the arena it replaces back, and dropping the
//! table gives back what it still holds. Buffers below the pool's size
//! floor are plain `Vec` growth, so a small table never touches the pool.
//!
//! The reference `BTreeMap`-chained layout survives as
//! [`crate::ChainedTable`] for differential tests.

use crate::hasher::{AttrHasher, PositionSpace};
use crate::kernels::{prefetch_read, ProbeKernel, ProbeScratch};
use ehj_data::{BufferPool, JoinAttr, Schema, Tuple};

/// Bookkeeping bytes charged per stored tuple on top of the schema's raw
/// tuple size (position tag + directory share, mirroring the
/// chain-pointer/allocator overhead on the paper's testbed).
pub const ENTRY_OVERHEAD_BYTES: u64 = 16;

/// How many probes ahead the batched kernel's filter pass prefetches
/// directory entries (counted over the whole batch, so it reaches into the
/// next block). On the one-pass kernel this replaced, 16 / 32 / 64 read
/// 32.9 / 30.5 / 32.2 ns per probe tuple (the replay and rounds of
/// [`PROBE_BLOCK`]'s sweep): no distance helped there, and it was not
/// re-swept.
const DIR_PREFETCH_AHEAD: usize = 16;

/// Probes per block of the batched kernel: the filter pass tests this many
/// tags before the scan pass touches a run, into a candidate buffer of this
/// many slots on the stack (4 KB), whatever the batch length.
///
/// The three constants below were swept on one replay: `expand-split`'s
/// data (paper / 5) built into 16 tables, then probed in 2000-tuple chunks
/// in generation order, as the join does. The host had 2 cores, and the
/// variants ran in 6 interleaved rounds. Figures are medians and ranges in
/// ns per probe tuple; the one-pass kernel this replaced read 32.9
/// [29.8–38.8] in the same rounds. For this constant, 128 / 256 / 512
/// read 20.6 [16.6–24.8] / 18.9 [15.5–22.0] / 20.5 [15.6–25.2]. An
/// earlier, quieter 4-round sweep read 13.4 / 13.1 / 12.1 against ~24.
/// The spreads overlap; 256 keeps the buffer at 4 KB.
const PROBE_BLOCK: usize = 256;

/// How many candidates ahead the scan pass prefetches a run's first tuple.
/// Same replay: 4 / 8 / 16 read 23.2 [15.6–25.4] / 19.6 [16.0–24.5] /
/// 20.2 [16.4–29.1] (the quieter sweep: 12.3 / 13.0 / 12.5). Past a few
/// candidates the distance hardly matters.
const RUN_PREFETCH_AHEAD: usize = 8;

/// How many log entries ahead `order()`'s backward scatter prefetches the
/// slot an entry will land in. Same replay, `order()` over all 16 tables
/// in ms: 8 / 16 / 32 read 29.7 [25.9–31.8] / 23.4 [22.3–30.7] / 25.9
/// [23.4–30.7]; 36.2 [31.3–43.8] without the prefetch. The quieter sweep
/// read 19.4 / 17.5 / 17.0, and 28.4 without it.
const SORT_PREFETCH_AHEAD: usize = 16;

/// Runs at least this long are answered through the match memo. Measured
/// on the benchmark replay's `hash.probe_ns_per_tuple`, three passes each:
/// `skew-highmatch` (zipf 0.9, 528 compares per probe) reads 190 ns with
/// the memo off and, at thresholds 16 / 32 / 64, 25 / 22 / – ns with 512
/// slots and 19 / 22 / 27 with 1024 — so 16 wins only where the middling
/// keys it admits have slots to spare. `expand-replicated` (runs of ~9.5,
/// keys that never repeat) decides against it: 38 ns at 16, 30 at 32. A
/// Poisson tail of its runs reaches 16 and pays a miss and a store each
/// time; none reaches 32, so there the memo is never even allocated.
const MEMO_MIN_RUN: u32 = 32;

/// Slots in the direct-mapped match memo, a power of two (12 KB, allocated
/// by the first run that qualifies). Same replay, `skew-highmatch` at
/// threshold 32: 256 / 512 / 1024 / 4096 slots read 31 / 22 / 22 / 23 ns —
/// conflict evictions stop mattering at 512.
const MEMO_SLOTS: usize = 512;
const _: () = assert!(MEMO_SLOTS.is_power_of_two());

/// The Fibonacci mix every filter and memo bit is cut from. Its *top* bits
/// stay decorrelated from the position, which the identity hasher derives
/// from the attribute's low bits.
#[inline]
fn mix(attr: JoinAttr) -> u64 {
    attr.wrapping_mul(AttrHasher::PHI64)
}

/// 64-bit bloom fingerprint of a join attribute: two bits of the word,
/// selected by the two disjoint 6-bit fields at the top of the mix (they
/// may coincide, leaving one). A stored attribute ORs both into its
/// position's tag; a probe can match only where the tag holds *both*.
///
/// Why two bits of 64: at the base case's ~10 distinct attributes per
/// position a one-hot 16-bit tag is half full and rejected
/// `hash.reject_share` 0.34 of `expand-replicated`'s probes (0.037 of them
/// match, so 0.96 is the ceiling); one bit of 64 reads 0.75, two 0.89,
/// three 0.91 — but each extra bit fills the tag faster: by the fill
/// arithmetic three bits reject less than two from ~20 attributes per
/// position on.
///
/// Two properties matter:
/// * **no false negatives** — every stored attribute's bits are OR-ed into
///   its position's tag, so a probe with a bit absent cannot match anything;
/// * duplicates are free — re-inserting an attribute sets the same bits, so
///   heavy-duplicate chains (the paper's skewed workloads) never saturate
///   the tag.
#[inline]
#[must_use]
pub fn filter_fingerprint(attr: JoinAttr) -> u64 {
    let mixed = mix(attr);
    1u64 << (mixed >> 58) | 1u64 << ((mixed >> 52) & 63)
}

/// Memo slot of `attr`: the top bits of the mix, which spread consecutive
/// attributes (a Zipf generator's hottest keys) furthest apart. Sharing
/// them with the fingerprint costs nothing — the two are never compared —
/// while a middle slice of the mix does collide hot keys: bits 43..52 read
/// 27–41 ns on the `skew-highmatch` replay where these read 22–24.
#[inline]
fn memo_slot(attr: JoinAttr) -> usize {
    (mix(attr) >> (u64::BITS - MEMO_SLOTS.trailing_zeros())) as usize
}

/// Error returned when an insert would exceed the table's memory capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull {
    /// Bytes in use at the time of the failed insert.
    pub bytes_used: u64,
    /// The configured capacity.
    pub capacity_bytes: u64,
}

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hash table full: {} of {} bytes used",
            self.bytes_used, self.capacity_bytes
        )
    }
}

impl std::error::Error for TableFull {}

/// Outcome of probing one tuple against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeResult {
    /// Matching build tuples found.
    pub matches: u64,
    /// Chain elements compared (the probe-phase CPU driver).
    pub compared: u64,
}

/// Outcome of probing a whole batch via
/// [`JoinHashTable::probe_batch_with`].
///
/// `matches` and `compared` are byte-for-byte what summing the scalar
/// [`JoinHashTable::probe`] over the batch would produce; `probes` and
/// `rejections` describe how the fingerprint filter earned its keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchProbeStats {
    /// Matching build tuples found across the batch.
    pub matches: u64,
    /// Chain elements charged across the batch (identical to the scalar
    /// path: a tag rejection still charges the full chain length).
    pub compared: u64,
    /// Probe tuples processed (the batch length).
    pub probes: u64,
    /// Probes whose run scan was skipped by a fingerprint-tag rejection.
    pub rejections: u64,
}

impl BatchProbeStats {
    /// Accumulates another batch's stats (per-node probe-phase totals).
    pub fn absorb(&mut self, other: Self) {
        self.matches += other.matches;
        self.compared += other.compared;
        self.probes += other.probes;
        self.rejections += other.rejections;
    }
}

/// One directory entry: where a position's run starts in the ordered
/// arena, its exact length, and the bloom tag over its attributes.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    /// First arena index of the run. Meaningful only while the table is
    /// `ordered`.
    start: u32,
    /// Exact number of counted tuples at this position, ordered or not. A
    /// probe that the tag rejects is charged this many comparisons —
    /// precisely what the full scan would have cost.
    count: u32,
    /// OR of [`filter_fingerprint`] over every counted attribute stored
    /// here. Blooms cannot forget, so removals reset it.
    tag: u64,
}

/// A probe the filter pass let through: the run it must scan and the
/// attribute it scans for.
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    start: u32,
    count: u32,
    attr: JoinAttr,
}

/// One match-memo entry: `attr` had `matches` equal tuples in its run when
/// the table's ordering generation was `generation`.
#[derive(Debug, Clone, Copy, Default)]
struct Memo {
    attr: JoinAttr,
    generation: u64,
    matches: u32,
}

/// A memory-bounded hash table over the global position space: an append
/// log of tuples, counted and put in position order on demand, behind a
/// one-entry-per-position directory over the span it holds (see module
/// docs).
#[derive(Debug, Clone)]
pub struct JoinHashTable {
    space: PositionSpace,
    schema: Schema,
    /// One entry per position of the covered span, `dir[p - lo]` for
    /// position `p`; `dir.len() == hi - lo`. Describes the counted prefix
    /// `pos[..counted]` only. Empty until a reader settles a non-empty log.
    dir: Vec<Run>,
    /// Position of `tuples[i]`, cached so counting, ordering and bulk
    /// removals never re-hash.
    pos: Vec<u32>,
    /// The tuple arena; `tuples.len()` is the live tuple count (bulk
    /// removal compacts, so there are no tombstones).
    tuples: Vec<Tuple>,
    /// Covered span: every counted tuple's position lies in `lo..hi`
    /// (`lo == hi` while there is no directory).
    lo: u32,
    hi: u32,
    /// How much of the log the directory describes. Inserts leave it
    /// behind; [`Self::settle`] catches it up.
    counted: usize,
    /// Whether the arena is sorted by position with every `start` valid
    /// (which implies `counted == tuples.len()`). Any insert clears it;
    /// [`Self::order`] restores it.
    ordered: bool,
    /// Direct-mapped match memo for long runs, [`MEMO_SLOTS`] entries once
    /// a probe meets a run of [`MEMO_MIN_RUN`]; empty until then.
    memo: Vec<Memo>,
    /// Ordering generation: bumped by every re-sort in [`Self::order`] and
    /// by [`Self::extract_range`], the only two places a run can change
    /// while `ordered` holds. A memo entry is read only under the generation
    /// that wrote it. Starts at 1, which no blank entry carries.
    generation: u64,
    capacity_bytes: u64,
    /// Where the arena's buffers come from and go back to.
    pool: &'static BufferPool,
}

impl JoinHashTable {
    /// Creates an empty table with the given byte capacity.
    #[must_use]
    pub fn new(space: PositionSpace, schema: Schema, capacity_bytes: u64) -> Self {
        Self::with_pool(space, schema, capacity_bytes, BufferPool::global())
    }

    /// [`Self::new`] drawing its buffers from `pool`.
    fn with_pool(
        space: PositionSpace,
        schema: Schema,
        capacity_bytes: u64,
        pool: &'static BufferPool,
    ) -> Self {
        Self {
            space,
            schema,
            dir: Vec::new(),
            pos: Vec::new(),
            tuples: Vec::new(),
            lo: 0,
            hi: 0,
            counted: 0,
            ordered: true,
            memo: Vec::new(),
            generation: 1,
            capacity_bytes,
            pool,
        }
    }

    /// The position space the table hashes with.
    #[must_use]
    pub fn space(&self) -> PositionSpace {
        self.space
    }

    /// Bytes charged per stored tuple.
    #[must_use]
    pub fn bytes_per_tuple(&self) -> u64 {
        self.schema.tuple_bytes() + ENTRY_OVERHEAD_BYTES
    }

    /// Bytes currently in use.
    #[must_use]
    pub fn bytes_used(&self) -> u64 {
        self.len() * self.bytes_per_tuple()
    }

    /// The configured capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of stored tuples.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.tuples.len() as u64
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// How many more tuples fit before [`TableFull`].
    #[must_use]
    pub fn remaining_tuples(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.bytes_used()) / self.bytes_per_tuple()
    }

    /// Global position of `attr` under this table's space.
    #[must_use]
    pub fn position_of(&self, attr: JoinAttr) -> u32 {
        self.space.position_of(attr)
    }

    /// Appends `t` at `pos`, which must be `position_of(t.join_attr)`, to
    /// the log (the shared tail of every insert path). The directory is not
    /// touched: the next reader counts the tail.
    #[inline]
    fn append(&mut self, t: Tuple, pos: u32) {
        debug_assert_eq!(pos, self.space.position_of(t.join_attr));
        debug_assert!(
            self.tuples.len() < u32::MAX as usize,
            "arena index space exhausted"
        );
        self.pool.push(&mut self.pos, pos);
        self.pool.push(&mut self.tuples, t);
        self.ordered = false;
    }

    /// Directory index of `pos`; past the end of `dir` (so `get` misses)
    /// for a position outside the covered span, where nothing is stored.
    #[inline]
    fn slot(&self, pos: u32) -> usize {
        pos.wrapping_sub(self.lo) as usize
    }

    /// The directory entry at `pos`: an empty run outside the covered span.
    #[inline]
    fn run_at(&self, pos: u32) -> Run {
        self.dir.get(self.slot(pos)).copied().unwrap_or_default()
    }

    /// Makes the directory cover `lo..hi` as well as what it covers now,
    /// re-basing it (old entries copied) when that moves either end.
    fn cover(&mut self, lo: u32, hi: u32) {
        if self.dir.is_empty() {
            (self.lo, self.hi) = (lo, hi);
            self.dir.resize((hi - lo) as usize, Run::default());
        } else if lo < self.lo || hi > self.hi {
            let (lo, hi) = (lo.min(self.lo), hi.max(self.hi));
            let mut dir = vec![Run::default(); (hi - lo) as usize];
            let at = (self.lo - lo) as usize;
            dir[at..at + self.dir.len()].copy_from_slice(&self.dir);
            (self.dir, self.lo, self.hi) = (dir, lo, hi);
        }
    }

    /// Catches the directory up with the log: counts and tags the tail
    /// `pos[counted..]`, first growing the covered span to hold it. Every
    /// reader of the directory runs this; it moves no tuple.
    fn settle(&mut self) {
        if self.counted == self.pos.len() {
            return;
        }
        let (lo, hi) = self.pos[self.counted..]
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        self.cover(lo, hi + 1);
        let base = self.lo;
        for (&p, t) in self.pos[self.counted..]
            .iter()
            .zip(&self.tuples[self.counted..])
        {
            let run = &mut self.dir[(p - base) as usize];
            run.count += 1;
            run.tag |= filter_fingerprint(t.join_attr);
        }
        self.counted = self.pos.len();
    }

    /// Inserts a build tuple, or reports the table full. A failed insert
    /// changes nothing (the tuple stays pending at the caller, exactly as
    /// the paper's join process queues unprocessed buffers).
    #[inline]
    pub fn insert(&mut self, t: Tuple) -> Result<(), TableFull> {
        let pos = self.space.position_of(t.join_attr);
        self.insert_pre_hashed(t, pos)
    }

    /// [`Self::insert`] with the position already computed — the hash-once
    /// build path: a join node hashes each tuple once and reuses the
    /// position for routing and insertion.
    ///
    /// # Errors
    /// Returns [`TableFull`] when the insert would exceed capacity.
    #[inline]
    pub fn insert_pre_hashed(&mut self, t: Tuple, pos: u32) -> Result<(), TableFull> {
        if self.bytes_used() + self.bytes_per_tuple() > self.capacity_bytes {
            return Err(TableFull {
                bytes_used: self.bytes_used(),
                capacity_bytes: self.capacity_bytes,
            });
        }
        self.append(t, pos);
        Ok(())
    }

    /// Inserts without capacity checking (used when re-homing tuples during
    /// reshuffle/split, which never increases a node's accounted usage
    /// beyond what the coordinator planned).
    #[inline]
    pub fn insert_unchecked(&mut self, t: Tuple) {
        let pos = self.space.position_of(t.join_attr);
        self.append(t, pos);
    }

    /// Bulk [`Self::insert_unchecked`]: one bulk-hash pass appends the
    /// batch's positions to the log, one copy appends its tuples. Byte
    /// accounting is derived from the arena length, so it too updates once,
    /// implicitly. Used by reshuffle receivers, which ingest whole extracted
    /// chunks, and Grace fragment builds.
    pub fn insert_batch_unchecked(&mut self, tuples: &[Tuple]) {
        if tuples.is_empty() {
            return;
        }
        self.pool.reserve(&mut self.pos, tuples.len());
        self.space.extend_positions(tuples, &mut self.pos);
        self.append_tuples(tuples);
    }

    /// Bulk [`Self::insert_pre_hashed`], all or nothing: either the whole
    /// batch fits and is appended in order — exactly what inserting it
    /// tuple by tuple would leave — or nothing changes. `positions[i]` must
    /// be `position_of(tuples[i].join_attr)`.
    ///
    /// # Errors
    /// Returns [`TableFull`] when the whole batch would exceed capacity.
    pub fn insert_batch_pre_hashed(
        &mut self,
        tuples: &[Tuple],
        positions: &[u32],
    ) -> Result<(), TableFull> {
        debug_assert_eq!(tuples.len(), positions.len());
        let bytes = tuples.len() as u64 * self.bytes_per_tuple();
        if self.bytes_used() + bytes > self.capacity_bytes {
            return Err(TableFull {
                bytes_used: self.bytes_used(),
                capacity_bytes: self.capacity_bytes,
            });
        }
        debug_assert!(tuples
            .iter()
            .zip(positions)
            .all(|(t, &p)| p == self.space.position_of(t.join_attr)));
        self.pool.reserve(&mut self.pos, positions.len());
        self.pos.extend_from_slice(positions);
        self.append_tuples(tuples);
        Ok(())
    }

    /// The shared tail of the bulk inserts: appends `tuples`, whose
    /// positions the caller has just pushed onto `pos`.
    fn append_tuples(&mut self, tuples: &[Tuple]) {
        debug_assert!(
            self.tuples.len() + tuples.len() <= u32::MAX as usize,
            "arena index space exhausted"
        );
        self.pool.reserve(&mut self.tuples, tuples.len());
        self.tuples.extend_from_slice(tuples);
        self.ordered = false;
    }

    /// Puts the arena in position order: settles, then a stable counting
    /// sort over the covered span, after which position `p`'s tuples are
    /// the run `tuples[start..start + count]` in insertion order. A no-op
    /// while nothing was inserted or drained since the last call.
    fn order(&mut self) {
        if self.ordered {
            return;
        }
        self.settle();
        self.ordered = true;
        self.generation += 1;
        let n = self.tuples.len();
        // Pass 1 leaves every run's *end* in `start`; pass 2 walks the log
        // backwards, stepping each run's cursor down to its true start, so
        // equal positions keep their insertion order.
        let mut end = 0u32;
        for run in &mut self.dir {
            end += run.count;
            run.start = end;
        }
        debug_assert_eq!(
            end as usize, n,
            "directory counts must sum to the arena length"
        );
        let mut pos = self.pool.take(n);
        pos.resize(n, 0u32);
        let mut tuples = self.pool.take(n);
        tuples.resize(n, Tuple::new(0, 0));
        let base = self.lo;
        for i in (0..n).rev() {
            // Every slot is a random write into two fresh arrays: fetch the
            // one entry `i - SORT_PREFETCH_AHEAD` will land in, at its run's
            // cursor now (a later entry of the same run may still move it
            // down; a prefetch never faults).
            if let Some(ahead) = i.checked_sub(SORT_PREFETCH_AHEAD) {
                let cursor = self.dir[(self.pos[ahead] - base) as usize].start as usize;
                prefetch_read(pos.as_ptr().wrapping_add(cursor.wrapping_sub(1)));
                prefetch_read(tuples.as_ptr().wrapping_add(cursor.wrapping_sub(1)));
            }
            let p = self.pos[i];
            let run = &mut self.dir[(p - base) as usize];
            run.start -= 1;
            pos[run.start as usize] = p;
            tuples[run.start as usize] = self.tuples[i];
        }
        self.pool.give(std::mem::replace(&mut self.pos, pos));
        self.pool.give(std::mem::replace(&mut self.tuples, tuples));
    }

    /// The tuples of `run` (the arena must be ordered).
    #[inline]
    fn run(&self, run: Run) -> &[Tuple] {
        &self.tuples[run.start as usize..(run.start + run.count) as usize]
    }

    /// Orders the arena and returns the whole run at `attr`'s position.
    #[inline]
    fn run_of(&mut self, attr: JoinAttr) -> &[Tuple] {
        self.order();
        self.run(self.run_at(self.space.position_of(attr)))
    }

    /// Probes one attribute: scans the run at its position, counting
    /// equality matches and comparisons (Algorithm 1). The tuple-at-a-time
    /// reference: no filter, no prefetch.
    #[must_use]
    #[inline]
    pub fn probe(&mut self, attr: JoinAttr) -> ProbeResult {
        let run = self.run_of(attr);
        ProbeResult {
            matches: run.iter().filter(|t| t.join_attr == attr).count() as u64,
            compared: run.len() as u64,
        }
    }

    /// Probes a whole batch through the selected kernel (DESIGN §4g).
    ///
    /// Both kernels return `matches`/`compared` byte-for-byte equal to
    /// summing [`Self::probe`] over the batch: the scan always covers the
    /// *entire* run at a position, so it charges `compared = count`
    /// regardless of how many tuples match, and a fingerprint-tag rejection
    /// charges the same `count` with `matches = 0` — exactly the full
    /// scan's outcome, since a bloom tag has no false negatives. Tag false
    /// positives simply fall through to the scan, and a run of
    /// `MEMO_MIN_RUN` or more is scanned once per key, its count then
    /// served from the memo to every probe tuple that repeats the key.
    ///
    /// [`ProbeKernel::Scalar`] runs the tuple-at-a-time reference.
    /// [`ProbeKernel::Batched`] computes all positions in one pass, then
    /// works through them in blocks of `PROBE_BLOCK`: a filter pass tests
    /// every tag of the block, directory entries prefetched
    /// `DIR_PREFETCH_AHEAD` probes ahead, and collects the survivors
    /// without branching on the test; a scan pass then scans (or memo-reads)
    /// their runs in probe order, each run's first tuple prefetched
    /// `RUN_PREFETCH_AHEAD` survivors ahead. `scratch` is caller-owned so
    /// steady-state probing allocates nothing; the batched kernel always
    /// leaves the batch's positions in it, the scalar one never touches it.
    #[must_use]
    pub fn probe_batch_with(
        &mut self,
        tuples: &[Tuple],
        scratch: &mut ProbeScratch,
        kernel: ProbeKernel,
    ) -> BatchProbeStats {
        let mut stats = BatchProbeStats {
            probes: tuples.len() as u64,
            ..BatchProbeStats::default()
        };
        if kernel == ProbeKernel::Scalar {
            for t in tuples {
                let r = self.probe(t.join_attr);
                stats.matches += r.matches;
                stats.compared += r.compared;
            }
            return stats;
        }
        self.space.bulk_positions(tuples, &mut scratch.positions);
        if self.tuples.is_empty() {
            // An empty table has no runs: every probe compares and matches
            // nothing, exactly like the scalar path.
            return stats;
        }
        self.order();
        let positions = &scratch.positions;
        // On the stack, not in `scratch`: a heap buffer first grown here,
        // after the table's arrays, raised `spill-ooc`'s peak RSS from 109
        // to 118 MB (2 cores); this one reads 108–109 there.
        let mut candidates = [Candidate::default(); PROBE_BLOCK];
        for (b, block) in tuples.chunks(PROBE_BLOCK).enumerate() {
            let first = b * PROBE_BLOCK;
            // Filter: every probe is charged its run's length and written to
            // the next candidate slot; only one the tag lets through keeps
            // the slot. An empty position has an empty tag, so it never does.
            let mut survivors = 0;
            for (i, (t, &pos)) in block.iter().zip(&positions[first..]).enumerate() {
                // A position outside the covered span holds nothing: it has
                // no entry to prefetch and reads as an empty run below.
                if let Some(&p) = positions.get(first + i + DIR_PREFETCH_AHEAD) {
                    if let Some(entry) = self.dir.get(self.slot(p)) {
                        prefetch_read(std::ptr::from_ref(entry));
                    }
                }
                let run = self.run_at(pos);
                let fp = filter_fingerprint(t.join_attr);
                let pass = run.tag & fp == fp;
                stats.compared += u64::from(run.count);
                stats.rejections += u64::from((run.count != 0) & !pass);
                candidates[survivors] = Candidate {
                    start: run.start,
                    count: run.count,
                    attr: t.join_attr,
                };
                survivors += usize::from(pass);
            }
            // Scan: the survivors in probe order, so the memo sees the keys
            // in the sequence a one-pass loop would show it.
            let survivors = &candidates[..survivors];
            for (k, &c) in survivors.iter().enumerate() {
                if let Some(ahead) = survivors.get(k + RUN_PREFETCH_AHEAD) {
                    prefetch_read(self.tuples.as_ptr().wrapping_add(ahead.start as usize));
                }
                stats.matches += if c.count < MEMO_MIN_RUN {
                    self.matches_in(c)
                } else {
                    self.memoized_matches(c)
                };
            }
        }
        stats
    }

    /// Tuples of `c`'s run equal to its attribute (the arena must be
    /// ordered).
    #[inline]
    fn matches_in(&self, c: Candidate) -> u64 {
        let run = &self.tuples[c.start as usize..(c.start + c.count) as usize];
        run.iter().filter(|b| b.join_attr == c.attr).count() as u64
    }

    /// [`Self::matches_in`] for a long run, scanned once per key and
    /// ordering generation instead of once per probe tuple: a hot key's
    /// probes repeat across batches far smaller than its run (the product
    /// skew of arxiv 1005.5732), and the count they are owed cannot change
    /// until a run does.
    fn memoized_matches(&mut self, c: Candidate) -> u64 {
        if self.memo.is_empty() {
            self.memo = vec![Memo::default(); MEMO_SLOTS];
        }
        let slot = memo_slot(c.attr);
        let seen = self.memo[slot];
        if seen.attr == c.attr && seen.generation == self.generation {
            return u64::from(seen.matches);
        }
        let matches = self.matches_in(c);
        self.memo[slot] = Memo {
            attr: c.attr,
            generation: self.generation,
            // A run's length is a `u32`, so its matches fit one.
            matches: matches as u32,
        };
        matches
    }

    /// Exact chain length at `pos` (0 where nothing is stored). Test and
    /// diagnostic accessor for the probe filter.
    #[must_use]
    pub fn chain_count(&mut self, pos: u32) -> u32 {
        self.settle();
        self.run_at(pos).count
    }

    /// The bloom tag at `pos` (0 where nothing is stored). Test and
    /// diagnostic accessor for the probe filter.
    #[must_use]
    pub fn filter_tag(&mut self, pos: u32) -> u64 {
        self.settle();
        self.run_at(pos).tag
    }

    /// Records this table's layout into registry instruments: one
    /// `chain_hist` sample per occupied position (its exact chain length,
    /// from the directory). Called at report time, not on the insert path,
    /// so build cost is untouched; a disabled handle returns at once and a
    /// live one visits only the covered span.
    pub fn observe_metrics(&mut self, chain_hist: &ehj_metrics::Histogram) {
        if !chain_hist.is_enabled() {
            return;
        }
        self.settle();
        for run in &self.dir {
            if run.count > 0 {
                chain_hist.record(u64::from(run.count));
            }
        }
    }

    /// Probes and collects the matching build tuples, in insertion order
    /// (test/reference use; the hot path uses [`Self::probe_batch_with`]).
    #[must_use]
    pub fn probe_collect(&mut self, attr: JoinAttr) -> Vec<Tuple> {
        let hits = self.run_of(attr).iter().filter(|t| t.join_attr == attr);
        hits.copied().collect()
    }

    /// Per-position entry counts over `[range_start, range_end)` as a dense
    /// histogram indexed relative to `range_start` — the reshuffle input.
    /// Settles, then reads a slice of the directory's counts: the arena is
    /// scanned only as far as it grew since the last reader, and never
    /// ordered.
    ///
    /// The bounds arrive in wire messages, so they are clamped to the
    /// position space (the histogram is as long as the clamped range, empty
    /// if that inverts it); positions outside the covered span, and a table
    /// that holds nothing, read as zeros.
    #[must_use]
    pub fn position_histogram(&mut self, range_start: u32, range_end: u32) -> Vec<u64> {
        self.settle();
        let end = range_end.min(self.space.positions);
        let start = range_start.min(end);
        let mut hist = vec![0u64; (end - start) as usize];
        let (first, last) = (start.max(self.lo), end.min(self.hi));
        if first < last {
            let runs = &self.dir[self.slot(first)..self.slot(last)];
            for (h, run) in hist[(first - start) as usize..].iter_mut().zip(runs) {
                *h = u64::from(run.count);
            }
        }
        hist
    }

    /// Removes and returns all tuples whose position lies in
    /// `[range_start, range_end)` (reshuffle redistribution), in
    /// position-major, insertion-minor order. Orders the arena once, then
    /// each call drains one contiguous slice, shifts the starts behind it
    /// and trims the covered span to what is left — so only post-build
    /// callers should use it (see module docs).
    ///
    /// The bounds arrive in wire messages: anything outside the covered
    /// span, inverted or on a table that holds nothing extracts nothing.
    pub fn extract_range(&mut self, range_start: u32, range_end: u32) -> Vec<Tuple> {
        self.settle();
        let (first, last) = (range_start.max(self.lo), range_end.min(self.hi));
        if first >= last {
            return Vec::new();
        }
        self.order();
        let (first, last) = (self.slot(first), self.slot(last));
        let from = self.dir[first].start;
        let tail = self.dir[last - 1];
        let to = tail.start + tail.count;
        for run in &mut self.dir[first..last] {
            *run = Run {
                start: from,
                ..Run::default()
            };
        }
        for run in &mut self.dir[last..] {
            run.start -= to - from;
        }
        // The span's two end positions are occupied whenever a directory
        // exists (`cover` takes them from the log), so stripping the empty
        // entries at either end costs nothing unless this slice emptied one:
        // then the span shrinks to what is still held, and to nothing when
        // that is nothing.
        let occupied = |run: &Run| run.count != 0;
        let keep = self.dir.iter().rposition(occupied).map_or(0, |i| i + 1);
        self.dir.truncate(keep);
        let gone = self.dir.iter().position(occupied).unwrap_or(0);
        self.dir.drain(..gone);
        self.dir.shrink_to_fit();
        (self.lo, self.hi) = match self.dir.len() {
            0 => (0, 0),
            n => (self.lo + gone as u32, self.lo + (gone + n) as u32),
        };
        self.generation += 1;
        self.counted -= (to - from) as usize;
        let (from, to) = (from as usize, to as usize);
        let mut out = self.pool.take(to - from);
        out.extend_from_slice(&self.tuples[from..to]);
        self.pos.drain(from..to);
        self.tuples.drain(from..to);
        out
    }

    /// Drops every arena entry matched by `take`, returning the extracted
    /// tuples in arena order. Bloom tags cannot forget a removed attribute,
    /// so a removal discards the directory and marks the whole log
    /// uncounted: the next reader counts the survivors, over the span they
    /// still occupy. The compaction keeps the survivors' relative order;
    /// the next probe re-derives the starts.
    fn compact(&mut self, mut take: impl FnMut(u32, &Tuple) -> bool) -> Vec<Tuple> {
        let mut out = Vec::new();
        let mut kept = 0;
        for i in 0..self.tuples.len() {
            let (p, t) = (self.pos[i], self.tuples[i]);
            if take(p, &t) {
                self.pool.push(&mut out, t);
            } else {
                self.pos[kept] = p;
                self.tuples[kept] = t;
                kept += 1;
            }
        }
        if out.is_empty() {
            return out;
        }
        self.pos.truncate(kept);
        self.tuples.truncate(kept);
        self.dir.clear();
        (self.lo, self.hi) = (0, 0);
        self.counted = 0;
        self.ordered = false;
        out
    }

    /// Removes and returns all tuples matching `pred` (split-based bucket
    /// split: extract the elements `h_{i+1}` maps to the new bucket). The
    /// full arena is scanned, mirroring the real cost of a bucket split.
    pub fn drain_filter(&mut self, mut pred: impl FnMut(&Tuple) -> bool) -> Vec<Tuple> {
        self.compact(|_, t| pred(t))
    }

    /// Removes and returns all tuples whose cached *position* matches
    /// `pred`, in arena order — insertion order on a table that was never
    /// probed or range-extracted. Position-predicated drains (bucket splits
    /// subdivide the position space) use this instead of
    /// [`Self::drain_filter`] so the scan reuses each cached position
    /// rather than re-hashing every stored attribute, and instead of
    /// [`Self::extract_range`] during the build so the arena is not ordered
    /// early.
    pub fn drain_positions(&mut self, mut pred: impl FnMut(u32) -> bool) -> Vec<Tuple> {
        self.compact(|p, _| pred(p))
    }

    /// Copies (without removing) every tuple whose position appears in the
    /// *sorted* `positions` list — the hot-key replication hand-off, where
    /// the shipper keeps its own copy so each clean node ends up with the
    /// full hot build side. One arena scan with a binary search per entry:
    /// `O(len · log |positions|)`.
    #[must_use]
    pub fn collect_positions(&self, positions: &[u32]) -> Vec<Tuple> {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let entries = self.pos.iter().zip(&self.tuples);
        entries
            .filter(|(p, _)| positions.binary_search(p).is_ok())
            .map(|(_, t)| *t)
            .collect()
    }

    /// Iterates all stored tuples in arena order (insertion order until the
    /// first probe or range extraction, position order after it).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Removes everything, returning the tuples in arena order (out-of-core
    /// spill support). The directory is released too: a spilled node never
    /// inserts again.
    pub fn drain_all(&mut self) -> Vec<Tuple> {
        let (tuples, positions) = self.drain_all_with_positions();
        self.pool.give(positions);
        tuples
    }

    /// [`Self::drain_all`] that hands over the position log with the
    /// tuples: `positions[i]` is `tuples[i]`'s position, so a spill never
    /// hashes them again. Both vectors can go back to the [`BufferPool`].
    pub fn drain_all_with_positions(&mut self) -> (Vec<Tuple>, Vec<u32>) {
        self.dir = Vec::new();
        (self.lo, self.hi) = (0, 0);
        self.counted = 0;
        self.ordered = true;
        (
            std::mem::take(&mut self.tuples),
            std::mem::take(&mut self.pos),
        )
    }
}

impl Drop for JoinHashTable {
    fn drop(&mut self) {
        self.pool.give(std::mem::take(&mut self.pos));
        self.pool.give(std::mem::take(&mut self.tuples));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> PositionSpace {
        // positions == domain, so position == attribute value directly.
        PositionSpace::new(100, 100, AttrHasher::Identity)
    }

    fn table(capacity_tuples: u64) -> JoinHashTable {
        let schema = Schema::default_paper();
        let bpt = schema.tuple_bytes() + ENTRY_OVERHEAD_BYTES;
        JoinHashTable::new(space(), schema, capacity_tuples * bpt)
    }

    #[test]
    fn insert_until_full() {
        let mut t = table(3);
        assert_eq!(t.remaining_tuples(), 3);
        for i in 0..3 {
            t.insert(Tuple::new(i, i * 10)).expect("fits");
        }
        let err = t
            .insert(Tuple::new(9, 90))
            .expect_err("fourth must overflow");
        assert_eq!(err.capacity_bytes, t.capacity_bytes());
        assert_eq!(t.len(), 3);
        assert_eq!(t.bytes_used(), 3 * t.bytes_per_tuple());
    }

    #[test]
    fn probe_counts_matches_and_comparisons() {
        let mut t = table(100);
        // Attrs 10 and 110 share position 10 (110 mod 100).
        t.insert(Tuple::new(1, 10)).unwrap();
        t.insert(Tuple::new(2, 110)).unwrap();
        t.insert(Tuple::new(3, 10)).unwrap();
        let r = t.probe(10);
        assert_eq!(r.matches, 2);
        assert_eq!(r.compared, 3, "must scan the whole chain");
        let r2 = t.probe(110);
        assert_eq!(r2.matches, 1);
        assert_eq!(r2.compared, 3);
        let r3 = t.probe(50);
        assert_eq!(r3, ProbeResult::default());
    }

    #[test]
    fn observe_metrics_records_exact_chain_lengths() {
        let mut t = table(100);
        // Position 10 gets a chain of 3 (10, 110, 10), position 50 one of 1.
        t.insert(Tuple::new(1, 10)).unwrap();
        t.insert(Tuple::new(2, 110)).unwrap();
        t.insert(Tuple::new(3, 10)).unwrap();
        t.insert(Tuple::new(4, 50)).unwrap();
        let reg = ehj_metrics::MetricsRegistry::new();
        let hist = reg.handle().histogram("table.chain_len");
        t.observe_metrics(&hist);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 2, "one sample per occupied position");
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 3);
        assert_eq!(snap.sum, 4, "samples sum to the tuple count");
    }

    #[test]
    fn probe_collect_returns_matching_tuples() {
        let mut t = table(100);
        t.insert(Tuple::new(1, 10)).unwrap();
        t.insert(Tuple::new(3, 10)).unwrap();
        let got = t.probe_collect(10);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|x| x.join_attr == 10));
    }

    #[test]
    fn histogram_reflects_chain_lengths() {
        let mut t = table(100);
        t.insert(Tuple::new(1, 10)).unwrap(); // pos 10
        t.insert(Tuple::new(2, 110)).unwrap(); // pos 10
        t.insert(Tuple::new(3, 11)).unwrap(); // pos 11
        let h = t.position_histogram(10, 13);
        assert_eq!(h, vec![2, 1, 0]);
        let h2 = t.position_histogram(0, 10);
        assert!(h2.iter().all(|&c| c == 0));
    }

    #[test]
    fn extract_range_removes_and_returns() {
        let mut t = table(100);
        for i in 0..10u64 {
            t.insert(Tuple::new(i, i * 10)).unwrap(); // positions 0,10,20,...
        }
        let got = t.extract_range(10, 40); // positions 10,20,30
        assert_eq!(got.len(), 3);
        assert_eq!(t.len(), 7);
        assert_eq!(t.probe(10).matches, 0);
        assert_eq!(t.probe(0).matches, 1);
    }

    #[test]
    fn collect_positions_copies_without_removing() {
        let mut t = table(100);
        for i in 0..10u64 {
            t.insert(Tuple::new(i, i * 10)).unwrap(); // positions 0,10,20,...
        }
        t.insert(Tuple::new(99, 20)).unwrap(); // second tuple at position 20
        let got = t.collect_positions(&[20, 50]);
        assert_eq!(got.len(), 3, "two at 20, one at 50");
        assert!(got
            .iter()
            .all(|tp| tp.join_attr == 20 || tp.join_attr == 50));
        assert_eq!(t.len(), 11, "collect must not remove anything");
        assert_eq!(t.probe(20).matches, 2);
        assert!(t.collect_positions(&[]).is_empty());
    }

    #[test]
    fn drain_filter_partitions_contents() {
        let mut t = table(100);
        for i in 0..20u64 {
            t.insert(Tuple::new(i, i * 31 % 1000)).unwrap();
        }
        let moved = t.drain_filter(|tp| tp.join_attr % 2 == 0);
        assert!(moved.iter().all(|tp| tp.join_attr % 2 == 0));
        assert!(t.iter().all(|tp| tp.join_attr % 2 == 1));
        assert_eq!(moved.len() as u64 + t.len(), 20);
        // Capacity accounting follows the drain.
        assert_eq!(t.bytes_used(), t.len() * t.bytes_per_tuple());
    }

    #[test]
    fn insert_unchecked_bypasses_capacity() {
        let mut t = table(1);
        t.insert(Tuple::new(0, 1)).unwrap();
        t.insert_unchecked(Tuple::new(1, 2));
        assert_eq!(t.len(), 2);
        assert!(t.bytes_used() > t.capacity_bytes());
    }

    #[test]
    fn drain_all_empties() {
        let mut t = table(10);
        for i in 0..5u64 {
            t.insert(Tuple::new(i, i)).unwrap();
        }
        let all = t.drain_all();
        assert_eq!(all.len(), 5);
        assert!(t.is_empty());
        assert_eq!(t.bytes_used(), 0);
        // The positions come out aligned with the tuples, also after a
        // probe has put the arena in position order.
        let mut t = table(100);
        for i in (0..20u64).rev() {
            t.insert(Tuple::new(i, i * 3)).unwrap();
        }
        let _ = t.probe(9);
        let (all, positions) = t.drain_all_with_positions();
        assert_eq!(all.len(), 20);
        assert!(positions.windows(2).all(|w| w[0] <= w[1]), "ordered");
        for (t0, &p) in all.iter().zip(&positions) {
            assert_eq!(p, space().position_of(t0.join_attr));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut t = JoinHashTable::new(space(), Schema::default_paper(), 0);
        assert!(t.insert(Tuple::new(0, 0)).is_err());
        assert_eq!(t.remaining_tuples(), 0);
    }

    #[test]
    fn chains_survive_extraction() {
        // Extraction must leave the survivors' runs intact so later probes
        // and inserts still see every remaining tuple.
        let mut t = table(1000);
        for i in 0..50u64 {
            t.insert(Tuple::new(i, i % 7)).unwrap(); // positions 0..6
        }
        let moved = t.extract_range(0, 3);
        assert_eq!(moved.len() as u64 + t.len(), 50);
        t.insert(Tuple::new(99, 5)).unwrap();
        let before = t.probe(5);
        assert_eq!(before.matches, 8, "7 original + 1 re-inserted at pos 5");
        assert_eq!(t.probe(1).matches, 0, "extracted position is empty");
    }

    #[test]
    fn empty_table_allocates_no_directory() {
        let big = PositionSpace::new(1 << 20, 1 << 20, AttrHasher::Identity);
        let mut t = JoinHashTable::new(big, Schema::default_paper(), u64::MAX);
        assert_eq!(t.probe(1234).compared, 0);
        let r = batched(&mut t, &[Tuple::new(0, 1234)]);
        assert_eq!((r.matches, r.compared, r.probes), (0, 0, 1));
        t.observe_metrics(&ehj_metrics::Histogram::default());
        assert!(t.dir.is_empty(), "idle potential nodes stay cheap");
    }

    /// Probes a batch through the production kernel.
    fn batched(t: &mut JoinHashTable, tuples: &[Tuple]) -> BatchProbeStats {
        t.probe_batch_with(tuples, &mut ProbeScratch::new(), ProbeKernel::Batched)
    }

    /// Sums the scalar oracle over a batch.
    fn scalar_sum(t: &mut JoinHashTable, tuples: &[Tuple]) -> (u64, u64) {
        tuples.iter().fold((0, 0), |(m, c), tp| {
            let r = t.probe(tp.join_attr);
            (m + r.matches, c + r.compared)
        })
    }

    #[test]
    fn probe_batch_equals_scalar_sum() {
        let mut t = table(1000);
        // Positions 10 and 20 carry mixed chains (true matches, position
        // collisions at +100, and absent attrs sharing the position).
        for attr in [10u64, 110, 10, 20, 120, 20, 20] {
            t.insert(Tuple::new(0, attr)).unwrap();
        }
        let probes: Vec<Tuple> = [10u64, 20, 110, 210, 30, 10, 320]
            .iter()
            .map(|&a| Tuple::new(1, a))
            .collect();
        let (m, c) = scalar_sum(&mut t, &probes);
        let mut scratch = ProbeScratch::new();
        let batch = t.probe_batch_with(&probes, &mut scratch, ProbeKernel::Batched);
        let positions: Vec<u32> = probes.iter().map(|p| t.position_of(p.join_attr)).collect();
        assert_eq!(scratch.positions(), positions.as_slice());
        assert_eq!(batch.matches, m);
        assert_eq!(batch.compared, c);
        assert_eq!(batch.probes, probes.len() as u64);
        // 210 and 320 land on occupied positions but are absent values: the
        // tag may reject them (never a present value).
        assert!(batch.rejections <= 2);
    }

    #[test]
    fn tag_rejection_still_charges_the_chain_length() {
        // One distinct attr, long chain: any absent attr whose fingerprint
        // differs must be rejected yet charged the full chain.
        let mut t = table(1000);
        for _ in 0..9 {
            t.insert(Tuple::new(0, 42)).unwrap();
        }
        let absent: u64 = (0..100)
            .map(|k| 42 + 100 * k)
            .find(|&a| filter_fingerprint(a) != filter_fingerprint(42))
            .expect("some colliding attr has a different fingerprint");
        let probes = [Tuple::new(1, absent)];
        let r = batched(&mut t, &probes);
        assert_eq!(r.rejections, 1, "distinct fingerprint must reject");
        assert_eq!(r.compared, 9, "rejection charges the whole chain");
        assert_eq!(r.matches, 0);
        assert_eq!(scalar_sum(&mut t, &probes), (0, 9));
    }

    #[test]
    fn every_kernel_equals_the_scalar_sum() {
        // Duplicate-heavy chains plus absent attrs sharing positions, over a
        // batch longer than either prefetch distance.
        let mut t = table(1000);
        for i in 0..200u64 {
            t.insert(Tuple::new(i, (i * 37) % 150)).unwrap();
        }
        let probes: Vec<Tuple> = (0..97u64).map(|i| Tuple::new(i, (i * 13) % 260)).collect();
        let (m, c) = scalar_sum(&mut t, &probes);
        for kernel in ProbeKernel::ALL {
            let mut scratch = ProbeScratch::new();
            let stats = t.probe_batch_with(&probes, &mut scratch, kernel);
            assert_eq!(stats.matches, m, "{kernel}: matches");
            assert_eq!(stats.compared, c, "{kernel}: compares");
            assert_eq!(stats.probes, probes.len() as u64, "{kernel}: probes");
        }
    }

    #[test]
    fn kernels_handle_empty_batches_and_empty_tables() {
        let mut t = table(10);
        let probes = [Tuple::new(0, 5)];
        for kernel in ProbeKernel::ALL {
            let mut scratch = ProbeScratch::new();
            let none = t.probe_batch_with(&[], &mut scratch, kernel);
            assert_eq!((none.probes, none.compared, none.matches), (0, 0, 0));
            let miss = t.probe_batch_with(&probes, &mut scratch, kernel);
            assert_eq!((miss.probes, miss.compared, miss.matches), (1, 0, 0));
        }
    }

    #[test]
    fn insert_batch_unchecked_matches_per_tuple_inserts() {
        let tuples: Vec<Tuple> = (0..40).map(|i| Tuple::new(i, i * 7 % 300)).collect();
        let mut batched = table(5);
        batched.insert_batch_unchecked(&tuples);
        let mut scalar = table(5);
        for &t in &tuples {
            scalar.insert_unchecked(t);
        }
        assert_eq!(batched.len(), scalar.len());
        assert_eq!(batched.bytes_used(), scalar.bytes_used());
        for a in 0..300 {
            assert_eq!(batched.probe(a), scalar.probe(a));
        }
        for pos in 0..100 {
            assert_eq!(batched.chain_count(pos), scalar.chain_count(pos));
            assert_eq!(batched.filter_tag(pos), scalar.filter_tag(pos));
        }
        batched.insert_batch_unchecked(&[]);
        assert_eq!(batched.len(), 40, "empty batch is a no-op");
    }

    /// Length, bytes used, histogram, `(count, tag)` per position, probes.
    type Readers = (u64, u64, Vec<u64>, Vec<(u32, u64)>, Vec<ProbeResult>);

    /// Everything a reader of the table can see: sizes, the histogram,
    /// every directory entry and every probe outcome.
    fn readers(t: &mut JoinHashTable) -> Readers {
        let dir = (0..100).map(|p| (t.chain_count(p), t.filter_tag(p)));
        let dir = dir.collect();
        let probes = (0..300).map(|a| t.probe(a)).collect();
        let hist = t.position_histogram(0, 100);
        (t.len(), t.bytes_used(), hist, dir, probes)
    }

    #[test]
    fn insert_batch_pre_hashed_is_all_or_nothing() {
        let positioned = |tuples: &[Tuple]| -> Vec<u32> {
            tuples
                .iter()
                .map(|t| space().position_of(t.join_attr))
                .collect()
        };
        let first: Vec<Tuple> = (0..6).map(|i| Tuple::new(i, 20 + i * 3)).collect();
        // Positions outside the span the first batch covers: a leaked tail
        // would re-base the directory.
        let second: Vec<Tuple> = (0..5).map(|i| Tuple::new(10 + i, 290 - i * 41)).collect();
        let mut t = table(10);
        t.insert_batch_pre_hashed(&first, &positioned(&first))
            .expect("six of ten fit");
        let before = readers(&mut t);
        let err = t
            .insert_batch_pre_hashed(&second, &positioned(&second))
            .expect_err("eleven of ten must be refused");
        assert_eq!(err.bytes_used, 6 * t.bytes_per_tuple());
        assert_eq!(err.capacity_bytes, t.capacity_bytes());
        assert_eq!(readers(&mut t), before, "a refused batch changes nothing");

        // A batch that fits exactly lands as tuple-by-tuple inserts would.
        let mut scalar = table(10);
        for &tuple in &first {
            scalar.insert(tuple).unwrap();
        }
        t.insert_batch_pre_hashed(&second[..4], &positioned(&second[..4]))
            .expect("ten of ten fit");
        for &tuple in &second[..4] {
            scalar.insert(tuple).unwrap();
        }
        assert_eq!(readers(&mut t), readers(&mut scalar));
        assert_eq!(t.remaining_tuples(), 0);
    }

    #[test]
    fn filters_rebuild_on_compaction_and_release_on_drain() {
        let mut t = table(1000);
        for i in 0..30u64 {
            t.insert(Tuple::new(i, i % 7)).unwrap();
        }
        assert_eq!(t.chain_count(3), 4, "30 tuples over 7 positions");
        assert_ne!(t.filter_tag(3), 0);
        let _ = t.extract_range(0, 4);
        for pos in 0..4 {
            assert_eq!(t.chain_count(pos), 0, "emptied position");
            assert_eq!(t.filter_tag(pos), 0, "tag rebuilt to empty");
        }
        assert_eq!(t.chain_count(5), 4, "survivors recounted");
        assert_eq!(t.filter_tag(5), filter_fingerprint(5));
        let _ = t.drain_all();
        assert!(t.dir.is_empty(), "a spilled node releases the directory");
    }

    #[test]
    fn drain_positions_agrees_with_drain_filter() {
        let mk = || {
            let mut t = table(1000);
            for i in 0..50u64 {
                t.insert(Tuple::new(i, i * 13 % 700)).unwrap();
            }
            t
        };
        let mut by_pos = mk();
        let mut by_attr = mk();
        let space = space();
        let mut a = by_pos.drain_positions(|pos| pos >= 40);
        let mut b = by_attr.drain_filter(|t| space.position_of(t.join_attr) >= 40);
        a.sort_unstable_by_key(|t| (t.join_attr, t.index));
        b.sort_unstable_by_key(|t| (t.join_attr, t.index));
        assert_eq!(a, b);
        assert_eq!(by_pos.len(), by_attr.len());
    }

    #[test]
    fn range_bounds_past_the_position_space_are_clamped() {
        // The position space is [0, 100): a wire range may claim more.
        let mut t = table(100);
        for i in 0..10u64 {
            t.insert(Tuple::new(i, 90 + i)).unwrap(); // positions 90..=99
        }
        let h = t.position_histogram(95, 4000);
        assert_eq!(h, vec![1; 5], "clamped to [95, 100)");
        assert!(t.position_histogram(100, u32::MAX).is_empty());
        assert!(t.position_histogram(70, 60).is_empty(), "inverted range");
        let got = t.extract_range(95, u32::MAX);
        assert_eq!(got.len(), 5);
        assert!(t.extract_range(100, u32::MAX).is_empty());
        assert!(t.extract_range(99, 95).is_empty(), "inverted range");
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn ranges_outside_the_occupied_span_find_nothing() {
        let mut t = table(100);
        for i in 0..10u64 {
            t.insert(Tuple::new(i, 40 + i)).unwrap(); // span [40, 50)
        }
        assert_eq!(t.position_histogram(0, 40), vec![0; 40]);
        assert_eq!(t.position_histogram(50, 100), vec![0; 50]);
        assert!(t.extract_range(0, 40).is_empty());
        assert!(t.extract_range(50, 100).is_empty());
        assert_eq!(t.len(), 10);
        // A range that only overlaps the span takes exactly the overlap.
        assert_eq!(t.extract_range(0, 45).len(), 5);
        assert_eq!(t.probe(47).matches, 1);
    }

    #[test]
    fn range_calls_on_a_table_that_never_saw_an_insert() {
        let mut t = table(100);
        assert_eq!(t.position_histogram(10, 20), vec![0; 10]);
        assert!(t.extract_range(10, 20).is_empty());
        assert!(t.extract_range(0, u32::MAX).is_empty());
        assert!(t.dir.is_empty(), "neither call allocates the directory");
        // Same after a spill released the directory.
        t.insert(Tuple::new(0, 15)).unwrap();
        let _ = t.drain_all();
        assert_eq!(t.position_histogram(10, 20), vec![0; 10]);
        assert!(t.extract_range(10, 20).is_empty());
    }

    #[test]
    fn successive_extractions_keep_the_remaining_runs_addressable() {
        // Hybrid's plan extracts several subranges from one ordered arena:
        // each must see the starts the previous one shifted.
        let mut t = table(1000);
        for i in 0..300u64 {
            t.insert(Tuple::new(i, i * 7 % 100)).unwrap();
        }
        let a = t.extract_range(20, 40);
        let b = t.extract_range(30, 60); // overlaps the emptied [30, 40)
        let c = t.extract_range(0, 10);
        assert_eq!((a.len(), b.len(), c.len()), (60, 60, 30));
        assert!(b.iter().all(|tp| (40..60).contains(&tp.join_attr)));
        for attr in 0..100u64 {
            let expect = if (10..20).contains(&attr) || attr >= 60 {
                3
            } else {
                0
            };
            assert_eq!(t.probe(attr).matches, expect, "attr {attr}");
        }
    }

    #[test]
    fn a_table_that_is_built_then_spilled_never_allocates_a_directory() {
        let mut t = table(1000);
        for i in 0..200u64 {
            t.insert(Tuple::new(i, i * 7 % 300)).unwrap();
        }
        t.insert_batch_unchecked(&[Tuple::new(200, 5), Tuple::new(201, 95)]);
        // A build-time bucket split drains by position without counting.
        let moved = t.drain_positions(|pos| pos >= 50);
        assert_eq!(moved.len() as u64 + t.len(), 202);
        assert_eq!(t.dir.capacity(), 0, "inserts and drains read no directory");
        assert_eq!(t.counted, 0);
        assert_eq!(t.drain_all().len() as u64 + moved.len() as u64, 202);
        assert_eq!(t.dir.capacity(), 0, "a node that spills never had one");
    }

    #[test]
    fn directory_covers_the_held_span_and_rebases_for_a_tail_outside_it() {
        let mut t = table(1000);
        for i in 0..30u64 {
            t.insert(Tuple::new(i, 40 + i % 10)).unwrap(); // positions 40..50
        }
        assert_eq!(t.position_histogram(0, 100).iter().sum::<u64>(), 30);
        assert_eq!((t.lo, t.hi, t.dir.len()), (40, 50, 10));
        let tags: Vec<u64> = (40..50).map(|p| t.filter_tag(p)).collect();
        // A tail inside the span leaves the base alone...
        t.insert(Tuple::new(30, 45)).unwrap();
        assert_eq!(t.chain_count(45), 4);
        assert_eq!((t.lo, t.hi, t.dir.len()), (40, 50, 10));
        // ...one below and one above it (a reshuffle receiver's new range)
        // re-base, keeping every count and tag.
        t.insert_batch_unchecked(&[Tuple::new(31, 12), Tuple::new(32, 112)]);
        t.insert_unchecked(Tuple::new(33, 77));
        assert_eq!(t.chain_count(12), 2);
        assert_eq!((t.lo, t.hi, t.dir.len()), (12, 78, 66));
        assert_eq!(
            t.filter_tag(12),
            filter_fingerprint(12) | filter_fingerprint(112)
        );
        for p in 40..50 {
            assert_eq!(t.chain_count(p), 3 + u32::from(p == 45), "position {p}");
            assert_eq!(t.filter_tag(p), tags[(p - 40) as usize], "position {p}");
        }
        assert_eq!(
            t.probe(112),
            ProbeResult {
                matches: 1,
                compared: 2
            }
        );
        assert_eq!(t.probe(47).matches, 3);
        // A predicate drain drops the directory; the next reader sizes it
        // to what the survivors span.
        let _ = t.drain_positions(|pos| pos < 45);
        assert!(t.dir.is_empty());
        assert_eq!(t.chain_count(45), 4);
        assert_eq!((t.lo, t.hi, t.dir.len()), (45, 78, 33));
    }

    #[test]
    fn probes_outside_the_covered_span_read_an_empty_run() {
        let mut t = table(1000);
        for i in 0..40u64 {
            t.insert(Tuple::new(i, 40 + i % 10)).unwrap(); // span [40, 50)
        }
        // Below `lo`, at and above `hi`, and (attrs + 100) wrapping onto
        // the same outside positions; long enough that the prefetch
        // look-ahead runs, ending on outside positions so the look-ahead
        // at the batch end reads them too.
        let outside = [0u64, 39, 50, 99, 139, 150];
        let mut probes: Vec<Tuple> = (0..60u64)
            .map(|i| Tuple::new(i, outside[i as usize % outside.len()]))
            .collect();
        for attr in outside {
            assert_eq!(t.probe(attr), ProbeResult::default(), "attr {attr}");
        }
        let r = batched(&mut t, &probes);
        assert_eq!((r.matches, r.compared, r.rejections), (0, 0, 0));
        // Mixed with probes that hit, the totals are the inside ones'.
        probes.insert(7, Tuple::new(0, 44));
        probes.insert(58, Tuple::new(0, 144));
        let (m, c) = scalar_sum(&mut t, &probes);
        assert_eq!((m, c), (4, 8));
        let r = batched(&mut t, &probes);
        assert_eq!((r.matches, r.compared, r.probes), (4, 8, 62));
        // A never-inserted table covers nothing at all.
        let mut idle = table(10);
        for kernel in ProbeKernel::ALL {
            let r = idle.probe_batch_with(&probes, &mut ProbeScratch::new(), kernel);
            assert_eq!((r.matches, r.compared, r.probes), (0, 0, 62));
        }
        assert_eq!(idle.dir.capacity(), 0);
        // So does a table whose every tuple was extracted.
        assert_eq!(t.extract_range(0, 100).len(), 40);
        let r = batched(&mut t, &probes);
        assert_eq!((r.matches, r.compared), (0, 0));
    }

    #[test]
    fn counting_on_demand_equals_a_brute_force_recount() {
        fn check(t: &mut JoinHashTable) {
            let mut recount = vec![0u64; 100];
            let mut tags = [0u64; 100];
            for tp in t.iter() {
                let pos = t.position_of(tp.join_attr) as usize;
                recount[pos] += 1;
                tags[pos] |= filter_fingerprint(tp.join_attr);
            }
            assert_eq!(t.position_histogram(0, 100), recount);
            for pos in 0..100 {
                assert_eq!(t.filter_tag(pos), tags[pos as usize], "position {pos}");
            }
        }
        let mut t = table(10_000);
        let mut index = 0u64;
        let mut insert = |t: &mut JoinHashTable, n: u64, mul: u64| {
            for _ in 0..n {
                t.insert(Tuple::new(index, 20 + index * mul % 260)).unwrap();
                index += 1;
            }
        };
        insert(&mut t, 150, 7);
        check(&mut t);
        insert(&mut t, 90, 11);
        let moved = t.drain_positions(|pos| pos % 3 == 0);
        assert!(!moved.is_empty());
        insert(&mut t, 60, 13);
        check(&mut t);
        let contents: Vec<Tuple> = t.iter().copied().collect();
        for attr in 0..400u64 {
            let expect = contents.iter().filter(|tp| tp.join_attr == attr).count();
            let chain = contents
                .iter()
                .filter(|tp| tp.join_attr % 100 == attr % 100)
                .count();
            let r = t.probe(attr);
            assert_eq!((r.matches, r.compared), (expect as u64, chain as u64));
        }
        check(&mut t);
    }

    #[test]
    fn extract_range_trims_the_covered_span() {
        let mk = || {
            let mut t = table(1000);
            for i in 0..60u64 {
                t.insert(Tuple::new(i, 20 + i % 30)).unwrap(); // span [20, 50)
            }
            assert_eq!(t.chain_count(20), 2);
            assert_eq!((t.lo, t.hi, t.dir.len()), (20, 50, 30));
            t
        };
        // Head and tail move their end of the span; a range that overhangs
        // the span trims like one that stops at its end.
        let mut t = mk();
        assert_eq!(t.extract_range(0, 25).len(), 10);
        assert_eq!((t.lo, t.hi, t.dir.len()), (25, 50, 25));
        assert_eq!(t.extract_range(45, 50).len(), 10);
        assert_eq!((t.lo, t.hi, t.dir.len()), (25, 45, 20));
        // The middle leaves both ends where they are...
        assert_eq!(t.extract_range(30, 40).len(), 20);
        assert_eq!((t.lo, t.hi, t.dir.len()), (25, 45, 20));
        // ...and a later tail that reaches the hole takes it along.
        assert_eq!(t.extract_range(40, 45).len(), 10);
        assert_eq!((t.lo, t.hi, t.dir.len()), (25, 30, 5));
        for attr in 0..100u64 {
            let held = (25..30).contains(&attr);
            let expect = ProbeResult {
                matches: 2 * u64::from(held),
                compared: 2 * u64::from(held),
            };
            assert_eq!(t.probe(attr), expect, "attr {attr}");
        }
        // A later tail outside the trimmed span re-bases over it.
        t.insert_batch_unchecked(&[Tuple::new(90, 22), Tuple::new(91, 47)]);
        assert_eq!(t.chain_count(47), 1);
        assert_eq!((t.lo, t.hi, t.dir.len()), (22, 48, 26));
        assert_eq!(t.position_histogram(20, 50).iter().sum::<u64>(), 12);
        assert_eq!(t.probe(22).matches, 1);
        assert_eq!(t.probe(27).matches, 2);
        assert_eq!(t.probe(35).compared, 0, "extracted and still empty");
        // The whole span: no directory at all.
        let mut t = mk();
        assert_eq!(t.extract_range(0, 100).len(), 60);
        assert_eq!((t.lo, t.hi, t.dir.capacity()), (0, 0, 0));
        t.insert(Tuple::new(0, 77)).unwrap();
        assert_eq!(t.probe(77).matches, 1);
        assert_eq!((t.lo, t.hi, t.dir.len()), (77, 78, 1));
    }

    #[test]
    fn keys_sharing_a_memo_slot_alternate_and_both_count_exactly() {
        let a = 7u64;
        let b = (8..)
            .find(|&b| memo_slot(b) == memo_slot(a))
            .expect("finitely many slots");
        let mut t = table(1000);
        for i in 0..3 * u64::from(MEMO_MIN_RUN) {
            t.insert(Tuple::new(i, if i % 3 == 0 { a } else { b }))
                .unwrap();
        }
        let probes: Vec<Tuple> = (0..50u64)
            .map(|i| Tuple::new(i, if i % 2 == 0 { a } else { b }))
            .collect();
        let expect = scalar_sum(&mut t, &probes);
        assert_eq!(
            expect.0,
            25 * 3 * u64::from(MEMO_MIN_RUN),
            "a's 25 + b's 50"
        );
        // Twice: the second batch starts on whatever the first left behind.
        for _ in 0..2 {
            let r = batched(&mut t, &probes);
            assert_eq!((r.matches, r.compared), expect);
        }
        assert_eq!(t.memo.len(), MEMO_SLOTS, "the runs were long enough");
    }

    #[test]
    fn a_late_insert_of_a_memoized_key_is_found_by_the_next_probe() {
        let mut t = table(1000);
        let n = u64::from(MEMO_MIN_RUN) + 8;
        for i in 0..n {
            t.insert(Tuple::new(i, 42)).unwrap();
        }
        let probes = [Tuple::new(0, 42), Tuple::new(1, 42)];
        let r = batched(&mut t, &probes);
        assert_eq!((r.matches, r.compared), (2 * n, 2 * n));
        assert_eq!(t.memo[memo_slot(42)].matches as u64, n, "memoized");
        t.insert(Tuple::new(n, 42)).unwrap();
        let r = batched(&mut t, &probes);
        assert_eq!((r.matches, r.compared), (2 * n + 2, 2 * n + 2));
        // So is a removal that leaves the arena ordered.
        t.insert(Tuple::new(n + 1, 50)).unwrap();
        assert_eq!(batched(&mut t, &probes).matches, 2 * n + 2);
        assert_eq!(t.extract_range(42, 43).len() as u64, n + 1);
        assert!(t.ordered);
        let r = batched(&mut t, &probes);
        assert_eq!((r.matches, r.compared), (0, 0));
    }

    #[test]
    fn the_filter_rejects_most_absent_keys_at_the_base_case_shape() {
        // The paper's base case as one node sees it: identity hasher, ~10
        // distinct attributes per position, probe keys that are not stored.
        let positions = 1u32 << 10;
        let space = PositionSpace::new(positions, 1 << 32, AttrHasher::Identity);
        let mut t = JoinHashTable::new(space, Schema::default_paper(), u64::MAX);
        let mut g = ehj_data::Xoshiro256StarStar::new(0xF117);
        for i in 0..10 * u64::from(positions) {
            // The domain's lower half is stored, its upper half probed.
            t.insert(Tuple::new(i, g.next_below(1 << 31))).unwrap();
        }
        let probes: Vec<Tuple> = (0..10_000u64)
            .map(|i| Tuple::new(i, (1 << 31) + g.next_below(1 << 31)))
            .collect();
        let (m, c) = scalar_sum(&mut t, &probes);
        let r = batched(&mut t, &probes);
        assert_eq!((r.matches, r.compared), (m, c));
        assert_eq!(m, 0);
        let (rejected, probed) = (r.rejections, r.probes);
        assert!(rejected * 100 >= probed * 85, "{rejected} of {probed}");
    }

    /// Batch lengths on and around the batched kernel's block boundaries.
    const BLOCK_EDGES: [usize; 6] = [
        0,
        1,
        PROBE_BLOCK - 1,
        PROBE_BLOCK,
        PROBE_BLOCK + 1,
        3 * PROBE_BLOCK + 17,
    ];

    /// `len` probes cycling over `attrs`.
    fn cycle(attrs: &[u64], len: usize) -> Vec<Tuple> {
        let attrs = attrs.iter().cycle().take(len);
        attrs
            .enumerate()
            .map(|(i, &a)| Tuple::new(i as u64, a))
            .collect()
    }

    #[test]
    fn blocks_of_every_kind_equal_the_scalar_sum_at_block_boundaries() {
        // Short runs at 0..40, two long runs at 60 and 61 (61 shared with
        // 161), nothing at 80..100.
        let mut t = table(10_000);
        for i in 0..120u64 {
            t.insert(Tuple::new(i, i % 40)).unwrap();
        }
        let long = u64::from(MEMO_MIN_RUN) + 5;
        for i in 0..long {
            t.insert(Tuple::new(i, 60)).unwrap();
            t.insert(Tuple::new(i, if i % 4 == 0 { 161 } else { 61 }))
                .unwrap();
        }
        let turned_away = |t: &mut JoinHashTable, attr: u64| {
            let pos = t.position_of(attr);
            let fp = filter_fingerprint(attr);
            t.chain_count(pos) != 0 && t.filter_tag(pos) & fp != fp
        };
        let rejected: Vec<u64> = (100..100_000)
            .filter(|&a| a % 100 < 40 && turned_away(&mut t, a))
            .take(50)
            .collect();
        assert_eq!(rejected.len(), 50);
        let stored: Vec<u64> = (0..40).chain([60, 61, 161]).collect();
        let empty: Vec<u64> = (80..100).chain(180..200).collect();
        // Hot keys only: with a block length that is not a multiple of the
        // cycle, each key repeats on both sides of every block boundary.
        let hot = [60u64, 161, 61, 60, 61];
        let cases: [(&str, &[u64]); 4] = [
            ("all rejected", &rejected),
            ("all pass", &stored),
            ("empty positions", &empty),
            ("long runs", &hot),
        ];
        let mut scratch = ProbeScratch::new();
        let mut check = |t: &mut JoinHashTable, probes: &[Tuple], what: &str| {
            let r = t.probe_batch_with(probes, &mut scratch, ProbeKernel::Batched);
            let turned: u64 = probes
                .iter()
                .map(|p| u64::from(turned_away(t, p.join_attr)))
                .sum();
            let positions: Vec<u32> = probes.iter().map(|p| t.position_of(p.join_attr)).collect();
            assert_eq!((r.matches, r.compared), scalar_sum(t, probes), "{what}");
            assert_eq!(r.rejections, turned, "{what}");
            assert_eq!(r.probes, probes.len() as u64, "{what}");
            assert_eq!(scratch.positions(), positions.as_slice(), "{what}");
            r
        };
        for (what, attrs) in cases {
            for len in BLOCK_EDGES {
                let r = check(&mut t, &cycle(attrs, len), &format!("{what}, {len}"));
                match what {
                    "all rejected" => assert_eq!(r.rejections, len as u64),
                    "empty positions" => assert_eq!((r.compared, r.rejections), (0, 0)),
                    _ => assert_eq!(r.rejections, 0, "{what}, {len}"),
                }
            }
        }
        // One batch whose blocks take turns: each block's survivors must
        // come from that block alone.
        let mut mixed: Vec<Tuple> = cases
            .iter()
            .flat_map(|(_, attrs)| cycle(attrs, PROBE_BLOCK))
            .collect();
        mixed.truncate(3 * PROBE_BLOCK + 17);
        check(&mut t, &mixed, "mixed blocks");
        assert_eq!(
            t.memo.len(),
            MEMO_SLOTS,
            "the long runs went through the memo"
        );
    }

    #[test]
    fn order_is_position_major_and_insertion_minor_around_the_prefetch_distance() {
        // Each tuple's index is its insertion sequence number.
        fn ordered(t: &JoinHashTable) -> bool {
            let key = |tp: &Tuple| (t.position_of(tp.join_attr), tp.index);
            t.iter().zip(t.iter().skip(1)).all(|(a, b)| key(a) < key(b))
        }
        let attr = |i: u64| (i * 7) % 13 + 100 * (i % 3);
        for n in [
            0,
            1,
            SORT_PREFETCH_AHEAD - 1,
            SORT_PREFETCH_AHEAD,
            SORT_PREFETCH_AHEAD + 1,
            1000,
        ] {
            let n = n as u64;
            let mut t = table(10_000);
            let mut inserted: Vec<Tuple> = Vec::new();
            // A re-sort after an appended tail sees the first sort's output
            // followed by the tail.
            for tail in [0..n, n..n + n / 2 + 3] {
                for i in tail {
                    let tuple = Tuple::new(i, attr(i));
                    t.insert(tuple).unwrap();
                    inserted.push(tuple);
                }
                let _ = t.probe(0);
                assert!(ordered(&t), "{n} tuples");
                let mut held: Vec<Tuple> = t.iter().copied().collect();
                held.sort_unstable_by_key(|tp| tp.index);
                assert_eq!(held, inserted, "{n} tuples");
                for a in 0..300 {
                    let expect: Vec<Tuple> = inserted
                        .iter()
                        .filter(|tp| tp.join_attr == a)
                        .copied()
                        .collect();
                    assert_eq!(t.probe_collect(a), expect, "{n} tuples, attr {a}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_sets_one_or_two_of_64_bits() {
        for a in 0..4096u64 {
            assert!((1..=2).contains(&filter_fingerprint(a).count_ones()));
        }
        // Distinct values reach every bit of the word.
        let bits: u64 = (0..4096u64).fold(0, |acc, a| acc | filter_fingerprint(a));
        assert_eq!(bits, u64::MAX);
    }

    /// A table whose arena, sort outputs and extracts come out of a pool
    /// pre-filled with stale buffers behaves exactly like one on fresh
    /// allocations: same probes, histograms, extracts and drains.
    #[test]
    fn a_table_on_recycled_buffers_matches_a_fresh_one() {
        let leak = |cap| -> &'static BufferPool { Box::leak(Box::new(BufferPool::new(cap))) };
        let recycled_pool = leak(usize::MAX);
        for n in [1usize << 14, 40_000, 1 << 17, 300_000] {
            recycled_pool.give(vec![Tuple::new(u64::MAX, 7); n]);
            recycled_pool.give(vec![u32::MAX; n]);
        }
        let filled = recycled_pool.held_bytes();
        let space = PositionSpace::new(1 << 12, 1 << 20, AttrHasher::Fibonacci);
        let schema = Schema::default_paper();
        let mut recycled = JoinHashTable::with_pool(space, schema, u64::MAX, recycled_pool);
        // A pool that keeps nothing: plain `Vec` allocations.
        let mut fresh = JoinHashTable::with_pool(space, schema, u64::MAX, leak(0));
        let mut g = ehj_data::Xoshiro256StarStar::new(0x9001);
        let mut next = 0u64;
        let mut batch = |n: usize| -> Vec<Tuple> {
            (0..n)
                .map(|_| {
                    next += 1;
                    Tuple::new(next, g.next_below(1 << 20))
                })
                .collect()
        };
        let (a, b) = (batch(150_000), batch(70_000));
        let mut positions = Vec::new();
        space.bulk_positions(&b, &mut positions);
        for t in [&mut recycled, &mut fresh] {
            t.insert_batch_unchecked(&a);
            t.insert_batch_pre_hashed(&b, &positions)
                .expect("no capacity bound");
            for &tp in &a[..20_000] {
                t.insert_unchecked(tp);
            }
        }
        assert!(
            recycled_pool.held_bytes() < filled,
            "the arena came from the pool"
        );
        let probes = batch(5_000);
        let mut scratch = ProbeScratch::new();
        let mut same = |recycled: &mut JoinHashTable, fresh: &mut JoinHashTable| {
            assert_eq!(
                recycled.position_histogram(0, 1 << 12),
                fresh.position_histogram(0, 1 << 12)
            );
            let stats = recycled.probe_batch_with(&probes, &mut scratch, ProbeKernel::Batched);
            assert_eq!(
                stats,
                fresh.probe_batch_with(&probes, &mut scratch, ProbeKernel::Batched)
            );
            assert_eq!(
                recycled.probe_collect(a[3].join_attr),
                fresh.probe_collect(a[3].join_attr)
            );
            assert!(recycled.iter().eq(fresh.iter()));
        };
        same(&mut recycled, &mut fresh);
        assert_eq!(
            recycled.extract_range(100, 1500),
            fresh.extract_range(100, 1500)
        );
        same(&mut recycled, &mut fresh);
        let (c, d) = (batch(90_000), batch(3_000));
        for t in [&mut recycled, &mut fresh] {
            t.insert_batch_unchecked(&c);
            for &tp in &d {
                t.insert_unchecked(tp);
            }
        }
        let cut = |p: u32| p % 3 == 0;
        assert_eq!(recycled.drain_positions(cut), fresh.drain_positions(cut));
        same(&mut recycled, &mut fresh);
        let odd = |tp: &Tuple| tp.join_attr % 2 == 1;
        assert_eq!(recycled.drain_filter(odd), fresh.drain_filter(odd));
        same(&mut recycled, &mut fresh);
        assert_eq!(
            recycled.extract_range(0, 1 << 12),
            fresh.extract_range(0, 1 << 12)
        );
        for t in [&mut recycled, &mut fresh] {
            t.insert_batch_unchecked(&c);
        }
        let before = recycled_pool.held_bytes();
        assert_eq!(recycled.drain_all(), fresh.drain_all());
        assert!(recycled.is_empty() && fresh.is_empty());
        assert!(
            recycled_pool.held_bytes() > before,
            "the released position log went back"
        );
    }
}
