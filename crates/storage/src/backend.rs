//! Spill-partition storage backends.
//!
//! The out-of-core baseline writes hash-table buckets to the node's local
//! disk (§2, "the basic out-of-core join algorithm"). Two backends share
//! one interface:
//!
//! * [`MemBackend`] — holds partition contents in memory. Used under the
//!   discrete-event simulator, where I/O *cost* is charged through the
//!   engine's disk model by the caller; only the byte volumes matter.
//! * [`FileBackend`] — one real spill file per backend (one backend per
//!   spilling node), 16 bytes per tuple record, every partition a list of
//!   64 KB blocks in that file. Used by the threaded runtime so the
//!   out-of-core path is exercised end-to-end against a real file system.

use ehj_data::{BufferPool, Tuple};
use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;

/// Handle to one spill partition within a backend.
pub type PartitionId = usize;

/// Append-only partition storage.
pub trait SpillBackend {
    /// Creates a new, empty partition.
    fn create(&mut self) -> PartitionId;

    /// Appends one tuple to a partition.
    fn push(&mut self, part: PartitionId, t: Tuple);

    /// Reads a partition's full contents (in append order).
    fn read(&mut self, part: PartitionId) -> Vec<Tuple>;

    /// Releases a partition's storage. Reading it afterwards yields empty.
    fn remove(&mut self, part: PartitionId);

    /// Tuples currently stored in a partition.
    fn len(&self, part: PartitionId) -> u64;
}

/// In-memory backend for simulated runs.
#[derive(Debug, Default)]
pub struct MemBackend {
    parts: Vec<Vec<Tuple>>,
}

impl MemBackend {
    /// Creates an empty backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpillBackend for MemBackend {
    fn create(&mut self) -> PartitionId {
        self.parts.push(Vec::new());
        self.parts.len() - 1
    }

    #[inline]
    fn push(&mut self, part: PartitionId, t: Tuple) {
        self.parts[part].push(t);
    }

    fn read(&mut self, part: PartitionId) -> Vec<Tuple> {
        self.parts[part].clone()
    }

    fn remove(&mut self, part: PartitionId) {
        self.parts[part] = Vec::new();
    }

    fn len(&self, part: PartitionId) -> u64 {
        self.parts[part].len() as u64
    }
}

/// Bytes of one tuple record in a spill file.
const RECORD_BYTES: usize = 16;

/// A partition's records reach the file once this many bytes are pending:
/// incoming chunks carry a few hundred bytes per fragment, and a write per
/// chunk costs more than the bytes it moves.
const BLOCK_BYTES: usize = 64 * 1024;

/// One partition of a [`FileBackend`].
#[derive(Debug, Default)]
struct FilePartition {
    /// `(offset, bytes)` of each block written to the file, in append
    /// order.
    blocks: Vec<(u64, usize)>,
    /// Encoded records not yet written: the partition's next block.
    pending: Vec<u8>,
    count: u64,
}

/// Real-file backend: one spill file for all of its partitions, created
/// under [`std::env::temp_dir`] and unlinked at once, so no exit — a
/// panic or a kill included — leaves a name behind; the space goes back
/// when the backend drops its handle. Each partition is a list of blocks
/// at offsets in that file. Appends encode straight into the partition's
/// pending block, which is written at the file's end once it holds
/// `BLOCK_BYTES` (64 KB); a read writes the partial block first, so every
/// partition's contents still go through the file system, then decodes a
/// block at a time into a vector taken from the [`BufferPool`], sized from
/// the partition's count. A removed partition's blocks stay as dead space
/// until the backend drops, so the file holds one record for every tuple
/// ever appended — what the spill wrote and re-wrote — and never more.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    /// Bytes written to the file: where the next block goes.
    end: u64,
    parts: Vec<FilePartition>,
}

impl FileBackend {
    /// Creates the backend's spill file under the system temp dir and
    /// removes its name.
    ///
    /// # Panics
    /// Panics if the spill file cannot be created or unlinked.
    #[must_use]
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("ehj-spill-{}-{}", std::process::id(), n));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create spill file");
        fs::remove_file(&path).expect("unlink spill file");
        Self {
            file,
            end: 0,
            parts: Vec::new(),
        }
    }

    /// Writes partition `part`'s pending block at the file's end.
    fn write_pending(&mut self, part: PartitionId) {
        let p = &mut self.parts[part];
        self.file
            .write_all_at(&p.pending, self.end)
            .expect("write spill");
        p.blocks.push((self.end, p.pending.len()));
        self.end += p.pending.len() as u64;
        p.pending.clear();
    }
}

impl Default for FileBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SpillBackend for FileBackend {
    fn create(&mut self) -> PartitionId {
        self.parts.push(FilePartition::default());
        self.parts.len() - 1
    }

    #[inline]
    fn push(&mut self, part: PartitionId, t: Tuple) {
        let p = &mut self.parts[part];
        let mut rec = [0u8; RECORD_BYTES];
        rec[..8].copy_from_slice(&t.index.to_le_bytes());
        rec[8..].copy_from_slice(&t.join_attr.to_le_bytes());
        p.pending.extend_from_slice(&rec);
        p.count += 1;
        if p.pending.len() >= BLOCK_BYTES {
            self.write_pending(part);
        }
    }

    fn read(&mut self, part: PartitionId) -> Vec<Tuple> {
        if !self.parts[part].pending.is_empty() {
            self.write_pending(part);
        }
        let p = &self.parts[part];
        let count = usize::try_from(p.count).expect("partition fits in memory");
        let mut out = BufferPool::global().take(count);
        let mut block = vec![0u8; BLOCK_BYTES.min(count * RECORD_BYTES)];
        for &(offset, bytes) in &p.blocks {
            let block = &mut block[..bytes];
            self.file.read_exact_at(block, offset).expect("read spill");
            out.extend(block.chunks_exact(RECORD_BYTES).map(|rec| {
                Tuple::new(
                    u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
                    u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
                )
            }));
        }
        assert_eq!(out.len(), count, "corrupt spill file");
        out
    }

    fn remove(&mut self, part: PartitionId) {
        self.parts[part] = FilePartition::default();
    }

    fn len(&self, part: PartitionId) -> u64 {
        self.parts[part].count
    }
}

/// Serialises the tests that create a [`FileBackend`]: one of them lists
/// the temp dir, and another test's spill file is briefly named there
/// between its creation and its unlink.
#[cfg(test)]
pub(crate) fn temp_dir_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn append(b: &mut impl SpillBackend, part: PartitionId, tuples: &[Tuple]) {
        for &t in tuples {
            b.push(part, t);
        }
    }

    fn roundtrip(mut b: impl SpillBackend) {
        let p0 = b.create();
        let p1 = b.create();
        let batch1: Vec<Tuple> = (0..10).map(|i| Tuple::new(i, i * 3)).collect();
        let batch2: Vec<Tuple> = (10..15).map(|i| Tuple::new(i, i * 3)).collect();
        append(&mut b, p0, &batch1);
        append(&mut b, p0, &batch2);
        append(&mut b, p1, &batch2);
        assert_eq!(b.len(p0), 15);
        assert_eq!(b.len(p1), 5);
        let got = b.read(p0);
        assert_eq!(got.len(), 15);
        assert_eq!(&got[..10], &batch1[..]);
        assert_eq!(&got[10..], &batch2[..]);
        b.remove(p0);
        assert_eq!(b.len(p0), 0);
        assert!(b.read(p0).is_empty());
        // p1 untouched by p0's removal.
        assert_eq!(b.read(p1), batch2);
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(MemBackend::new());
    }

    #[test]
    fn file_backend_roundtrip() {
        let _lock = temp_dir_lock();
        roundtrip(FileBackend::new());
    }

    /// Block layout of a partition: `(offset, bytes)` of each block.
    fn blocks(b: &FileBackend, p: PartitionId) -> Vec<(u64, usize)> {
        b.parts[p].blocks.clone()
    }

    fn pending(b: &FileBackend, p: PartitionId) -> usize {
        b.parts[p].pending.len()
    }

    #[test]
    fn file_partitions_interleave_in_one_file_a_block_at_a_time() {
        let _lock = temp_dir_lock();
        let per_block = BLOCK_BYTES / RECORD_BYTES;
        let block = BLOCK_BYTES as u64;
        let all: Vec<Tuple> = (0..4 * per_block as u64 + 10)
            .map(|i| Tuple::new(i, i * 7))
            .collect();
        let mut b = FileBackend::new();
        let (p, q) = (b.create(), b.create());
        // Short of a block: counted, buffered, nothing written yet.
        let (head, rest) = all.split_at(per_block - 3);
        append(&mut b, p, head);
        assert_eq!(b.len(p), per_block as u64 - 3);
        assert_eq!((b.end, pending(&b, p)), (0, head.len() * RECORD_BYTES));
        // Straddling the boundary writes exactly the full block.
        let (straddle, rest) = rest.split_at(8);
        append(&mut b, p, straddle);
        assert_eq!(blocks(&b, p), [(0, BLOCK_BYTES)]);
        assert_eq!(pending(&b, p), 5 * RECORD_BYTES);
        // The other partition's first block lands after it in the file.
        let (theirs, rest) = rest.split_at(per_block);
        append(&mut b, q, theirs);
        assert_eq!(blocks(&b, q), [(block, BLOCK_BYTES)]);
        // A read taken while a partial block is buffered writes it as a
        // short block and sees everything, in append order.
        assert_eq!(b.read(p), all[..per_block + 5]);
        let short = 5 * RECORD_BYTES;
        assert_eq!(blocks(&b, p), [(0, BLOCK_BYTES), (2 * block, short)]);
        assert_eq!(b.end, 2 * block + short as u64);
        // One append past two more blocks is cut into blocks as it goes,
        // and the partition reads back across all four of its blocks.
        let (mine, rest) = rest.split_at(2 * per_block + 3);
        append(&mut b, p, mine);
        let after = 2 * block + short as u64;
        assert_eq!(
            blocks(&b, p),
            [
                (0, BLOCK_BYTES),
                (2 * block, short),
                (after, BLOCK_BYTES),
                (after + block, BLOCK_BYTES)
            ]
        );
        let expected: Vec<Tuple> = [head, straddle, mine].concat();
        assert_eq!(b.read(p), expected);
        assert_eq!(b.read(q), theirs);
        assert_eq!(b.len(p), expected.len() as u64);
        // A removed partition reads as nothing, buffered block and all,
        // and writes nothing; its neighbour still reads whole.
        append(&mut b, q, rest);
        b.remove(q);
        assert_eq!(b.len(q), 0);
        let end = b.end;
        assert!(b.read(q).is_empty());
        assert_eq!(b.end, end);
        assert_eq!(b.read(p), expected);
    }

    /// Names of this process's spill files in the temp dir.
    fn spill_names() -> Vec<String> {
        let prefix = format!("ehj-spill-{}-", std::process::id());
        fs::read_dir(std::env::temp_dir())
            .expect("list temp dir")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&prefix))
            .collect()
    }

    #[test]
    fn file_backend_cleans_up_on_drop() {
        let _lock = temp_dir_lock();
        {
            let mut b = FileBackend::new();
            let p = b.create();
            append(&mut b, p, &[Tuple::new(1, 2)]);
            assert_eq!(b.read(p), [Tuple::new(1, 2)]);
            assert_eq!(spill_names(), Vec::<String>::new(), "while live");
        }
        assert_eq!(spill_names(), Vec::<String>::new(), "after drop");
    }

    #[test]
    fn empty_partition_reads_empty() {
        let mut b = MemBackend::new();
        let p = b.create();
        assert!(b.read(p).is_empty());
        assert_eq!(b.len(p), 0);
        let _lock = temp_dir_lock();
        let mut b = FileBackend::new();
        let p = b.create();
        assert!(b.read(p).is_empty());
        assert_eq!(b.len(p), 0);
    }
}
