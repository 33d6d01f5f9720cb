//! Spill-partition storage backends.
//!
//! The out-of-core baseline writes hash-table buckets to the node's local
//! disk (§2, "the basic out-of-core join algorithm"). Two backends share
//! one interface:
//!
//! * [`MemBackend`] — holds partition contents in memory. Used under the
//!   discrete-event simulator, where I/O *cost* is charged through the
//!   engine's disk model by the caller; only the byte volumes matter.
//! * [`FileBackend`] — real append-only files in a scratch directory,
//!   16 bytes per tuple record, written a block at a time. Used by the
//!   threaded runtime so the out-of-core path is exercised end-to-end
//!   against a real filesystem.

use ehj_data::Tuple;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Handle to one spill partition within a backend.
pub type PartitionId = usize;

/// Append-only partition storage.
pub trait SpillBackend {
    /// Creates a new, empty partition.
    fn create(&mut self) -> PartitionId;

    /// Appends tuples to a partition.
    fn append(&mut self, part: PartitionId, tuples: &[Tuple]);

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

    fn append(&mut self, part: PartitionId, tuples: &[Tuple]) {
        self.parts[part].extend_from_slice(tuples);
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

/// A partition's records reach its file once this many bytes are pending:
/// incoming chunks carry a few hundred bytes per fragment, and an
/// open/write/close per chunk costs more than the bytes it moves.
const BLOCK_BYTES: usize = 64 * 1024;

/// Real-file backend: one append-only file per partition under a private
/// scratch directory, removed on drop. Appends collect in a per-partition
/// block buffer and reach the file a block at a time; a read flushes the
/// partial block first, so every partition's contents still go through the
/// file system. No descriptor is held between calls, however many
/// partitions (and backends: one per spilled node per query) are live.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    files: Vec<Option<PathBuf>>,
    /// Encoded records not yet written to the partition's file.
    pending: Vec<Vec<u8>>,
    counts: Vec<u64>,
}

impl FileBackend {
    /// Creates a scratch directory under the system temp dir.
    ///
    /// # Panics
    /// Panics if the scratch directory cannot be created.
    #[must_use]
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ehj-spill-{}-{}", std::process::id(), n));
        fs::create_dir_all(&dir).expect("create spill scratch dir");
        Self {
            dir,
            files: Vec::new(),
            pending: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn path(&self, part: PartitionId) -> PathBuf {
        self.dir.join(format!("part-{part}.bin"))
    }
}

/// Appends `block` to the file at `path` and empties it.
fn write_block(path: &Path, block: &mut Vec<u8>) {
    let mut file = OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open spill file");
    file.write_all(block).expect("write spill");
    block.clear();
}

impl Default for FileBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl SpillBackend for FileBackend {
    fn create(&mut self) -> PartitionId {
        let id = self.files.len();
        let path = self.path(id);
        File::create(&path).expect("create spill file");
        self.files.push(Some(path));
        self.pending.push(Vec::new());
        self.counts.push(0);
        id
    }

    fn append(&mut self, part: PartitionId, tuples: &[Tuple]) {
        let path = self.files[part].as_ref().expect("partition exists");
        let block = &mut self.pending[part];
        for t in tuples {
            block.extend_from_slice(&t.index.to_le_bytes());
            block.extend_from_slice(&t.join_attr.to_le_bytes());
            if block.len() >= BLOCK_BYTES {
                write_block(path, block);
            }
        }
        self.counts[part] += tuples.len() as u64;
    }

    fn read(&mut self, part: PartitionId) -> Vec<Tuple> {
        let Some(path) = self.files[part].as_ref() else {
            return Vec::new();
        };
        if !self.pending[part].is_empty() {
            write_block(path, &mut self.pending[part]);
        }
        let mut buf = Vec::new();
        File::open(path)
            .expect("open spill file")
            .read_to_end(&mut buf)
            .expect("read spill");
        assert_eq!(buf.len() % RECORD_BYTES, 0, "corrupt spill file");
        buf.chunks_exact(RECORD_BYTES)
            .map(|rec| {
                Tuple::new(
                    u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")),
                    u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
                )
            })
            .collect()
    }

    fn remove(&mut self, part: PartitionId) {
        if let Some(path) = self.files[part].take() {
            let _ = fs::remove_file(path);
        }
        self.pending[part] = Vec::new();
        self.counts[part] = 0;
    }

    fn len(&self, part: PartitionId) -> u64 {
        self.counts[part]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mut b: impl SpillBackend) {
        let p0 = b.create();
        let p1 = b.create();
        let batch1: Vec<Tuple> = (0..10).map(|i| Tuple::new(i, i * 3)).collect();
        let batch2: Vec<Tuple> = (10..15).map(|i| Tuple::new(i, i * 3)).collect();
        b.append(p0, &batch1);
        b.append(p0, &batch2);
        b.append(p1, &batch2);
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
        roundtrip(FileBackend::new());
        // Appends reach the file a block at a time.
        let per_block = (BLOCK_BYTES / RECORD_BYTES) as u64;
        let on_disk = |b: &FileBackend, p: PartitionId| {
            fs::metadata(b.files[p].as_ref().expect("live partition"))
                .expect("spill file exists")
                .len()
        };
        let mut b = FileBackend::new();
        let p = b.create();
        let q = b.create();
        let all: Vec<Tuple> = (0..3 * per_block + 10)
            .map(|i| Tuple::new(i, i * 7))
            .collect();
        // Short of a block: counted, buffered, nothing written yet.
        let (head, rest) = all.split_at(per_block as usize - 3);
        b.append(p, head);
        assert_eq!(b.len(p), per_block - 3);
        assert_eq!(on_disk(&b, p), 0);
        // Straddling the boundary writes exactly the full block.
        let (straddle, rest) = rest.split_at(8);
        b.append(p, straddle);
        assert_eq!(on_disk(&b, p), BLOCK_BYTES as u64);
        assert_eq!(b.pending[p].len(), 5 * RECORD_BYTES);
        // A read taken while a partial block is buffered flushes it and
        // sees everything, in append order; so does one after more appends.
        assert_eq!(b.len(p), per_block + 5);
        assert_eq!(b.read(p), all[..per_block as usize + 5]);
        assert_eq!(on_disk(&b, p), (per_block + 5) * RECORD_BYTES as u64);
        // One append larger than two blocks is cut into blocks as it goes.
        b.append(p, rest);
        assert_eq!(b.pending[p].len(), 5 * RECORD_BYTES);
        assert_eq!(b.len(p), all.len() as u64);
        assert_eq!(b.read(p), all);
        // Removal discards a buffered partial block with the file.
        b.append(q, &all[..4]);
        b.remove(q);
        assert_eq!(b.len(q), 0);
        assert!(b.read(q).is_empty());
        assert!(b.pending[q].is_empty());
    }

    #[test]
    fn file_backend_cleans_up_on_drop() {
        let dir;
        {
            let mut b = FileBackend::new();
            let p = b.create();
            b.append(p, &[Tuple::new(1, 2)]);
            dir = b.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "scratch dir must be removed on drop");
    }

    #[test]
    fn empty_partition_reads_empty() {
        let mut b = MemBackend::new();
        let p = b.create();
        assert!(b.read(p).is_empty());
        assert_eq!(b.len(p), 0);
    }
}
