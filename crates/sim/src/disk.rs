//! Local-disk model.
//!
//! Each cluster node has a local IDE disk (§5: 300 GB per node, 2004-era
//! hardware). The out-of-core baseline spills hash-table buckets to local
//! disk and reads them back; the model charges a per-operation positioning
//! (seek + rotational) delay plus sequential transfer time. I/O is
//! *blocking*: the issuing actor's local clock advances to completion, as a
//! 2004 synchronous `write()`/`read()` would.

use crate::actor::ActorId;
use crate::time::SimTime;

/// Static disk parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Sequential read bandwidth, bytes per second.
    pub read_bytes_per_sec: u64,
    /// Sequential write bandwidth, bytes per second.
    pub write_bytes_per_sec: u64,
    /// Average positioning delay charged once per operation.
    pub seek: SimTime,
}

impl DiskConfig {
    /// A 2004-era 7200 rpm IDE disk: ~40 MB/s reads, ~35 MB/s writes,
    /// ~9 ms average positioning.
    #[must_use]
    pub const fn ide_2004() -> Self {
        Self {
            read_bytes_per_sec: 40_000_000,
            write_bytes_per_sec: 35_000_000,
            seek: SimTime::from_millis(9),
        }
    }

    /// An effectively infinite disk (isolates network/CPU effects).
    #[must_use]
    pub const fn infinite() -> Self {
        Self {
            read_bytes_per_sec: u64::MAX / 4,
            write_bytes_per_sec: u64::MAX / 4,
            seek: SimTime::ZERO,
        }
    }

    pub(crate) fn transfer(bytes: u64, bw: u64) -> SimTime {
        let ns = ((bytes as u128) * 1_000_000_000).div_ceil(bw as u128);
        SimTime::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Duration of a read of `bytes` (seek + transfer).
    #[must_use]
    pub fn read_time(&self, bytes: u64) -> SimTime {
        self.seek + Self::transfer(bytes, self.read_bytes_per_sec)
    }

    /// Duration of a write of `bytes` (seek + transfer).
    #[must_use]
    pub fn write_time(&self, bytes: u64) -> SimTime {
        self.seek + Self::transfer(bytes, self.write_bytes_per_sec)
    }
}

/// Per-node disk occupancy and accounting.
#[derive(Debug, Clone)]
pub struct DiskState {
    config: DiskConfig,
    free_at: Vec<SimTime>,
    bytes_read: Vec<u64>,
    bytes_written: Vec<u64>,
}

impl DiskState {
    /// Creates state for `nodes` actors, ids `0..nodes`.
    #[must_use]
    pub fn new(config: DiskConfig, nodes: usize) -> Self {
        Self {
            config,
            free_at: vec![SimTime::ZERO; nodes],
            bytes_read: vec![0; nodes],
            bytes_written: vec![0; nodes],
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Blocking read issued by `node` at `now`; returns completion time.
    pub fn read(&mut self, node: ActorId, bytes: u64, now: SimTime) -> SimTime {
        self.bytes_read[node as usize] += bytes;
        let start = now.max(self.free_at[node as usize]);
        let done = start + self.config.read_time(bytes);
        self.free_at[node as usize] = done;
        done
    }

    /// Blocking write issued by `node` at `now`; returns completion time.
    pub fn write(&mut self, node: ActorId, bytes: u64, now: SimTime) -> SimTime {
        self.bytes_written[node as usize] += bytes;
        let start = now.max(self.free_at[node as usize]);
        let done = start + self.config.write_time(bytes);
        self.free_at[node as usize] = done;
        done
    }

    /// Blocking buffered append: transfer time only, no positioning delay.
    pub fn append(&mut self, node: ActorId, bytes: u64, now: SimTime) -> SimTime {
        self.bytes_written[node as usize] += bytes;
        let start = now.max(self.free_at[node as usize]);
        let done = start + DiskConfig::transfer(bytes, self.config.write_bytes_per_sec);
        self.free_at[node as usize] = done;
        done
    }

    /// Bytes read so far by `node`.
    #[must_use]
    pub fn bytes_read(&self, node: ActorId) -> u64 {
        self.bytes_read.get(node as usize).copied().unwrap_or(0)
    }

    /// Bytes written so far by `node`.
    #[must_use]
    pub fn bytes_written(&self, node: ActorId) -> u64 {
        self.bytes_written.get(node as usize).copied().unwrap_or(0)
    }

    /// Aggregate bytes moved through all disks.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read.iter().sum::<u64>() + self.bytes_written.iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_time_includes_seek_and_bandwidth() {
        let c = DiskConfig::ide_2004();
        let t = c.read_time(40_000_000);
        assert_eq!(t, SimTime::from_millis(9) + SimTime::from_secs(1));
    }

    #[test]
    fn write_slower_than_read() {
        let c = DiskConfig::ide_2004();
        assert!(c.write_time(1_000_000) > c.read_time(1_000_000));
    }

    #[test]
    fn operations_serialize_on_one_disk() {
        let mut d = DiskState::new(DiskConfig::ide_2004(), 2);
        let t1 = d.write(0, 35_000_000, SimTime::ZERO);
        let t2 = d.write(0, 35_000_000, SimTime::ZERO);
        assert_eq!(t1, SimTime::from_millis(9) + SimTime::from_secs(1));
        assert_eq!(t2, t1 + SimTime::from_millis(9) + SimTime::from_secs(1));
    }

    #[test]
    fn different_disks_are_independent() {
        let mut d = DiskState::new(DiskConfig::ide_2004(), 2);
        let t1 = d.write(0, 35_000_000, SimTime::ZERO);
        let t2 = d.write(1, 35_000_000, SimTime::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn accounting_accumulates() {
        let mut d = DiskState::new(DiskConfig::infinite(), 6);
        let _ = d.write(0, 100, SimTime::ZERO);
        let _ = d.read(0, 40, SimTime::ZERO);
        let _ = d.read(5, 2, SimTime::ZERO);
        assert_eq!(d.bytes_written(0), 100);
        assert_eq!(d.bytes_read(0), 40);
        assert_eq!(d.bytes_read(5), 2);
        assert_eq!(d.total_bytes(), 142);
        assert_eq!(d.bytes_read(99), 0);
    }

    #[test]
    fn zero_byte_io_still_seeks() {
        let c = DiskConfig::ide_2004();
        assert_eq!(c.read_time(0), c.seek);
    }
}
