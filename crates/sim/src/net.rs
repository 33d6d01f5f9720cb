//! Switched-Ethernet network model.
//!
//! The paper's testbed interconnect is switched 100 Mb/s Ethernet (§5). The
//! model captures what matters for the figures:
//!
//! * **egress serialization** — a node transmits one message at a time at
//!   link bandwidth, so a node fanning out (a splitting node, a data source)
//!   is limited by its own NIC;
//! * **ingress serialization** — a node receives at link bandwidth, so
//!   fan-in (every source redirecting to one freshly recruited node) queues
//!   at the receiver;
//! * **switch latency** — a fixed per-message delay between egress and
//!   ingress (full-duplex switched fabric: no shared-medium contention).
//!
//! Transmission is pipelined (cut-through): the receiver's ingress occupancy
//! overlaps the sender's egress occupancy rather than being appended after
//! it, so a single long flow achieves full link bandwidth.

use crate::actor::ActorId;
use crate::time::SimTime;

/// Static network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Link bandwidth in bytes per second (both directions; full duplex).
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed one-way message latency through the switch.
    pub latency: SimTime,
    /// Fixed per-message protocol overhead added to every transfer.
    pub per_message_overhead_bytes: u64,
}

impl NetConfig {
    /// The paper's interconnect: switched 100 Mb/s Ethernet. 12.5 MB/s raw;
    /// 60 µs one-way latency and ~66 B of framing overhead approximate
    /// 2004-era TCP on Fast Ethernet.
    #[must_use]
    pub const fn fast_ethernet_100mbps() -> Self {
        Self {
            bandwidth_bytes_per_sec: 12_500_000,
            latency: SimTime::from_micros(60),
            per_message_overhead_bytes: 66,
        }
    }

    /// An effectively infinite network (isolates CPU/memory effects in
    /// ablations).
    #[must_use]
    pub const fn infinite() -> Self {
        Self {
            bandwidth_bytes_per_sec: u64::MAX / 4,
            latency: SimTime::ZERO,
            per_message_overhead_bytes: 0,
        }
    }

    /// Time to push `bytes` through one link.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        let total = bytes + self.per_message_overhead_bytes;
        // ceil(total * 1e9 / bw) in u128 to avoid overflow.
        let ns = ((total as u128) * 1_000_000_000).div_ceil(self.bandwidth_bytes_per_sec as u128);
        SimTime::from_nanos(ns.min(u64::MAX as u128) as u64)
    }
}

/// Dynamic per-node NIC state: when each direction becomes free.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetConfig,
    egress_free: Vec<SimTime>,
    ingress_free: Vec<SimTime>,
    /// Total bytes accepted for transfer (incl. overhead), for reporting.
    bytes_sent: u64,
}

impl Network {
    /// Creates NIC state for `nodes` actors, ids `0..nodes`.
    #[must_use]
    pub fn new(config: NetConfig, nodes: usize) -> Self {
        Self {
            config,
            egress_free: vec![SimTime::ZERO; nodes],
            ingress_free: vec![SimTime::ZERO; nodes],
            bytes_sent: 0,
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Computes the delivery (fully-received) time of a message of `bytes`
    /// from `from` to `to`, submitted at `now`, and reserves both NICs.
    ///
    /// A self-send bypasses the NICs entirely (local hand-off). Both ids
    /// must be below the node count the state was created for.
    pub fn transfer(&mut self, from: ActorId, to: ActorId, bytes: u64, now: SimTime) -> SimTime {
        if from == to {
            return now;
        }
        self.bytes_sent += bytes + self.config.per_message_overhead_bytes;
        let t = self.config.transfer_time(bytes);
        // Egress: the sender's NIC serializes messages one after another.
        let depart = now.max(self.egress_free[from as usize]);
        self.egress_free[from as usize] = depart + t;
        // Ingress: first bit reaches the receiver after the switch latency;
        // the receiver link then serializes the same duration, overlapping
        // the sender's transmission (cut-through).
        let first_bit = depart + self.config.latency;
        let start = first_bit.max(self.ingress_free[to as usize]);
        let done = start + t;
        self.ingress_free[to as usize] = done;
        done
    }

    /// Total bytes pushed through the network so far (incl. overhead).
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetConfig::fast_ethernet_100mbps(), 4)
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let c = NetConfig::fast_ethernet_100mbps();
        // 12.5 MB at 12.5 MB/s = 1 s (+ overhead bytes, negligible here).
        let t = c.transfer_time(12_500_000 - c.per_message_overhead_bytes);
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn self_send_is_instant_and_free() {
        let mut n = net();
        let done = n.transfer(1, 1, 1_000_000, SimTime::from_secs(5));
        assert_eq!(done, SimTime::from_secs(5));
        assert_eq!(n.bytes_sent(), 0);
    }

    #[test]
    fn single_message_arrives_after_serialization_plus_latency() {
        let mut n = net();
        let c = *n.config();
        let done = n.transfer(0, 1, 10_000, SimTime::ZERO);
        assert_eq!(done, c.transfer_time(10_000) + c.latency);
    }

    #[test]
    fn egress_serializes_fan_out() {
        let mut n = net();
        let c = *n.config();
        let t = c.transfer_time(100_000);
        let d1 = n.transfer(0, 1, 100_000, SimTime::ZERO);
        let d2 = n.transfer(0, 2, 100_000, SimTime::ZERO);
        // Second message cannot start until the first fully left node 0.
        assert_eq!(d1, t + c.latency);
        assert_eq!(d2, t + t + c.latency);
    }

    #[test]
    fn ingress_serializes_fan_in() {
        let mut n = net();
        let c = *n.config();
        let t = c.transfer_time(100_000);
        let d1 = n.transfer(0, 2, 100_000, SimTime::ZERO);
        let d2 = n.transfer(1, 2, 100_000, SimTime::ZERO);
        // Different senders transmit concurrently, but node 2's ingress
        // accepts them one at a time.
        assert_eq!(d1, t + c.latency);
        assert_eq!(d2, d1 + t);
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let mut n = net();
        let d1 = n.transfer(0, 1, 100_000, SimTime::ZERO);
        let d2 = n.transfer(2, 3, 100_000, SimTime::ZERO);
        assert_eq!(d1, d2);
    }

    #[test]
    fn pipelining_keeps_link_at_full_bandwidth() {
        // 10 back-to-back chunks from 0 to 1 should take ~10x one chunk
        // (pipelined), not ~20x (store-and-forward would double-count).
        let mut n = net();
        let c = *n.config();
        let t = c.transfer_time(1_000_000);
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            last = n.transfer(0, 1, 1_000_000, SimTime::ZERO);
        }
        assert_eq!(last, t * 10 + c.latency);
    }

    #[test]
    fn counters_accumulate() {
        let mut n = net();
        let _ = n.transfer(0, 1, 1000, SimTime::ZERO);
        let _ = n.transfer(1, 0, 500, SimTime::ZERO);
        assert_eq!(
            n.bytes_sent(),
            1500 + 2 * n.config().per_message_overhead_bytes
        );
    }

    #[test]
    fn infinite_network_is_instant() {
        let mut n = Network::new(NetConfig::infinite(), 2);
        let done = n.transfer(0, 1, 1_000_000_000, SimTime::from_secs(1));
        // At u64::MAX/4 B/s even a gigabyte costs at most a nanosecond.
        assert!(done <= SimTime::from_secs(1) + SimTime::from_nanos(1));
    }
}
