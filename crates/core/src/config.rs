//! Join configuration: which algorithm, on what cluster, over which data,
//! with what cost model.

use ehj_cluster::{ClusterSpec, SelectionPolicy};
use ehj_data::{RelationSpec, Schema, DEFAULT_CHUNK_TUPLES};
use ehj_hash::AttrHasher;
pub use ehj_hash::ProbeKernel;
use ehj_sim::{DiskConfig, NetConfig, SimTime};
use ehj_storage::GraceConfig;

/// The four join algorithms compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Replication-based EHJA (§4.2.2).
    Replicated,
    /// Split-based EHJA (§4.2.1, Amin et al. / linear hashing).
    Split,
    /// Hybrid EHJA: replicate while building, reshuffle, probe disjoint
    /// (§4.2.3).
    Hybrid,
    /// Non-expanding baseline: spill to local disk and join out of core.
    OutOfCore,
}

impl Algorithm {
    /// All four, in the figures' legend order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Replicated,
        Algorithm::Split,
        Algorithm::Hybrid,
        Algorithm::OutOfCore,
    ];

    /// Legend label used in the paper's figures.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Replicated => "Replicated",
            Self::Split => "Split",
            Self::Hybrid => "Hybrid",
            Self::OutOfCore => "Out of Core",
        }
    }
}

/// CPU cost model, calibrated to the paper's Pentium III 933 MHz nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Generating (or scanning) one tuple at a data source.
    pub gen_per_tuple: SimTime,
    /// Hashing + routing one tuple into a source-side chunk buffer.
    pub route_per_tuple: SimTime,
    /// Inserting one tuple into the hash table.
    pub insert_per_tuple: SimTime,
    /// Fixed cost of probing one tuple (hash + chain lookup).
    pub probe_per_tuple: SimTime,
    /// Comparing one chain element during a probe.
    pub probe_per_compare: SimTime,
    /// Emitting one matched pair.
    pub per_match: SimTime,
    /// Per-message handling overhead at a receiving node.
    pub chunk_handling: SimTime,
    /// Instantiating a join process on a freshly recruited node.
    pub recruit_latency: SimTime,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            gen_per_tuple: SimTime::from_nanos(300),
            route_per_tuple: SimTime::from_nanos(150),
            insert_per_tuple: SimTime::from_nanos(800),
            probe_per_tuple: SimTime::from_nanos(500),
            probe_per_compare: SimTime::from_nanos(100),
            per_match: SimTime::from_nanos(200),
            chunk_handling: SimTime::from_micros(50),
            recruit_latency: SimTime::from_millis(50),
        }
    }
}

/// Skew-conscious routing knobs (DESIGN §4i): sources keep space-saving
/// sketches of the build key stream and ship them to the scheduler, which
/// may install a [`RoutingTable::HotKeys`](crate::routing::RoutingTable)
/// overlay replicating the hottest positions' build tuples and
/// round-robining their probes.
///
/// [`HotKeyConfig::default`] is **off**: every existing workload keeps
/// byte-identical observables unless hot-key routing is asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotKeyConfig {
    /// Master switch; when false no sketches are kept and no overlay is
    /// ever installed.
    pub enabled: bool,
    /// Counters per source-side sketch (the space-saving `k`).
    pub sketch_capacity: usize,
    /// Minimum observed build tuples (merged across sources) before the
    /// scheduler considers installing the overlay — avoids acting on noise.
    pub min_total: u64,
    /// Install threshold: the hottest key's estimated share of the build
    /// stream must exceed this fraction.
    pub hot_fraction: f64,
    /// At most this many positions are promoted to the hot set.
    pub max_hot: usize,
}

impl Default for HotKeyConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            sketch_capacity: 64,
            min_total: 8192,
            hot_fraction: 0.01,
            max_hot: 32,
        }
    }
}

impl HotKeyConfig {
    /// The default knobs with the master switch on.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Complete description of one join run.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// New-node selection policy at the scheduler.
    pub selection_policy: SelectionPolicy,
    /// The cluster (node count and per-node hash memory).
    pub cluster: ClusterSpec,
    /// Join nodes allocated before execution starts (the Figure 2/3 axis).
    pub initial_nodes: usize,
    /// Number of data-source processes.
    pub sources: usize,
    /// Relation R.
    pub r: RelationSpec,
    /// Relation S.
    pub s: RelationSpec,
    /// Tuples per chunk (the paper uses 10 000).
    pub chunk_tuples: usize,
    /// Global hash-table position count.
    pub positions: u32,
    /// Attribute-to-hash-value function.
    pub hasher: AttrHasher,
    /// CPU cost model.
    pub costs: CostModel,
    /// Network model.
    pub net: NetConfig,
    /// Disk model (out-of-core spills).
    pub disk: DiskConfig,
    /// Out-of-core tuning.
    pub grace: GraceConfig,
    /// Skew-conscious routing knobs (DESIGN §4i; off by default).
    pub hot_keys: HotKeyConfig,
    /// Which probe kernel join nodes run (DESIGN §4g). Both produce
    /// byte-identical simulated observables; they differ only in host
    /// wall-time. The scalar tuple-at-a-time path is kept as the reference
    /// for differential tests.
    ///
    /// This and the two fields below describe *how* a query is run, not
    /// the workload, and would sit on `RunOptions` / `ServiceConfig` (or,
    /// for `probe_slice`, nowhere); they stay here because the frozen
    /// `benchmark/` package reads and writes them on `JoinConfig`.
    pub probe_kernel: ProbeKernel,
    /// Scheduling weight of this query's actor group on a shared executor
    /// (multi-tenant service): its share of worker time relative to other
    /// admitted queries under deficit-weighted round-robin. Minimum 1;
    /// ignored by standalone runs, which own the whole pool.
    pub tenant_weight: u64,
    /// Read by nothing: a join node probes every batch whole (DESIGN §4j).
    /// The field stays only because the frozen `benchmark/` package sets
    /// it.
    pub probe_slice: usize,
}

impl JoinConfig {
    /// Join-attribute domain of the paper workload. Together with the
    /// position count this calibrates the skew behaviour of Figure 10: the
    /// σ = 0.001 Gaussian window (≈ 4σ·2^28 ≈ 2^20 values) *wraps* the
    /// 2^20-position table and spreads evenly ("all algorithms adapt
    /// well"), while the σ = 0.0001 window covers only ~10 % of the
    /// positions and overloads a few join nodes.
    pub const PAPER_ATTR_DOMAIN: u64 = 1 << 28;

    /// Positions per domain value kept fixed across scales so the skew
    /// window always covers the same *fraction* of the table.
    pub const DOMAIN_PER_POSITION: u64 = 256;

    /// The paper's default setup at full scale: OSUMed cluster, 4 initial
    /// join nodes, 8 data sources, R = S = 10M uniform tuples of 116 B.
    #[must_use]
    pub fn paper_default(algorithm: Algorithm) -> Self {
        let seed = 0xE41A_u64 ^ 0x5EED_0001;
        Self {
            algorithm,
            selection_policy: SelectionPolicy::default(),
            cluster: ClusterSpec::osumed(),
            initial_nodes: 4,
            sources: 8,
            r: RelationSpec::uniform(10_000_000, seed).with_domain(Self::PAPER_ATTR_DOMAIN),
            s: RelationSpec::uniform(10_000_000, seed ^ 0x0BAD_CAFE)
                .with_domain(Self::PAPER_ATTR_DOMAIN),
            chunk_tuples: DEFAULT_CHUNK_TUPLES,
            positions: (Self::PAPER_ATTR_DOMAIN / Self::DOMAIN_PER_POSITION) as u32,
            hasher: AttrHasher::Identity,
            costs: CostModel::default(),
            net: NetConfig::fast_ethernet_100mbps(),
            disk: DiskConfig::ide_2004(),
            grace: GraceConfig::default(),
            hot_keys: HotKeyConfig::default(),
            probe_kernel: ProbeKernel::default(),
            tenant_weight: 1,
            probe_slice: 0,
        }
    }

    /// The paper's setup scaled down by `scale`: relation sizes, per-node
    /// memory, chunk size and position count all divide by `scale`, which
    /// preserves expansion factors and communication *ratios* while letting
    /// experiments run in seconds.
    ///
    /// # Panics
    /// Panics if `scale == 0`.
    #[must_use]
    pub fn paper_scaled(algorithm: Algorithm, scale: u64) -> Self {
        assert!(scale > 0, "scale must be positive");
        let mut cfg = Self::paper_default(algorithm);
        cfg.r.tuples /= scale;
        cfg.s.tuples /= scale;
        for node in &mut cfg.cluster.nodes {
            node.hash_memory_bytes /= scale;
        }
        cfg.chunk_tuples = (cfg.chunk_tuples as u64 / scale).max(64) as usize;
        // Per-event fixed delays scale with the time axis: chunk counts,
        // expansion counts and message counts stay constant under scaling,
        // so leaving these fixed would let them dominate small-scale runs
        // and distort the algorithm orderings.
        cfg.costs.recruit_latency = cfg.costs.recruit_latency / scale;
        cfg.costs.chunk_handling = cfg.costs.chunk_handling / scale;
        cfg.net.latency = cfg.net.latency / scale;
        cfg.disk.seek = cfg.disk.seek / scale;
        // Scale the attribute domain and the position count together: the
        // skew window's width as a *fraction* of the position space (what
        // drives Figure 10's shape) then stays scale-invariant, as does the
        // duplicate-per-value ratio.
        let domain = (cfg.r.domain / scale).max(Self::DOMAIN_PER_POSITION * 64);
        cfg.r = cfg.r.with_domain(domain);
        cfg.s = cfg.s.with_domain(domain);
        cfg.positions = (domain / Self::DOMAIN_PER_POSITION) as u32;
        cfg
    }

    /// The relation that builds the hash table: R, as everywhere in the
    /// paper.
    #[must_use]
    pub fn build_spec(&self) -> &RelationSpec {
        &self.r
    }

    /// The relation that probes the hash table: S.
    #[must_use]
    pub fn probe_spec(&self) -> &RelationSpec {
        &self.s
    }

    /// The shared row schema.
    #[must_use]
    pub fn schema(&self) -> Schema {
        self.r.schema
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_nodes == 0 {
            return Err("initial_nodes must be at least 1".into());
        }
        if self.initial_nodes > self.cluster.len() {
            return Err(format!(
                "initial_nodes ({}) exceeds cluster size ({})",
                self.initial_nodes,
                self.cluster.len()
            ));
        }
        if self.sources == 0 {
            return Err("need at least one data source".into());
        }
        if self.r.schema != self.s.schema {
            return Err("R and S must share one schema (as in the paper)".into());
        }
        if self.r.domain != self.s.domain {
            return Err("R and S must share one attribute domain".into());
        }
        if self.r.domain == 0 {
            return Err("the attribute domain must be non-empty".into());
        }
        for (name, spec) in [("R", &self.r), ("S", &self.s)] {
            spec.dist
                .validate()
                .map_err(|e| format!("relation {name}: {e}"))?;
        }
        if self.chunk_tuples == 0 {
            return Err("chunk_tuples must be positive".into());
        }
        if self.positions == 0 {
            return Err("positions must be positive".into());
        }
        if self.tenant_weight == 0 {
            return Err("tenant_weight must be at least 1".into());
        }
        if self.hot_keys.enabled {
            let hk = &self.hot_keys;
            if hk.sketch_capacity == 0 {
                return Err("hot_keys.sketch_capacity must be positive".into());
            }
            if hk.max_hot == 0 {
                return Err("hot_keys.max_hot must be positive".into());
            }
            if hk.max_hot > hk.sketch_capacity {
                return Err(format!(
                    "hot_keys.max_hot ({}) exceeds sketch_capacity ({})",
                    hk.max_hot, hk.sketch_capacity
                ));
            }
            if !(hk.hot_fraction > 0.0 && hk.hot_fraction < 1.0) {
                return Err("hot_keys.hot_fraction must lie in (0, 1)".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehj_data::Distribution;

    #[test]
    fn paper_default_is_valid() {
        let cfg = JoinConfig::paper_default(Algorithm::Hybrid);
        cfg.validate().expect("paper default must validate");
        assert_eq!(cfg.r.tuples, 10_000_000);
        assert_eq!(cfg.schema().tuple_bytes(), 116);
        assert_eq!(cfg.cluster.len(), 24);
    }

    #[test]
    fn scaling_divides_everything() {
        let cfg = JoinConfig::paper_scaled(Algorithm::Split, 100);
        cfg.validate().expect("scaled config must validate");
        assert_eq!(cfg.r.tuples, 100_000);
        assert_eq!(cfg.chunk_tuples, 100);
        assert_eq!(
            cfg.cluster.spec(ehj_cluster::NodeId(0)).hash_memory_bytes,
            96 * 1024 * 1024 / 100
        );
    }

    #[test]
    fn scaling_preserves_expansion_factor() {
        // Tuples-per-node-capacity ratio must be scale-invariant.
        let full = JoinConfig::paper_default(Algorithm::Split);
        let scaled = JoinConfig::paper_scaled(Algorithm::Split, 50);
        let ratio = |c: &JoinConfig| {
            c.r.tuples as f64 / (c.cluster.spec(ehj_cluster::NodeId(0)).hash_memory_bytes as f64)
        };
        assert!((ratio(&full) - ratio(&scaled)).abs() / ratio(&full) < 1e-6);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = JoinConfig::paper_default(Algorithm::Split);
        cfg.initial_nodes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = JoinConfig::paper_default(Algorithm::Split);
        cfg.initial_nodes = 25;
        assert!(cfg.validate().is_err());

        let mut cfg = JoinConfig::paper_default(Algorithm::Split);
        cfg.sources = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = JoinConfig::paper_default(Algorithm::Split);
        cfg.s = cfg.s.with_payload(400);
        assert!(cfg.validate().is_err(), "schema mismatch must fail");

        let mut cfg = JoinConfig::paper_default(Algorithm::Split);
        cfg.s = cfg.s.with_domain(1);
        assert!(cfg.validate().is_err(), "domain mismatch must fail");

        let mut cfg = JoinConfig::paper_default(Algorithm::Split);
        cfg.hot_keys = HotKeyConfig::enabled();
        cfg.hot_keys.max_hot = cfg.hot_keys.sketch_capacity + 1;
        assert!(cfg.validate().is_err(), "max_hot > capacity must fail");
        cfg.hot_keys = HotKeyConfig::enabled();
        cfg.hot_keys.hot_fraction = 1.5;
        assert!(cfg.validate().is_err(), "hot_fraction >= 1 must fail");
        cfg.hot_keys = HotKeyConfig::enabled();
        cfg.validate().expect("enabled defaults must validate");
    }

    /// Asserts that `dist` fails validation on either relation, naming it.
    fn assert_rejected(dist: Distribution, what: &str) {
        for side in ["R", "S"] {
            let mut cfg = JoinConfig::paper_scaled(Algorithm::Hybrid, 1000);
            let spec = if side == "R" { &mut cfg.r } else { &mut cfg.s };
            spec.dist = dist;
            let err = cfg.validate().expect_err(what);
            assert!(err.starts_with(&format!("relation {side}: ")), "{err}");
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn zero_zipf_theta_is_rejected() {
        assert_rejected(Distribution::Zipf { theta: 0.0 }, "theta");
    }

    #[test]
    fn negative_zipf_theta_is_rejected() {
        assert_rejected(Distribution::Zipf { theta: -1.0 }, "theta");
    }

    #[test]
    fn zero_gaussian_sigma_is_rejected() {
        let zero = Distribution::Gaussian {
            mean: 0.5,
            sigma: 0.0,
        };
        assert_rejected(zero, "sigma");
    }

    #[test]
    fn non_finite_distribution_parameters_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY] {
            assert_rejected(Distribution::Zipf { theta: bad }, "theta");
            assert_rejected(
                Distribution::Gaussian {
                    mean: 0.5,
                    sigma: bad,
                },
                "sigma",
            );
        }
    }

    #[test]
    fn empty_domain_is_rejected() {
        let mut cfg = JoinConfig::paper_default(Algorithm::Split);
        cfg.r = cfg.r.with_domain(0);
        cfg.s = cfg.s.with_domain(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn skewed_distributions_validate() {
        for good in [
            Distribution::Zipf { theta: 0.9 },
            Distribution::Zipf { theta: 1.2 },
            Distribution::gaussian_extreme(),
        ] {
            let mut cfg = JoinConfig::paper_scaled(Algorithm::Hybrid, 1000);
            (cfg.r.dist, cfg.s.dist) = (good, good);
            cfg.validate().expect("good parameters validate");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Algorithm::Replicated.label(), "Replicated");
        assert_eq!(Algorithm::OutOfCore.label(), "Out of Core");
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        let _ = JoinConfig::paper_scaled(Algorithm::Split, 0);
    }
}
