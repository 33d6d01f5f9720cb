//! The fixed parts of the benchmark: workloads, their configurations, and
//! the metric names and units `BENCHMARK.json` lists.

use ehj_core::{Algorithm, JoinConfig};
use ehj_data::Distribution;

/// Seed used when `--seed` is absent. R is generated from the seed, S from
/// `seed ^ S_SEED_MASK`.
pub const DEFAULT_SEED: u64 = 0xE41A;
const S_SEED_MASK: u64 = 0x0BAD_CAFE;

/// Executor workers on every measured run: this host's `nproc`. Client
/// threads blocked in `wait` do no work, so they do not count.
pub const WORKERS: usize = 2;

/// `--smoke` divides every relation (and memory, chunk, domain) by this.
pub const SMOKE_DIVISOR: u64 = 50;

/// Scheduling weight of a normal tenant against the big tenant's 1.
pub const NORMAL_WEIGHT: u64 = 8;
/// Tuples per preemptible probe slice of the big tenant.
pub const BIG_PROBE_SLICE: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExpandHybrid,
    ExpandSplit,
    ExpandReplicated,
    SpillOoc,
    SkewHighmatch,
    ServiceClosed,
    ServiceNoisy,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Self::ExpandHybrid,
        Self::ExpandSplit,
        Self::ExpandReplicated,
        Self::SpillOoc,
        Self::SkewHighmatch,
        Self::ServiceClosed,
        Self::ServiceNoisy,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Self::ExpandHybrid => "expand-hybrid",
            Self::ExpandSplit => "expand-split",
            Self::ExpandReplicated => "expand-replicated",
            Self::SpillOoc => "spill-ooc",
            Self::SkewHighmatch => "skew-highmatch",
            Self::ServiceClosed => "service-closed",
            Self::ServiceNoisy => "service-noisy",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub const fn is_service(self) -> bool {
        matches!(self, Self::ServiceClosed | Self::ServiceNoisy)
    }
}

/// The paper's set-up divided by `scale`, with the benchmark's seeds.
fn paper(algorithm: Algorithm, scale: u64, seed: u64) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(algorithm, scale);
    cfg.r.seed = seed;
    cfg.s.seed = seed ^ S_SEED_MASK;
    cfg
}

fn scaled(scale: u64, smoke: bool) -> u64 {
    if smoke {
        scale * SMOKE_DIVISOR
    } else {
        scale
    }
}

/// The one query a single-join workload repeats. No workload enables
/// `hot_keys`: with hybrid or replicated at zipf theta >= 0.9 it stalls on
/// the threaded backend (see README).
pub fn single_join_cfg(w: Workload, seed: u64, smoke: bool) -> JoinConfig {
    let (algorithm, scale) = match w {
        Workload::ExpandHybrid => (Algorithm::Hybrid, 5),
        Workload::ExpandSplit => (Algorithm::Split, 5),
        Workload::ExpandReplicated => (Algorithm::Replicated, 5),
        Workload::SpillOoc => (Algorithm::OutOfCore, 5),
        Workload::SkewHighmatch => (Algorithm::Hybrid, 100),
        Workload::ServiceClosed | Workload::ServiceNoisy => {
            unreachable!("{} is not a single-join workload", w.name())
        }
    };
    let mut cfg = paper(algorithm, scaled(scale, smoke), seed);
    if w == Workload::SkewHighmatch {
        cfg.r.dist = Distribution::Zipf { theta: 0.9 };
        cfg.s.dist = Distribution::Zipf { theta: 0.9 };
    }
    cfg
}

/// The tiny queries of the service workloads (paper / 2000: 5k + 5k
/// tuples), rotating over the three expanding algorithms. OutOfCore is
/// left out: its tiny-query latency is file-system noise.
pub fn normal_cfgs(seed: u64, smoke: bool) -> Vec<JoinConfig> {
    [Algorithm::Replicated, Algorithm::Split, Algorithm::Hybrid]
        .into_iter()
        .map(|algorithm| {
            let mut cfg = paper(algorithm, scaled(2000, smoke), seed);
            cfg.tenant_weight = NORMAL_WEIGHT;
            cfg
        })
        .collect()
}

/// The big tenant of `service-noisy` (paper / 125, hybrid, weight 1,
/// preemptible probe slices).
pub fn big_cfg(seed: u64, smoke: bool) -> JoinConfig {
    let mut cfg = paper(Algorithm::Hybrid, scaled(125, smoke), seed);
    cfg.probe_slice = BIG_PROBE_SLICE;
    cfg
}

/// End-to-end metrics, printed with `--trace 0`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("tuples_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("data.gen_ns_per_tuple", "ns"),
    ("data.sampler_setup_ms", "ms"),
    ("hash.position_ns_per_tuple", "ns"),
    ("hash.insert_ns_per_tuple", "ns"),
    ("hash.probe_ns_per_tuple", "ns"),
    ("hash.compares_per_probe", "count"),
    ("hash.reject_share", "share"),
    ("hash.matches_per_probe", "count"),
    ("hash.extract_ns_per_tuple", "ns"),
    ("hash.partition_us", "us"),
    ("storage.spill_ns_per_tuple", "ns"),
    ("storage.bytes_per_tuple", "B"),
    ("storage.fragments", "count"),
    ("sim.msg_ns", "ns"),
    ("sim.mailbox_ns_per_item", "ns"),
    ("sim.admit_us_first100", "us"),
    ("sim.admit_us_last100", "us"),
    ("sim.busy_share", "share"),
    ("sim.park_share", "share"),
    ("sim.steals", "count"),
    ("sim.parks", "count"),
    ("sim.mailbox_depth_p99", "count"),
    ("sim.overflows", "count"),
    ("sim.timer_fires", "count"),
    ("sim.picks", "count"),
    ("sim.preemptions", "count"),
    ("sim.speedup_2v1", "ratio"),
    ("cluster.reserve_ns", "ns"),
    ("core.build_s", "s"),
    ("core.reshuffle_s", "s"),
    ("core.probe_s", "s"),
    ("core.edge_s", "s"),
    ("core.node_build_busy_s", "s"),
    ("core.node_probe_busy_s", "s"),
    ("core.kernel_share", "share"),
    ("core.net_bytes_per_tuple", "B"),
    ("core.msgs_per_ktuple", "count"),
    ("core.extra_build_chunks", "count"),
    ("core.extra_reshuffle_chunks", "count"),
    ("core.extra_probe_chunks", "count"),
    ("core.expansions", "count"),
    ("core.final_nodes", "count"),
    ("core.spilled_nodes", "count"),
    ("core.load_imbalance", "ratio"),
    ("core.submit_ms_p50", "ms"),
    ("core.submit_ms_first100", "ms"),
    ("core.submit_ms_last100", "ms"),
    ("core.wait_ms_p50", "ms"),
    ("core.query_ms_p95", "ms"),
    ("core.big_query_ms_p50", "ms"),
    ("core.sim_total_s", "s"),
    ("core.sim_net_bytes", "B"),
    ("core.sim_compares", "count"),
    ("core.sim_events", "count"),
    ("metrics.overhead_pct", "%"),
    ("metrics.counter_inc_ns", "ns"),
    ("bench.gen_late_ms_p95", "ms"),
    ("bench.reps", "count"),
    ("bench.failed_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ehj_core::expected_matches_for;
    use std::collections::BTreeSet;

    /// Whether `name` is a legal workload or metric name of `BENCHMARK.json`:
    /// 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.chars().all(legal)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(legal)
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        let workloads = Workload::ALL.iter().map(|w| (w.name(), "count"));
        for (name, unit) in workloads.chain(END_TO_END).chain(PER_LAYER) {
            assert!(valid_name(name), "illegal name {name}");
            assert!(valid_unit(unit), "illegal unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
        assert!(valid_name("0_a.B-9"));
        assert!(!valid_unit("") && !valid_unit("ms per query") && valid_unit("1/s"));
    }

    /// `BENCHMARK.json` is the contract; the tables here must list the same
    /// names, units and workloads in the same order.
    #[test]
    fn tables_agree_with_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let open = start + json[start..].find('[').expect("section is a list");
            &json[open..open + json[open..].find(']').expect("list closes")]
        };
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let open = at + entry[at..].find('"').expect("string opens") + 1;
            entry[open..open + entry[open..].find('"').expect("string closes")].to_owned()
        };
        let entries = |key: &str| -> Vec<String> {
            section(key).split('{').skip(1).map(str::to_owned).collect()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            entries(key)
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = entries("workloads")
            .iter()
            .map(|e| field(e, "name"))
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("skew-overlay"), None);
    }

    #[test]
    fn the_seed_decides_the_data() {
        let a = single_join_cfg(Workload::ExpandHybrid, 1, true);
        let b = single_join_cfg(Workload::ExpandHybrid, 2, true);
        assert_eq!(a.r.seed ^ a.s.seed, S_SEED_MASK);
        assert_ne!(expected_matches_for(&a), expected_matches_for(&b));
        assert_eq!(
            expected_matches_for(&a),
            expected_matches_for(&single_join_cfg(Workload::ExpandHybrid, 1, true))
        );
    }

    #[test]
    fn every_config_validates_at_both_sizes() {
        for smoke in [false, true] {
            for w in Workload::ALL.into_iter().filter(|w| !w.is_service()) {
                single_join_cfg(w, DEFAULT_SEED, smoke)
                    .validate()
                    .expect("valid");
            }
            for cfg in normal_cfgs(DEFAULT_SEED, smoke) {
                cfg.validate().expect("valid");
            }
            big_cfg(DEFAULT_SEED, smoke).validate().expect("valid");
        }
    }
}
