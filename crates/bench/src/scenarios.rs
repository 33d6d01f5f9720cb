//! Configuration builders for every experiment in the paper's §5.
//!
//! All experiments share the paper's defaults — OSUMed cluster, 4 initial
//! join nodes, 8 data sources, R = S = 10M × 116 B uniform tuples, 10 000-
//! tuple chunks — and each figure varies exactly one axis. A `scale`
//! divisor shrinks tuples, memory, chunk size, domain and positions
//! together, preserving expansion factors, skew-window fractions and
//! communication ratios (see `JoinConfig::paper_scaled`).

use ehj_core::{Algorithm, JoinConfig};
use ehj_data::Distribution;

/// Default scale divisor for the figure harness (10M → 100k tuples).
pub const DEFAULT_SCALE: u64 = 100;

/// The initial-node axis of Figures 2–5.
pub const INITIAL_NODES_AXIS: [usize; 5] = [1, 2, 4, 8, 16];

/// The table-size axis of Figure 6, in full-scale tuples.
pub const TABLE_SIZE_AXIS: [u64; 4] = [10_000_000, 20_000_000, 40_000_000, 80_000_000];

/// The tuple-size axis of Figure 7 (payload bytes).
pub const TUPLE_SIZE_AXIS: [u32; 3] = [100, 200, 400];

/// The skew axis of Figures 10–11.
pub const SKEW_AXIS: [Distribution; 3] = [
    Distribution::Uniform,
    Distribution::Gaussian {
        mean: 0.5,
        sigma: 0.001,
    },
    Distribution::Gaussian {
        mean: 0.5,
        sigma: 0.0001,
    },
];

/// Baseline paper configuration at `scale`.
#[must_use]
pub fn base(algorithm: Algorithm, scale: u64) -> JoinConfig {
    JoinConfig::paper_scaled(algorithm, scale)
}

/// Figures 2–5: vary the number of initial join nodes.
#[must_use]
pub fn initial_nodes(algorithm: Algorithm, scale: u64, initial: usize) -> JoinConfig {
    let mut cfg = base(algorithm, scale);
    cfg.initial_nodes = initial;
    cfg
}

/// Figure 6: vary both relations' size (full-scale tuple counts divided by
/// `scale`), 4 initial nodes.
#[must_use]
pub fn table_size(algorithm: Algorithm, scale: u64, full_scale_tuples: u64) -> JoinConfig {
    let mut cfg = base(algorithm, scale);
    cfg.r.tuples = full_scale_tuples / scale;
    cfg.s.tuples = full_scale_tuples / scale;
    cfg
}

/// Figure 7: vary the tuple payload size.
#[must_use]
pub fn tuple_size(algorithm: Algorithm, scale: u64, payload_bytes: u32) -> JoinConfig {
    let mut cfg = base(algorithm, scale);
    cfg.r = cfg.r.with_payload(payload_bytes);
    cfg.s = cfg.s.with_payload(payload_bytes);
    cfg
}

/// Figures 8–9: asymmetric relation sizes; the hash table is always built
/// from R, so `r_tuples > s_tuples` is the paper's "larger relation builds"
/// case.
#[must_use]
pub fn asymmetric(
    algorithm: Algorithm,
    scale: u64,
    r_full_scale: u64,
    s_full_scale: u64,
) -> JoinConfig {
    let mut cfg = base(algorithm, scale);
    cfg.r.tuples = r_full_scale / scale;
    cfg.s.tuples = s_full_scale / scale;
    cfg
}

/// Figures 10–13: vary the join-attribute distribution of both relations.
#[must_use]
pub fn skew(algorithm: Algorithm, scale: u64, dist: Distribution) -> JoinConfig {
    let mut cfg = base(algorithm, scale);
    cfg.r.dist = dist;
    cfg.s.dist = dist;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_validate() {
        let scale = 1000;
        for alg in Algorithm::ALL {
            for init in INITIAL_NODES_AXIS {
                initial_nodes(alg, scale, init).validate().expect("valid");
            }
            for t in TABLE_SIZE_AXIS {
                table_size(alg, scale, t).validate().expect("valid");
            }
            for p in TUPLE_SIZE_AXIS {
                tuple_size(alg, scale, p).validate().expect("valid");
            }
            for d in SKEW_AXIS {
                skew(alg, scale, d).validate().expect("valid");
            }
            asymmetric(alg, scale, 100_000_000, 10_000_000)
                .validate()
                .expect("valid");
        }
    }

    #[test]
    fn axes_match_paper() {
        assert_eq!(INITIAL_NODES_AXIS, [1, 2, 4, 8, 16]);
        assert_eq!(TUPLE_SIZE_AXIS, [100, 200, 400]);
        assert_eq!(TABLE_SIZE_AXIS[3], 80_000_000);
        assert_eq!(SKEW_AXIS.len(), 3);
    }

    #[test]
    fn scenario_overrides_apply() {
        let cfg = tuple_size(Algorithm::Split, 100, 400);
        assert_eq!(cfg.schema().tuple_bytes(), 416);
        let cfg = table_size(Algorithm::Hybrid, 100, 80_000_000);
        assert_eq!(cfg.r.tuples, 800_000);
        let cfg = asymmetric(Algorithm::Replicated, 100, 100_000_000, 10_000_000);
        assert_eq!((cfg.r.tuples, cfg.s.tuples), (1_000_000, 100_000));
    }
}
