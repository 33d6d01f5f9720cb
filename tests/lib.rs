//! Integration-test package; see tests/*.rs.

use ehj_core::{Algorithm, JoinConfig};

/// The paper workload at 1/`scale` over a narrow attribute `domain`, four
/// values per hash position: small enough for a test yet dense in matches.
#[must_use]
pub fn narrow(alg: Algorithm, scale: u64, domain: u64) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(alg, scale);
    cfg.r = cfg.r.with_domain(domain);
    cfg.s = cfg.s.with_domain(domain);
    cfg.positions = (domain / 4) as u32;
    cfg
}
