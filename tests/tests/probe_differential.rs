//! Differential equivalence of the probe kernels.
//!
//! The production probe kernel (`JoinConfig::probe_kernel`'s default, the
//! batched filtered pipeline) is a host-side optimization only: fingerprint
//! rejections charge exactly the chain length the scalar scan would have
//! compared, so every simulated observable — matches, compares, network
//! bytes, phase times — must be byte-for-byte identical to the scalar
//! tuple-at-a-time oracle. These tests run every algorithm under both
//! kernels and diff the reports.

use ehj_core::{Algorithm, JoinConfig, JoinRunner, ProbeKernel};
use ehj_data::Distribution;

/// Small, fast base configuration (mirrors `correctness.rs`).
fn base(alg: Algorithm) -> JoinConfig {
    let mut cfg = JoinConfig::paper_scaled(alg, 1000);
    let domain = 1 << 14;
    cfg.r = cfg.r.with_domain(domain);
    cfg.s = cfg.s.with_domain(domain);
    cfg.positions = (domain / 4) as u32;
    cfg
}

/// Runs `cfg` under both probe kernels and asserts every simulated
/// observable agrees exactly with the scalar oracle.
fn assert_probe_kernels_agree(cfg: &JoinConfig) {
    let mut scalar_cfg = cfg.clone();
    scalar_cfg.probe_kernel = ProbeKernel::Scalar;
    let scalar = JoinRunner::run(&scalar_cfg).expect("scalar run must complete");
    let label = cfg.algorithm.label();
    let mut batched_cfg = cfg.clone();
    batched_cfg.probe_kernel = ProbeKernel::Batched;
    let run = JoinRunner::run(&batched_cfg).expect("batched run must complete");
    assert_eq!(scalar.matches, run.matches, "{label}: matches diverge");
    assert_eq!(scalar.compares, run.compares, "{label}: compares diverge");
    assert_eq!(
        scalar.net_bytes, run.net_bytes,
        "{label}: network traffic diverges"
    );
    assert_eq!(
        scalar.disk_bytes, run.disk_bytes,
        "{label}: disk traffic diverges"
    );
    assert_eq!(
        scalar.sim_events, run.sim_events,
        "{label}: event counts diverge"
    );
    assert_eq!(
        scalar.times, run.times,
        "{label}: simulated phase times diverge"
    );
    assert_eq!(
        scalar.build_tuples, run.build_tuples,
        "{label}: build placement diverges"
    );
    assert_eq!(scalar.load, run.load, "{label}: load vectors diverge");
}

#[test]
fn probe_kernels_are_byte_identical_uniform() {
    for alg in Algorithm::ALL {
        assert_probe_kernels_agree(&base(alg));
    }
}

#[test]
fn probe_kernels_are_byte_identical_under_skew() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r.dist = Distribution::gaussian_moderate();
        cfg.s.dist = Distribution::gaussian_moderate();
        assert_probe_kernels_agree(&cfg);
    }
}

#[test]
fn probe_kernels_are_byte_identical_with_spill() {
    // Shrink memory so the EHJAs exhaust the cluster and fall back to
    // spilling; OutOfCore spills by construction. The probe path then mixes
    // in-memory probes with Grace appends — both must stay identical.
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        for node in &mut cfg.cluster.nodes {
            node.hash_memory_bytes /= 8;
        }
        assert_probe_kernels_agree(&cfg);
    }
}

#[test]
fn probe_kernels_are_byte_identical_when_table_fits() {
    // No expansions: the pure in-memory probe path at 16 initial nodes.
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.initial_nodes = 16;
        assert_probe_kernels_agree(&cfg);
    }
}

/// Hot-key routing (DESIGN §4i) replicates the build side of the heavy
/// hitters and round-robins their probe tuples; the join it computes must
/// be the same join. For every algorithm and skew level, the run with the
/// overlay enabled must produce exactly the match count of the untouched
/// oracle run — and under a uniform stream the overlay must never install,
/// leaving every simulated observable byte-identical.
#[test]
fn hot_key_routing_preserves_exact_match_counts() {
    let dists = [
        ("uniform", Distribution::Uniform),
        ("zipf-0.5", Distribution::Zipf { theta: 0.5 }),
        ("zipf-0.99", Distribution::Zipf { theta: 0.99 }),
    ];
    for alg in Algorithm::ALL {
        for (name, dist) in dists {
            let mut off = base(alg);
            off.r.dist = dist;
            off.s.dist = dist;
            off.probe_kernel = ProbeKernel::Scalar;
            let mut on = off.clone();
            on.hot_keys = ehj_core::HotKeyConfig::enabled();
            let label = format!("{}/{name}", alg.label());
            let oracle = JoinRunner::run(&off).expect("oracle run must complete");
            let routed = JoinRunner::run(&on).expect("hot-key run must complete");
            assert_eq!(
                oracle.matches, routed.matches,
                "{label}: hot-key routing changed the match count"
            );
            if matches!(dist, Distribution::Uniform) {
                // No heavy hitter clears the install threshold: the join
                // itself must be untouched (sketch shipping adds a few
                // control-lane bytes, but no tuple moves differently).
                assert_eq!(oracle.compares, routed.compares, "{label}: compares");
                assert_eq!(oracle.load, routed.load, "{label}: load vectors");
                assert_eq!(oracle.disk_bytes, routed.disk_bytes, "{label}: disk bytes");
                assert_eq!(
                    oracle.build_tuples, routed.build_tuples,
                    "{label}: build placement"
                );
            }
            // The batched kernel must agree with the scalar oracle under
            // the overlay exactly as they do without it.
            let mut on_batched = on.clone();
            on_batched.probe_kernel = ProbeKernel::Batched;
            let batched = JoinRunner::run(&on_batched).expect("batched run must complete");
            assert_eq!(
                routed.matches, batched.matches,
                "{label}: kernels diverge under the overlay"
            );
            assert_eq!(
                routed.compares, batched.compares,
                "{label}: kernel compares diverge under the overlay"
            );
        }
    }
}

/// Preemptible probe slices (DESIGN §4j) cut a probe batch into resumable
/// chunks so the scheduler can interleave tenants mid-batch. Per-slice
/// costs are additive — the same multiply-and-sum the whole batch charges
/// — so every simulated observable must be byte-identical whether a batch
/// is probed whole or in slices, at any slice length, under any kernel.
fn assert_sliced_probe_matches_whole(cfg: &JoinConfig) {
    let label = cfg.algorithm.label();
    for kernel in ProbeKernel::ALL {
        let mut whole = cfg.clone();
        whole.probe_kernel = kernel;
        whole.probe_slice = 0;
        // 7 is deliberately odd and far below the batch size: nearly every
        // batch splits, and the last slice is ragged.
        let mut sliced = whole.clone();
        sliced.probe_slice = 7;
        let a = JoinRunner::run(&whole).expect("whole-batch run must complete");
        let b = JoinRunner::run(&sliced).expect("sliced run must complete");
        assert_eq!(a.matches, b.matches, "{label}/{kernel}: matches diverge");
        assert_eq!(a.compares, b.compares, "{label}/{kernel}: compares diverge");
        assert_eq!(
            a.net_bytes, b.net_bytes,
            "{label}/{kernel}: network traffic diverges"
        );
        assert_eq!(
            a.disk_bytes, b.disk_bytes,
            "{label}/{kernel}: disk traffic diverges"
        );
        assert_eq!(
            a.sim_events, b.sim_events,
            "{label}/{kernel}: event counts diverge"
        );
        assert_eq!(
            a.times, b.times,
            "{label}/{kernel}: simulated phase times diverge"
        );
        assert_eq!(
            a.build_tuples, b.build_tuples,
            "{label}/{kernel}: build placement diverges"
        );
        assert_eq!(a.load, b.load, "{label}/{kernel}: load vectors diverge");
    }
}

#[test]
fn sliced_probes_are_byte_identical_to_whole_batches() {
    for alg in Algorithm::ALL {
        assert_sliced_probe_matches_whole(&base(alg));
    }
}

#[test]
fn sliced_probes_are_byte_identical_under_skew() {
    for alg in Algorithm::ALL {
        let mut cfg = base(alg);
        cfg.r.dist = Distribution::Zipf { theta: 0.8 };
        cfg.s.dist = Distribution::Zipf { theta: 0.8 };
        assert_sliced_probe_matches_whole(&cfg);
    }
}

#[test]
fn probe_kernels_are_byte_identical_with_fibonacci_hashing() {
    // The bulk-hash kernel's multiplicative path feeds routing and probing.
    for alg in [Algorithm::Split, Algorithm::Hybrid] {
        let mut cfg = base(alg);
        cfg.hasher = ehj_hash::AttrHasher::Fibonacci;
        assert_probe_kernels_agree(&cfg);
    }
}
