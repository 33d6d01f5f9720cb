//! Simulator outputs pinned against constants recorded in this file.
//!
//! The simulated backend is deterministic, so everything it reports for a
//! fixed configuration is a property of the code: a change that moves one
//! of these numbers changed the modelled protocol, its cost accounting or
//! the data, and has to say so by re-recording the constant (a failing
//! `assert_eq!` prints the new value). Host wall-clock speed is not
//! measured here; that is the repository benchmark's job (`BENCHMARK.json`).

use ehj_core::{Algorithm, JoinConfig, JoinRunner};
use ehj_data::Distribution;

/// The paper workload at 1/100 and 1/1000 scale under all four algorithms:
/// counts, traffic, event count and the bit pattern of every simulated
/// phase time. (`expansion.rs` additionally pins split@1000's per-node
/// loads and chunk counts.)
#[test]
fn paper_scenario_reports_match_the_recorded_constants() {
    struct Recorded {
        alg: Algorithm,
        scale: u64,
        net_bytes: u64,
        disk_bytes: u64,
        sim_events: u64,
        /// `to_bits()` of build, reshuffle, probe and total seconds.
        secs_bits: [u64; 4],
    }
    use Algorithm::{Hybrid, OutOfCore, Replicated, Split};
    #[rustfmt::skip]
    let recorded = [
        Recorded { alg: Replicated, scale: 100, net_bytes: 64_455_892, disk_bytes: 0, sim_events: 11_897,
            secs_bits: [0x3fd1_3a21_fa50_be89, 0, 0x3fde_ab38_67fb_66e9, 0x3fe7_f2ad_3126_12b9] },
        Recorded { alg: Split, scale: 100, net_bytes: 32_638_500, disk_bytes: 0, sim_events: 6677,
            secs_bits: [0x3fd1_e3f8_8d6f_ea9f, 0, 0x3fbf_2942_c475_bb43, 0x3fd9_ae49_3e8d_596f] },
        Recorded { alg: Hybrid, scale: 100, net_bytes: 38_106_064, disk_bytes: 0, sim_events: 7464,
            secs_bits: [0x3fd1_3a21_fa50_be89, 0x3fbd_f3cd_6caf_d69d, 0x3fbf_27a0_57f9_bc19, 0x3fe0_407e_b5bd_919b] },
        Recorded { alg: OutOfCore, scale: 100, net_bytes: 23_741_760, disk_bytes: 46_400_000, sim_events: 4461,
            secs_bits: [0x3fce_c7de_0df0_612f, 0, 0x3fdb_ab0b_083e_3466, 0x3fe5_877d_079b_327f] },
        Recorded { alg: Replicated, scale: 1000, net_bytes: 7_442_074, disk_bytes: 0, sim_events: 2841,
            secs_bits: [0x3fae_d7ad_d15f_02c5, 0, 0x3fac_4378_d0a1_42b0, 0x3fbd_8d93_5100_22bb] },
        Recorded { alg: Split, scale: 1000, net_bytes: 3_707_992, disk_bytes: 0, sim_events: 1722,
            secs_bits: [0x3faa_ad59_69fe_a15b, 0, 0x3f91_7fcd_6aac_7138, 0x3fb1_b6a0_0faa_6cfc] },
        Recorded { alg: Hybrid, scale: 1000, net_bytes: 4_803_802, disk_bytes: 0, sim_events: 2353,
            secs_bits: [0x3fae_d7ad_d15f_02c5, 0x3f88_4e93_35fd_3d02, 0x3f91_8618_0788_b571, 0x3fb6_d72f_5151_565f] },
        Recorded { alg: OutOfCore, scale: 1000, net_bytes: 2_421_320, disk_bytes: 4_640_000, sim_events: 772,
            secs_bits: [0x3f9f_cab6_ea59_c7ea, 0, 0x3fa8_f844_9fc2_27ad, 0x3fb4_6ed0_0a77_85d1] },
    ];
    for want in recorded {
        let label = format!("{}@{}", want.alg.label(), want.scale);
        let got = JoinRunner::run(&JoinConfig::paper_scaled(want.alg, want.scale))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        // Data properties: the same for every algorithm at one scale.
        let (matches, compares) = match want.scale {
            100 => (3683, 950_337),
            _ => (345, 95_094),
        };
        assert_eq!(got.matches, matches, "{label}");
        assert_eq!(got.compares, compares, "{label}");
        assert_eq!(got.net_bytes, want.net_bytes, "{label}");
        assert_eq!(got.disk_bytes, want.disk_bytes, "{label}");
        assert_eq!(got.sim_events, want.sim_events, "{label}");
        let t = &got.times;
        let secs = [t.build_secs, t.reshuffle_secs, t.probe_secs, t.total_secs];
        let bits = secs.map(f64::to_bits);
        assert_eq!(
            bits, want.secs_bits,
            "{label}: build/reshuffle/probe/total {secs:?} = {bits:#x?}"
        );
    }
}

/// Skew-conscious routing (DESIGN §4i) under zipfian keys matched on both
/// sides: the hot-key overlay must compute the same join as the unrouted
/// run, must never concentrate more build tuples on one node than hashing
/// alone did, and must pay for that with bounded extra traffic.
#[test]
fn hot_key_routing_keeps_counts_and_bounds_load_and_traffic() {
    // Routed max-over-mean build load as a multiple of the unrouted run's:
    // the slack only absorbs the replicated hot copies landing somewhere.
    const MAX_LOAD_RATIO: f64 = 1.10;
    for (theta, matches) in [(0.5, 1236), (0.9, 293_938), (1.2, 5_048_925)] {
        // Sketch shipping plus the replicated hot build tuples are bounded
        // overhead, not a broadcast. At θ ≥ 1 the hot keys dominate the
        // relation: the hand-off copies and multi-destination hot probes
        // scale with the hot mass itself (worst case 2.39x, hybrid), still
        // far from an all-nodes broadcast.
        let max_net_ratio = if theta >= 1.0 { 3.0 } else { 1.5 };
        for alg in Algorithm::ALL {
            let label = format!("{} at zipf {theta}", alg.label());
            let mut cfg = JoinConfig::paper_scaled(alg, 1000);
            cfg.r.dist = Distribution::Zipf { theta };
            cfg.s.dist = Distribution::Zipf { theta };
            let unrouted = JoinRunner::run(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            cfg.hot_keys = true;
            let routed = JoinRunner::run(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(unrouted.matches, matches, "{label}: unrouted");
            assert_eq!(routed.matches, matches, "{label}: routed");
            let off = unrouted.load_stats().imbalance();
            let on = routed.load_stats().imbalance();
            assert!(
                on <= MAX_LOAD_RATIO * off,
                "{label}: routed build-load imbalance {on:.3} vs unrouted {off:.3}"
            );
            assert!(
                routed.net_bytes as f64 <= max_net_ratio * unrouted.net_bytes as f64,
                "{label}: routed traffic {} B vs unrouted {} B (allowed {max_net_ratio}x)",
                routed.net_bytes,
                unrouted.net_bytes
            );
            // The overlay's verdict where it earns its place: above θ = 1
            // the hot keys dominate, and routing them must pay back the
            // hand-off in virtual time (hybrid 1.398 -> 1.022 s, split
            // 1.849 -> 1.745 s, out of core 1.875 -> 1.029 s). Replicated
            // reads slower routed (0.459 -> 0.553 s), so it is not pinned.
            if theta >= 1.0 && alg != Algorithm::Replicated {
                assert!(
                    routed.times.total_secs < unrouted.times.total_secs,
                    "{label}: routed {:.3} s is not faster than unrouted {:.3} s",
                    routed.times.total_secs,
                    unrouted.times.total_secs
                );
            }
        }
    }
}
