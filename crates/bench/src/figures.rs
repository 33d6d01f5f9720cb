//! Regenerators for every figure in the paper's evaluation (§5).
//!
//! Each function runs the relevant configurations through the simulated
//! backend and renders the same series the paper plots, plus a set of
//! *shape checks*: the qualitative claims the paper makes about that figure
//! (who wins, what converges, what degrades), evaluated against the
//! reproduced numbers. EXPERIMENTS.md records the outcome per figure.

use crate::scenarios;
use ehj_core::{Algorithm, JoinConfig, JoinReport, JoinRunner};
use ehj_metrics::{fmt_secs, TextTable};

/// One reproduced figure.
pub struct Figure {
    /// Stable identifier ("fig2" … "fig13").
    pub id: &'static str,
    /// The paper's caption, abridged.
    pub title: &'static str,
    /// The reproduced data series.
    pub table: TextTable,
    /// Qualitative claims checked against the reproduction.
    pub checks: Vec<ShapeCheck>,
}

/// A qualitative claim from the paper evaluated on reproduced data.
pub struct ShapeCheck {
    /// What the paper claims.
    pub name: String,
    /// Whether the reproduction agrees.
    pub pass: bool,
}

impl ShapeCheck {
    fn new(name: impl Into<String>, pass: bool) -> Self {
        Self {
            name: name.into(),
            pass,
        }
    }
}

impl Figure {
    /// Renders the table plus check outcomes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = self.table.render();
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {}\n",
                if c.pass { "PASS" } else { "DIVERGES" },
                c.name
            ));
        }
        out
    }
}

/// All figure identifiers in paper order.
pub const ALL_FIGURE_IDS: [&str; 12] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13",
];

fn run(cfg: &JoinConfig) -> JoinReport {
    JoinRunner::run(cfg).unwrap_or_else(|e| panic!("figure run failed: {e}"))
}

/// Runs independent configurations on scoped threads (each simulation is
/// single-threaded and deterministic, so figure sweeps parallelize
/// perfectly across host cores).
fn run_many(configs: Vec<JoinConfig>) -> Vec<JoinReport> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .map(|cfg| scope.spawn(move || run(cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("figure worker panicked"))
            .collect()
    })
}

#[allow(dead_code)]
fn alg_short(a: Algorithm) -> &'static str {
    a.label()
}

/// Runs the Figures 2–5 sweep once: every algorithm at every initial-node
/// count.
fn initial_sweep(scale: u64) -> Vec<(usize, Vec<JoinReport>)> {
    let configs: Vec<JoinConfig> = scenarios::INITIAL_NODES_AXIS
        .iter()
        .flat_map(|&init| {
            Algorithm::ALL
                .iter()
                .map(move |&alg| scenarios::initial_nodes(alg, scale, init))
        })
        .collect();
    let mut reports = run_many(configs).into_iter();
    scenarios::INITIAL_NODES_AXIS
        .iter()
        .map(|&init| {
            (
                init,
                (0..Algorithm::ALL.len())
                    .map(|_| reports.next().expect("one per run"))
                    .collect(),
            )
        })
        .collect()
}

/// Figures 2–5 share one sweep; this computes all four from it.
#[must_use]
pub fn figures_2_to_5(scale: u64) -> Vec<Figure> {
    let sweep = initial_sweep(scale);
    let header = [
        "Initial Nodes",
        "Replicated",
        "Split",
        "Hybrid",
        "Out of Core",
    ];

    // ---- Figure 2: total execution time ----
    let mut t2 = TextTable::new(
        format!("Figure 2: Total execution time vs initial join nodes (uniform, R=S=10M/{scale})"),
        &header,
    );
    for (init, reports) in &sweep {
        let mut row = vec![init.to_string()];
        row.extend(reports.iter().map(|r| fmt_secs(r.times.total_secs)));
        t2.row(row);
    }
    let at = |init: usize, alg: Algorithm| -> &JoinReport {
        let (_, reports) = sweep.iter().find(|(i, _)| *i == init).expect("axis");
        &reports[Algorithm::ALL.iter().position(|&a| a == alg).expect("alg")]
    };
    let total = |i, a| at(i, a).times.total_secs;
    use Algorithm::{Hybrid, OutOfCore, Replicated, Split};
    let mut checks2 = vec![
        ShapeCheck::new(
            "performance improves as initial nodes grow (every algorithm)",
            Algorithm::ALL.iter().all(|&a| total(16, a) < total(1, a)),
        ),
        ShapeCheck::new(
            "split and hybrid outperform Out of Core at few initial nodes",
            [1usize, 2, 4].iter().all(|&i| {
                [Split, Hybrid]
                    .iter()
                    .all(|&a| total(i, a) < total(i, OutOfCore))
            }),
        ),
        ShapeCheck::new(
            "replication outperforms Out of Core once a few nodes start (4 nodes)",
            total(4, Replicated) < total(4, OutOfCore),
        ),
        ShapeCheck::new("all algorithms converge when the table fits (16 nodes)", {
            let t16: Vec<f64> = Algorithm::ALL.iter().map(|&a| total(16, a)).collect();
            let max = t16.iter().cloned().fold(f64::MIN, f64::max);
            let min = t16.iter().cloned().fold(f64::MAX, f64::min);
            max < min * 1.05
        }),
    ];
    checks2.push(ShapeCheck::new(
        "split and hybrid beat replication under uniform data (4 nodes)",
        total(4, Split) < total(4, Replicated) && total(4, Hybrid) < total(4, Replicated),
    ));
    let fig2 = Figure {
        id: "fig2",
        title: "Effect of varying the number of initial working join nodes",
        table: t2,
        checks: checks2,
    };

    // ---- Figure 3: hash table building time ----
    let mut t3 = TextTable::new(
        format!(
            "Figure 3: Hash table building time vs initial join nodes (uniform, R=S=10M/{scale})"
        ),
        &header,
    );
    for (init, reports) in &sweep {
        let mut row = vec![init.to_string()];
        row.extend(reports.iter().map(|r| fmt_secs(r.times.build_secs)));
        t3.row(row);
    }
    let build = |i, a| at(i, a).times.build_secs;
    let fig3 = Figure {
        id: "fig3",
        title:
            "Effect of varying the number of initial working join nodes in the table building phase",
        table: t3,
        checks: vec![
            ShapeCheck::new(
                "build time improves with more initial nodes",
                Algorithm::ALL.iter().all(|&a| build(16, a) < build(1, a)),
            ),
            ShapeCheck::new(
                "replication builds no slower than split (less build-phase communication)",
                build(4, Replicated) <= build(4, Split) * 1.05,
            ),
        ],
    };

    // ---- Figure 4: extra communication volume in the build phase ----
    let chunk = scenarios::base(Replicated, scale).chunk_tuples as u64;
    let r_chunks = scenarios::base(Replicated, scale).r.tuples / chunk;
    let mut t4 = TextTable::new(
        format!("Figure 4: Extra communication in the build phase, in {chunk}-tuple chunks (Size of Table R = {r_chunks} chunks)"),
        &["Initial Nodes", "Replicated", "Split", "Hybrid", "Size of Table R"],
    );
    for (init, reports) in &sweep {
        let mut row = vec![init.to_string()];
        row.extend(
            reports[..3]
                .iter()
                .map(|r| r.extra_build_chunks().to_string()),
        );
        row.push(r_chunks.to_string());
        t4.row(row);
    }
    let xb = |i, a: Algorithm| at(i, a).extra_build_chunks();
    let fig4 = Figure {
        id: "fig4",
        title: "Extra communication volume introduced in the hash table building phase",
        table: t4,
        checks: vec![
            ShapeCheck::new(
                "no extra communication once the table fits (16 nodes)",
                [Replicated, Split, Hybrid].iter().all(|&a| xb(16, a) == 0),
            ),
            ShapeCheck::new(
                "split moves more build-phase data than replication",
                xb(4, Split) > xb(4, Replicated),
            ),
            ShapeCheck::new(
                "extra communication shrinks as the initial estimate improves",
                [Replicated, Split, Hybrid]
                    .iter()
                    .all(|&a| xb(8, a) < xb(1, a)),
            ),
        ],
    };

    // ---- Figure 5: split time vs reshuffle time ----
    let mut t5 = TextTable::new(
        "Figure 5: Split time and reshuffle time in the hash table building phase",
        &["Initial Nodes", "Split time", "Reshuffle time"],
    );
    for (init, reports) in &sweep {
        let split_t = reports[1].split_time_secs; // Split algorithm run
        let resh_t = reports[2].times.reshuffle_secs; // Hybrid algorithm run
        t5.row(vec![init.to_string(), fmt_secs(split_t), fmt_secs(resh_t)]);
    }
    let fig5 = Figure {
        id: "fig5",
        title: "The split time and reshuffle time comparison",
        table: t5,
        checks: vec![
            ShapeCheck::new(
                "split overhead exceeds reshuffle overhead when the initial estimate is poor",
                [1usize, 2, 4]
                    .iter()
                    .all(|&i| at(i, Split).split_time_secs > at(i, Hybrid).times.reshuffle_secs),
            ),
            ShapeCheck::new(
                "no overhead at 16 initial nodes (table fits in aggregate memory)",
                at(16, Split).split_time_secs == 0.0 && at(16, Hybrid).times.reshuffle_secs == 0.0,
            ),
        ],
    };

    vec![fig2, fig3, fig4, fig5]
}

/// Figure 6: total execution time vs relation size (4 initial nodes).
#[must_use]
pub fn figure_6(scale: u64) -> Figure {
    use Algorithm::{Hybrid, OutOfCore, Split};
    let mut table = TextTable::new(
        format!(
            "Figure 6: Total execution time vs table size (R=S, 4 initial nodes, scale 1/{scale})"
        ),
        &["Table Size", "Replicated", "Split", "Hybrid", "Out of Core"],
    );
    let configs: Vec<JoinConfig> = scenarios::TABLE_SIZE_AXIS
        .iter()
        .flat_map(|&size| {
            Algorithm::ALL
                .iter()
                .map(move |&alg| scenarios::table_size(alg, scale, size))
        })
        .collect();
    let mut all = run_many(configs).into_iter();
    let mut results: Vec<Vec<JoinReport>> = Vec::new();
    for &size in &scenarios::TABLE_SIZE_AXIS {
        let reports: Vec<JoinReport> = (0..Algorithm::ALL.len())
            .map(|_| all.next().expect("one per run"))
            .collect();
        let mut row = vec![format!("{}M", size / 1_000_000)];
        row.extend(reports.iter().map(|r| fmt_secs(r.times.total_secs)));
        table.row(row);
        results.push(reports);
    }
    let idx = |a: Algorithm| Algorithm::ALL.iter().position(|&x| x == a).expect("alg");
    let growth =
        |a: Algorithm| results[3][idx(a)].times.total_secs / results[0][idx(a)].times.total_secs;
    Figure {
        id: "fig6",
        title: "Total execution time when the size of the relations is varied",
        table,
        checks: vec![
            ShapeCheck::new(
                "split and hybrid scale better than Out of Core",
                growth(Split) < growth(OutOfCore) && growth(Hybrid) < growth(OutOfCore),
            ),
            ShapeCheck::new(
                "Out of Core is the slowest at 80M tuples",
                Algorithm::ALL.iter().all(|&a| {
                    results[3][idx(a)].times.total_secs
                        <= results[3][idx(OutOfCore)].times.total_secs
                }),
            ),
        ],
    }
}

/// Figure 7: total execution time vs tuple size.
#[must_use]
pub fn figure_7(scale: u64) -> Figure {
    use Algorithm::{Hybrid, Replicated, Split};
    let mut table = TextTable::new(
        format!("Figure 7: Total execution time vs tuple size (R=S=10M/{scale})"),
        &["Tuple Size", "Replicated", "Split", "Hybrid", "Out of Core"],
    );
    let configs: Vec<JoinConfig> = scenarios::TUPLE_SIZE_AXIS
        .iter()
        .flat_map(|&payload| {
            Algorithm::ALL
                .iter()
                .map(move |&alg| scenarios::tuple_size(alg, scale, payload))
        })
        .collect();
    let mut all = run_many(configs).into_iter();
    let mut results: Vec<Vec<JoinReport>> = Vec::new();
    for &payload in &scenarios::TUPLE_SIZE_AXIS {
        let reports: Vec<JoinReport> = (0..Algorithm::ALL.len())
            .map(|_| all.next().expect("one per run"))
            .collect();
        let mut row = vec![format!("{payload}Byte")];
        row.extend(reports.iter().map(|r| fmt_secs(r.times.total_secs)));
        table.row(row);
        results.push(reports);
    }
    let idx = |a: Algorithm| Algorithm::ALL.iter().position(|&x| x == a).expect("alg");
    let at_400 = |a: Algorithm| results[2][idx(a)].times.total_secs;
    Figure {
        id: "fig7",
        title: "Total execution time when the size of tuples is varied",
        table,
        checks: vec![
            ShapeCheck::new(
                "hybrid scales best with growing tuples (one extra hop per tuple at most)",
                at_400(Hybrid) <= at_400(Split) && at_400(Hybrid) < at_400(Replicated),
            ),
            ShapeCheck::new(
                "time grows with tuple size for every algorithm",
                Algorithm::ALL.iter().all(|&a| {
                    results[2][idx(a)].times.total_secs > results[0][idx(a)].times.total_secs
                }),
            ),
        ],
    }
}

/// Figures 8 and 9: the larger relation builds the hash table.
#[must_use]
pub fn figures_8_9(scale: u64) -> Vec<Figure> {
    use Algorithm::{Hybrid, Replicated};
    let cases = [
        ("R = 10M, S = 100M", 10_000_000u64, 100_000_000u64),
        ("R = 100M, S = 10M", 100_000_000, 10_000_000),
    ];
    let mut total_table = TextTable::new(
        format!("Figure 8: Total execution time, larger relation builds (scale 1/{scale})"),
        &["Case", "Replicated", "Split", "Hybrid", "Out of Core"],
    );
    let mut build_table = TextTable::new(
        format!("Figure 9: Hash table building time, larger relation builds (scale 1/{scale})"),
        &["Case", "Replicated", "Split", "Hybrid", "Out of Core"],
    );
    let configs: Vec<JoinConfig> = cases
        .iter()
        .flat_map(|&(_, r_t, s_t)| {
            Algorithm::ALL
                .iter()
                .map(move |&alg| scenarios::asymmetric(alg, scale, r_t, s_t))
        })
        .collect();
    let mut all = run_many(configs).into_iter();
    let mut results: Vec<Vec<JoinReport>> = Vec::new();
    for (name, _r_t, _s_t) in cases {
        let reports: Vec<JoinReport> = (0..Algorithm::ALL.len())
            .map(|_| all.next().expect("one per run"))
            .collect();
        let mut row = vec![name.to_owned()];
        row.extend(reports.iter().map(|r| fmt_secs(r.times.total_secs)));
        total_table.row(row);
        let mut row = vec![name.to_owned()];
        row.extend(reports.iter().map(|r| fmt_secs(r.times.build_secs)));
        build_table.row(row);
        results.push(reports);
    }
    let idx = |a: Algorithm| Algorithm::ALL.iter().position(|&x| x == a).expect("alg");
    let checks8 = vec![
        ShapeCheck::new(
            "replication is the worst EHJA when the probe relation is 10x larger (broadcast cost)",
            {
                let probe_big = &results[0];
                [Algorithm::Split, Hybrid].iter().all(|&a| {
                    probe_big[idx(a)].times.total_secs
                        < probe_big[idx(Replicated)].times.total_secs
                })
            },
        ),
        ShapeCheck::new(
            "replication at least matches hybrid when the larger relation builds (reshuffle suppressed)",
            results[1][idx(Replicated)].times.total_secs
                <= results[1][idx(Hybrid)].times.total_secs * 1.05,
        ),
    ];
    let checks9 = vec![ShapeCheck::new(
        "build time tracks the build relation's size across the two cases",
        {
            let small_build = results[0][idx(Replicated)].times.build_secs;
            let big_build = results[1][idx(Replicated)].times.build_secs;
            big_build > small_build * 2.0
        },
    )];
    vec![
        Figure {
            id: "fig8",
            title: "Total execution time when the larger relation builds the hash table",
            table: total_table,
            checks: checks8,
        },
        Figure {
            id: "fig9",
            title: "Table building time when the larger relation builds the hash table",
            table: build_table,
            checks: checks9,
        },
    ]
}

/// Figures 10 and 11: skewed join-attribute distributions.
#[must_use]
pub fn figures_10_11(scale: u64) -> Vec<Figure> {
    use Algorithm::{Hybrid, Replicated, Split};
    let mut time_table = TextTable::new(
        format!("Figure 10: Total execution time vs skew (R=S=10M/{scale}, 4 initial nodes)"),
        &[
            "Distribution",
            "Replicated",
            "Split",
            "Hybrid",
            "Out of Core",
        ],
    );
    let chunk = scenarios::base(Replicated, scale).chunk_tuples as u64;
    let r_chunks = scenarios::base(Replicated, scale).r.tuples / chunk;
    let mut comm_table = TextTable::new(
        format!("Figure 11: Extra build-phase communication vs skew, in {chunk}-tuple chunks"),
        &[
            "Distribution",
            "Replicated",
            "Split",
            "Hybrid",
            "Size of Table R",
        ],
    );
    let configs: Vec<JoinConfig> = scenarios::SKEW_AXIS
        .iter()
        .flat_map(|&dist| {
            Algorithm::ALL
                .iter()
                .map(move |&alg| scenarios::skew(alg, scale, dist))
        })
        .collect();
    let mut all = run_many(configs).into_iter();
    let mut results: Vec<Vec<JoinReport>> = Vec::new();
    for dist in scenarios::SKEW_AXIS {
        let reports: Vec<JoinReport> = (0..Algorithm::ALL.len())
            .map(|_| all.next().expect("one per run"))
            .collect();
        let mut row = vec![dist.label()];
        row.extend(reports.iter().map(|r| fmt_secs(r.times.total_secs)));
        time_table.row(row);
        let mut row = vec![dist.label()];
        row.extend(
            reports[..3]
                .iter()
                .map(|r| r.extra_build_chunks().to_string()),
        );
        row.push(r_chunks.to_string());
        comm_table.row(row);
        results.push(reports);
    }
    let idx = |a: Algorithm| Algorithm::ALL.iter().position(|&x| x == a).expect("alg");
    let t = |case: usize, a: Algorithm| results[case][idx(a)].times.total_secs;
    let checks10 = vec![
        ShapeCheck::new(
            "extreme skew (sigma=0.0001) degrades every algorithm vs uniform",
            Algorithm::ALL.iter().all(|&a| t(2, a) > t(0, a)),
        ),
        ShapeCheck::new(
            "hybrid degrades least and performs best under extreme skew",
            t(2, Hybrid) < t(2, Split) && t(2, Hybrid) < t(2, Replicated),
        ),
        ShapeCheck::new(
            "split is the worst EHJA under extreme skew (repeated splits of the hot range)",
            t(2, Split) > t(2, Replicated) && t(2, Split) > t(2, Hybrid),
        ),
        ShapeCheck::new(
            "moderate skew (sigma=0.001) stays within ~3x of uniform for the EHJAs",
            [Replicated, Split, Hybrid]
                .iter()
                .all(|&a| t(1, a) < t(0, a) * 3.0),
        ),
    ];
    let xb = |case: usize, a: Algorithm| results[case][idx(a)].extra_build_chunks();
    let checks11 = vec![
        ShapeCheck::new(
            "split still moves a large volume under extreme skew (same tuples moved repeatedly)",
            xb(2, Split) * 2 >= r_chunks,
        ),
        ShapeCheck::new(
            "extra communication stays below a few multiples of R",
            [Replicated, Split, Hybrid]
                .iter()
                .all(|&a| (0..3).all(|c| xb(c, a) < 4 * r_chunks.max(1))),
        ),
    ];
    vec![
        Figure {
            id: "fig10",
            title: "Total execution time with skewed join-attribute distribution",
            table: time_table,
            checks: checks10,
        },
        Figure {
            id: "fig11",
            title: "Communication overhead with skewed join-attribute distribution",
            table: comm_table,
            checks: checks11,
        },
    ]
}

/// Figures 12 and 13: load balance across join nodes.
#[must_use]
pub fn figures_12_13(scale: u64) -> Vec<Figure> {
    use Algorithm::{Hybrid, Replicated, Split};
    let ehjas = [Replicated, Split, Hybrid];
    let chunk = scenarios::base(Replicated, scale).chunk_tuples as u64;
    let mut figs = Vec::new();
    let cases = [
        ("fig12", "uniform distribution", scenarios::SKEW_AXIS[0]),
        (
            "fig13",
            "skewed distribution (sigma = 0.0001)",
            scenarios::SKEW_AXIS[2],
        ),
    ];
    for (id, label, dist) in cases {
        let mut table = TextTable::new(
            format!(
                "Figure {}: Load balance of the three EHJAs, {} (loads in {chunk}-tuple chunks)",
                &id[3..],
                label
            ),
            &[
                "Join Algorithm",
                "Average Load",
                "Maximum Load",
                "Minimum Load",
            ],
        );
        let mut stats = Vec::new();
        for &alg in &ehjas {
            let report = run(&scenarios::skew(alg, scale, dist));
            let s = report.load_stats().in_chunks(chunk);
            table.row(vec![
                alg.label().to_owned(),
                format!("{:.1}", s.avg),
                s.max.to_string(),
                s.min.to_string(),
            ]);
            stats.push(report.load_stats());
        }
        let checks = if id == "fig12" {
            vec![ShapeCheck::new(
                "split and hybrid achieve good balance under uniform data (max < 1.5x avg)",
                stats[1].imbalance() < 1.5 && stats[2].imbalance() < 1.5,
            )]
        } else {
            vec![
                ShapeCheck::new(
                    "split suffers load imbalance under extreme skew",
                    stats[1].imbalance() > stats[2].imbalance(),
                ),
                ShapeCheck::new(
                    "hybrid maintains relatively good load balance (max < 2x avg)",
                    stats[2].imbalance() < 2.0,
                ),
            ]
        };
        figs.push(Figure {
            id: if id == "fig12" { "fig12" } else { "fig13" },
            title: if id == "fig12" {
                "Load across join nodes with uniform distribution of data values"
            } else {
                "Load across join nodes with skewed distribution of data values"
            },
            table,
            checks,
        });
    }
    figs
}

/// Regenerates one figure by id.
#[must_use]
pub fn figure(id: &str, scale: u64) -> Option<Figure> {
    match id {
        "fig2" | "fig3" | "fig4" | "fig5" => figures_2_to_5(scale).into_iter().find(|f| f.id == id),
        "fig6" => Some(figure_6(scale)),
        "fig7" => Some(figure_7(scale)),
        "fig8" | "fig9" => figures_8_9(scale).into_iter().find(|f| f.id == id),
        "fig10" | "fig11" => figures_10_11(scale).into_iter().find(|f| f.id == id),
        "fig12" | "fig13" => figures_12_13(scale).into_iter().find(|f| f.id == id),
        _ => None,
    }
}

/// Regenerates every figure (sharing sweeps where the paper shares runs).
#[must_use]
pub fn all_figures(scale: u64) -> Vec<Figure> {
    let mut figs = figures_2_to_5(scale);
    figs.push(figure_6(scale));
    figs.push(figure_7(scale));
    figs.extend(figures_8_9(scale));
    figs.extend(figures_10_11(scale));
    figs.extend(figures_12_13(scale));
    figs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale keeps this test fast while exercising every figure
    /// path end-to-end.
    const TEST_SCALE: u64 = 2000;

    #[test]
    fn every_figure_id_resolves() {
        for id in ALL_FIGURE_IDS {
            assert!(
                figure(id, TEST_SCALE).is_some(),
                "figure {id} must be implemented"
            );
        }
        assert!(figure("fig99", TEST_SCALE).is_none());
    }

    #[test]
    fn figures_2_to_5_render() {
        let figs = figures_2_to_5(TEST_SCALE);
        assert_eq!(figs.len(), 4);
        for f in &figs {
            assert_eq!(f.table.len(), 5, "{}: one row per initial-node count", f.id);
            assert!(!f.render().is_empty());
        }
    }

    #[test]
    fn skew_figures_render() {
        let figs = figures_10_11(TEST_SCALE);
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].table.len(), 3);
    }

    #[test]
    fn load_balance_figures_render() {
        let figs = figures_12_13(TEST_SCALE);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            assert_eq!(f.table.len(), 3, "one row per EHJA");
        }
    }
}
