//! Hand-rolled argument parsing for `ehjoin` (no external dependencies).

use ehj_core::{Algorithm, Backend};
use ehj_metrics::TraceLevel;

/// Output formats for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable text table.
    #[default]
    Text,
    /// Comma-separated values.
    Csv,
    /// One JSON object (hand-emitted; no external crates).
    Json,
}

/// Subcommands of `ehjoin`.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one join with one algorithm.
    Run,
    /// Run all four algorithms on the same workload and compare.
    Compare,
    /// Sweep one axis across its paper values.
    Sweep {
        /// `initial-nodes`, `skew`, or `size`.
        axis: String,
    },
    /// Summarize a JSONL trace file as per-node timeline lanes.
    TraceSummary {
        /// Path to a `--trace-out` JSONL file.
        path: String,
    },
    /// Run a batch of concurrent mixed-algorithm queries as one service.
    Service,
    /// Print usage.
    Help,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// What to do.
    pub command: Command,
    /// Algorithm for `run` and `sweep`.
    pub algorithm: Algorithm,
    /// Workload scale divisor relative to the paper's 10M-tuple relations.
    pub scale: u64,
    /// Override R's tuple count (post-scale).
    pub r_tuples: Option<u64>,
    /// Override S's tuple count (post-scale).
    pub s_tuples: Option<u64>,
    /// Gaussian sigma (None = uniform).
    pub sigma: Option<f64>,
    /// Zipf theta (None = not zipfian); mutually exclusive with sigma.
    pub zipf: Option<f64>,
    /// Enable skew-conscious hot-key routing (sketches + replication).
    pub hot_keys: bool,
    /// Mirror S's attribute draw so its hot head lands on R's cold tail
    /// (anti-matched R/S correlation; default is matched heads).
    pub anti_matched: bool,
    /// Initial join nodes.
    pub initial_nodes: Option<usize>,
    /// Tuple payload bytes.
    pub payload: Option<u32>,
    /// RNG seed override.
    pub seed: Option<u64>,
    /// Output format.
    pub format: Format,
    /// Verify the result against the reference oracle.
    pub verify: bool,
    /// Which runtime executes the join (default simulated).
    pub backend: Backend,
    /// Worker-pool size for the threaded backend (None = all cores).
    pub threads: Option<usize>,
    /// How much to trace (default: summary).
    pub trace_level: TraceLevel,
    /// Stream trace events as JSONL to this path (run only).
    pub trace_out: Option<String>,
    /// Export a Chrome trace-event (Perfetto) JSON timeline to this path
    /// (run only).
    pub perfetto_out: Option<String>,
    /// Disable the live metrics registry (no-op instruments everywhere).
    pub no_metrics: bool,
    /// Concurrent queries the `service` command admits.
    pub queries: usize,
    /// Service-wide hash-memory quota in bytes (None = unlimited).
    pub memory_budget: Option<u64>,
    /// Scheduling weights assigned to the service's queries round-robin
    /// (empty = every tenant at weight 1).
    pub weights: Vec<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            command: Command::Help,
            algorithm: Algorithm::Hybrid,
            scale: 100,
            r_tuples: None,
            s_tuples: None,
            sigma: None,
            zipf: None,
            hot_keys: false,
            anti_matched: false,
            initial_nodes: None,
            payload: None,
            seed: None,
            format: Format::default(),
            verify: false,
            backend: Backend::Simulated,
            threads: None,
            trace_level: TraceLevel::Summary,
            trace_out: None,
            perfetto_out: None,
            no_metrics: false,
            queries: 8,
            memory_budget: None,
            weights: Vec::new(),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
ehjoin — expanding hash-based joins (Zhang et al., HPDC 2004)

USAGE:
  ehjoin run     [options]        run one join
  ehjoin compare [options]        run all four algorithms, compare
  ehjoin sweep <axis> [options]   sweep initial-nodes | skew | size
  ehjoin trace-summary <file>     render a --trace-out JSONL file as timelines
  ehjoin service [options]        run concurrent mixed-algorithm joins as one service
                                  (--backend sim runs them one by one, each in its own
                                  engine; --backend threaded shares one worker pool)

OPTIONS:
  --algorithm <replicated|split|hybrid|ooc>   (run and sweep; default hybrid)
  --scale <N>            divide the paper's 10M-tuple workload by N (default 100)
  --r-tuples <N>         override R's size (after scaling)
  --s-tuples <N>         override S's size (after scaling)
  --sigma <F>            gaussian skew (fraction of the domain); omit = uniform
  --zipf <THETA>         zipfian duplication skew, theta > 0 (theta >= 1 uses the
                         exact harmonic inverse-CDF sampler)
  --hot-keys             skew-conscious routing: heavy-hitter sketches, hot-key
                         replication and skew-aware reshuffle (--no-hot-keys undoes)
  --anti-matched         mirror S's attribute draw so its hot head lands on R's
                         cold tail (--matched restores the aligned default)
  --initial-nodes <N>    join nodes allocated up front (default 4)
  --payload <BYTES>      tuple payload size (default 100)
  --seed <N>             RNG seed
  --format <text|csv|json>
  --verify               check the result against the reference oracle
  --backend <sim|threaded>   simulated cost model or the real worker pool
  --threads <N>          threaded-backend worker count (default: all cores)
  --trace-level <off|summary|detail>   structured event tracing (default summary)
  --trace-out <FILE>     write trace events as JSON lines (run only; needs a trace
                         level other than off)
  --perfetto-out <FILE>  write a Chrome trace-event (Perfetto) timeline (run only)
  --no-metrics           disable the live metrics registry (no-op instruments)
  --queries <N>          service: concurrent queries to admit (default 8; algorithms
                         round-robin across replicated/split/hybrid/ooc)
  --memory-budget <BYTES>  service: hash-memory quota shared by all queries; admissions
                         beyond the budget block until earlier queries release
  --weights <W1,W2,..>   service: scheduling weights assigned to queries round-robin
                         (e.g. 1,1,8 gives every third query an 8x share of worker
                         time under deficit-weighted round-robin)
  --help
";

/// Parses an argument list (without the program name).
///
/// # Errors
/// Returns a message suitable for printing to stderr.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter().peekable();
    match it.next().as_deref() {
        Some("run") => args.command = Command::Run,
        Some("compare") => args.command = Command::Compare,
        Some("sweep") => {
            let axis = it
                .next()
                .ok_or("sweep needs an axis: initial-nodes | skew | size")?;
            if !["initial-nodes", "skew", "size"].contains(&axis.as_str()) {
                return Err(format!("unknown sweep axis '{axis}'"));
            }
            args.command = Command::Sweep { axis };
        }
        Some("trace-summary") => {
            let path = it.next().ok_or("trace-summary needs a JSONL file path")?;
            args.command = Command::TraceSummary { path };
        }
        Some("service") => args.command = Command::Service,
        Some("help" | "--help" | "-h") | None => {
            args.command = Command::Help;
            return Ok(args);
        }
        Some(other) => return Err(format!("unknown command '{other}'\n{USAGE}")),
    }

    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("invalid value for {flag}: {v}"))
    }

    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--algorithm" => {
                let v = value(&mut it, "--algorithm")?;
                args.algorithm = match v.as_str() {
                    "replicated" | "replication" => Algorithm::Replicated,
                    "split" => Algorithm::Split,
                    "hybrid" => Algorithm::Hybrid,
                    "ooc" | "out-of-core" => Algorithm::OutOfCore,
                    _ => return Err(format!("unknown algorithm '{v}'")),
                };
            }
            "--scale" => {
                args.scale = parse_num(&value(&mut it, "--scale")?, "--scale")?;
                if args.scale == 0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--r-tuples" => {
                args.r_tuples = Some(parse_num(&value(&mut it, "--r-tuples")?, "--r-tuples")?)
            }
            "--s-tuples" => {
                args.s_tuples = Some(parse_num(&value(&mut it, "--s-tuples")?, "--s-tuples")?)
            }
            "--sigma" => args.sigma = Some(parse_num(&value(&mut it, "--sigma")?, "--sigma")?),
            "--zipf" => args.zipf = Some(parse_num(&value(&mut it, "--zipf")?, "--zipf")?),
            "--hot-keys" => args.hot_keys = true,
            "--no-hot-keys" => args.hot_keys = false,
            "--anti-matched" => args.anti_matched = true,
            "--matched" => args.anti_matched = false,
            "--initial-nodes" => {
                args.initial_nodes = Some(parse_num(
                    &value(&mut it, "--initial-nodes")?,
                    "--initial-nodes",
                )?);
            }
            "--payload" => {
                args.payload = Some(parse_num(&value(&mut it, "--payload")?, "--payload")?)
            }
            "--seed" => args.seed = Some(parse_num(&value(&mut it, "--seed")?, "--seed")?),
            "--format" => {
                let v = value(&mut it, "--format")?;
                args.format = match v.as_str() {
                    "text" => Format::Text,
                    "csv" => Format::Csv,
                    "json" => Format::Json,
                    _ => return Err(format!("unknown format '{v}'")),
                };
            }
            "--verify" => args.verify = true,
            "--backend" => {
                let v = value(&mut it, "--backend")?;
                args.backend = match v.as_str() {
                    "sim" | "simulated" => Backend::Simulated,
                    "threaded" => Backend::Threaded,
                    _ => return Err(format!("unknown backend '{v}' (sim|threaded)")),
                };
            }
            "--threads" => {
                let n: usize = parse_num(&value(&mut it, "--threads")?, "--threads")?;
                if n == 0 {
                    return Err("--threads must be positive".into());
                }
                args.threads = Some(n);
            }
            "--trace-level" => {
                let v = value(&mut it, "--trace-level")?;
                args.trace_level = TraceLevel::parse(&v)
                    .ok_or_else(|| format!("unknown trace level '{v}' (off|summary|detail)"))?;
            }
            "--trace-out" => args.trace_out = Some(value(&mut it, "--trace-out")?),
            "--perfetto-out" => args.perfetto_out = Some(value(&mut it, "--perfetto-out")?),
            "--no-metrics" => args.no_metrics = true,
            "--queries" => {
                let n: usize = parse_num(&value(&mut it, "--queries")?, "--queries")?;
                if n == 0 {
                    return Err("--queries must be positive".into());
                }
                args.queries = n;
            }
            "--memory-budget" => {
                args.memory_budget = Some(parse_num(
                    &value(&mut it, "--memory-budget")?,
                    "--memory-budget",
                )?);
            }
            "--weights" => {
                let v = value(&mut it, "--weights")?;
                let weights: Vec<u64> = v
                    .split(',')
                    .map(|w| parse_num(w.trim(), "--weights"))
                    .collect::<Result<_, _>>()?;
                if weights.is_empty() || weights.contains(&0) {
                    return Err("--weights needs positive comma-separated weights".into());
                }
                args.weights = weights;
            }
            "--help" | "-h" => {
                args.command = Command::Help;
                return Ok(args);
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if args.command != Command::Run && (args.trace_out.is_some() || args.perfetto_out.is_some()) {
        return Err("--trace-out and --perfetto-out record one run: use them with `run`".into());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_run_with_options() {
        let a = p("run --algorithm split --scale 50 --sigma 0.001 --initial-nodes 8 --verify")
            .expect("valid");
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.algorithm, Algorithm::Split);
        assert_eq!(a.scale, 50);
        assert_eq!(a.sigma, Some(0.001));
        assert_eq!(a.initial_nodes, Some(8));
        assert!(a.verify);
    }

    #[test]
    fn parses_compare_and_sweep() {
        assert_eq!(p("compare").expect("valid").command, Command::Compare);
        assert_eq!(
            p("sweep skew").expect("valid").command,
            Command::Sweep {
                axis: "skew".into()
            }
        );
        assert!(p("sweep bogus").is_err());
        assert!(p("sweep").is_err());
    }

    #[test]
    fn help_paths() {
        assert_eq!(p("help").expect("valid").command, Command::Help);
        assert_eq!(p("").expect("valid").command, Command::Help);
        assert_eq!(p("run --help").expect("valid").command, Command::Help);
    }

    #[test]
    fn rejects_nonsense() {
        assert!(p("frobnicate").is_err());
        assert!(p("run --algorithm quantum").is_err());
        assert!(p("run --scale 0").is_err());
        assert!(p("run --scale").is_err());
        assert!(p("run --format yaml").is_err());
        assert!(p("run --bogus 3").is_err());
    }

    #[test]
    fn zipf_flag_parses() {
        let a = p("run --zipf 0.9").expect("valid");
        assert_eq!(a.zipf, Some(0.9));
        assert_eq!(p("run --zipf 1.2").expect("valid").zipf, Some(1.2));
        assert!(p("run --zipf").is_err());
    }

    #[test]
    fn hot_keys_flag_parses_with_last_wins() {
        assert!(!p("run").expect("valid").hot_keys);
        assert!(p("run --hot-keys").expect("valid").hot_keys);
        assert!(!p("run --hot-keys --no-hot-keys").expect("valid").hot_keys);
        assert!(p("run --no-hot-keys --hot-keys").expect("valid").hot_keys);
    }

    #[test]
    fn anti_matched_flag_parses_with_last_wins() {
        assert!(!p("run").expect("valid").anti_matched);
        assert!(p("run --anti-matched").expect("valid").anti_matched);
        assert!(
            !p("run --anti-matched --matched")
                .expect("valid")
                .anti_matched
        );
    }

    #[test]
    fn formats_parse() {
        assert_eq!(p("run --format json").expect("valid").format, Format::Json);
        assert_eq!(p("run --format csv").expect("valid").format, Format::Csv);
    }

    #[test]
    fn trace_flags_parse() {
        let a = p("run --trace-level detail --trace-out /tmp/t.jsonl").expect("valid");
        assert_eq!(a.trace_level, TraceLevel::Detail);
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(
            p("run --trace-level off").expect("valid").trace_level,
            TraceLevel::Off
        );
        assert_eq!(p("run").expect("valid").trace_level, TraceLevel::Summary);
        assert!(p("run --trace-level verbose").is_err());
        assert!(p("run --trace-out").is_err());
        // One file records one run.
        for cmd in ["compare", "sweep skew", "service"] {
            assert!(
                p(&format!("{cmd} --trace-out /tmp/t.jsonl")).is_err(),
                "{cmd}"
            );
            assert!(
                p(&format!("{cmd} --perfetto-out /tmp/t.json")).is_err(),
                "{cmd}"
            );
            assert!(p(&format!("{cmd} --trace-level detail")).is_ok(), "{cmd}");
        }
    }

    #[test]
    fn perfetto_and_metrics_flags_parse() {
        let a = p("run --perfetto-out /tmp/t.json --no-metrics").expect("valid");
        assert_eq!(a.perfetto_out.as_deref(), Some("/tmp/t.json"));
        assert!(a.no_metrics);
        let d = p("run").expect("valid");
        assert_eq!(d.perfetto_out, None);
        assert!(!d.no_metrics);
        assert!(p("run --perfetto-out").is_err());
    }

    #[test]
    fn backend_and_threads_parse() {
        let a = p("run --backend threaded --threads 8").expect("valid");
        assert_eq!(a.backend, Backend::Threaded);
        assert_eq!(a.threads, Some(8));
        assert_eq!(
            p("run --backend sim").expect("valid").backend,
            Backend::Simulated
        );
        assert_eq!(p("run").expect("valid").backend, Backend::Simulated);
        assert_eq!(p("run").expect("valid").threads, None);
        assert!(p("run --backend warp").is_err());
        assert!(p("run --threads 0").is_err());
        assert!(p("run --threads").is_err());
    }

    #[test]
    fn service_command_parses() {
        let a =
            p("service --queries 16 --memory-budget 1048576 --backend threaded").expect("valid");
        assert_eq!(a.command, Command::Service);
        assert_eq!(a.queries, 16);
        assert_eq!(a.memory_budget, Some(1_048_576));
        let d = p("service").expect("valid");
        assert_eq!(d.queries, 8);
        assert_eq!(d.memory_budget, None);
        assert!(p("service --queries 0").is_err());
        assert!(p("service --memory-budget lots").is_err());
    }

    #[test]
    fn scheduling_flags_parse() {
        let a = p("service --weights 1,1,8").expect("valid");
        assert_eq!(a.weights, vec![1, 1, 8]);
        let d = p("service").expect("valid");
        assert!(d.weights.is_empty());
        assert!(p("service --weights").is_err());
        assert!(p("service --weights 1,x").is_err());
        assert!(p("service --weights 1,0").is_err());
        assert!(p("service --probe-slice 512").is_err());
        assert!(p("service --latency-budget-ms 250").is_err());
    }

    #[test]
    fn trace_summary_command_parses() {
        assert_eq!(
            p("trace-summary /tmp/t.jsonl").expect("valid").command,
            Command::TraceSummary {
                path: "/tmp/t.jsonl".into()
            }
        );
        assert!(p("trace-summary").is_err());
    }
}
