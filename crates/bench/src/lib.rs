//! # amt-bench
//!
//! Workload builders and measurement helpers shared by the per-figure
//! benchmark harnesses (see `benches/`). Each harness regenerates one table
//! or figure of the paper; see `EXPERIMENTS.md` at the workspace root for
//! the index and recorded results.
//!
//! All harnesses run a *scaled* configuration by default so `cargo bench`
//! finishes in minutes on a laptop; pass `-- --full` (or set `AMT_FULL=1`)
//! for the paper-scale parameters.

pub mod alloc_count;
pub mod pingpong;
pub mod stencil;
pub mod table;
pub mod tlrrun;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use amt_core::{Cluster, ClusterConfig, RunReport};

/// Process-wide observability sink behind the `--trace-out <path>` /
/// `--metrics-out <path>` / `--calibrate-out <path>` flags. A harness (or
/// example) installs it once from its arguments; the shared runners
/// ([`pingpong::run_pingpong`], [`tlrrun::run_tlr`]) — or the caller, via
/// [`ObsSink::arm`] / [`ObsSink::capture`] — then record the **first**
/// executed configuration: its Chrome trace goes to `--trace-out` and its
/// metrics report to `--metrics-out`. The rest of the sweep runs
/// unobserved, so the flags never perturb more than one measurement.
///
/// `--calibrate-out` implies metrics and writes the measured
/// `amtlc-calib-v1` cost profile of the first captured run that *has* one
/// — i.e. the first **real** execution (`Cluster::execute_real`); virtual
/// runs carry no wall-clock costs, so the sink keeps arming until a real
/// run supplies the profile.
pub struct ObsSink {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    calibrate_out: Option<PathBuf>,
    captured: bool,
    calib_captured: bool,
}

static OBS: Mutex<Option<ObsSink>> = Mutex::new(None);

/// Parse a `--name <path>` / `--name=<path>` flag.
/// Parse a `--name <path>` / `--name=<path>` flag.
fn path_flag(args: &[String], name: &str) -> Option<PathBuf> {
    let eq = format!("{name}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return Some(PathBuf::from(
                it.next()
                    .unwrap_or_else(|| panic!("{name} requires a path value")),
            ));
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(PathBuf::from(v));
        }
    }
    None
}

impl ObsSink {
    /// Install the sink when any output flag is present in `args`.
    pub fn install(args: &[String]) {
        let trace_out = path_flag(args, "--trace-out");
        let metrics_out = path_flag(args, "--metrics-out");
        let calibrate_out = path_flag(args, "--calibrate-out");
        if trace_out.is_none() && metrics_out.is_none() && calibrate_out.is_none() {
            return;
        }
        *OBS.lock().expect("obs sink lock") = Some(ObsSink {
            trace_out,
            metrics_out,
            calibrate_out,
            captured: false,
            calib_captured: false,
        });
    }

    /// Enable the requested recordings on `cfg`. No-op when no sink is
    /// installed or everything requested was already captured.
    pub fn arm(cfg: &mut ClusterConfig) {
        if let Some(s) = OBS.lock().expect("obs sink lock").as_ref() {
            if !s.captured {
                cfg.engine.trace |= s.trace_out.is_some();
                cfg.engine.metrics |= s.metrics_out.is_some();
            }
            if !s.calib_captured {
                // Calibration needs the measured stage/kernel samples.
                cfg.engine.metrics |= s.calibrate_out.is_some();
            }
        }
    }

    /// Write the artifacts of an armed cluster's last execution to the
    /// requested paths. Trace/metrics write on the first capture; the
    /// calibration profile writes on the first capture whose cluster has
    /// one (real executions only).
    pub fn capture(cluster: &Cluster, report: &RunReport) {
        let mut guard = OBS.lock().expect("obs sink lock");
        let Some(s) = guard.as_mut() else { return };
        if !s.calib_captured {
            if let (Some(path), Some(profile)) = (&s.calibrate_out, cluster.calibration_profile()) {
                std::fs::write(path, profile.to_json())
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
                eprintln!("calibration profile written to {}", path.display());
                s.calib_captured = true;
            }
        }
        if s.captured {
            return;
        }
        // Only capture from a cluster that was actually armed for what the
        // sink wants — examples route arming at either the virtual sweep or
        // the real execution (an explicit `--threads` picks the latter), and
        // both call capture unconditionally.
        let cfg = &cluster.config().engine;
        if s.trace_out.is_some() && !cfg.trace {
            return;
        }
        if s.metrics_out.is_some() && !cfg.metrics {
            return;
        }
        s.captured = true;
        if let Some(path) = &s.trace_out {
            let json = cluster.trace_json().expect("trace of an executed cluster");
            std::fs::write(path, json)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("Chrome trace written to {}", path.display());
        }
        if let Some(path) = &s.metrics_out {
            std::fs::write(path, cluster.metrics_report(report).to_json())
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("metrics report written to {}", path.display());
        }
    }
}

impl ObsSink {
    /// Whether a sink is installed (used to force sequential sweeps so the
    /// "first executed configuration" stays well-defined).
    pub fn active() -> bool {
        OBS.lock().expect("obs sink lock").is_some()
    }
}

/// Parse the `--jobs N` / `--jobs=N` harness flag: how many worker threads
/// a sweep may use. `0` means one per available core. Defaults to 1
/// (sequential). Every simulation point is a self-contained [`Sim`], so
/// sweeps are embarrassingly parallel; results are always collected in
/// configuration order, making harness output identical for any `N`.
///
/// [`Sim`]: amt_simnet::Sim
pub fn jobs_arg(args: &[String]) -> usize {
    let mut it = args.iter();
    let jobs: usize = loop {
        let Some(a) = it.next() else { return 1 };
        let v = if a == "--jobs" {
            it.next()
                .unwrap_or_else(|| panic!("--jobs requires a value"))
                .as_str()
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            v
        } else {
            continue;
        };
        break v
            .parse()
            .unwrap_or_else(|e| panic!("--jobs {v:?} is not a number: {e}"));
    };
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Parse the `--threads N` / `--threads=N` harness flag: how many
/// work-stealing worker threads a **real execution**
/// (`Cluster::execute_real`) uses. `0` or absent means one per available
/// core; `1` is fully deterministic. Distinct from [`jobs_arg`], which
/// parallelizes independent *simulation points* — `--threads` parallelizes
/// one real run.
pub fn threads_arg(args: &[String]) -> usize {
    let threads = threads_arg_opt(args).unwrap_or(0);
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Like [`threads_arg`], but reports whether the `--threads` flag was
/// present at all: `None` when absent, `Some(n)` (raw, `0` = one per
/// core) when given. Examples use presence to decide which execution the
/// observability sink captures — an explicit `--threads` directs
/// `--trace-out`/`--metrics-out` at the **real** run instead of the first
/// virtual one.
pub fn threads_arg_opt(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = if a == "--threads" {
            it.next()
                .unwrap_or_else(|| panic!("--threads requires a value"))
                .as_str()
        } else if let Some(v) = a.strip_prefix("--threads=") {
            v
        } else {
            continue;
        };
        return Some(
            v.parse()
                .unwrap_or_else(|e| panic!("--threads {v:?} is not a number: {e}")),
        );
    }
    None
}

/// Parse the `--cost-model <file>` / `--cost-model=<file>` flag: load an
/// `amtlc-calib-v1` profile (written by `--calibrate-out`) so the caller
/// can overlay measured charges onto its simulated cost model with
/// [`amt_core::CostModel::apply_profile`]. Panics loudly on a missing or
/// malformed file.
pub fn cost_model_arg(args: &[String]) -> Option<amt_core::CalibrationProfile> {
    let path = path_flag(args, "--cost-model")?;
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("--cost-model {}: {e}", path.display()));
    Some(
        amt_core::CalibrationProfile::from_json(&text)
            .unwrap_or_else(|e| panic!("--cost-model {}: {e}", path.display())),
    )
}

/// Run `point(i)` for every `i` in `0..n` across up to `jobs` threads and
/// return the results **in index order** regardless of completion order.
///
/// Each simulation point builds and owns its entire `Sim`/`Cluster`, so
/// points share no mutable state and the per-point virtual-time results are
/// identical for any `jobs`. Worker threads pull indices from a shared
/// atomic counter (dynamic load balancing — sweep points differ wildly in
/// cost). A panic in any point propagates after the scope joins.
///
/// When an [`ObsSink`] is installed the sweep runs sequentially so the
/// "first executed configuration" that gets traced stays well-defined.
pub fn run_indexed<R: Send>(n: usize, jobs: usize, point: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let jobs = if ObsSink::active() {
        1
    } else {
        jobs.max(1).min(n.max(1))
    };
    if jobs == 1 {
        return (0..n).map(point).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = point(i);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every slot filled after join")
        })
        .collect()
}

/// [`run_indexed`] over a slice of configurations.
pub fn run_sweep<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    point: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    run_indexed(items.len(), jobs, |i| point(&items[i]))
}

/// True when the harness should run paper-scale parameters.
pub fn full_scale(args: &[String]) -> bool {
    args.iter().any(|a| a == "--full") || std::env::var("AMT_FULL").is_ok_and(|v| v == "1")
}

/// Skip flag criterion-style harness args we don't use (`--bench`, test
/// filters), returning the interesting ones.
pub fn harness_args() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect()
}

/// Parse an optional `--backend <name>` / `--backend=<name>` harness flag
/// (names as in [`amt_comm::BackendKind::parse`]: `mpi`, `lci`,
/// `lci-direct`). `None` means the harness should cover its default set of
/// backends. Panics on an unknown backend name so typos fail loudly.
pub fn backend_arg(args: &[String]) -> Option<amt_comm::BackendKind> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = if a == "--backend" {
            it.next()
                .unwrap_or_else(|| panic!("--backend requires a value"))
                .as_str()
        } else if let Some(v) = a.strip_prefix("--backend=") {
            v
        } else {
            continue;
        };
        return Some(
            amt_comm::BackendKind::parse(name)
                .unwrap_or_else(|| panic!("unknown backend {name:?} (mpi|lci|lci-direct)")),
        );
    }
    None
}

/// Parse a `--name N` / `--name=N` numeric flag.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let eq = format!("{name}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = if a == name {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
                .as_str()
        } else if let Some(v) = a.strip_prefix(&eq) {
            v
        } else {
            continue;
        };
        return Some(
            v.parse()
                .unwrap_or_else(|e| panic!("{name} {v:?} is not a number: {e}")),
        );
    }
    None
}

/// Message-layer tuning knobs shared by the examples and harnesses:
/// `--batch-window-ns N`, `--multicast-k K`. Parsed by
/// [`comm_tuning_args`]; overlaid on a configuration with
/// [`CommTuning::apply`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommTuning {
    /// AM-batch virtual-time window in ns; a buffer also flushes once it
    /// holds the engine's aggregation cap (`agg_max_bytes`). Zero (or
    /// absent) keeps batching off: every submission flushes immediately,
    /// the seed behavior.
    pub batch_window_ns: Option<u64>,
    /// Multicast tree arity for wide activations; enables tree
    /// announcements (`bcast_tree_min = 2`) when the config has none.
    pub multicast_k: Option<usize>,
}

/// Parse the [`CommTuning`] flags from harness/example arguments,
/// validating eagerly: `--multicast-k` below 2 cannot form a tree and is
/// rejected here rather than at cluster construction.
pub fn comm_tuning_args(args: &[String]) -> CommTuning {
    let t = CommTuning {
        batch_window_ns: num_flag(args, "--batch-window-ns"),
        multicast_k: num_flag(args, "--multicast-k"),
    };
    if let Some(k) = t.multicast_k {
        assert!(k >= 2, "--multicast-k must be at least 2 (got {k})");
    }
    t
}

impl CommTuning {
    /// Whether any knob was given (callers print the active tuning once).
    pub fn is_default(&self) -> bool {
        *self == CommTuning::default()
    }

    /// Overlay the present knobs onto `cfg`. An explicit
    /// `--batch-window-ns 0` keeps batching off.
    pub fn apply(&self, cfg: &mut ClusterConfig) {
        if let Some(window) = self.batch_window_ns {
            cfg.engine.batch_window_ns = window;
        }
        if let Some(k) = self.multicast_k {
            cfg.multicast_k = Some(k);
            if cfg.bcast_tree_min.is_none() {
                cfg.bcast_tree_min = Some(2);
            }
        }
    }

    /// One-line summary of the active knobs, for example banners.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(w) = self.batch_window_ns {
            parts.push(format!("batch window {w} ns"));
        }
        if let Some(k) = self.multicast_k {
            parts.push(format!("multicast {k}-ary trees"));
        }
        parts.join(", ")
    }
}

/// Granularities of Fig. 2/3: 8 KiB → 8 MiB in √2 steps (the paper's
/// 90.5 KiB / 45.25 KiB points come from these half-power steps).
pub fn granularities(min_bytes: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut exact: f64 = 8.0 * 1024.0;
    while exact <= 8.0 * 1024.0 * 1024.0 + 1.0 {
        let g = exact.round() as usize;
        if g >= min_bytes {
            out.push(g);
        }
        exact *= std::f64::consts::SQRT_2;
    }
    out
}

/// Human-readable size.
pub fn fmt_size(bytes: usize) -> String {
    let b = bytes as f64;
    if b >= 1024.0 * 1024.0 {
        format!("{:.2} MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2} KiB", b / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_series_matches_paper_points() {
        let g = granularities(8 * 1024);
        assert_eq!(g.first(), Some(&8192));
        assert_eq!(g.last(), Some(&(8 * 1024 * 1024)));
        // The √2 ladder contains the quoted 90.5 KiB and 45.25 KiB points.
        assert!(g.iter().any(|&x| (x as f64 - 90.5 * 1024.0).abs() < 512.0));
        assert!(g.iter().any(|&x| (x as f64 - 45.25 * 1024.0).abs() < 512.0));
        assert_eq!(g.len(), 21);
    }

    #[test]
    fn backend_arg_parses_both_flag_forms() {
        use amt_comm::BackendKind;
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(backend_arg(&args(&["--full"])), None);
        assert_eq!(
            backend_arg(&args(&["--backend", "lci-direct"])),
            Some(BackendKind::LciDirect)
        );
        assert_eq!(
            backend_arg(&args(&["--full", "--backend=mpi"])),
            Some(BackendKind::Mpi)
        );
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(8192), "8.00 KiB");
        assert_eq!(fmt_size(8 * 1024 * 1024), "8.00 MiB");
    }

    #[test]
    fn jobs_arg_parses_and_defaults() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_arg(&args(&["--full"])), 1);
        assert_eq!(jobs_arg(&args(&["--jobs", "4"])), 4);
        assert_eq!(jobs_arg(&args(&["--jobs=7", "--full"])), 7);
        assert!(jobs_arg(&args(&["--jobs", "0"])) >= 1);
    }

    #[test]
    fn threads_arg_parses_and_defaults_to_all_cores() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(threads_arg(&args(&["--full"])) >= 1);
        assert_eq!(threads_arg(&args(&["--threads", "4"])), 4);
        assert_eq!(threads_arg(&args(&["--threads=2", "--full"])), 2);
        assert!(threads_arg(&args(&["--threads", "0"])) >= 1);
        // The Option form distinguishes "absent" from "0 = all cores".
        assert_eq!(threads_arg_opt(&args(&["--full"])), None);
        assert_eq!(threads_arg_opt(&args(&["--threads", "0"])), Some(0));
        assert_eq!(threads_arg_opt(&args(&["--threads=3"])), Some(3));
    }

    #[test]
    fn cost_model_arg_round_trips_a_profile_file() {
        use amt_core::{CalibrationProfile, CostSummary};
        let mut p = CalibrationProfile {
            threads: 2,
            tasks: 4,
            ..Default::default()
        };
        p.classes.insert(
            "gemm".into(),
            CostSummary {
                count: 4,
                median_ns: 123,
                mean_ns: 130,
            },
        );
        let dir = std::env::temp_dir().join("amtlc-cost-model-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("profile.json");
        std::fs::write(&path, p.to_json()).expect("write profile");
        let args = vec![format!("--cost-model={}", path.display())];
        let loaded = cost_model_arg(&args).expect("flag present");
        assert_eq!(loaded, p);
        assert_eq!(cost_model_arg(&["--full".to_string()]), None);
    }

    #[test]
    fn run_indexed_preserves_order_at_any_width() {
        let sequential: Vec<usize> = run_indexed(20, 1, |i| i * i);
        for jobs in [2, 5, 8, 32] {
            assert_eq!(run_indexed(20, jobs, |i| i * i), sequential);
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_sweep_maps_items_in_order() {
        let items = ["a", "bb", "ccc"];
        assert_eq!(run_sweep(&items, 8, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn comm_tuning_parses_and_applies() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let t = comm_tuning_args(&args(&["--batch-window-ns", "5000", "--multicast-k", "4"]));
        assert_eq!(t.batch_window_ns, Some(5_000));
        assert_eq!(t.multicast_k, Some(4));
        assert!(!t.is_default());
        let mut cfg = ClusterConfig::default();
        t.apply(&mut cfg);
        assert_eq!(cfg.engine.batch_window_ns, 5_000);
        assert_eq!(cfg.multicast_k, Some(4));
        assert_eq!(cfg.bcast_tree_min, Some(2));

        // No flags: the configuration stays at seed defaults.
        let mut cfg = ClusterConfig::default();
        let none = comm_tuning_args(&args(&["--full"]));
        assert!(none.is_default());
        none.apply(&mut cfg);
        assert_eq!(cfg.engine.batch_window_ns, 0);
        assert_eq!(cfg.multicast_k, None);
        assert_eq!(cfg.bcast_tree_min, None);

        // An explicit zero window stays off.
        let mut cfg = ClusterConfig::default();
        comm_tuning_args(&args(&["--batch-window-ns=0"])).apply(&mut cfg);
        assert_eq!(cfg.engine.batch_window_ns, 0);
    }

    #[test]
    #[should_panic(expected = "multicast-k")]
    fn comm_tuning_rejects_unary_tree() {
        comm_tuning_args(&["--multicast-k=1".to_string()]);
    }
}
