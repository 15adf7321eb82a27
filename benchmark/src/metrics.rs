//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is generated from these tables (`--emit-benchmark-json`) and a test
//! keeps the committed file equal to them.

use std::collections::BTreeMap;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "sim_scale",
        why: "512 simulated nodes share one event queue, windowed discovery runs inside the timed region: simnet, netmodel and core node/window state do the work; minimpi, exec and linalg do none",
    },
    WorkloadDef {
        name: "sim_fig4",
        why: "paper Fig. 4 small-tile point on 16 nodes, once per backend: message-rate bound, the only workload that runs minimpi; comm engine and backends carry the host time",
    },
    WorkloadDef {
        name: "real_tlr",
        why: "numeric TLR Cholesky on the thread pool: linalg and tlr kernels are nearly all of the time, so a faster pool or transport must show no change here",
    },
    WorkloadDef {
        name: "real_stencil",
        why: "empty stencil tasks on the thread pool: spawn, steal, countdown and shared-memory records are all of the time, so a pool or transport gain shows here and not on real_tlr",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// What a user of the system sees. `makespan_s` and `e2e_latency_us` are
/// virtual time on `sim_*` (the model's prediction, repeats exactly for one
/// seed) and wall-clock on `real_*`.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("wall_s", "s", true, 0.20),
    e2e("tasks_per_s", "1/s", false, 0.20),
    e2e("peak_live_bytes", "bytes", true, 0.05),
    e2e("makespan_s", "s", true, 0.20),
    e2e("e2e_latency_us", "us", true, 0.25),
    e2e("checks_passed_frac", "ratio", false, 0.01),
];

pub const PER_LAYER: [MetricDef; 53] = [
    layer("simnet.events_per_task", "count", true),
    layer("simnet.events_per_s", "1/s", false),
    layer("simnet.peak_pending", "count", true),
    layer("simnet.probe_ns_per_event", "ns", true),
    layer("simnet.est_share", "ratio", true),
    layer("netmodel.probe_ns_per_msg", "ns", true),
    layer("netmodel.probe_events_per_msg", "count", true),
    layer("netmodel.est_share", "ratio", true),
    layer("minimpi.probe_ns_per_match", "ns", true),
    layer("minimpi.probe_cmp_per_match", "count", true),
    layer("minimpi.probe_ns_per_msg", "ns", true),
    layer("minimpi.est_share", "ratio", true),
    layer("lci.probe_ns_per_msg", "ns", true),
    layer("lci.retries", "count", true),
    layer("lci.est_share", "ratio", true),
    layer("comm.am_per_task", "count", true),
    layer("comm.puts_per_task", "count", true),
    layer("comm.bytes_per_task", "bytes", true),
    layer("comm.records_per_msg", "count", false),
    layer("comm.retries", "count", true),
    layer("comm.comm_util", "ratio", true),
    layer("comm.probe_ns_per_am.mpi", "ns", true),
    layer("comm.probe_ns_per_am.lci", "ns", true),
    layer("comm.probe_ns_per_put.mpi", "ns", true),
    layer("comm.probe_ns_per_put.lci", "ns", true),
    layer("comm.probe_allocs_per_am", "count", true),
    layer("comm.shm_probe_ns_per_msg", "ns", true),
    layer("comm.est_share", "ratio", true),
    layer("core.graph_build_ns_per_task", "ns", true),
    layer("core.cluster_new_s", "s", true),
    layer("core.probe_sched_ns_per_task", "ns", true),
    layer("core.probe_real_ns_per_task", "ns", true),
    layer("core.worker_util", "ratio", false),
    layer("core.est_share", "ratio", true),
    layer("exec.steals_per_task", "count", true),
    layer("exec.failed_probes_per_task", "count", true),
    layer("exec.parks", "count", true),
    layer("exec.probe_ns_per_job", "ns", true),
    layer("exec.scaling_1_to_n", "ratio", false),
    layer("exec.est_share", "ratio", true),
    layer("linalg.probe_gemm_gflops", "gflop/s", false),
    layer("linalg.probe_potrf_gflops", "gflop/s", false),
    layer("linalg.kernel_busy_share", "ratio", false),
    layer("tlr.probe_lr_update_us", "us", true),
    layer("tlr.probe_compress_us", "us", true),
    layer("tlr.build_s", "s", true),
    layer("tlr.mean_rank", "count", true),
    layer("host.allocs_per_task", "count", true),
    layer("host.unattributed_share", "ratio", true),
    layer("host.trace_overhead_frac", "ratio", true),
    layer("fidelity.fig4_lci_gain_pct", "%", false),
    layer("fidelity.e2e_latency_cut_pct", "%", false),
    layer("fidelity.sim_makespan_mpi_s", "s", true),
];

/// The contract's limits on a name: starts with a letter or digit, at most
/// 64 of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The contract's limits on a unit: 1 to 16 of letters, digits and `_/%.-`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// Values of one table's metrics for one workload. Setting a name the table
/// does not have, or finishing with one unset, is a bug in this crate, so
/// every name printed is in `BENCHMARK.json` and the reverse.
pub struct MetricSet {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn new(table: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            table,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("metric {name} is not in the table"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        if self.values.insert(def.name, value).is_some() {
            return Err(format!("metric {name} set twice"));
        }
        Ok(())
    }

    /// `(definition, value)` in table order; an error names what is unset.
    pub fn finish(&self) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        self.table
            .iter()
            .map(|d| {
                self.values
                    .get(d.name)
                    .map(|&v| (d, v))
                    .ok_or_else(|| format!("metric {} was never set", d.name))
            })
            .collect()
    }
}

/// `BENCHMARK.json` as the builder's contract specifies it.
pub fn benchmark_json() -> String {
    let better = |m: &MetricDef| if m.lower_is_better { "lower" } else { "higher" };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            better(m),
            m.bound.expect("end-to-end metrics have a bound"),
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            better(m),
        )
    });
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", ",
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"benchmark\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        rows(workloads.collect()),
        rows(end_to_end.collect()),
        rows(per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.lower_is_better);
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn name_validation_follows_the_contract() {
        assert!(valid_name("comm.probe_ns_per_am.lci") && valid_name("9-lives_x"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("a b"));
        assert!(!valid_name("a/b") && !valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("gflop/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("virtual s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn metric_set_accepts_exactly_the_table() {
        let mut s = MetricSet::new(&END_TO_END);
        assert!(s.set("no_such_metric", 1.0).is_err());
        assert!(s.set("wall_s", f64::NAN).is_err());
        assert!(s.finish().is_err(), "unset names must be reported");
        for m in &END_TO_END {
            s.set(m.name, 1.0).expect("table name");
        }
        assert!(s.set("wall_s", 2.0).is_err(), "double set");
        let done = s.finish().expect("complete");
        let names: Vec<&str> = done.iter().map(|(d, _)| d.name).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --emit-benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
