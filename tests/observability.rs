//! Observability-layer integration tests: Chrome-trace JSON round-trip
//! through a minimal in-test parser, flow-event pairing, counter-sample
//! monotonicity, cross-backend counter consistency, and byte-identical
//! metrics reports across identical runs.

use std::collections::HashMap;

use amtlc::comm::{BackendKind, EngineConfig};
use amtlc::core::{Cluster, ClusterConfig, ExecMode, GraphBuilder, TaskDesc, TaskGraph};
use amtlc::tlr::{TlrCholesky, TlrProblem};

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip the trace and metrics
// output without pulling a serde dependency into the workspace.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing garbage at byte {}", p.i);
    v
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(self.b[self.i..].starts_with(word.as_bytes()));
        self.i += word.len();
        v
    }

    fn number(&mut self) -> Json {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("utf8 number");
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return out;
                }
                b'\\' => {
                    self.i += 1;
                    let c = self.b[self.i];
                    self.i += 1;
                    match c {
                        b'"' | b'\\' | b'/' => out.push(c as char),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4]).unwrap();
                            let cp = u32::from_str_radix(hex, 16).expect("hex escape");
                            self.i += 4;
                            out.push(char::from_u32(cp).expect("BMP code point"));
                        }
                        other => panic!("unknown escape \\{}", other as char),
                    }
                }
                _ => {
                    let s = self.i;
                    while !matches!(self.b[self.i], b'"' | b'\\') {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[s..self.i]).expect("utf8 string"));
                }
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut out = Vec::new();
        self.ws();
        if self.b[self.i] == b']' {
            self.i += 1;
            return Json::Arr(out);
        }
        loop {
            out.push(self.value());
            self.ws();
            match self.b[self.i] {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(out);
                }
                c => panic!("expected , or ] got {:?}", c as char),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut out = Vec::new();
        self.ws();
        if self.b[self.i] == b'}' {
            self.i += 1;
            return Json::Obj(out);
        }
        loop {
            self.ws();
            let k = self.string();
            self.eat(b':');
            out.push((k, self.value()));
            self.ws();
            match self.b[self.i] {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(out);
                }
                c => panic!("expected , or }} got {:?}", c as char),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workload: a small graph with guaranteed remote ACTIVATE → GET DATA → put
// flows on every backend.

fn flow_graph(nodes: usize) -> TaskGraph {
    let mut g = GraphBuilder::new(nodes);
    for k in 0..8u64 {
        g.data(k, 64 * 1024, (k as usize) % nodes, None);
    }
    for step in 0..24u64 {
        let key = step % 8;
        g.insert(
            TaskDesc::new("hop")
                .on_node(((step + 1) % nodes as u64) as usize)
                .flops(2e7)
                .read_key(key)
                .read_key((key + 3) % 8)
                .write(key, 64 * 1024),
        );
    }
    g.build()
}

fn observed_run(backend: BackendKind) -> (Cluster, amtlc::core::RunReport) {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        workers_per_node: 4,
        engine: EngineConfig::for_backend(backend).with_observability(true, true),
        mode: ExecMode::CostOnly,
        ..Default::default()
    });
    let report = cluster.execute(flow_graph(2));
    assert!(report.complete());
    (cluster, report)
}

#[test]
fn trace_round_trips_with_paired_flows_and_monotone_counters() {
    for backend in BackendKind::ALL {
        let (cluster, _) = observed_run(backend);
        let json = cluster.trace_json().expect("trace after execute");
        let parsed = parse_json(&json);
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());

        let mut flow_starts: HashMap<u64, u64> = HashMap::new();
        let mut flow_ends: HashMap<u64, u64> = HashMap::new();
        let mut counter_last_ts: HashMap<String, f64> = HashMap::new();
        let mut worker_spans = 0usize;
        let mut comm_spans = 0usize;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
            match ph {
                "X" => {
                    assert!(ev.get("dur").and_then(Json::as_num).expect("dur") >= 0.0);
                    // Span names resolve through thread metadata; count by
                    // name class instead.
                    match ev.get("name").and_then(Json::as_str).expect("name") {
                        "hop" => worker_spans += 1,
                        "commands" | "testsome" | "completion" | "fifo_round" | "am" | "data"
                        | "delegated" | "backend" | "progress" => comm_spans += 1,
                        _ => {}
                    }
                }
                "s" | "f" => {
                    let id = ev.get("id").and_then(Json::as_num).expect("flow id") as u64;
                    let m = if ph == "s" {
                        &mut flow_starts
                    } else {
                        assert_eq!(ev.get("bp").and_then(Json::as_str), Some("e"));
                        &mut flow_ends
                    };
                    *m.entry(id).or_insert(0) += 1;
                }
                "C" => {
                    let name = ev.get("name").and_then(Json::as_str).expect("name");
                    let ts = ev.get("ts").and_then(Json::as_num).expect("ts");
                    let last = counter_last_ts.entry(name.to_string()).or_insert(-1.0);
                    assert!(ts >= *last, "{backend:?}: counter {name} ts regressed");
                    *last = ts;
                }
                _ => {}
            }
        }
        assert!(worker_spans > 0, "{backend:?}: no worker task spans");
        assert!(comm_spans > 0, "{backend:?}: no comm-thread spans");
        assert!(!flow_starts.is_empty(), "{backend:?}: no flow events");
        assert_eq!(
            flow_starts, flow_ends,
            "{backend:?}: unpaired flow endpoints"
        );
        assert!(
            counter_last_ts.len() >= 2,
            "{backend:?}: expected >= 2 counter tracks, got {counter_last_ts:?}"
        );
    }
}

#[test]
fn metrics_report_surfaces_event_queue_pressure() {
    // `events_peak_pending` must appear in the sim section alongside the
    // clamp counter, and a real run necessarily queued at least one event.
    let (cluster, report) = observed_run(BackendKind::Lci);
    let parsed = parse_json(&cluster.metrics_report(&report).to_json());
    let peak = parsed
        .get("sim")
        .and_then(|s| s.get("events_peak_pending"))
        .and_then(Json::as_num)
        .expect("missing sim.events_peak_pending");
    assert!(peak >= 1.0, "no queue pressure recorded: {peak}");
}

#[test]
fn lifecycle_counts_are_consistent_across_backends() {
    let mut per_backend: Vec<(BackendKind, Json)> = Vec::new();
    for backend in BackendKind::ALL {
        let (cluster, report) = observed_run(backend);
        let parsed = parse_json(&cluster.metrics_report(&report).to_json());
        per_backend.push((backend, parsed));
    }
    let count = |j: &Json, path: [&str; 2]| {
        j.get(path[0])
            .and_then(|v| v.get(path[1]))
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("missing {path:?}")) as u64
    };
    let reference = &per_backend[0].1;
    for (backend, j) in &per_backend {
        // What the protocol does is backend-invariant: every submitted AM is
        // eventually received somewhere, every put completes on both sides.
        assert_eq!(
            count(j, ["engine", "am_submitted"]),
            count(reference, ["engine", "am_submitted"]),
            "{backend:?} vs {:?}",
            per_backend[0].0
        );
        for eq in ["puts_started", "puts_remote_done", "put_bytes_in"] {
            assert_eq!(
                count(j, ["engine", eq]),
                count(reference, ["engine", eq]),
                "{backend:?}: {eq} diverged"
            );
        }
        assert_eq!(
            count(j, ["engine", "am_received"]),
            count(j, ["engine", "am_sent"]),
            "{backend:?}: sent AMs must all be received"
        );
        assert_eq!(
            count(j, ["engine", "puts_started"]),
            count(j, ["engine", "puts_remote_done"]),
            "{backend:?}: started puts must all complete remotely"
        );
        // Per-stage histograms exist and agree with the counters.
        let stage_count = |name: &str| {
            j.get("stages")
                .and_then(|s| s.get("histograms"))
                .and_then(|h| h.get(name))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_num)
                .unwrap_or(0.0) as u64
        };
        // Aggregation coalesces submissions, so stage samples count wire
        // messages: one per issued AM.
        assert_eq!(
            stage_count("am.queue_ns"),
            count(j, ["engine", "am_sent"]),
            "{backend:?}: every issued AM passes the queue stage"
        );
        assert_eq!(
            stage_count("am.wire_ns"),
            count(j, ["engine", "am_received"]),
            "{backend:?}: every received AM records a wire latency"
        );
        assert_eq!(
            stage_count("put.callback_ns"),
            count(j, ["engine", "puts_remote_done"]),
            "{backend:?}: every remote put completion runs its callback"
        );
        // Overlap fraction is a fraction, and this workload has wire time.
        let frac = j
            .get("overlap")
            .and_then(|o| o.get("fraction"))
            .and_then(Json::as_num)
            .expect("overlap fraction");
        assert!(
            frac > 0.0 && frac <= 1.0,
            "{backend:?}: overlap fraction {frac} outside (0, 1]"
        );
    }
}

#[test]
fn metrics_report_is_byte_identical_across_identical_runs() {
    for backend in BackendKind::ALL {
        let (c1, r1) = observed_run(backend);
        let (c2, r2) = observed_run(backend);
        let j1 = c1.metrics_report(&r1).to_json();
        let j2 = c2.metrics_report(&r2).to_json();
        assert_eq!(j1, j2, "{backend:?}: metrics report not deterministic");
        let t1 = c1.trace_json().expect("trace");
        let t2 = c2.trace_json().expect("trace");
        assert_eq!(t1, t2, "{backend:?}: trace not deterministic");
    }
}

// ---------------------------------------------------------------------------
// Real substrate: the same observability layer over wall-clock execution on
// the work-stealing pool.

fn observed_real_run(threads: usize) -> (Cluster, amtlc::core::RunReport) {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        workers_per_node: 4,
        mode: ExecMode::CostOnly,
        engine: EngineConfig::default().with_observability(true, true),
        ..Default::default()
    });
    let report = cluster.execute_real(flow_graph(2), threads);
    assert!(report.complete());
    (cluster, report)
}

#[test]
fn real_trace_has_worker_spans_steal_flows_and_park_instants() {
    let (cluster, report) = observed_real_run(4);
    let stats = report.pool.clone().expect("real runs carry pool stats");
    assert_eq!(
        stats.trace_dropped, 0,
        "trace ring overflowed on a tiny run"
    );

    let json = cluster.trace_json().expect("trace after execute_real");
    let events_owner = parse_json(&json);
    let events = events_owner
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut tracks: Vec<String> = Vec::new();
    let mut hop_spans = 0u64;
    let mut steal_spans = 0u64;
    let mut stolen_spans = 0u64;
    let mut flow_starts: HashMap<u64, u64> = HashMap::new();
    let mut flow_ends: HashMap<u64, u64> = HashMap::new();
    let mut counter_last_ts: HashMap<String, f64> = HashMap::new();
    let mut parks = 0u64;
    let mut unparks = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        match ph {
            "M" if ev.get("name").and_then(Json::as_str) == Some("thread_name") => {
                let t = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("thread_name args");
                tracks.push(t.to_string());
            }
            "X" => match ev.get("name").and_then(Json::as_str).expect("name") {
                "hop" => hop_spans += 1,
                "steal" => steal_spans += 1,
                "stolen" => stolen_spans += 1,
                other => panic!("unexpected span {other}"),
            },
            "s" | "f" => {
                let id = ev.get("id").and_then(Json::as_num).expect("flow id") as u64;
                let m = if ph == "s" {
                    &mut flow_starts
                } else {
                    assert_eq!(ev.get("bp").and_then(Json::as_str), Some("e"));
                    &mut flow_ends
                };
                *m.entry(id).or_insert(0) += 1;
            }
            "C" => {
                let name = ev.get("name").and_then(Json::as_str).expect("name");
                let ts = ev.get("ts").and_then(Json::as_num).expect("ts");
                let last = counter_last_ts.entry(name.to_string()).or_insert(-1.0);
                assert!(ts >= *last, "counter {name} ts regressed");
                *last = ts;
            }
            "i" => match ev.get("name").and_then(Json::as_str).expect("name") {
                "park" => parks += 1,
                "unpark" => unparks += 1,
                other => panic!("unexpected instant {other}"),
            },
            _ => {}
        }
    }

    // Every executed task left a span on a per-node worker track.
    assert_eq!(hop_spans, report.tasks_executed);
    assert!(
        tracks.iter().any(|t| t.starts_with("n0.w"))
            && tracks.iter().any(|t| t.starts_with("n1.w")),
        "task spans must land on n{{node}}.w{{worker}} tracks: {tracks:?}"
    );
    // Steal arrows reconcile exactly with the pool's steal counter: one
    // start (victim) + one end (thief) + both anchor spans per steal.
    let steals = stats.steals();
    assert_eq!(flow_starts.values().sum::<u64>(), steals);
    assert_eq!(flow_ends.values().sum::<u64>(), steals);
    assert_eq!(flow_starts, flow_ends, "unpaired steal-flow endpoints");
    assert_eq!(steal_spans, steals);
    assert_eq!(stolen_spans, steals);
    // Park instants reconcile with the pool's park counter, and an idle
    // 4-worker pool over this mostly-serial graph parks at least once.
    assert_eq!(parks, stats.parks());
    assert!(parks >= 1, "no worker ever parked");
    assert!(unparks <= parks, "more unparks than parks");
    // Depth counters present on pool tracks; monotonicity checked above.
    assert!(
        counter_last_ts.keys().any(|k| k.ends_with(".deque")),
        "expected deque-depth counters, got {counter_last_ts:?}"
    );
}

#[test]
fn real_and_virtual_lifecycle_counts_agree_on_cholesky() {
    // Numeric: the real substrate always runs kernels, and a flow moves
    // what its producer's kernel made, on either substrate.
    let cfg = || ClusterConfig {
        nodes: 2,
        workers_per_node: 4,
        mode: ExecMode::Numeric,
        engine: EngineConfig::default().with_observability(false, true),
        ..Default::default()
    };
    let (_, graph) = TlrCholesky::build_numeric(TlrProblem::new(256, 32), 2);
    let mut virt = Cluster::new(cfg());
    let vr = virt.execute(graph);
    assert!(vr.complete());
    let (_, graph) = TlrCholesky::build_numeric(TlrProblem::new(256, 32), 2);
    let mut real = Cluster::new(cfg());
    let rr = real.execute_real(graph, 2);
    assert!(rr.complete());

    // The protocol is substrate-invariant: same tasks, same data flows,
    // same bytes over the (simulated or shared-memory) wire.
    assert_eq!(vr.tasks_executed, rr.tasks_executed);
    assert_eq!(vr.e2e_latency_us.count(), rr.e2e_latency_us.count());
    assert_eq!(vr.bytes_transferred(), rr.bytes_transferred());

    let vj = parse_json(&virt.metrics_report(&vr).to_json());
    let rj = parse_json(&real.metrics_report(&rr).to_json());
    assert_eq!(vj.get("substrate").and_then(Json::as_str), Some("virtual"));
    assert_eq!(rj.get("substrate").and_then(Json::as_str), Some("real"));
    let stage_count = |j: &Json, name: &str| {
        j.get("stages")
            .and_then(|s| s.get("histograms"))
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64
    };
    // Per-put lifecycle samples count completed data movements — one per
    // flow on either substrate. (AM wire counts are not compared: virtual
    // backends aggregate records into fewer wire messages.)
    for stage in ["put.wire_ns", "put.callback_ns"] {
        assert_eq!(
            stage_count(&vj, stage),
            stage_count(&rj, stage),
            "{stage} count diverged across substrates"
        );
        assert_eq!(
            stage_count(&rj, stage),
            rr.e2e_latency_us.count(),
            "{stage}: one sample per completed flow"
        );
    }
    // Pool stats only exist on the real substrate, and conserve work.
    assert!(vj.get("pool") == Some(&Json::Null));
    let pool = rj.get("pool").expect("real pool stats");
    assert_eq!(
        pool.get("spawns").and_then(Json::as_num),
        pool.get("executions").and_then(Json::as_num),
        "spawned jobs must all execute"
    );
}

#[test]
fn disabled_real_observability_emits_nothing() {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        workers_per_node: 4,
        mode: ExecMode::CostOnly,
        ..Default::default()
    });
    let report = cluster.execute_real(flow_graph(2), 2);
    assert!(report.complete());
    let trace = cluster.trace_json().expect("merged trace exists");
    let parsed = parse_json(&trace);
    assert_eq!(
        parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "untraced real run must produce an empty event array"
    );
    let metrics = cluster.metrics_report(&report);
    assert!(metrics.stages.is_empty(), "unmetered real run stays empty");
    // Pool conservation counters are always-on (they are plain atomics).
    let pool = report.pool.as_ref().expect("pool stats");
    assert_eq!(pool.spawns(), pool.executions());
}

#[test]
fn disabled_observability_emits_nothing() {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        workers_per_node: 4,
        mode: ExecMode::CostOnly,
        ..Default::default()
    });
    let report = cluster.execute(flow_graph(2));
    assert!(report.complete());
    let trace = cluster.trace_json().expect("merged trace exists");
    let events = parse_json(&trace);
    assert_eq!(
        events
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "disabled tracing must produce an empty event array"
    );
    let metrics = cluster.metrics_report(&report);
    assert!(
        metrics.stages.is_empty(),
        "disabled metrics must stay empty"
    );
    assert_eq!(metrics.wire_ns, 0);
}
