//! The repository's benchmark of record. One command builds the layers from
//! source, runs a workload (or all four), checks its outputs and prints
//! every metric by name with its unit; see `README.md` beside this crate.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of output is the result as one JSON
//!     object (end-to-end metrics with --trace 0, per-layer with --trace 1)
//! benchmark [--seed n] [--seconds s] [--trace 0|1] [--quick]
//!     all four workloads in one process, reps interleaved round-robin
//! benchmark --aa [--seed n] [--seconds s] [--quick]
//!     the suite as two alternating sets of three runs, a process per run;
//!     fails if the sets' medians disagree by more than a metric's bound
//! ```
//!
//! Every layer is measured from outside: the harness times calls into the
//! crates' public functions and reads their public reports.

mod layers;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use amt_bench::alloc_count::CountingAlloc;

use metrics::{MetricDef, MetricSet, END_TO_END, RUN_SECONDS};
use spans::Spans;
use stats::{median, quartiles, worse_by};
use workloads::{run_rep, Checks, Kind, Plan, Rep};

// `peak_live_bytes` and the allocation counts are read from this allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Timed reps a run must hold before its time is up.
const MIN_REPS: usize = 3;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    quick: bool,
    emit_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        aa: false,
        quick: false,
        emit_benchmark_json: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
                args.workload = Some(kind);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                (args.seconds, seconds_given) = (s, true);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// One workload's timed reps (the warm-up rep is not among them).
struct Measured {
    plan: Plan,
    reps: Vec<Rep>,
    checks: Checks,
}

/// Compare a rep's fingerprint with the verified warm-up rep's.
fn check_repeats(checks: &mut Checks, kind: Kind, reference: &Option<String>, rep: &Rep) {
    if let Some(expected) = reference {
        checks.check(rep.fingerprint.as_ref() == Some(expected), || {
            format!(
                "{}: a rep's outputs differ from the verified warm-up rep's",
                kind.name()
            )
        });
    }
}

/// Warm every plan up once, untimed and fully verified; then timed reps,
/// interleaved round-robin across the plans so that a noisy phase of the
/// box does not land on one workload, until each has measured `seconds`.
fn measure(plans: &[Plan], seconds: f64) -> Vec<Measured> {
    let mut off = Spans::new(false);
    let mut references = Vec::new();
    let mut out: Vec<Measured> = plans
        .iter()
        .map(|plan| {
            let mut warm = run_rep(plan, &mut off, true);
            references.push(warm.fingerprint.take());
            Measured {
                plan: plan.clone(),
                reps: Vec::new(),
                checks: warm.checks,
            }
        })
        .collect();
    let mut spent = vec![0.0; plans.len()];
    loop {
        let mut ran = false;
        for (i, m) in out.iter_mut().enumerate() {
            if spent[i] >= seconds && m.reps.len() >= MIN_REPS {
                continue;
            }
            ran = true;
            let t0 = Instant::now();
            let mut rep = run_rep(&m.plan, &mut off, false);
            spent[i] += t0.elapsed().as_secs_f64();
            check_repeats(&mut m.checks, m.plan.kind, &references[i], &rep);
            m.checks.absorb(std::mem::take(&mut rep.checks));
            m.reps.push(rep);
        }
        if !ran {
            return out;
        }
    }
}

/// Per end-to-end metric, its value in every rep, in table order.
fn end_to_end_samples(m: &Measured) -> Vec<(&'static MetricDef, Vec<f64>)> {
    END_TO_END
        .iter()
        .map(|def| {
            let of = |f: &dyn Fn(&Rep) -> f64| m.reps.iter().map(f).collect();
            let samples: Vec<f64> = match def.name {
                "setup_s" => of(&Rep::setup_s),
                "wall_s" => of(&Rep::wall_s),
                "tasks_per_s" => of(&|r| r.tasks() as f64 / r.wall_s()),
                "peak_live_bytes" => of(&|r| r.peak_live_bytes as f64),
                "makespan_s" => of(&Rep::makespan_s),
                "e2e_latency_us" => of(&Rep::e2e_latency_us),
                "checks_passed_frac" => vec![1.0 - m.checks.failed_frac()],
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            (def, samples)
        })
        .collect()
}

fn end_to_end(m: &Measured) -> Result<MetricSet, String> {
    let mut set = MetricSet::new(&END_TO_END);
    println!(
        "\n== {}: end to end, median of R = {} timed reps [q1 .. q3] ==",
        m.plan.kind.name(),
        m.reps.len()
    );
    for (def, samples) in end_to_end_samples(m) {
        let (q1, q2, q3) = quartiles(&samples);
        println!(
            "{:<22} {:>16.6} {:<6} [{:.6} .. {:.6}]  bound {}",
            def.name,
            q2,
            def.unit,
            q1,
            q3,
            def.bound.expect("end-to-end metrics have a bound"),
        );
        set.set(def.name, q2)?;
    }
    println!(
        "{:<22} {:>16.6} {:<6} ({} of {} checks failed)",
        "failed_frac",
        m.checks.failed_frac(),
        "ratio",
        m.checks.failures.len(),
        m.checks.attempted
    );
    Ok(set)
}

/// The traced run of one workload: a few untraced reps for the reference
/// wall time, one rep with spans recorded, one on a single pool thread
/// (`real_*`), then the probes; `seconds` covers all of it.
fn traced(plan: &Plan, seconds: f64, spans: &mut Spans) -> Result<(MetricSet, Checks), String> {
    let mut off = Spans::new(false);
    let mut warm = run_rep(plan, &mut off, true);
    let mut checks = std::mem::take(&mut warm.checks);
    let reference = warm.fingerprint.take();
    drop(warm);
    let keep = |checks: &mut Checks, mut rep: Rep| {
        check_repeats(checks, plan.kind, &reference, &rep);
        checks.absorb(std::mem::take(&mut rep.checks));
        rep
    };

    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPS || t0.elapsed().as_secs_f64() < 0.3 * seconds {
        walls.push(keep(&mut checks, run_rep(plan, &mut off, false)).wall_s());
    }
    let rep = spans.scope(plan.kind.name(), |spans| {
        keep(&mut checks, run_rep(plan, spans, false))
    });
    let one_thread_wall_s = (!plan.kind.is_sim()).then(|| {
        let single = Plan {
            threads: 1,
            ..plan.clone()
        };
        keep(&mut checks, run_rep(&single, &mut off, false)).wall_s()
    });
    let probed = spans.scope("probes", |spans| {
        layers::probe(plan, &rep, 0.5 * seconds, spans)
    });
    let set = layers::per_layer(plan, &rep, &probed, median(&walls), one_thread_wall_s)?;

    println!(
        "\n== {}: per layer, from the traced rep ==",
        plan.kind.name()
    );
    for (def, value) in set.finish()? {
        println!("{:<32} {:>18.6} {}", def.name, value, def.unit);
    }
    Ok((set, checks))
}

fn result_line(set: &MetricSet, checks: &Checks) -> Result<String, String> {
    let metrics: Vec<String> = set
        .finish()?
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted,
        checks.failures.len(),
        metrics.join(", ")
    ))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were taken on; printed on every run.
fn print_environment(args: &Args, plans: &[Plan]) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# commit   {}",
        command_line("git", &["rev-parse", "--short", "HEAD"])
    );
    println!("# rustc    {}", command_line("rustc", &["-V"]));
    println!("# cpu      {cpu}");
    println!("# nproc    {nproc}");
    for p in plans {
        println!(
            "# {:<13} threads {}  nodes {}  nt {}  ts {}",
            p.kind.name(),
            p.threads,
            p.nodes,
            p.nt,
            p.ts
        );
    }
    println!(
        "# seed {}  seconds {}  trace {}  quick {}  (R, the timed reps, is printed per workload)",
        args.seed, args.seconds, args.trace as u8, args.quick
    );
}

/// What one pass measured for one workload.
struct Outcome {
    /// `None` for a single traced workload, whose result carries the
    /// per-layer metrics only.
    end_to_end: Option<MetricSet>,
    per_layer: Option<MetricSet>,
    checks: Checks,
}

/// One pass over `plans`: end-to-end metrics from untraced reps, then, with
/// `--trace 1`, the traced run of each.
fn suite(args: &Args, plans: &[Plan], spans: &mut Spans) -> Result<Vec<Outcome>, String> {
    let mut out = Vec::new();
    if !(args.trace && args.workload.is_some()) {
        for m in measure(plans, args.seconds) {
            out.push(Outcome {
                end_to_end: Some(end_to_end(&m)?),
                per_layer: None,
                checks: m.checks,
            });
        }
    }
    if args.trace {
        out.resize_with(plans.len(), || Outcome {
            end_to_end: None,
            per_layer: None,
            checks: Checks::default(),
        });
        for (plan, o) in plans.iter().zip(&mut out) {
            let (set, checks) = traced(plan, args.seconds, spans)?;
            o.per_layer = Some(set);
            o.checks.absorb(checks);
        }
    }
    for (plan, o) in plans.iter().zip(&out) {
        for f in &o.checks.failures {
            println!("CHECK FAILED {}: {f}", plan.kind.name());
        }
    }
    Ok(out)
}

fn write_trace(spans: &Spans) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("trace.json");
    std::fs::write(&path, spans.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nspans written to {}", path.display());
    Ok(())
}

/// The value of end-to-end metric `name` in a result line this crate
/// printed (see [`result_line`]).
fn metric_value(result_line: &str, name: &str) -> Result<f64, String> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = result_line
        .split_once(&key)
        .ok_or_else(|| format!("no metric {name} in the result line"))?
        .1;
    let end = rest.find(',').ok_or("result line cut short")?;
    rest[..end].parse().map_err(|e| format!("{name}: {e}"))
}

/// One workload in a process of its own, as the driver runs it; the
/// end-to-end metrics of its result line, in table order.
fn child_run(args: &Args, kind: Kind) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = std::process::Command::new(&exe);
    child.args(["--workload", kind.name(), "--trace", "0"]);
    child.args(["--seed", &args.seed.to_string()]);
    child.args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        child.arg("--quick");
    }
    let out = child
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    if !out.status.success() || !line.contains("\"correct\": true") {
        print!("{text}");
        return Err(format!("{}: a run failed", kind.name()));
    }
    END_TO_END
        .iter()
        .map(|def| metric_value(line, def.name))
        .collect()
}

/// `--aa`: the same code measured as two sets of runs. Each run is a
/// process of its own, as the driver's are (within one process a second
/// pass inherits the first's heap); the two sets alternate, three runs
/// each per workload, and each side reports its median, so that a slow
/// minute of the box does not decide the verdict. Prints, per metric and
/// workload, the relative difference beside its bound; fails if any
/// exceeds it.
fn aa(args: &Args, kinds: &[Kind]) -> Result<ExitCode, String> {
    const RUNS_PER_SIDE: usize = 3;
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    let mut ok = true;
    for &kind in kinds {
        let mut sides = [Vec::new(), Vec::new()];
        for _ in 0..RUNS_PER_SIDE {
            for side in &mut sides {
                side.push(child_run(args, kind)?);
            }
        }
        for (i, def) in END_TO_END.iter().enumerate() {
            let of =
                |side: &Vec<Vec<f64>>| median(&side.iter().map(|run| run[i]).collect::<Vec<_>>());
            let (a, b) = (of(&sides[0]), of(&sides[1]));
            let differ = worse_by(a, b, def.lower_is_better).abs();
            let bound = def.bound.expect("end-to-end metrics have a bound");
            let verdict = if differ > bound { "EXCEEDS" } else { "" };
            ok &= differ <= bound;
            println!(
                "{:<14} {:<20} {a:>16.6} {b:>16.6} {differ:>9.4} {bound:>6} {verdict}",
                kind.name(),
                def.name
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.emit_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    let kinds = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    if args.aa {
        return aa(args, &kinds);
    }
    let plans: Vec<Plan> = kinds
        .iter()
        .map(|&k| Plan::new(k, args.seed, args.quick))
        .collect();
    print_environment(args, &plans);
    let mut spans = Spans::new(true);
    let outcomes = suite(args, &plans, &mut spans)?;
    if args.trace {
        write_trace(&spans)?;
    }

    // One workload: the driver's contract. The result is the last line.
    if args.workload.is_some() {
        let o = &outcomes[0];
        let set = o.per_layer.as_ref().or(o.end_to_end.as_ref());
        println!(
            "{}",
            result_line(set.expect("one of the two was measured"), &o.checks)?
        );
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if outcomes.iter().all(|o| o.checks.failures.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| run(&args));
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
