#!/usr/bin/env bash
# Repo verification: tier-1 (build + tests, see ROADMAP.md) plus lints and
# formatting. Run from the workspace root:  ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q (default-members = the whole workspace) =="
cargo test -q

echo "== clippy (workspace, warnings are errors, redundant clones rejected) =="
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

echo "== rustfmt check =="
cargo fmt --check

echo "== engine benchmark: micro --quick smoke + BENCH_engine.json schema =="
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT
cargo bench --quiet -p amt-bench --bench micro -- \
    --quick --engine-only --out "$TMP_DIR/BENCH_engine.json"
python3 - "$TMP_DIR/BENCH_engine.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "amtlc-bench-engine-v1", d.get("schema")
want = {"churn_chain_near", "churn_preload_drain", "schedule_now_burst",
        "mixed_horizon", "fig4_point"}
got = set(d["scenarios"])
assert want <= got, f"missing scenarios: {want - got}"
for name, s in d["scenarios"].items():
    assert s["events"] > 0 and s["ns_per_event"] > 0, name
print(f"BENCH_engine.json valid ({len(got)} scenarios)")
PY

echo "== comm datapath: micro scenarios + BENCH_comm.json schema/bounds =="
cargo bench --quiet -p amt-bench --bench comm_datapath -- \
    --quick --out "$TMP_DIR/BENCH_comm.json"
python3 - "$TMP_DIR/BENCH_comm.json" BENCH_comm.json <<'PY'
import json, sys
fresh = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
assert fresh["schema"] == "amtlc-bench-comm-v1", fresh.get("schema")
sizes = ["64", "256", "1024", "4096"]
assert set(fresh["match_churn"]) == set(sizes)
# O(1) matching: hash comparisons/match stay flat 64 -> 4096 outstanding
# receives.
h64 = fresh["match_churn"]["64"]["hash_cmp_per_match"]
h4k = fresh["match_churn"]["4096"]["hash_cmp_per_match"]
assert h4k <= 1.5 * h64, f"hash matcher not flat: {h64} -> {h4k}"
# Allocation budget: fresh (quick) allocs/msg may not regress past the
# committed full-run columns beyond warm-up tolerance.
for scen in ("am_flood", "put_rendezvous"):
    for backend, bound in committed["alloc_per_msg"][scen].items():
        got = fresh["alloc_per_msg"][scen][backend]
        limit = bound * 1.3 + 3.0
        assert got <= limit, f"{scen}/{backend}: {got} allocs/msg > bound {limit:.2f}"
print("BENCH_comm.json valid; matcher flat, allocation budget held")
PY

echo "== scheduler datapath: sched_overhead --quick + BENCH_sched.json schema/bounds =="
cargo bench --quiet -p amt-bench --bench sched_overhead -- \
    --quick --out "$TMP_DIR/BENCH_sched.json"
python3 - "$TMP_DIR/BENCH_sched.json" BENCH_sched.json <<'PY'
import json, sys
fresh = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
assert fresh["schema"] == "amtlc-bench-sched-v1", fresh.get("schema")
assert set(fresh["throughput"]) == {"fine_grained_dag", "tlr_cholesky"}
# Allocation budget on the scheduler-bound scenario (allocation counts are
# deterministic, so the margin only absorbs size differences vs the
# committed full run).
dense = fresh["throughput"]["fine_grained_dag"]["dense"]["allocs_per_task"]
bound = committed["throughput"]["fine_grained_dag"]["dense"]["allocs_per_task"]
limit = bound * 1.3 + 1.0
assert dense <= limit, f"dense allocs/task {dense} > committed bound {limit:.2f}"
# Windowed discovery: peak live bytes must stay a small fraction of the
# full unroll even at quick sizes (full run commits >= 4x).
mem = fresh["windowed_memory"]
ratio = mem["full_unroll_peak_bytes"] / mem["windowed_peak_bytes"]
assert ratio >= 2.0, f"windowed peak-memory ratio {ratio:.2f} < 2"
assert committed["windowed_memory"]["ratio"] >= 4.0, "committed ratio < 4"
print(f"BENCH_sched.json valid; allocs/task {dense:.2f}, "
      f"quick window ratio {ratio:.1f}x")
PY

echo "== message rate: msg_rate --quick + BENCH_msgrate.json schema/gates =="
cargo bench --quiet -p amt-bench --bench msg_rate -- \
    --quick --out "$TMP_DIR/BENCH_msgrate.json"
python3 - "$TMP_DIR/BENCH_msgrate.json" BENCH_msgrate.json <<'PY'
import json, sys
for path, quick in ((sys.argv[1], True), (sys.argv[2], False)):
    d = json.load(open(path))
    assert d["schema"] == "amtlc-bench-msgrate-v1", (path, d.get("schema"))
    assert d["quick"] is quick, (path, "quick flag")
    assert set(d["scenarios"]) == {"tlr_wide", "stencil"}, path
    for name, scen in d["scenarios"].items():
        assert set(scen) == {"flat", "batched", "batched_tree"}, (path, name)
        flat = scen["flat"]
        for mode, r in scen.items():
            assert r["msgs_on_wire"] > 0 and r["tts_s"] > 0, (path, name, mode)
            # Batching/trees change message counts only: same records
            # submitted, same payload deliveries.
            assert r["records_submitted"] == flat["records_submitted"], (path, name, mode)
            assert r["data_puts"] == flat["data_puts"], (path, name, mode)
    # The tentpole gate, on the wide-fan-out scenario: batched+tree puts
    # >= 2x fewer control messages on the wire at <= 1.05x flat's
    # time-to-solution (virtual time: deterministic, no noise margin).
    bt = d["scenarios"]["tlr_wide"]["batched_tree"]
    assert bt["reduction_vs_flat"] >= 2.0, (path, bt["reduction_vs_flat"])
    assert bt["time_vs_flat"] <= 1.05, (path, bt["time_vs_flat"])
fresh = json.load(open(sys.argv[1]))["scenarios"]["tlr_wide"]["batched_tree"]
print(f"BENCH_msgrate.json valid; tlr_wide batched+tree "
      f"{fresh['reduction_vs_flat']:.2f}x fewer msgs at "
      f"{fresh['time_vs_flat']:.3f}x time")
PY

echo "== cluster scale: scale --quick + BENCH_scale.json schema/gates =="
cargo bench --quiet -p amt-bench --bench scale -- \
    --quick --out "$TMP_DIR/BENCH_scale.json"
python3 - "$TMP_DIR/BENCH_scale.json" BENCH_scale.json <<'PY'
import json, sys
for path, quick in ((sys.argv[1], True), (sys.argv[2], False)):
    d = json.load(open(path))
    assert d["schema"] == "amtlc-bench-scale-v1", (path, d.get("schema"))
    assert d["quick"] is quick, (path, "quick flag")
    assert d["threads_available"] >= 1
    nodes = [r["nodes"] for r in d["scaling"]]
    assert nodes == ([32, 128] if quick else [32, 128, 512, 1024]), (path, nodes)
    for r in d["scaling"] + [d["million_task"]]:
        assert r["tasks"] > 0 and r["sim_events"] > 0, (path, r)
        assert r["events_per_sec"] > 0 and r["peak_live_bytes"] > 0, (path, r)
    # Flyweight node state: peak live bytes at most half the dense
    # baseline on the 512-sharded-chains workload (counting-allocator
    # measurements are deterministic).
    fm = d["flyweight_memory"]
    assert fm["flyweight_peak_bytes"] <= 0.5 * fm["dense_peak_bytes"], (path, fm)
committed = json.load(open(sys.argv[2]))
assert committed["million_task"]["tasks"] >= 1_000_000, committed["million_task"]
assert committed["million_task"]["nodes"] == 1024
print(f"BENCH_scale.json valid; flyweight ratio "
      f"{committed['flyweight_memory']['ratio']:.3f}, million-task point "
      f"{committed['million_task']['tasks']} tasks on 1024 nodes")
PY

echo "== real substrate: quickstart + TLR smoke on 2 threads (wall-clock gated) =="
# The quickstart's final section and the cross-mode oracle both run
# Cluster::execute_real; a protocol stall would hang, so cap wall time.
# Capture to a file, then grep: `grep -q` closing the pipe early would
# SIGPIPE the example mid-print.
timeout 120 cargo run --release --quiet --example quickstart -- --threads 2 \
    > "$TMP_DIR/quickstart_real.txt"
grep -q "real execution (2 thread(s))" "$TMP_DIR/quickstart_real.txt"
timeout 120 cargo test --release --quiet --test integration \
    execution_modes_agree_byte_for_byte_on_numeric_cholesky -- --exact > /dev/null
echo "real-exec smoke passed (quickstart --threads 2; cross-mode TLR oracle)"

echo "== real substrate: real_exec --quick + BENCH_exec.json schema =="
cargo bench --quiet -p amt-bench --bench real_exec -- \
    --quick --out "$TMP_DIR/BENCH_exec.json"
python3 - "$TMP_DIR/BENCH_exec.json" BENCH_exec.json <<'PY'
import json, sys
for path, quick in ((sys.argv[1], True), (sys.argv[2], False)):
    d = json.load(open(path))
    assert d["schema"] == "amtlc-bench-exec-v1", (path, d.get("schema"))
    assert d["quick"] is quick, (path, "quick flag")
    assert d["threads_available"] >= 1
    for scen in ("fine_grained_dag", "tlr_cholesky"):
        s = d[scen]
        assert set(s["per_thread"]) == {"1", "2", "4"}, (path, scen)
        for p in s["per_thread"].values():
            assert p["tasks_per_sec"] > 0 and p["wall_ms"] > 0, (path, scen)
            # Messages are handled in line by the thread that sends them,
            # never as pool jobs: one job per task on the 4-node TLR run
            # too (7 per task when every ACTIVATE, GET and put was one).
            assert 1.0 <= p["jobs_per_task"] <= 1.1, (path, scen, p)
        assert s["scaling_1_to_2"] > 0, (path, scen)
    assert d["tlr_cholesky"]["nt"] == (16 if quick else 48), path
    classes = {c["class"] for c in d["calibration"]}
    assert classes == {"gemm", "potrf", "syrk", "trsm"}, (path, classes)
    for c in d["calibration"]:
        assert c["sim_us"] > 0 and c["real_us"] > 0 and c["count"] > 0, c
    obs = d["obs_overhead"]
    for mode in ("off", "on"):
        assert obs[mode]["wall_ms"] > 0 and obs[mode]["allocs_per_task"] > 0, (path, mode)
# Observability is pay-for-what-you-use: the obs-off run's deterministic
# allocations/task may not regress past the committed full-run column.
fresh = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
off = fresh["obs_overhead"]["off"]["allocs_per_task"]
bound = committed["obs_overhead"]["off"]["allocs_per_task"] * 1.3 + 0.5
assert off <= bound, f"obs-off allocs/task {off} > committed bound {bound:.2f}"
# The 1 -> 2 thread ratio is printed, not gated: the quick DAG is 2 560
# small tasks (milliseconds), and on a 2-core box the ratio measures
# 0.5-1.2 at any commit. The gates are the two deterministic proxies
# above (pool jobs/task, obs-off allocs/task).
print("BENCH_exec.json valid (fresh quick + committed full); "
      f"obs-off {off} allocs/task, fine-grained 1->2 scaling "
      f"{fresh['fine_grained_dag']['scaling_1_to_2']:.2f}x "
      f"on {fresh['threads_available']} core(s)")
PY

echo "== real substrate: deque and wake/quiescence hammers under TSan (best-effort, nightly only) =="
if rustup run nightly rustc --version > /dev/null 2>&1 \
   && rustup component list --toolchain nightly 2> /dev/null | grep -q "rust-src (installed)"; then
    RUSTFLAGS="-Zsanitizer=thread" timeout 600 \
        cargo +nightly test -p amt-exec --release -Zbuild-std \
        --target "$(rustc -vV | sed -n 's/^host: //p')" -- hammer \
        && echo "deque and wake/quiescence hammers passed under ThreadSanitizer" \
        || { echo "TSan run failed"; exit 1; }
else
    timeout 300 cargo test --release --quiet -p amt-exec -- hammer > /dev/null
    echo "nightly+rust-src unavailable; deque and wake/quiescence hammers ran in plain release mode"
fi

echo "== golden fig4 point: virtual-time byte-identity across backends and --jobs =="
for jobs in 1 3; do
    cargo bench --quiet -p amt-bench --bench fig4_tile_scaling -- --golden --jobs "$jobs" \
        > "$TMP_DIR/golden_fig4.txt"
    diff -u results/golden_fig4.txt "$TMP_DIR/golden_fig4.txt"
done
echo "golden fig4 report is byte-identical (jobs 1, 3)"

echo "== benchmark of record: its own tests + sim_scale, real_tlr and real_stencil --quick smokes =="
cargo test --quiet --offline --manifest-path benchmark/Cargo.toml
# real_tlr's warm-up rep runs the factorization residual check and every
# later rep is compared with it by digest: "correct" covers the kernels.
# real_stencil checks that every cross-node flow arrived: "correct" covers
# the record path (immediate records, per-worker flow statistics).
for workload in sim_scale real_tlr real_stencil; do
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --quick --workload "$workload" --trace 0 > "$TMP_DIR/benchmark_smoke.txt"
    tail -n 1 "$TMP_DIR/benchmark_smoke.txt" | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["correct"] is True and d["failed"] == 0, d
m = d["metrics"]
print("benchmark %s --quick: correct, %d checks, %.0f tasks/s"
      % (sys.argv[1], d["attempted"], m["tasks_per_s"]["value"]))
' "$workload"
done

echo "== observability: example run with --trace-out/--metrics-out =="
cargo run --release --quiet --example quickstart -- \
    --trace-out "$TMP_DIR/trace.json" --metrics-out "$TMP_DIR/metrics.json"
python3 -m json.tool "$TMP_DIR/trace.json" > /dev/null
python3 -m json.tool "$TMP_DIR/metrics.json" > /dev/null
echo "trace and metrics artifacts are valid JSON"

echo "== observability: traced 2-thread real execution (tlr_cholesky) =="
timeout 300 cargo run --release --quiet --example tlr_cholesky -- --threads 2 \
    --trace-out "$TMP_DIR/real_trace.json" \
    --metrics-out "$TMP_DIR/real_metrics.json" > /dev/null
python3 - "$TMP_DIR/real_trace.json" "$TMP_DIR/real_metrics.json" <<'PY'
import json, sys
ev = json.load(open(sys.argv[1]))["traceEvents"]
spans = [e for e in ev if e["ph"] == "X"]
tracks = {e["args"]["name"] for e in ev
          if e["ph"] == "M" and e["name"] == "thread_name"}
assert any(t.startswith("n0.w") for t in tracks), tracks
kernels = {e["name"] for e in spans} & {"gemm", "potrf", "syrk", "trsm"}
assert kernels, "no kernel spans in the real trace"
starts = sum(1 for e in ev if e["ph"] == "s")
ends = sum(1 for e in ev if e["ph"] == "f")
assert starts == ends, f"unpaired steal flows: {starts} starts, {ends} ends"
assert any(e["ph"] == "C" for e in ev), "no depth counters"
m = json.load(open(sys.argv[2]))
assert m["substrate"] == "real", m.get("substrate")
pool = m["pool"]
assert pool["spawns"] == pool["executions"] > 0, pool
assert pool["workers"] == 2, pool
print(f"real trace valid: {len(spans)} spans, {starts} steal arrows, "
      f"{pool['executions']} pool executions")
PY

echo "== observability: calibrate -> re-simulate round trip (quickstart) =="
timeout 120 cargo run --release --quiet --example quickstart -- --threads 2 \
    --calibrate-out "$TMP_DIR/calib.json" > /dev/null
python3 - "$TMP_DIR/calib.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))
assert c["schema"] == "amtlc-calib-v1", c.get("schema")
assert c["threads"] == 2 and c["tasks"] > 0
assert set(c["classes"]) == {"map", "shuffle", "reduce"}, c["classes"]
want = {"activate_record_ns", "get_request_ns", "arrival_ns", "task_overhead_ns"}
assert set(c["records"]) == want, c["records"]
for fam in ("classes", "records"):
    for name, s in c[fam].items():
        assert s["count"] > 0 and s["median_ns"] >= 0, (fam, name, s)
print(f"calibration profile valid ({c['tasks']} tasks sampled)")
PY
timeout 120 cargo run --release --quiet --example quickstart -- \
    --cost-model "$TMP_DIR/calib.json" \
    --metrics-out "$TMP_DIR/resim_metrics.json" > "$TMP_DIR/resim.txt"
grep -q "matches sequential oracle" "$TMP_DIR/resim.txt"
python3 - "$TMP_DIR/resim_metrics.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["substrate"] == "virtual" and m["makespan_ns"] > 0
print("simulator accepted the measured cost model (valid virtual run)")
PY

echo "== removed forks stay removed: island DES, tuner window loops, offline grid, seed scheduler, per-tag windows, boxed backend micro-tasks, shm node owners, the Substrate seam, engine collectives, the ladder queue, the eager-ceiling tuner, type-erased wires and completions, the LciDirect wrapper, per-task edge and consumer vectors, the real path's startup/quiescence collectives, the shm transport's put, send path and registries, the bucket ready queue, per-node report tallies and float latency recording =="
if grep -rn -e 'execute_islands\|new_partition\|RemoteChunk\|run_before\|TuneProfile\|WindowState\|--tuned\|--islands\|--autotune-out' \
        -e 'reference_sched\|RefDataState\|ReadyQueue::Reference\|batch_window_overrides\|with_batch_window_override\|batch_window_for\|get_window_min_flows' \
        -e 'Micro::Backend(\|BackendMicro\|fn exec_micro(\|fn micro_label' \
        -e 'shm\.direct\|shm\.queued\|fn progress(&self, node\|state_word\|struct PoolHandle\|fn pool_threads(' \
        -e 'trait Substrate\|impl Substrate\|dyn Substrate\|SubstrateKind\|VirtualSubstrate\|EngineCollectives\|TreeBcast' \
        -e 'schedule_at_cancelable\|EventToken\|NUM_BUCKETS\|SoloEvent\|occ_next_delta\|fn rebase(\|events_boxed' \
        -e 'TuneConfig\|tick_tune\|eager_put_max_for\|note_pressure\|batch_flush_bytes\|batch_bytes\|batch-bytes\|--adaptive' \
        -e 'Payload::Any\|fn downcast<\|BackendTask\|LciCmd\|struct LciDirect\|mod lci_direct\|CompHandler' \
        -e 'pub inputs: Vec<VersionId>\|pub outputs: Vec<VersionId>\|pub consumers: Vec<TaskId>' \
        -e 'TreeReduce\|ReduceStep\|kary_children\|kary_parent\|AM_COLL_\|QUIESCE\|executed_per_node\|mod collectives' \
        -e 'ShmMsg::Put\|fn new_observed\|fn merged_metrics' \
        -e 'BucketQueue\|MAX_SPAN\|spill_to_heap\|struct Lats\|fn merge_stats\|record_time_us' \
        crates/ examples/ tests/ src/ scripts/ --exclude=verify.sh; then
    echo "a removed name is back"; exit 1
fi

echo "== the real path sends values: no transport message, frames, encode/decode or buffer recycling in real.rs =="
if grep -nE 'ShmMsg|Frames|encode|iter_frames|recycle' crates/core/src/real.rs; then
    echo "real.rs encodes, frames or recycles a message again"; exit 1
fi
# The simulated engine keeps its own label_tag; shm's stays deleted.
if grep -nE 'fn (send|label_tag|record_stage)\(' crates/comm/src/shm.rs; then
    echo "shm.rs grew a send path or a metrics registry again"; exit 1
fi

echo "== the real path's clock and statistics: the pool clock reads no Instant on its fast path, real.rs keeps no float latency statistics =="
if grep -nE 'OnlineStats|record_time_us' crates/core/src/real.rs; then
    echo "real.rs records latency samples as floats again"; exit 1
fi
python3 - <<'PY'
import re, sys
src = open("crates/exec/src/pool.rs").read()
body = re.search(r"\nimpl PoolShared \{.*?fn now_ns\(&self\) -> u64 \{(.*?)\n    \}", src, re.S)
if body is None:
    sys.exit("PoolShared::now_ns not found in pool.rs")
if "elapsed(" in body.group(1):
    sys.exit("PoolShared::now_ns reads Instant::elapsed again")
print("pool clock: PoolShared::now_ns reads no Instant")
PY

echo "== simulated nodes keep only protocol state: no per-node scratch in NodeState =="
python3 - <<'PY'
import re, sys
src = open("crates/core/src/node.rs").read()
body = re.search(r"\nstruct NodeState \{(.*?)\n\}", src, re.S)
if body is None:
    sys.exit("struct NodeState not found in node.rs")
bad = re.findall(r"^\s*(fan|inputs_scratch)\s*:", body.group(1), re.M)
if bad:
    sys.exit(f"NodeState declares per-node scratch again: {bad}")
print("NodeState: no fan or inputs_scratch field")
PY

echo "== one typed wire: no type-erased values on the simulated message path =="
if grep -rnE 'dyn Any|std::any' crates/netmodel/src crates/lci/src crates/minimpi/src crates/comm/src; then
    echo "a type-erased value is back on the simulated message path"; exit 1
fi

echo "== one event queue: no heap and no seq field beside the radix queue =="
if grep -nE 'BinaryHeap|^\s*(pub(\([a-z]+\))? )?seq\s*:' crates/simnet/src/engine.rs; then
    echo "engine.rs holds a BinaryHeap or a seq field again"; exit 1
fi

echo "== config surface: ClusterConfig + EngineConfig pub fields =="
python3 - <<'PY'
import re, sys
def fields(path, name):
    src = open(path).read()
    body = re.search(r"pub struct %s \{(.*?)\n\}" % name, src, re.S).group(1)
    return len(re.findall(r"^\s*pub \w+:", body, re.M))
n = fields("crates/core/src/config.rs", "ClusterConfig") + fields("crates/comm/src/config.rs", "EngineConfig")
print(f"config fields: {n} (limit 23)")
sys.exit(n > 23)
PY

echo "verify: all checks passed"
