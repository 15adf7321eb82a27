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

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

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

echo "== real substrate: the pool's wake/quiescence hammer under TSan (best-effort, nightly only) =="
if rustup run nightly rustc --version > /dev/null 2>&1 \
   && rustup component list --toolchain nightly 2> /dev/null | grep -q "rust-src (installed)"; then
    RUSTFLAGS="-Zsanitizer=thread" timeout 600 \
        cargo +nightly test -p amt-exec --release -Zbuild-std \
        --target "$(rustc -vV | sed -n 's/^host: //p')" -- hammer \
        && echo "wake/quiescence hammer passed under ThreadSanitizer" \
        || { echo "TSan run failed"; exit 1; }
else
    timeout 300 cargo test --release --quiet -p amt-exec -- hammer > /dev/null
    echo "nightly+rust-src unavailable; wake/quiescence hammer ran in plain release mode"
fi

echo "== golden fig4 point: virtual-time byte-identity across backends and --jobs =="
for jobs in 1 3; do
    cargo bench --quiet -p amt-bench --bench fig4_tile_scaling -- --golden --jobs "$jobs" \
        > "$TMP_DIR/golden_fig4.txt"
    diff -u results/golden_fig4.txt "$TMP_DIR/golden_fig4.txt"
done
echo "golden fig4 report is byte-identical (jobs 1, 3)"

echo "== benchmark of record: its own tests + sim_scale, sim_fig4, real_tlr and real_stencil --quick smokes =="
cargo test --quiet --offline --manifest-path benchmark/Cargo.toml
# real_tlr's warm-up rep runs the factorization residual check and every
# later rep is compared with it by digest: "correct" covers the kernels.
# real_stencil checks that every cross-node flow arrived: "correct" covers
# the record path (immediate records, per-worker flow statistics).
# sim_fig4 is the only workload that runs amt-minimpi.
for workload in sim_scale sim_fig4 real_tlr real_stencil; do
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --quick --workload "$workload" --trace 0 > "$TMP_DIR/benchmark_smoke.txt"
    tail -n 1 "$TMP_DIR/benchmark_smoke.txt" | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["correct"] is True and d["failed"] == 0, d
m = d["metrics"]
print("benchmark %s --quick: correct, %d checks, %.0f tasks/s, %d peak live bytes"
      % (sys.argv[1], d["attempted"], m["tasks_per_s"]["value"],
         m["peak_live_bytes"]["value"]))
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

echo "== removed forks stay removed: island DES, tuner window loops, offline grid, seed scheduler, per-tag windows, boxed backend micro-tasks, shm node owners, the Substrate seam, engine collectives, the ladder queue, the eager-ceiling tuner, type-erased wires and completions, the LciDirect wrapper, per-task edge and consumer vectors, the real path's startup/quiescence collectives, the shm transport's put, send path and registries, the bucket ready queue, per-node report tallies and float latency recording, the simulated wire's record and handshake codecs and the byte cursor traits, the pool's lock-free deque, its slot boxes and overflow path, the time-weighted gauge, LCI completion queues and synchronizers, the configurable GET count window, the six side harnesses with their BENCH_*.json, the hash/treap matcher, the task descriptor's separate read and write vectors with the builder's superseded-feed take, and the DES-calibration loop =="
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
        -e 'encode_with\|fn encode_one\|fn iter_frames\|fn decode_one\|pub trait Buf\|pub trait BufMut' \
        -e 'SPARE_SLOTS\|DEQUE_CAP\|fn take_job\|overflow_pushes\|TimeWeighted\|fn cq_new\|fn sync_new\|pub get_window:' \
        -e 'reads: Vec<ReadRef>\|writes: Vec<(DataKey\|fn take_superseded' \
        -e 'CalibrationProfile\|calibration_profile\|class_cost\|apply_profile\|calib_sample\|--calibrate-out\|--cost-model' \
        crates/ examples/ tests/ src/ scripts/ --exclude=verify.sh; then
    echo "a removed name is back"; exit 1
fi
if grep -rn -e 'SeqRank\|splitmix64\|RefPostTable\|by_src_tag\|fn front_live' crates/minimpi/src; then
    echo "the hash/treap matcher is back"; exit 1
fi
if grep -rn 'AtomicPtr' crates/exec/src; then
    echo "the pool's lock-free deque is back"; exit 1
fi
if ls BENCH_*.json 2> /dev/null; then
    echo "a side benchmark's BENCH_*.json is back in the root"; exit 1
fi
if grep -nE '^name = "(micro|comm_datapath|sched_overhead|real_exec|msg_rate|scale)"' crates/bench/Cargo.toml; then
    echo "a retired side harness is back in crates/bench"; exit 1
fi

echo "== the real path sends values: no transport message, frames, encode/decode or buffer recycling in real.rs =="
if grep -nE 'ShmMsg|Frames|encode|iter_frames|recycle' crates/core/src/real.rs; then
    echo "real.rs encodes, frames or recycles a message again"; exit 1
fi
# The simulated engine keeps its own label_tag; shm's stays deleted.
if grep -nE 'fn (send|label_tag|record_stage)\(' crates/comm/src/shm.rs; then
    echo "shm.rs grew a send path or a metrics registry again"; exit 1
fi

echo "== the simulated runtime hands records over as slab ids: crates/core/src draws no buffer from an engine pool =="
if grep -rn 'buf_pool(' crates/core/src; then
    echo "the runtime draws or recycles engine pool buffers again"; exit 1
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

echo "== the pool's push writes nothing shared unless a worker sleeps; a finishing real task walks each output's consumers once =="
python3 - <<'PY'
import re, sys
src = open("crates/exec/src/pool.rs").read()
body = re.search(r"\n    fn notify_push\(&self\) \{(.*?)\n    \}\n", src, re.S)
if body is None:
    sys.exit("PoolShared::notify_push not found in pool.rs")
body = body.group(1)
# Cut the `sleepers > 0` branch (through its matching brace) out of the body.
branch = re.search(r"\bif [^{]*sleepers[^{]*> 0 \{", body)
if branch is not None:
    depth, end = 1, branch.end()
    while depth:
        depth += {"{": 1, "}": -1}.get(body[end], 0)
        end += 1
    body = body[:branch.start()] + body[end:]
rmw = re.findall(r"\b(fetch_\w+|swap|compare_exchange\w*)\(", body)
if rmw:
    sys.exit(f"PoolShared::notify_push writes a shared atomic with nobody asleep: {rmw}")
src = open("crates/core/src/real.rs").read()
body = re.search(r"\nfn exec_task\(.*?\n\}\n", src, re.S)
if body is None:
    sys.exit("exec_task not found in real.rs")
if "fulfill_local" in body.group(0):
    sys.exit("real.rs exec_task walks its outputs' consumers before the announce walks them again")
print("pool push: no read-modify-write outside the sleepers branch; exec_task: one consumer walk")
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

echo "== one rounding path: the kernel crates read no environment, no jacobi in linalg, tile.rs rounds through qr_truncate with one qr_thin =="
if grep -rnE 'std::env|env::var|option_env!' crates/linalg/src crates/tlr/src; then
    echo "a kernel crate reads an environment variable: a switch between rounding paths is back"; exit 1
fi
python3 - <<'PY'
import glob, os, re, sys
def non_test(path):
    """`path` without its `#[cfg(test)]` items (a module, a thread-local, a
    statement) or comments, the way the size stage below skips them."""
    out, skip = [], False
    for line in open(path):
        s = line.strip()
        if not skip and s == "#[cfg(test)]":
            skip, depth, opened = True, 0, False
        elif skip:
            if opened or not s.startswith("#["):
                c = s.split("//")[0]
                depth += c.count("{") - c.count("}")
                opened = opened or "{" in c
                skip = not (depth <= 0 and (opened or s.endswith((";", ","))))
        else:
            out.append(line.split("//")[0])
    return "".join(out)
# Files a lib.rs declares only under #[cfg(test)] (svd.rs, the σ oracle).
test_only = re.findall(r"^#\[cfg\(test\)\]\n(?:#\[.*\]\n)*(?:pub(?:\([a-z]+\))? )?mod (\w+);",
                       open("crates/linalg/src/lib.rs").read(), re.M)
jac = [p for p in sorted(glob.glob("crates/linalg/src/*.rs"))
       if os.path.basename(p)[:-3] not in test_only and re.search(r"\bjacobi\b", non_test(p))]
if jac:
    sys.exit(f"non-test linalg code names jacobi again ({jac}): tiles are rounded by the truncated pivoted QR alone")
tile = non_test("crates/tlr/src/tile.rs")
routines = set(re.findall(r"\b(qr_truncate|svd_\w+)\(", tile))
if routines != {"qr_truncate"}:
    sys.exit(f"non-test tile.rs rounds through {sorted(routines)}: one rounding routine, qr_truncate")
# A rounded addition QR-factors [V Z] alone: a QR of [U W] cannot change
# what the pivoted QR of [U W]·Rvᵀ sees (DESIGN.md §3.7).
qrs = re.findall(r"\bqr_thin\(", tile)
if len(qrs) > 1:
    sys.exit(f"non-test tile.rs calls qr_thin( {len(qrs)} times: a rounded addition needs one QR")
print("one rounding path: no std::env in linalg/tlr, no jacobi in non-test linalg, "
      f"tile.rs rounds through qr_truncate only, {len(qrs)} qr_thin( call in tile.rs")
PY

echo "== config surface: ClusterConfig + EngineConfig pub fields =="
python3 - <<'PY'
import re, sys
def fields(path, name):
    src = open(path).read()
    body = re.search(r"pub struct %s \{(.*?)\n\}" % name, src, re.S).group(1)
    return len(re.findall(r"^\s*pub \w+:", body, re.M))
n = fields("crates/core/src/config.rs", "ClusterConfig") + fields("crates/comm/src/config.rs", "EngineConfig")
print(f"config fields: {n} (limit 20)")
sys.exit(n > 20)
PY

echo "== size: non-test lines in crates/*/src (printed, not gated) =="
# Non-blank lines not starting with `//`, outside every `#[cfg(test)]` item
# (a module, function, field or statement, at any depth) and outside the
# files a lib.rs declares only under `#[cfg(test)]`.
python3 - <<'PY'
import glob, os, re
test_only = set()
for lib in glob.glob("crates/*/src/lib.rs"):
    for m in re.finditer(r"^#\[cfg\(test\)\]\n(?:#\[.*\]\n)*(?:pub(?:\([a-z]+\))? )?mod (\w+);",
                         open(lib).read(), re.M):
        test_only.add(os.path.join(os.path.dirname(lib), m.group(1) + ".rs"))
def code(line):
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])'", "''", line)
    return line.split("//")[0]
total = 0
for path in sorted(set(glob.glob("crates/*/src/*.rs")) - test_only):
    skip = False
    for line in open(path):
        s = line.strip()
        if not skip and s == "#[cfg(test)]":
            skip, depth, opened = True, 0, False
        elif skip:
            if opened or not s.startswith("#["):
                c = code(s)
                depth += c.count("{") - c.count("}")
                opened = opened or "{" in c
                skip = not (depth <= 0 and (opened or s.endswith((";", ","))))
        elif s and not s.startswith("//"):
            total += 1
print(f"non-test lines: {total} (test-only files skipped: {len(test_only)})")
PY

echo "verify: all checks passed"
