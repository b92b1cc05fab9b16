#!/usr/bin/env bash
# Full quality gate: formatting, lints, docs, tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1 =="
cargo build --release && cargo test -q

echo "== benchmark package =="
# the benchmark is its own workspace calling the engine API directly:
# its smoke and stats tests catch engine changes that break it, and
# `--locked` fails an engine change that would rewrite its lockfile
cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml

echo "== crash bundles, repeated =="
# each engine records into its own flight ring and each fault plan stays
# on its installing thread; ten green runs in a row guard the bundle
# tests against any shared state creeping back under the parallel harness
for i in $(seq 1 10); do
    cargo test -q -p exl-integration-tests --test crash_bundle || {
        echo "crash_bundle failed on run $i"; exit 1; }
done
echo "crash_bundle: 10/10 green"

echo "== chaos, repeated =="
# the chaos tests pin evaluator workers per engine (`exec.eval_threads`),
# never through process-wide env vars; five green runs in a row guard
# against a test leaking worker settings into its neighbours
for i in $(seq 1 5); do
    cargo test -q -p exl-integration-tests --test chaos || {
        echo "chaos failed on run $i"; exit 1; }
done
echo "chaos: 5/5 green"

echo "== ambient isolation =="
# two engines run at once, one under a fault plan that fails every native
# execution: the plan must stay on its thread and each crash bundle must
# hold only its own engine's events, ten times in a row
for i in $(seq 1 10); do
    cargo test -q -p exl-integration-tests --test crash_bundle \
        concurrent_engines_keep_their_faults_and_events_apart || {
        echo "ambient isolation failed on run $i"; exit 1; }
done
echo "ambient isolation: 10/10 green"

echo "== row order & rank =="
# the series kernel emits the operand's keys in the operand's row order
# (every SeriesOp, 1 and 4 workers); rank-coded sort keys order exactly
# like DimPool::cmp_keys over random pools; malformed inputs fail in the
# one checked interning pass with Cube::validate's error, fused and unfused
cargo test -q -p exl-eval --lib series_output_keeps_operand_row_order
cargo test -q -p exl-eval --lib malformed_inputs_fail_like_validate_fused_and_unfused
cargo test -q -p exl-model --test rank_props
cargo test -q -p exl-model --lib checked_build_fails_like_validate

echo "== interning =="
# flat key columns: interning fanned out over 1, 2, 3 and 8 workers gives
# the pool order, key column and measures of a one-worker pass (and the
# same first error on a malformed cube); the parallel aggregation scatter
# fills every group segment as the serial one, bit for bit and row for row
cargo test -q -p exl-eval --lib parallel_interning_matches_serial
cargo test -q -p exl-eval --lib partitioned_aggregate_matches_serial_bitwise

echo "== aggregation determinism =="
# the aggregation kernel must be bit-identical to a DimTuple-sorted
# reference fold for every AggFn and any partition count, on both sides
# of its path rule (dense group ids, hashed ones); the dense and hash
# paths give the same rows in the same order, bit for bit, and a key
# that cannot be resolved takes the hash path's first-bad-row error
cargo test -q -p exl-integration-tests --test interned_differential \
    fold_then_merge_is_bit_identical_for_any_partition_count
cargo test -q -p exl-eval --lib -- --exact \
    eval::tests::dense_and_hashed_group_ids_give_the_same_rows \
    eval::tests::dense_and_hashed_group_ids_fail_alike

echo "== incremental differential (fixed-seed matrix) =="
# cold≡warm over the full fixed-seed corpus: 100 random program/delta
# pairs plus disk-reload and forest 1-cube-delta skip-ratio checks,
# compared bit for bit against cache-free engines, and 200 chained GDP
# vintages on one engine (chained_vintages_stay_bit_identical: every
# 20th bit-compared with a cold engine, `diff_rows` pinned to the
# revised cube so no derived cube with a carried delta is diffed)
cargo test -q -p exl-integration-tests --test incremental_differential
# an engine pinned to one evaluator thread keeps the run cache's inline
# and delta evaluations on it: an armed `eval.worker` fault never fires
cargo test -q -p exl-integration-tests --test incremental_differential -- --exact \
    pinned_eval_threads_reach_the_run_cache
# a digest moved by a random change set (upserts, removals, inserted
# keys, -0.0 and NaN payloads) equals Fingerprint::of_cube of the
# patched cube; the delta kernels' own output deltas replay exactly
cargo test -q -p exl-model --test fingerprint_props digest_follows_random_deltas
cargo test -q -p exl-eval --test repro_delta

echo "== fusion differential (fixed-seed matrix) =="
# fused ≡ unfused bitwise over 120 random programs (+ the interned chase
# within 1e-9 on every one), deep-chain shapes, and warm-cache delta runs
# split at the dirty frontier
cargo test -q -p exl-integration-tests --test fusion_differential

echo "== shard differential (fixed-seed matrix) =="
# sharded ≡ unsharded bitwise over 100 random programs at shard counts
# 1/2/4/8, the B5 wide workload, and warm deltas whose cache counts and
# disk entries do not depend on the shard count
# (`shard_count_is_invisible_to_the_run_cache`)
cargo test -q -p exl-integration-tests --test shard_differential

echo "== one run path =="
# every `exlc run` is one engine run: stdout on every target is the same
# plain, with `--retries 1` and with `--ledger-dir`; an operator the
# target lacks falls back to native on every flag combination; and the
# `--dump-plan` file equals `exlc plan` stdout
cargo test -q -p exl-engine --test cli -- --exact run_accepts_a_target_argument \
    unsupported_operator_falls_back_on_every_flag_combination \
    dump_plan_file_equals_plan_stdout

echo "== one evaluator =="
# every native evaluation runs a compiled plan: a statement that does not
# denote a cube is a typed error through `eval_statement` and
# `EvalSession::eval`; the unfused compile mode gives one region per
# operator node (fused: fewer, with fusion and CSE); a stream region's
# rows and their order are the same on 1, 3 and 4 workers
cargo test -q -p exl-eval --lib -- --exact \
    eval::tests::statements_without_a_cube_operand_are_typed_errors \
    plan::tests::unfused_plan_has_one_region_per_operator_node \
    plan::tests::run_stream_is_bit_identical_for_any_worker_count

echo "== sql backend =="
# the SQL backend loads staged cubes as typed rows: the load must equal
# the sqlgen text load row for row (seeded differential), SQL-target
# outputs must keep their pinned fingerprints, and every backend must be
# bit-deterministic run to run
cargo test -q -p exl-sqlengine --test loader
cargo test -q -p exl-integration-tests --test sql_fingerprints
cargo test -q -p exl-integration-tests --test backends every_backend_is_bit_deterministic

echo "== traced run =="
# one end-to-end exlc run with tracing + progress on; the emitted Chrome
# trace JSON must parse, be rooted, and hold one subgraph span (with
# cube/target/status attrs) per subgraph the progress stream reported
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/prog.exl" <<'EOF'
cube A(q: time[quarter]) -> y;
B := 2 * A;
C := cumsum(B);
EOF
cat > "$tmp/data.json" <<'EOF'
{ "A": [ [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
         [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5] ] }
EOF
cargo run -q --release -p exl-engine --bin exlc -- \
    --trace "$tmp/trace.json" --progress \
    run "$tmp/prog.exl" "$tmp/data.json" > "$tmp/out.json" 2> "$tmp/progress.txt"
python3 - "$tmp/trace.json" "$tmp/progress.txt" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
subs = [e for e in events if e["name"] == "subgraph"]
assert subs, "no subgraph spans in trace"
for s in subs:
    for key in ("cubes", "target", "status"):
        assert key in s["args"], f"subgraph span missing {key}: {s}"
assert any(e["name"] == "run" and "parent_id" not in e["args"] for e in events), \
    "no rooted run span"
progress = [l for l in open(sys.argv[2])
            if "computed" in l or "failed" in l or "skipped" in l]
assert len(subs) >= len(progress) >= 1, (len(subs), len(progress))
print(f"trace ok: {len(subs)} subgraph span(s), {len(progress)} progress line(s)")
PY
# the same program sharded with a run cache, cold then warm: every
# outcome path (sharded, cache-served) stamps the same subgraph
# attributes, and the warm re-run is served entirely from the cache
for run in cold warm; do
    cargo run -q --release -p exl-engine --bin exlc -- \
        --trace "$tmp/trace-$run.json" --shards 2 --cache-dir "$tmp/cache" \
        run "$tmp/prog.exl" "$tmp/data.json" > "$tmp/out-$run.json" 2> /dev/null
done
cmp "$tmp/out.json" "$tmp/out-warm.json" || {
    echo "sharded warm output diverged from the traced run"; exit 1; }
python3 - "$tmp/trace-cold.json" "$tmp/trace-warm.json" <<'PY'
import json, sys
vocabulary = {"computed", "cached", "failed", "skipped", "cancelled", "budget-exceeded"}
for path, want in zip(sys.argv[1:], ("computed", "cached")):
    subs = [e for e in json.load(open(path))["traceEvents"] if e["name"] == "subgraph"]
    assert subs, f"{path}: no subgraph spans"
    for s in subs:
        args = s["args"]
        assert args.get("status") in vocabulary, f"{path}: bad status {args}"
        assert "rows_out" in args and "attempts" in args, f"{path}: {args}"
    assert any("shards" in s["args"] for s in subs), f"{path}: nothing sharded"
    statuses = {s["args"]["status"] for s in subs}
    assert statuses == {want}, f"{path}: {statuses}, expected {want}"
print("sharded cache trace ok: cold computed, warm cached, rows_out on every span")
PY

echo "== observability =="
# chaos-injected exlc run: the crash bundle must appear, parse, and
# match the documented exl-bundle-v1 shape (docs/OBSERVABILITY.md); a
# clean run over the same directory must add nothing. Then a two-run
# ledger feeds `exlc perf`, which must exit clean on healthy history.
cargo run -q --release -p exl-engine --bin exlc -- \
    --bundle-dir "$tmp/bundles" --inject-fault exec.native:1:panic \
    run "$tmp/prog.exl" "$tmp/data.json" > /dev/null 2> "$tmp/chaos.txt" \
    && { echo "chaos run unexpectedly succeeded"; exit 1; } || true
grep -q "crash bundle written to" "$tmp/chaos.txt"
python3 - "$tmp/bundles" <<'PY'
import json, pathlib, sys
bundles = list(pathlib.Path(sys.argv[1]).glob("bundle-*.json"))
assert len(bundles) == 1, f"expected one crash bundle, got {bundles}"
b = json.load(open(bundles[0]))
assert b["version"] == "exl-bundle-v1", b["version"]
# the documented top-level schema, in full
for key in ("version", "unix_ms", "error", "failing_subgraph", "subgraphs",
            "fault_sites", "events", "metrics", "govern", "env"):
    assert key in b, f"bundle missing {key}"
assert b["error"]["kind"] == "panic", b["error"]
assert b["fault_sites"] == ["exec.native"], b["fault_sites"]
failing = b["failing_subgraph"]
assert failing and failing["status"] == "failed" and failing["cubes"], failing
for key in ("cancelled", "mem_peak_bytes", "deadline_ms"):
    assert key in b["govern"], f"govern missing {key}"
kinds = {e["kind"] for e in b["events"]}
assert "panic.caught" in kinds and "fault.fired" in kinds, kinds
print(f"crash bundle ok: {bundles[0].name}, {len(b['events'])} event(s)")
PY
for i in 1 2; do
    cargo run -q --release -p exl-engine --bin exlc -- \
        --bundle-dir "$tmp/bundles" --ledger-dir "$tmp/ledger" \
        run "$tmp/prog.exl" "$tmp/data.json" > /dev/null
done
[ "$(ls "$tmp/bundles" | wc -l)" -eq 1 ] || {
    echo "successful runs wrote crash bundles"; exit 1; }
[ "$(wc -l < "$tmp/ledger/ledger.jsonl")" -eq 2 ] || {
    echo "expected a two-run ledger"; exit 1; }
cargo run -q --release -p exl-engine --bin exlc -- perf "$tmp/ledger" --min-runs 1
echo "observability gate ok"

echo "== sharded dispatch =="
# the same program run sharded must match the unsharded output byte for
# byte, and a two-run sharded ledger must carry per-shard statement keys
# (`{cubes}#s{i}/{n}`) that `exlc perf` tracks as independent series
cat > "$tmp/wide.exl" <<'EOF'
cube W(q: time[quarter], r: text) -> v;
A := 2 * W;
T := sum(A, group by q);
EOF
cat > "$tmp/wide.json" <<'EOF'
{ "W": [ [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}, {"Str": "north"}], 1.0],
         [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}, {"Str": "south"}], 2.0],
         [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}, {"Str": "north"}], 3.0],
         [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}, {"Str": "south"}], 4.0] ] }
EOF
cargo run -q --release -p exl-engine --bin exlc -- \
    run "$tmp/wide.exl" "$tmp/wide.json" > "$tmp/wide-unsharded.json"
for i in 1 2; do
    cargo run -q --release -p exl-engine --bin exlc -- \
        --shards 2 --ledger-dir "$tmp/shard-ledger" \
        run "$tmp/wide.exl" "$tmp/wide.json" > "$tmp/wide-sharded.json"
done
cmp "$tmp/wide-unsharded.json" "$tmp/wide-sharded.json" || {
    echo "sharded output diverged from unsharded"; exit 1; }
python3 - "$tmp/shard-ledger/ledger.jsonl" <<'PY'
import json, sys
runs = [json.loads(l) for l in open(sys.argv[1])]
assert len(runs) == 2, f"expected a two-run sharded ledger, got {len(runs)}"
for rec in runs:
    keys = [s["key"] for s in rec["statements"]]
    for shard in ("#s0/2", "#s1/2"):
        assert any(k.endswith(shard) for k in keys), (shard, keys)
print(f"sharded ledger ok: {len(runs)} runs, "
      f"keys {sorted({k for r in runs for s in r['statements'] for k in [s['key']]})}")
PY
cargo run -q --release -p exl-engine --bin exlc -- perf "$tmp/shard-ledger" --min-runs 1
echo "sharded dispatch gate ok"

echo "== chaos =="
scripts/chaos.sh 0 1 2 3
scripts/chaos.sh --storm 12

echo "== examples =="
for ex in quickstart multi_target production_pipeline data_exchange seasonal_adjustment; do
    cargo run -q -p exl-examples --example "$ex" > /dev/null
    echo "example $ex: ok"
done

echo "all checks passed"
