#!/usr/bin/env bash
# Run the B-series Criterion groups (B1 translation, B2 backends, B3
# chase, B4 vintage-update, B5 sharding and dispatcher) at their
# built-in small scales, then
# snapshot each group's medians (ns) and throughput (rows/s, where the
# bench records element counts) into BENCH_B*.json at the repo root.
#
# The B1 bench also runs its execute-native workload with the flight
# recorder armed (`B1/execute-native-recorder-armed`): compare its
# medians against the disarmed `B1/execute-native` — they must stay
# within noise, the overhead guard for docs/OBSERVABILITY.md.
#
# Measurement and warm-up windows are short by default so the whole
# series stays in CI budget; override with BENCH_MEASURE_SECS /
# BENCH_WARMUP_SECS. Extra arguments pass through to Criterion.
set -euo pipefail
cd "$(dirname "$0")/.."

MEAS="${BENCH_MEASURE_SECS:-2}"
WARM="${BENCH_WARMUP_SECS:-1}"

for bench in translation backends chase vintage sharding dispatch; do
  cargo bench -q -p exl-bench --bench "$bench" -- \
    --measurement-time "$MEAS" --warm-up-time "$WARM" "$@"
done

python3 scripts/collect_bench.py --snapshot .
echo "wrote $(ls BENCH_B*.json 2>/dev/null | tr '\n' ' ')"

# per-tier rows/s and median trend across the git history of the
# snapshots, with the fresh work-tree numbers as the last column
python3 scripts/collect_bench.py --trajectory .
