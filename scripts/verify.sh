#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the test suite.
# Usage: scripts/verify.sh [build-dir]
# Extra cmake options (e.g. -DFEDRA_SANITIZE=ON) pass through via
# FEDRA_CMAKE_ARGS.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Determinism lint first: no build needed, fails fast. The self-test proves
# the lint's own rules still fire before the rules are trusted on src/.
python3 scripts/lint_determinism.py --self-test
python3 scripts/lint_determinism.py src
echo "lint: determinism lint clean on src/"

# shellcheck disable=SC2086  # word-splitting of the extra args is the point
cmake -B "$BUILD_DIR" -S . ${FEDRA_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Trainer-level smoke runs: drive the examples end-to-end after the unit
# suite so whole-trainer regressions surface even when every unit test
# passes. All finish in seconds. deep_tree_fda additionally CHECKs the
# hierarchical scheduler's uplink savings against flat FDA; churn_fda
# CHECKs FDA's accuracy and bounded uplink overhead under worker churn and
# message loss against a fault-oblivious FedAvg strawman; fleet_fda
# (shrunk via FEDRA_FLEET_SMOKE) CHECKs the paged-store fleet: a sampled
# 10^4-client population learning under churn in O(cohort + touched drift)
# memory with FDA out-communicating every-round FedAvg; compressed_fleet_fda
# CHECKs the WireCodec pipeline on that same fleet — top-k + 8-bit sync
# payloads with error feedback paged through the client store must cut
# uplink sync bytes >= 4x at the same accuracy target.
# Thread-count determinism of the whole trainer, on both schedules: every
# lock-step round's worker steps run on the pool (quickstart), and the
# event-ordered schedule's kernels and collectives fan out over it
# (async_edge, asynchronous FDA against BSP FDA). Each example's output at
# 1 thread (the serial reference) and at 4 must be byte-identical.
SMOKE_OUT="$(mktemp -d)"
trap 'rm -rf "$SMOKE_OUT"' EXIT
for example in quickstart async_edge; do
  FEDRA_NUM_THREADS=1 "$BUILD_DIR/$example" > "$SMOKE_OUT/$example.t1.txt"
  FEDRA_NUM_THREADS=4 "$BUILD_DIR/$example" > "$SMOKE_OUT/$example.t4.txt"
  cmp "$SMOKE_OUT/$example.t1.txt" "$SMOKE_OUT/$example.t4.txt"
done
"$BUILD_DIR/hierarchical_fda" > /dev/null
"$BUILD_DIR/deep_tree_fda" > /dev/null
"$BUILD_DIR/churn_fda" > /dev/null
FEDRA_FLEET_SMOKE=1 "$BUILD_DIR/fleet_fda" > /dev/null
FEDRA_FLEET_SMOKE=1 "$BUILD_DIR/compressed_fleet_fda" > /dev/null
echo "smoke: quickstart + async_edge (1 == 4 threads) + hierarchical_fda" \
     "+ deep_tree_fda + churn_fda + fleet_fda + compressed_fleet_fda OK"
