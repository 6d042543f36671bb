#!/usr/bin/env bash
# Serving-path performance smoke: run the populate / lookup / update /
# mixed / sharded / serving / write-burst harness, then check its JSON
# against the schema and the bounds table (scripts/validate_bench.py).
# Wall times are reported, not compared: timing two commits is
# perfbench's job, on one machine.
#
#   ./scripts/bench_smoke.sh                    # 1/64 scale -> /tmp/bench_smoke.json
#   SCALE=16 ./scripts/bench_smoke.sh           # bigger tree
#   OUT=/tmp/b.json SCALE=1024 ./scripts/bench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${SCALE:-64}"
OUT="${OUT:-/tmp/bench_smoke.json}"
LABEL="${LABEL:-local}"

PYTHONPATH=src python benchmarks/perf_smoke.py \
    --scale "$SCALE" --out "$OUT" --label "$LABEL"
python scripts/validate_bench.py "$OUT"
