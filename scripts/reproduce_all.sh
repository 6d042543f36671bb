#!/usr/bin/env bash
# Full reproduction pipeline: install, test, regenerate every figure.
#
#   ./scripts/reproduce_all.sh            # default 1/256 scale (~15 min)
#   SCALE=1 ./scripts/reproduce_all.sh    # paper-scale trees (hours)
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${SCALE:-256}"

echo "== install =="
pip install -e . 2>/dev/null || python setup.py develop

echo "== unit / integration / property tests =="
pytest tests/ 2>&1 | tee test_output.txt

echo "== figures 7-18 + measured kernels + ablations + extensions =="
if [ "$SCALE" = "1" ]; then
    pytest benchmarks/ --benchmark-only --paper-scale 2>&1 | tee bench_output.txt
else
    pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
fi

echo "== serving-path perf smoke (schema + bounds table) =="
# a failing bound is reported here and in the exit status, after the
# remaining steps have run
smoke=0
SCALE=64 OUT=/tmp/bench_smoke.json LABEL=reproduce ./scripts/bench_smoke.sh \
    || smoke=$?

echo "== rendered figure report =="
python -m repro.bench all --scale "$SCALE"

echo "== examples =="
for ex in examples/*.py; do
    echo "-- $ex"
    python "$ex"
done

if [ "$smoke" -ne 0 ]; then
    echo "reproduction complete; the perf smoke failed a bound (above)."
    exit "$smoke"
fi
echo "reproduction complete."
