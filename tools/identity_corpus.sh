#!/usr/bin/env bash
# Write the identity corpus of a twochoice source tree: the outputs of a
# fixed set of simulate, replay and trace runs, one directory per run.
#
#     tools/identity_corpus.sh <src dir> <out dir>
#
# Run it once on the parent's src and once on the change's, then compare:
#
#     diff -r <parent out dir> <change out dir>
#
# An empty diff says the change writes the same bytes on every run below.
# The runs:
#   - simulate on configs/simulate_default.yaml, configs/simulate_smoke.yaml
#     and perfbench/workloads/sim-exhaust.yaml --seed 1;
#   - a 16-cell grid (one-worker, max-three, n-workers:3 and fixed-worker x
#     2 regimes x 2 deltas, pool capabilities 0 to 1, 12 iterations, 3 of
#     them traced), plain and with each model switch;
#   - replay of perfbench's seed-1 votes file with perfbench's replay config
#     and with configs/replay_default.yaml;
# each at --jobs 1 and 2; and trace of cells 0, 3, 6, 7, 13 and 15 at
# iterations 0, 2 and 5 of the plain grid and of the distinct_voters grid.
# perfbench/ is only read: the votes file is perfbench/votes.py's
# write_votes(path, 1, run.VOTES).
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <src dir> <out dir>" >&2
    exit 2
fi
checkout=$(cd "$(dirname "$0")/.." && pwd)
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
export PYTHONDONTWRITEBYTECODE=1

twochoice() {
    PYTHONPATH="$src" python3 -m twochoice.cli "$@" > /dev/null
}

# every run names its inputs and outputs relative to $out, so that the
# manifests of two corpora differ in nothing but what the runs wrote
cd "$out"
mkdir -p inputs
python3 - "$checkout/perfbench" inputs/votes.csv <<'EOF'
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
from votes import write_votes
write_votes(Path(sys.argv[2]), 1, run.VOTES)
EOF
cp "$checkout/configs/simulate_default.yaml" inputs/default.yaml
cp "$checkout/configs/simulate_smoke.yaml" inputs/smoke.yaml
cp "$checkout/perfbench/workloads/sim-exhaust.yaml" inputs/exhaust.yaml
cp "$checkout/perfbench/workloads/replay-default.yaml" inputs/replay-bench.yaml
cp "$checkout/configs/replay_default.yaml" inputs/replay-default.yaml

grid='workers: {lo: 0.0, hi: 1.0, pool_size: 30}
regimes:
  - {mu: 0.3, sigma: 0.1, n_requests: 2500}
  - {mu: 0.05, sigma: 0.1, n_requests: 1800}
strategies: [one-worker, max-three, n-workers:3, fixed-worker]
deltas: [0.01, 0.001]
iterations: 12
trace_iterations: 3
seed: 5
bootstrap: {confidence: 0.99, resamples: 1000}'
echo "$grid" > inputs/grid-plain.yaml
for switch in distinct_voters resample_difficulties_per_iteration resample_pool_per_iteration; do
    printf '%s\n%s: true\n' "$grid" "$switch" > "inputs/grid-$switch.yaml"
done

for jobs in 1 2; do
    twochoice simulate --config inputs/default.yaml --out "simulate-default-j$jobs" --jobs "$jobs"
    twochoice simulate --config inputs/smoke.yaml --out "simulate-smoke-j$jobs" --jobs "$jobs"
    twochoice simulate --config inputs/exhaust.yaml --seed 1 --out "simulate-exhaust-j$jobs" \
        --jobs "$jobs"
    for grid in plain distinct_voters resample_difficulties_per_iteration \
                resample_pool_per_iteration; do
        twochoice simulate --config "inputs/grid-$grid.yaml" --out "grid-$grid-j$jobs" \
            --jobs "$jobs"
    done
    for config in bench default; do
        twochoice replay --config "inputs/replay-$config.yaml" --dataset inputs/votes.csv \
            --out "replay-$config-j$jobs" --jobs "$jobs"
    done
done
for grid in plain distinct_voters; do
    for cell in 0 3 6 7 13 15; do
        for iteration in 0 2 5; do
            twochoice trace --config "inputs/grid-$grid.yaml" --cell "$cell" \
                --iteration "$iteration" --out "trace-$grid-c$cell-i$iteration"
        done
    done
done
