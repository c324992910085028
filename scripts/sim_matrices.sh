#!/usr/bin/env bash
# The simulator runs CI gates on: three seed matrices and the crash-point
# sweep, then a replay of every committed trace. Each run's output (stdout and stderr) goes to its
# own file in OUT_DIR and to this script's stdout, so two checkouts compare
# with `diff -r`:
#
#   scripts/sim_matrices.sh OUT_DIR
#
# Every run prints each seed's trace hash (a matrix runs each seed twice and
# requires the same hash), so a changed line names the seed whose behaviour
# moved. All runs go ahead even when one fails; the exit status is 1 if any
# failed. A failing seed saves its shrunk schedule to
# sim-failure-seed-N.json in the repository root.
set -uo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet -p cind-sim || exit 1
sim="${CARGO_TARGET_DIR:-target}/release/cind-sim"

status=0
run() { # name, then the simulator's flags
    local name=$1
    shift
    echo "== $name: cind-sim $*"
    "$sim" "$@" 2>&1 | tee "$out/$name.txt" || status=1
}

run seeds --seeds 32 --ops 2000 --faults all
# Drift-shaped schedules (reorg is always on in the sim engine): inserts
# and queries concentrate on a hot attribute group that rotates per
# quarter, so crashes land while the reorganizer is mid-adaptation.
run drift --seeds 16 --ops 2000 --faults all --drift
run drift-sharded --seeds 8 --ops 2000 --faults all --drift --shards 4
run sweep --sweep --seed 3 --ops 60
for trace in crates/sim/traces/*.json; do
    run "replay-$(basename "$trace" .json)" --replay "$trace"
done
exit $status
