#!/usr/bin/env bash
# Alternating A/B of one benchmark workload between two checkouts — the
# table every EXPERIMENTS.md section reports (choosing-metrics §8: N pairs,
# the side that runs first alternating, medians and quartiles of both sides,
# the change better in k of N, every run listed), then per metric the
# change/parent ratio of every pair with their median, and the claim rule:
# the change wins at least nine tenths of the pairs (ties count for neither)
# and the medians differ, in the better direction, by more than the
# parent's quartile spread.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [N] [SEED]
#
# Each run is `benchmark/run.sh --workload WORKLOAD --seed SEED --trace 0`
# from its own checkout root (each builds into its own benchmark/target and
# compiles in its own BENCHMARK.json); the run's last stdout line is the
# result object. Both sides are built before the first timed run. The
# metrics and their better-direction come from CHANGE_DIR/BENCHMARK.json.
# Raw result objects are kept in $PAIRS_OUT (default: a fresh temp dir).
#
#   scripts/pairs.sh --counts PARENT_DIR CHANGE_DIR WORKLOAD [SEED]
#
# Checks that a change leaves the counts alone instead of timing it: one
# `--trace 1` run per side (parent first), then every per-layer metric
# whose unit in CHANGE_DIR/BENCHMARK.json is `count` or `bytes` — the
# units `run.sh selfcheck` holds to exact repetition — is compared bit for
# bit. Prints each side's `correct` and `failed`, each metric that differs
# (or is missing on one side) with both values, then a summary line; exits
# 1 if either run is not correct or failed an operation, or if any metric
# differs, 0 otherwise.
set -euo pipefail

counts=0
if [ "${1:-}" = "--counts" ]; then
    counts=1
    shift
fi
if [ $# -lt 3 ]; then
    sed -n '2,29p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
if [ "$counts" = 1 ]; then
    seed=${4:-49630}
else
    pairs=${4:-10}
    seed=${5:-49630}
fi
out=${PAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"
command -v python3 >/dev/null || { echo "pairs.sh: python3 is needed for the table" >&2; exit 2; }
# One shared target directory would make the two sides rebuild each other.
unset CARGO_TARGET_DIR

for side in "$parent" "$change"; do
    "$side/benchmark/run.sh" fingerprint >/dev/null
done

if [ "$counts" = 1 ]; then
    for side in parent change; do
        dir=$parent
        [ "$side" = change ] && dir=$change
        "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" --trace 1 \
            2>"$out/$side-traced.err" | tail -n 1 >"$out/$side-traced.json" || true
    done
    exec python3 - "$out" "$change/BENCHMARK.json" "$workload" "$seed" <<'PY'
import json, sys

out, decl, workload, seed = sys.argv[1:]
exact = [m["name"] for m in json.load(open(decl))["per_layer"] if m["unit"] in ("count", "bytes")]
results = {side: json.load(open(f"{out}/{side}-traced.json")) for side in ("parent", "change")}
runs = {side: r["metrics"] for side, r in results.items()}
print(f"{workload}, seed {seed}, one --trace 1 run a side: per-layer count and bytes metrics")
bad = 0
for side, r in results.items():
    print(f"{side}: correct {r['correct']}, failed {r['failed']} of {r['attempted']} attempted")
    bad += not r["correct"] or r["failed"] != 0
differ = 0
for name in exact:
    p, c = (runs[side].get(name, {}).get("value") for side in ("parent", "change"))
    if p is None and c is None:
        continue
    if p != c:
        differ += 1
        print(f"`{name}`: parent {p!r}, change {c!r}")
compared = sum(1 for n in exact if n in runs["parent"] or n in runs["change"])
print(f"{compared} compared, {differ} differ; raw result objects: {out}")
sys.exit(1 if differ or bad else 0)
PY
fi

run() { # side-name checkout pair
    # A run that fails its own checks exits 1 but still prints its object
    # (`correct: false`); the table reports it rather than stopping here.
    "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" --trace 0 2>"$out/$1-$3.err" \
        | tail -n 1 >"$out/$1-$3.json" || true
    echo "pair $3 $1: $(cut -c1-60 "$out/$1-$3.json")..." >&2
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
done

python3 - "$out" "$change/BENCHMARK.json" "$workload" "$pairs" "$seed" <<'PY'
import json, sys

out, decl, workload, pairs, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
metrics = [(m["name"], m["unit"], m["better"]) for m in json.load(open(decl))["end_to_end"]]
runs = {side: [json.load(open(f"{out}/{side}-{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}


def quartiles(values):
    """Median and the medians of the lower and upper halves."""
    v = sorted(values)
    mid = lambda w: (w[(len(w) - 1) // 2] + w[len(w) // 2]) / 2
    half = len(v) // 2
    return mid(v), mid(v[:half] or v), mid(v[len(v) - half:] or v)


def fmt(x):
    return f"{x:.4f}" if abs(x) < 10 else f"{x:.1f}"


print(f"{workload}, seed {seed}, {pairs} pairs (parent first on odd pairs), --trace 0")
print("| metric | parent median [q1, q3] | change median [q1, q3] | Δ median | change better |")
print("|---|---|---|---|---|")
listing = []
for name, unit, better in metrics:
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    (pm, p1, p3), (cm, c1, c3) = quartiles(p), quartiles(c)
    wins = sum((cv < pv) if better == "lower" else (cv > pv) for pv, cv in zip(p, c))
    ties = sum(cv == pv for pv, cv in zip(p, c))
    delta = f"{(cm - pm) / pm * 100:+.1f} %" if pm else "n/a"
    tied = f" ({ties} tied)" if ties else ""
    print(f"| `{name}` ({unit}, {better} is better) | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
          f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {delta} | {wins}/{pairs}{tied} |")
    if len(set(p + c)) == 1:
        listing.append(f"`{name}`: {p[0]!r} on every run of both sides")
    else:
        listing.append(f"`{name}` parent: {' '.join(fmt(x) for x in p)}")
        listing.append(f"`{name}` change: {' '.join(fmt(x) for x in c)}")
print()
print("Every run, in pair order:")
for line in listing:
    print(line)
print()
print("Change/parent ratio per pair, and the claim rule (choosing-metrics §8):")
need = -(-9 * pairs // 10)
for name, unit, better in metrics:
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    if 0 in p:
        print(f"`{name}`: a parent run reads 0, no ratios")
        continue
    ratios = [cv / pv for pv, cv in zip(p, c)]
    (pm, p1, p3), (cm, _, _) = quartiles(p), quartiles(c)
    wins = sum((cv < pv) if better == "lower" else (cv > pv) for pv, cv in zip(p, c))
    gap = (pm - cm) if better == "lower" else (cm - pm)
    met = wins >= need and gap > p3 - p1
    print(f"`{name}` ratios: {' '.join(f'{x:.4f}' for x in ratios)}; "
          f"median {quartiles(ratios)[0]:.4f}")
    print(f"`{name}` claim rule: wins {wins}/{pairs} (need {need}), median gap "
          f"{fmt(gap)} in the better direction vs parent spread {fmt(p3 - p1)}: "
          f"{'met' if met else 'not met'}")
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    correct = sum(bool(r["correct"]) for r in runs[side])
    print(f"{side}: failed {failed} of {attempted} attempted; correct in {correct}/{pairs} runs")
print(f"raw result objects: {out}")
PY
