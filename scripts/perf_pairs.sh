#!/usr/bin/env bash
# Alternating before/after benchmark pairs: builds perfbench at git
# revision <rev> and from the working tree, each in its own temporary
# copy with its own target directory, then runs the two builds in turn,
# N times per workload, and prints each side's `sim_speed` median and
# interquartile range and how many pairs the working tree won.
#
#   scripts/perf_pairs.sh <rev> [-n N] [-s S] [-w w1,w2,...] [--seed SEED]
#
#   -n      pairs per workload (default 10)
#   -s      measuring time per run in wall seconds, perfbench --seconds (default 5)
#   -w      comma-separated workloads (default: all four)
#   --seed  passed to every run (default: each workload's pinned seed)
#
# Runs are `perfbench --trace 0`. Any CARGO_PROFILE_RELEASE_* variable
# in the environment (for example CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1)
# applies to both builds.
# Untracked files that .gitignore does not exclude are part of the
# working-tree copy.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '7,13p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
seconds=5
workloads=bulk-1hop,chain-3hop,anemometer-tree,syn-frag-flood
seed=()
while [ $# -gt 0 ]; do
    case "$1" in
        -n) pairs=$2; shift 2 ;;
        -s) seconds=$2; shift 2 ;;
        -w) workloads=$2; shift 2 ;;
        --seed) seed=(--seed "$2"); shift 2 ;;
        *) usage ;;
    esac
done
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
    echo "unknown revision: $rev" >&2
    exit 2
}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base" "$tmp/work"
git archive "$rev" | tar -x -C "$tmp/base"
git ls-files --cached --others --exclude-standard -z \
    | tar --null --ignore-failed-read -T - -c 2> /dev/null \
    | tar -x -C "$tmp/work"

env | grep '^CARGO_PROFILE_RELEASE_' | sed 's/^/build setting: /' || true
for side in base work; do
    echo "building $side ..." >&2
    cargo build --release --quiet --offline \
        --manifest-path "$tmp/$side/perfbench/Cargo.toml" \
        --target-dir "$tmp/$side/target" > "$tmp/$side.log" 2>&1 || {
        cat "$tmp/$side.log" >&2
        exit 1
    }
done

# sim_speed of one run of build <side> on workload <w>.
run() {
    "$tmp/$1/target/release/perfbench" --workload "$2" --seconds "$seconds" \
        --trace 0 "${seed[@]}" \
        | tail -n 1 \
        | sed -n 's/.*"sim_speed": {"value": \([^,]*\),.*/\1/p'
}

# Median, quartiles and IQR of the numbers on stdin, one per line.
stats() {
    sort -g | awk '
        { v[NR - 1] = $1 }
        function q(p,   h, k) {
            h = (NR - 1) * p; k = int(h)
            return k + 1 < NR ? v[k] + (h - k) * (v[k + 1] - v[k]) : v[k]
        }
        END { printf "median %.0f  IQR %.0f (%.0f-%.0f)", q(0.5), q(0.75) - q(0.25), q(0.25), q(0.75) }'
}

echo "perf pairs: $rev vs working tree, $pairs pairs x $seconds s, ${seed[*]:-pinned seeds}"
IFS=, read -r -a list <<< "$workloads"
for w in "${list[@]}"; do
    base=()
    work=()
    won=0
    for ((k = 0; k < pairs; k++)); do
        # Alternate which side runs first, so neither always runs warm.
        if ((k % 2 == 0)); then
            b=$(run base "$w")
            t=$(run work "$w")
        else
            t=$(run work "$w")
            b=$(run base "$w")
        fi
        [ -n "$b" ] && [ -n "$t" ] || {
            echo "$w: a run printed no sim_speed" >&2
            exit 1
        }
        base+=("$b")
        work+=("$t")
        won=$((won + $(awk -v b="$b" -v t="$t" 'BEGIN { print (t > b) }')))
    done
    echo "$w sim_speed (s/s)"
    echo "  $rev: $(printf '%s\n' "${base[@]}" | stats)"
    echo "  tree: $(printf '%s\n' "${work[@]}" | stats)"
    echo "  pairs won by the tree: $won/$pairs"
done
