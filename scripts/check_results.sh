#!/usr/bin/env bash
# Results golden tier: runs every lln-bench binary in release and
# byte-diffs its stdout against results/<bin>.txt. Every run is seeded
# and deterministic, so a difference is a behaviour change: re-commit
# the file and its EXPERIMENTS.md row in the same change.
#
#   scripts/check_results.sh            # compare
#   scripts/check_results.sh --update   # rewrite results/ from this tree
#
# table_memory's struct rows (and the total built on them) are
# std::mem::size_of values, which a new toolchain may change; they are
# left out of the comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
if [ "${1:-}" = "--update" ]; then
    update=1
fi

strip() { # <bin> <file>
    if [ "$1" = table_memory ]; then
        grep -Ev '\(struct\) |^total per active connection' "$2"
    else
        cat "$2"
    fi
}

cargo build --release --quiet -p lln-bench --bins
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    cargo run --release --quiet -p lln-bench --bin "$bin" > "$out/$bin.txt"
    if [ "$update" = 1 ]; then
        cp "$out/$bin.txt" "results/$bin.txt"
    elif [ ! -f "results/$bin.txt" ]; then
        echo "results/$bin.txt is missing" >&2
        status=1
    elif ! diff -u <(strip "$bin" "results/$bin.txt") <(strip "$bin" "$out/$bin.txt"); then
        echo "$bin: output differs from results/$bin.txt" >&2
        status=1
    fi
done
exit "$status"
