#!/usr/bin/env bash
# Results golden tier: runs every lln-bench binary and every example in
# release and byte-diffs its stdout against results/<bin>.txt (an
# example's against results/example_<name>.txt). Every run is seeded and
# deterministic, so a difference is a behaviour change: re-commit the
# file and its EXPERIMENTS.md row in the same change.
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

# check <name> <command...>: runs the command into $out/<name>.txt and
# compares it with results/<name>.txt (or replaces that file).
check() {
    local name=$1
    shift
    "$@" > "$out/$name.txt"
    if [ "$update" = 1 ]; then
        cp "$out/$name.txt" "results/$name.txt"
    elif [ ! -f "results/$name.txt" ]; then
        echo "results/$name.txt is missing" >&2
        status=1
    elif ! diff -u <(strip "$name" "results/$name.txt") <(strip "$name" "$out/$name.txt"); then
        echo "$name: output differs from results/$name.txt" >&2
        status=1
    fi
}

cargo build --release --quiet -p lln-bench --bins
cargo build --release --quiet --examples
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    check "$bin" cargo run --release --quiet -p lln-bench --bin "$bin"
done
for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    check "example_$name" cargo run --release --quiet --example "$name"
done
exit "$status"
