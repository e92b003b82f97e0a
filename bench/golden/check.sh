#!/usr/bin/env bash
# Regenerates every deterministic bench and example output and diffs it
# against the committed copy in this directory. A change that reorders
# or alters any of them (a hash-map iteration order leaking into a
# table, a verdict flipping) fails with the diff.
#
#   bench/golden/check.sh           # diff (exit 1 on any difference)
#   bench/golden/check.sh --bless   # rewrite the committed copies
#
# Run from the repository root after `cargo build --release`.
# table_components and fig_api_churn are left out on purpose: they
# count source lines, so every code change moves them.
set -euo pipefail

dir=$(cd "$(dirname "$0")" && pwd)
bless=0
[ "${1:-}" = --bless ] && bless=1

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

bin() { cargo run --release -q -p lxfi-bench --bin "$@"; }
ex() { cargo run --release -q --example "$1"; }

bin verify_guards >"$out/verify_guards.txt"
bin table_security >"$out/table_security.txt"
bin table_sfi >"$out/table_sfi.txt"
bin table_netperf >"$out/table_netperf.txt"
bin table_annotations >"$out/table_annotations.txt"
bin chaos -- --recoveries 40 >"$out/chaos_40.txt"
bin server -- --requests 256 >"$out/server_256_interp.txt"
bin server -- --requests 256 --backend compiled >"$out/server_256_compiled.txt"
for e in quickstart security_eval exploit_rds multi_principal netdriver; do
    ex "$e" >"$out/example_$e.txt"
done

if [ $bless = 1 ]; then
    cp "$out"/*.txt "$dir/"
    echo "blessed $(ls "$out" | wc -l) golden outputs"
    exit 0
fi

status=0
for f in "$out"/*.txt; do
    name=$(basename "$f")
    if ! diff -u "$dir/$name" "$f"; then
        echo "golden mismatch: $name" >&2
        status=1
    fi
done
[ $status = 0 ] && echo "all $(ls "$out" | wc -l) golden outputs match"
exit $status
