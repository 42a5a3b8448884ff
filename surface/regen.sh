#!/usr/bin/env bash
# Rewrites surface/ — the committed deterministic surface — from a clean
# results/. Every file it writes is a seeded, virtual-clock output that
# must be byte-identical on any host and any core count; CI reruns this
# script (unpinned and under `taskset -c 0`) and fails if `git status
# --porcelain surface/` shows any change. To move the surface on purpose,
# rerun it and commit the diff in a commit of its own that says why.
#
#   surface/regen.sh
#
# Takes no arguments and reads no environment. Each run is wrapped in
# `timeout`, so a hang fails instead of stalling.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

run() { timeout 600 cargo run --release --locked --quiet "$@"; }

# The virtual side of a perf JSON document (a `measure` detail line, or
# results/perf.json): each workload's name, digest and gate failures,
# then one `name value unit` line per vs / vratio / count metric. Values
# are the bytes perf wrote, every digit of the f64. Host rows are left
# out, and so is `serve.engine.scratch_reuses` on threaded-numeric
# (catalog.rs lists it in HOST_TIMED). $1 names the workload of a
# document that does not name it itself.
virtual_rows() {
    tr -d '\n' \
        | grep -oE '"(name|virtual_digest)": ?"[^"]*"|"gate_failures": ?\[[^]]*\]|"[a-z0-9_.]+": ?\{ *"value": ?[^,]*, *"unit": ?"(vs|vratio|count)"' \
        | awk -F'"' -v workload="${1-}" '
            $2 == "name" { workload = $4; print workload; next }
            $2 == "virtual_digest" { print $2, $4; next }
            $2 == "gate_failures" { sub(/^[^[]*/, ""); print "gate_failures", $0; next }
            workload == "threaded-numeric" && $2 == "serve.engine.scratch_reuses" { next }
            { value = $5; gsub(/[ :,]/, "", value); print $2, value, $8 }
        '
}

timeout 1800 cargo build --release --locked --workspace --bins --examples
find surface -type f ! -name regen.sh -delete
rm -rf results

run -p s2c2-bench --bin figures -- --quick all > surface/figures.txt
sha256sum results/* > surface/figures.sha256

for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    run --example "$name" > "surface/example.$name.txt"
done

for workload in sim-steady sim-volatile threaded-numeric paper-logreg; do
    run -p s2c2-bench --bin perf -- measure --workload "$workload" --seed 42 --seconds 0 --trace 1 \
        | grep '^detail ' | virtual_rows "$workload" > "surface/perf.$workload.txt"
done

# Its exit code carries the quick-scale gates, traced = untraced included.
run -p s2c2-bench --bin perf -- run --quick --seed 42 > /dev/null
virtual_rows < results/perf.json > surface/perf.quick.txt
