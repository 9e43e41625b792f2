#!/usr/bin/env bash
# Writes the 13 deterministic `figures` artifacts into <out-dir>:
#   resilience, recovery and scaling causal traces (--trace);
#   the consolidation sweep's merged fleet trace (GSS_FLEET_TRACE);
#   fleetwatch report, trace and Prometheus snapshot;
#   bigfleet report, sampled and full traces and Prometheus snapshot;
#   triage report and Prometheus snapshot.
# Each file is byte-identical across reruns and at any GSS_THREADS, so two
# runs can be compared with `cmp`: the same tree at two worker counts, or
# two trees (run the script from each tree's root).
#
# Usage, from a repository root whose `figures` is built
# (`cargo build --release -p gss-bench --bin figures`):
#   scripts/artifacts.sh <out-dir>
set -euo pipefail

out=${1:?usage: scripts/artifacts.sh <out-dir>}
figures=./target/release/figures
if [ ! -x "$figures" ]; then
    echo "error: $figures not found; build it first" >&2
    exit 1
fi
mkdir -p "$out"

for id in resilience recovery scaling; do
    "$figures" --quick --trace "$out/$id-trace.json" "$id" >/dev/null
done
GSS_FLEET_TRACE="$out/fleet-trace.json" "$figures" --quick consolidate >/dev/null
"$figures" fleetwatch --quick --out "$out/fleetwatch.json" \
    --trace "$out/fleetwatch-trace.json" --prom "$out/fleetwatch.prom" >/dev/null
"$figures" bigfleet --quick --out "$out/bigfleet.json" \
    --trace "$out/bigfleet-sampled-trace.json" \
    --full-trace "$out/bigfleet-full-trace.json" --prom "$out/bigfleet.prom" >/dev/null
"$figures" triage --quick --out "$out/triage.json" --prom "$out/triage.prom" >/dev/null
