#!/usr/bin/env bash
# Re-measure the simulator hot path and refresh the `current` section of
# BENCH_sim_hotpath.json. The `baseline` section is the recorded
# pre-optimization measurement (see the file's `method` note) and is
# preserved across runs so the speedup stays anchored to the same point.
#
# Usage: bench/run_sim_hotpath.sh [output.json]
#   BUILD_DIR overrides the build directory (default: <repo>/build).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${BUILD_DIR:-$repo_root/build}
out=${1:-$repo_root/BENCH_sim_hotpath.json}
bench_bin=$build_dir/bench/bench_sim_hotpath

if [[ ! -x $bench_bin ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target bench_sim_hotpath)" >&2
  exit 1
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

"$bench_bin" --benchmark_min_time=1 \
  --benchmark_out="$raw" --benchmark_out_format=json

python3 - "$raw" "$out" "$repo_root/BENCH_sim_hotpath.json" <<'EOF'
import json
import sys

raw_path, out_path, committed_path = sys.argv[1], sys.argv[2], sys.argv[3]
raw = json.load(open(raw_path))

results = {}
for b in raw['benchmarks']:
    entry = {'events_per_sec': round(b['events_per_sec'], 1)}
    for key in ('packets_per_sec', 'allocs_per_event', 'allocs_per_packet'):
        if key in b:
            entry[key] = round(b[key], 9)
    if 'hops_per_sec' in b:
        entry['ns_per_hop'] = round(1e9 / b['hops_per_sec'], 1)
    if 'triggered' in b:
        entry['triggered'] = bool(b['triggered'])
    results[b['name']] = entry

# The instrumented-but-unattached variant is tracked separately: its only
# job is the pairwise ratio against the plain hot path from the SAME run
# (the zero-overhead-when-disabled guarantee, bound: >= 0.97).
instrumented = results.pop('BM_LeafSpine_HotPath_Instrumented', None)
# The per-system variants (data-plane cost per packet-hop) go to their own
# sections, next to the recorded parent-commit measurement there: the MARS
# pipeline per backend under `mars`, the comparison systems under
# `baselines`.
mars_runs = {name: results.pop(name) for name in list(results)
             if name.startswith('BM_LeafSpine_HotPath_Mars/')}
baseline_runs = {name: results.pop(name) for name in list(results)
                 if 'ns_per_hop' in results[name]}

# Merge into the output file if it exists; otherwise seed a new file from
# the committed record so the baseline (and thus the speedup) carries over.
try:
    doc = json.load(open(out_path))
except FileNotFoundError:
    try:
        doc = json.load(open(committed_path))
        doc.pop('current', None)
        doc.pop('speedup_leaf_spine_events_per_sec', None)
    except FileNotFoundError:
        doc = {'benchmark': 'bench_sim_hotpath'}

doc.setdefault('current', {})['results'] = results
base = doc.get('baseline', {}).get('results', {}).get('BM_LeafSpine_HotPath')
cur = results.get('BM_LeafSpine_HotPath')
if base and cur:
    doc['speedup_leaf_spine_events_per_sec'] = round(
        cur['events_per_sec'] / base['events_per_sec'], 3)
if instrumented and cur:
    doc['instrumented'] = {
        'description': 'BM_LeafSpine_HotPath_Instrumented: same replay with '
                       'a MetricsRegistry of lazy port gauges (never read) '
                       'and an idle SpanTracer constructed but unattached',
        'results': {'BM_LeafSpine_HotPath_Instrumented': instrumented},
    }
    doc['instrumented_unattached_ratio'] = round(
        instrumented['events_per_sec'] / cur['events_per_sec'], 3)

if baseline_runs:
    doc.setdefault('baselines', {})['current'] = {'results': baseline_runs}
if mars_runs:
    doc.setdefault('mars', {})['current'] = {'results': mars_runs}

json.dump(doc, open(out_path, 'w'), indent=2)
print(f"wrote {out_path}")
EOF
