#!/usr/bin/env bash
# Regenerates every table/figure into results/ (text + CSV).
# Usage: scripts/run_all_experiments.sh [build-dir] [--fast]
set -euo pipefail

build_dir="${1:-build}"
fast_flag="${2:-}"

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: '$build_dir/bench' not found; build first (cmake -B build -G Ninja && cmake --build build)" >&2
  exit 1
fi

out_dir="results"
mkdir -p "$out_dir"

for bench in "$build_dir"/bench/*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name="$(basename "$bench")"
  echo "== $name"
  "$bench" ${fast_flag:+--fast} > "$out_dir/$name.txt"
  "$bench" ${fast_flag:+--fast} --csv > "$out_dir/$name.csv"
done

echo "done: $(ls "$out_dir" | wc -l) files in $out_dir/"
