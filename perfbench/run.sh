#!/usr/bin/env bash
# Build the benchmark from the source tree it sits in, then run one
# workload. Arguments go to the benchmark unchanged, e.g.
#
#   bash perfbench/run.sh --workload full-suite --seed 1 --seconds 10 --trace 0
#
# The build lands in $CARGO_TARGET_DIR when that is set, else in _build;
# dune's shared cache is off so nothing is written outside the tree.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $(pwd) is not an fpgrind source tree" >&2
  exit 2
fi
build_dir="${CARGO_TARGET_DIR:-_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build_dir" \
  --display quiet ./perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
