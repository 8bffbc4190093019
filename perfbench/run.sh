#!/bin/sh
# Build the benchmark from source (release profile) and run it:
#   sh perfbench/run.sh --workload fabric --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout of the repository.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs the repository sources next to it (dune-project, lib/)" >&2
  exit 2
fi
dune build --root . --profile release ./perfbench/main.exe >&2
if [ -z "$PERFBENCH_COMMIT" ]; then
  PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null) ||
    PERFBENCH_COMMIT="tree-$(find lib -type f -name '*.ml*' | sort | xargs cat | cksum | cut -d' ' -f1)"
fi
export PERFBENCH_COMMIT
exec ./_build/default/perfbench/main.exe "$@"
