#!/bin/sh
# Build the benchmark driver and the daemon from source, then run the
# driver with this script's arguments.  Run from the repository root:
#
#   sh perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib/server ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of the rightsizing repository" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet \
  ./perfbench/main.exe ./bin/rightsizer.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
