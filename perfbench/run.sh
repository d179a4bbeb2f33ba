#!/usr/bin/env bash
# Build the locald daemon and the benchmark harness from the sources of
# the checkout this script sits in, then run the harness from the
# checkout's root:
#
#   bash perfbench/run.sh --workload coverage|certify|serve-hot|serve-churn \
#                         --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the harness's last line of
# standard output is its JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no locald sources (dune-project, lib/, bin/) next to perfbench/" >&2
  exit 2
fi
dune build --root . --build-dir _build ./bin/locald.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
