#!/bin/sh
# Builds the rtlb CLI and the benchmark from this checkout's sources, then
# runs one benchmark workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to .bench_build/ and run files to .perfbench_work/,
# both inside the checkout.  The result is the last line of stdout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/rtlb_cli.ml ]; then
  echo "perfbench: run from the root of a full rtlb source checkout" >&2
  exit 2
fi
build=.bench_build
# No shared dune cache, and the compiler's temporary files under the build
# directory: everything the build writes stays in the checkout.
mkdir -p "$build/tmp"
DUNE_CACHE=disabled XDG_CACHE_HOME="$PWD/$build/xdg-cache" TMPDIR="$PWD/$build/tmp" \
  dune build --root . --build-dir "$build" --profile release \
  ./bin/rtlb_cli.exe ./perfbench/rtlb_bench.exe 1>&2
exec "$build/default/perfbench/rtlb_bench.exe" \
  --cli "$build/default/bin/rtlb_cli.exe" "$@"
