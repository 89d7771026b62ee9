#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash fsbench/run.sh --workload selfjoin-zipf --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary, spans and
# index files all go to .bench_build/ there. The last line of standard output
# is the JSON result; build output goes to standard error.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
if [ ! -f "$here/../go.mod" ]; then
	echo "fsbench: no fsjoin module in $(dirname "$here"); run from a full checkout" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	TMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$out/bin/fsbench" .) >&2
exec "$out/bin/fsbench" -workdir "$out/runs" "$@"
