#!/usr/bin/env bash
# Repository benchmark entry point. Run from the repository root:
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# It builds fpserver, fpstudy and the harness from the checkout it runs in,
# keeping every build and scratch file under .e2ebench_build/, then hands
# all arguments to the harness (e2ebench/main.go), whose last stdout line is
# the JSON result.
set -euo pipefail
root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/fpserver ] || [ ! -d cmd/fpstudy ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/fpserver, cmd/fpstudy not found)" >&2
	exit 2
fi
out="$root/.e2ebench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/" ./cmd/fpserver ./cmd/fpstudy >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -root "$root" -bin "$out/bin" -tmp "$out/tmp" "$@"
