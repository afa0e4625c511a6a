#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments (see main.go). Build output, the Go build cache and
# the Go tool's own state all stay under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build/perfbench"
mkdir -p "$build"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0 GOTELEMETRY=off

# Build output goes to stderr: standard output carries only the result.
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
