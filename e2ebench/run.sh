#!/usr/bin/env bash
# Builds the e2ebench driver from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload city-loaded --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the traced run's spans stay inside
# the checkout, under .bench_build. Nothing is fetched: the driver's only
# dependency is the repository's own module, found through the replace
# directive in e2ebench/go.mod, so the build fails (and the driver
# prints no result) in a tree that lacks it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd e2ebench && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
