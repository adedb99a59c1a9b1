#!/usr/bin/env bash
# Builds the benchmark against the repository it sits in and runs it with the
# given arguments (see main.go for the flags). Everything it writes stays in
# the checkout: the Go build cache and the binary under .bench_build/,
# scratch files and traces under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark is a package of the repository's module and builds only inside it" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home" bench/out
# HOME moves too, so that the go command's default GOPATH and its telemetry
# counters land in the checkout as well.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

bin="$build/wavepipe-bench"
stale() {
	[ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o -type f \
		\( -name '*.go' -o -name go.mod -o -name '*.sp' \) -newer "$bin" -print -quit)" ]
}
if stale; then
	commit=unknown
	if [ -e .git ]; then
		commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	fi
	go build -ldflags "-X main.commit=$commit" -o "$bin" ./bench
fi
exec "$bin" "$@"
