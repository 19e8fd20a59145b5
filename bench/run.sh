#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Everything the build writes — binary, Go build cache,
# the go command's temporary and per-user files — stays under bench/.build,
# so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/.build"
mkdir -p "$build/tmp"
# The stamp's commit, where the checkout is a git repository.
commit=unknown
if [ -e ../.git ]; then
	commit=$(git -C .. rev-parse HEAD 2>/dev/null || echo unknown)
fi
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off \
	go build -ldflags "-X main.commit=$commit" -o "$build/meissa-bench" . >&2
exec "$build/meissa-bench" "$@"
