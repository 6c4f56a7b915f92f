#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs (binary, Go build cache, and
# the go command's home and config directories) go to .bench_build/ and
# traced-run files to .bench_out/, both under the current directory. The
# build fails, and the script exits non-zero, when the phylo module it
# benchmarks is not present one directory above perfbench/.
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}"
export HOME="${build}/home"
export XDG_CONFIG_HOME="${HOME}/.config"
export GOPATH="${build}/gopath"
export GOCACHE="${build}/gocache"
export GOTOOLCHAIN=local
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
