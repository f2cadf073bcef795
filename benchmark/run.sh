#!/usr/bin/env bash
# ppbench: the repository's one benchmark command (see README.md).
#
#   benchmark/run.sh --workload W --seed S --seconds X --trace 0|1   one run
#   benchmark/run.sh [--seed S] [--label L] [--quick]                every workload
#   benchmark/run.sh compare A/metrics.tsv B/metrics.tsv
#
# Builds the harness from source on first use (into CARGO_TARGET_DIR when
# the caller set it, benchmark/target otherwise) and passes every argument
# through. No `cd`: a relative CARGO_TARGET_DIR keeps meaning what the
# caller meant.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export PPBENCH_CALLER_DIR="$PWD"
exec cargo bench --quiet --offline --manifest-path "$here/Cargo.toml" --bench ppbench -- "$@"
