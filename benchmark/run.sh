#!/usr/bin/env bash
# Builds what the benchmark measures and runs it.
#
#   benchmark/run.sh                       all five workloads, end to end
#   benchmark/run.sh --trace               all five, traced: per-layer metrics
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload; the last line of
#                                          standard output is the JSON result
#   benchmark/run.sh --quick               sizes / 8, one cycle: a smoke run
#
# Everything is built from source into $CARGO_TARGET_DIR (default
# .bench_build at the repository root); build output goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
bin="$CARGO_TARGET_DIR/release"

# Provenance for every output.  Looked up here so that the drivers spawn
# nothing but the programs under test.
if commit="$(git rev-parse HEAD 2>/dev/null)"; then
    [ -z "$(git status --porcelain 2>/dev/null)" ] || commit="$commit-dirty"
else
    commit=none
fi
export BHMARK_COMMIT="$commit"
BHMARK_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BHMARK_RUSTC

traced=0
prev=""
for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then traced=1; fi
    if [ "$prev" = "--trace" ] && [ "$arg" = "0" ]; then traced=0; fi
    prev="$arg"
done

# The programs under test, then the driver that only spawns them.  Explicit
# manifest paths: where there is no manifest cargo must fail, not walk up.
cargo build --release --offline --manifest-path Cargo.toml \
    -p barnes-hut-upc -p bhserve >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin bhmark >&2

driver=bhmark
if [ "$traced" = 1 ]; then
    # bhtrace links the workspace crates, so an API change there can break
    # it; that makes the per-layer numbers unavailable, not the benchmark.
    if ! cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin bhtrace >&2; then
        echo "run.sh: bhtrace does not build: per-layer metrics unavailable" >&2
        exit 3
    fi
    driver=bhtrace
fi

# The drivers kill the daemon they spawn on every return path; a signal to
# this script is the one path their drop guards never see.  Only that
# driver's own bhserve children are matched (-x: the exact name, never -f).
"$bin/$driver" --bin-dir "$bin" "$@" &
pid=$!
trap 'pkill -x -P "$pid" bhserve; kill "$pid" 2>/dev/null' INT TERM
wait "$pid"
