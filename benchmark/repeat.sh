#!/usr/bin/env bash
# Runs the whole benchmark twice, back to back, on one commit and prints how
# far each end-to-end metric of the second set is from the first, beside the
# metric's bound.  Exits non-zero when any difference exceeds its bound or a
# workload reported a failure.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
#   benchmark/repeat.sh --quick        sizes / 8, one cycle: checks that the
#                                      machinery runs, not for gating
set -uo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
out=benchmark/out
mkdir -p "$out"

status=0
for set in 1 2; do
    echo "== set $set" >&2
    benchmark/run.sh "$@" > "$out/set$set.txt" || status=$?
    grep -v '^RESULT ' "$out/set$set.txt"
done
"$CARGO_TARGET_DIR/release/bhmark" compare "$out/set1.txt" "$out/set2.txt" || status=$?
exit "$status"
