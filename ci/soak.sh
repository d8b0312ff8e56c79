#!/bin/sh
# Standing soak for the concurrent suites.
#
#     ci/soak.sh [N]        (N iterations, default 10)
#
# Builds the test binaries once, then runs each of them N times with
# RUST_TEST_THREADS set to the number of cores: the skiphash_harness
# library tests (snapshot_scan included) and the linearizability,
# composed_txns, map_equivalence and reclamation_stress suites.  Stops at
# the first failure and prints the iteration, the suite, the failing test
# names and the tail of the suite's output.  A single green run of a
# concurrent suite proves little; run this before changing stm::snapshot,
# tcell, txn, the epoch shim, or any scan (see docs/VERIFICATION.md).
set -eu

N=${1:-10}
cd "$(dirname "$0")/.."
THREADS=$(nproc)
LOG=$(mktemp)
BUILD=$(mktemp)
trap 'rm -f "$LOG" "$BUILD"' EXIT

# `cargo test --no-run` names each built test binary on an "Executable" line.
if ! cargo test --no-run -p skiphash_harness --lib >"$BUILD" 2>&1 ||
    ! cargo test --no-run --test linearizability --test composed_txns \
        --test map_equivalence --test reclamation_stress >>"$BUILD" 2>&1; then
    cat "$BUILD"
    echo "soak: build failed"
    exit 1
fi
BINS=$(sed -n 's/^ *Executable .*(\(.*\))$/\1/p' "$BUILD")
if [ "$(echo "$BINS" | wc -l)" -ne 5 ]; then
    cat "$BUILD"
    echo "soak: expected 5 test binaries, found: $BINS"
    exit 1
fi

i=1
while [ "$i" -le "$N" ]; do
    for bin in $BINS; do
        suite=$(basename "$bin")
        suite=${suite%-*}
        if ! RUST_TEST_THREADS=$THREADS "$bin" >"$LOG" 2>&1; then
            failed=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$LOG" | paste -sd ' ' -)
            tail -n 40 "$LOG"
            echo "soak: iteration $i of $N failed in $suite: ${failed:-no test reported FAILED (the binary crashed)}"
            exit 1
        fi
    done
    echo "soak: iteration $i of $N passed ($THREADS threads)"
    i=$((i + 1))
done
echo "soak: all $N iterations passed"
