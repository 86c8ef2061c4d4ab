#!/usr/bin/env bash
# Soak run of the seeded differential suites.
#
# Each named integration suite of socialreach-core runs in release mode
# once per proptest seed, with PROPTEST_CASES raised, so its property
# tests walk far more (and fresh) cases than the tier-1 run does. The
# proptest shim reads both variables; a failing case prints the
# PROPTEST_SEED/PROPTEST_CASES pair that replays it alone.
#
# Usage:
#   scripts/soak.sh [-n SEEDS] [-c CASES] [-s "SEED ..."] [SUITE ...]
#
#   -n SEEDS   fresh seeds to draw from /dev/urandom (default 20)
#   -c CASES   PROPTEST_CASES for every run (default 256)
#   -s LIST    run exactly these seeds instead (decimal or 0x hex),
#              e.g. to replay the failing seeds of an earlier soak
#   SUITE      integration suites to run (default: the suites with
#              property tests: differential_matrix query_differential
#              csr_incremental csr_differential plan_properties
#              engine_equivalence carminati_equivalence)
#
# Prints one row per (seed, suite) run, then every failing seed, and
# exits non-zero when any run fails.
set -euo pipefail

usage() { sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'; }

count=20
cases=256
seeds=""
while getopts "n:c:s:h" opt; do
    case "$opt" in
        n) count=$OPTARG ;;
        c) cases=$OPTARG ;;
        s) seeds=$OPTARG ;;
        h) usage; exit 0 ;;
        *) usage >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
suites=("$@")
if [ "${#suites[@]}" -eq 0 ]; then
    suites=(differential_matrix query_differential csr_incremental
        csr_differential plan_properties engine_equivalence
        carminati_equivalence)
fi
if [ -z "$seeds" ]; then
    for _ in $(seq "$count"); do
        seeds+="$(od -An -N8 -tu8 /dev/urandom | tr -d ' ') "
    done
fi

cd "$(git rev-parse --show-toplevel)"
build=()
for s in "${suites[@]}"; do build+=(--test "$s"); done
cargo test --release -q -p socialreach-core "${build[@]}" --no-run

log=$(mktemp "${TMPDIR:-/tmp}/socialreach-soak.XXXXXX")
trap 'rm -f "$log"' EXIT
failed=()
printf '%-22s %-24s %s\n' seed suite verdict
for seed in $seeds; do
    for s in "${suites[@]}"; do
        if PROPTEST_SEED=$seed PROPTEST_CASES=$cases \
            cargo test --release -q -p socialreach-core --test "$s" >"$log" 2>&1; then
            printf '%-22s %-24s %s\n' "$seed" "$s" ok
        else
            printf '%-22s %-24s %s\n' "$seed" "$s" FAILED
            grep -E "panicked|PROPTEST_SEED" "$log" | head -5 | sed 's/^/    /'
            failed+=("$seed:$s")
        fi
    done
done

if [ "${#failed[@]}" -gt 0 ]; then
    echo "failing seeds (seed:suite), PROPTEST_CASES=$cases:"
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "all $(echo $seeds | wc -w) seeds passed ${suites[*]} at PROPTEST_CASES=$cases"
