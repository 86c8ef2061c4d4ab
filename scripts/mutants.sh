#!/usr/bin/env bash
# Mutation check for the read seam (`AccessService::read`: the split of
# a batch by kind, the forced or default route) and the decision layer
# behind it (the grant rule), the partitioned read and write paths, the
# durability layer (WAL scanning, replay, snapshot export), the
# engines' path semantics (depth bounds, the plan compiler's step
# canonicalization, the forward walk — the one-path plan on the plan
# engine — with its seed and its stop member, and the single graph's
# check walking from both ends: its meet and its reversed layer
# table), snapshot publication (the
# copy-on-write page patch, the publisher's currency check), the
# decision cache (its generation bump on every write, its whole-key
# match), and the read planner (its argmin, a caller-forced route
# outranking its pick).
#
# Each tests/mutants/*.patch is one small, deliberate bug. Its header
# names the bug and the test suites that must kill it:
#
#   Bug: forget ghosts staged earlier in the batch
#   Suites: remote_conformance remote_faults
#
# A suite name is an integration test of socialreach-core (`--test
# <name>`), or `lib` for the crate's unit tests. For every patch the
# script applies it to a scratch `git worktree` of HEAD, builds the named
# suites in debug mode (the epoch bound is a debug assertion), runs them,
# and counts the mutant as killed when at least one suite fails. It then
# restores the worktree and moves on, so the build stays incremental.
#
# Usage:
#   scripts/mutants.sh                 # every patch under tests/mutants/
#   scripts/mutants.sh tests/mutants/05-*.patch
#
# Environment:
#   MUTANTS_DIR     where the worktree and its cargo target live
#                   (default: a new directory under ${TMPDIR:-/tmp})
#
# Prints one row per mutant and exits non-zero when a mutant survives,
# its patch no longer applies, or the mutated code does not build.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
cd "$repo"
if [ "$#" -gt 0 ]; then
    patches=("$@")
else
    patches=(tests/mutants/*.patch)
fi

dir=${MUTANTS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/socialreach-mutants.XXXXXX")}
tree="$dir/tree"
export CARGO_TARGET_DIR="$dir/target"
git worktree add --detach --force "$tree" HEAD >/dev/null
cleanup() { git -C "$repo" worktree remove --force "$tree" >/dev/null 2>&1 || true; }
trap cleanup EXIT

suite_args() {
    if [ "$1" = lib ]; then echo "--lib"; else echo "--test $1"; fi
}

survivors=0
printf '%-40s %-8s %s\n' mutant verdict "failing suites (of those named)"
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    suites=$(sed -n 's/^Suites: //p' "$patch")
    git -C "$tree" checkout --quiet --force HEAD -- .
    if ! git -C "$tree" apply "$repo/$patch" 2>/dev/null; then
        printf '%-40s %-8s %s\n' "$name" STALE "patch does not apply"
        survivors=$((survivors + 1))
        continue
    fi
    args=()
    for s in $suites; do
        read -r -a one <<<"$(suite_args "$s")"
        args+=("${one[@]}")
    done
    if ! (cd "$tree" && cargo test -q -p socialreach-core "${args[@]}" --no-run >/dev/null 2>&1); then
        printf '%-40s %-8s %s\n' "$name" BROKEN "mutated code does not build"
        survivors=$((survivors + 1))
        continue
    fi
    failed=()
    for s in $suites; do
        read -r -a one <<<"$(suite_args "$s")"
        if ! (cd "$tree" && timeout 600 cargo test -q -p socialreach-core "${one[@]}" >/dev/null 2>&1); then
            failed+=("$s")
        fi
    done
    if [ "${#failed[@]}" -gt 0 ]; then
        printf '%-40s %-8s %s\n' "$name" killed "${failed[*]} (of: $suites)"
    else
        printf '%-40s %-8s %s\n' "$name" SURVIVED "none (of: $suites)"
        survivors=$((survivors + 1))
    fi
done
git -C "$tree" checkout --quiet --force HEAD -- .
exit $((survivors > 0))
