#!/bin/sh
# check_tsa.sh: proves the compile-time half of the lock discipline.
#
# The discipline has two enforcement layers (see src/common/mutex.h and
# DESIGN.md section 14): clang Thread Safety Analysis at compile time,
# and the lock-rank deadlock detector at runtime (tests/mutex_test.cc).
# This script is the compile-time proof, in two steps:
#
#   1. Negative-compile harness over tests/tsa/:
#      - clean_control.cc MUST compile (otherwise the harness itself is
#        broken and a failing violation snippet proves nothing);
#      - every violation_*.cc MUST fail to compile, AND the diagnostic
#        must actually come from -Wthread-safety (a snippet dying to a
#        typo would otherwise pass as a false negative).
#   2. Full-tree build with clang, -Wthread-safety promoted to an error:
#      every annotated subsystem in src/ must analyze clean.
#
# Clang is required (gcc has no thread-safety analysis); on toolchains
# without it the script prints a notice and exits 77 ("skipped", the
# automake test convention) — nothing was proven, so it must not read
# as a pass. The runtime detector and the netclus-lint no-raw-mutex
# rule still hold the line. Exit status: 0 proven, 1 findings, 77
# skipped. Point NETCLUS_CLANGXX at a specific clang++ to override
# lookup.
set -u
cd "$(dirname "$0")/.."

CLANGXX=${NETCLUS_CLANGXX:-clang++}
if ! command -v "$CLANGXX" >/dev/null 2>&1; then
  echo "check_tsa: $CLANGXX not found; skipping thread-safety analysis" \
       "(runtime lock-rank detector + netclus-lint no-raw-mutex rule" \
       "still enforce the discipline)"
  exit 77
fi

failures=0
fail() {
  printf 'check_tsa: %s\n' "$*" >&2
  failures=$((failures + 1))
}

TSA_FLAGS="-std=c++20 -Isrc -Wthread-safety -Werror -fsyntax-only"

# --- Layer 1a: the clean control must compile -------------------------
echo "check_tsa: [1a] positive control tests/tsa/clean_control.cc"
# shellcheck disable=SC2086 — TSA_FLAGS is a deliberate word list.
if ! "$CLANGXX" $TSA_FLAGS tests/tsa/clean_control.cc; then
  fail "clean_control.cc failed to compile — harness broken, violation results are meaningless"
fi

# --- Layer 1b: every seeded violation must be rejected ----------------
for f in tests/tsa/violation_*.cc; do
  echo "check_tsa: [1b] seeded violation $f must fail"
  # shellcheck disable=SC2086
  out=$("$CLANGXX" $TSA_FLAGS "$f" 2>&1)
  status=$?
  if [ "$status" -eq 0 ]; then
    fail "$f compiled clean — the analysis missed a seeded violation"
  elif ! printf '%s\n' "$out" | grep -q 'thread-safety'; then
    fail "$f failed for the wrong reason (no -Wthread-safety diagnostic):
$out"
  fi
done

# --- Layer 2: full-tree clang build, -Wthread-safety as errors --------
# A dedicated build tree: the default build/ belongs to the host
# toolchain and must not be reconfigured under it. -Werror is already on
# by default (NETCLUS_WERROR), which promotes -Wthread-safety findings
# to build failures.
echo "check_tsa: [2] full-tree clang build with -Wthread-safety -Werror"
GEN=""
if command -v ninja >/dev/null 2>&1 && [ ! -f build-tsa/CMakeCache.txt ]; then
  GEN="-G Ninja"
fi
# shellcheck disable=SC2086 — GEN is empty or a flag pair.
if ! cmake -B build-tsa -S . $GEN \
       -DCMAKE_CXX_COMPILER="$CLANGXX" >/dev/null; then
  fail "cmake configure with $CLANGXX failed"
elif ! cmake --build build-tsa -j "$(nproc)"; then
  fail "full-tree clang build reported thread-safety (or other) errors"
fi

if [ "$failures" -gt 0 ]; then
  echo "check_tsa: FAILED ($failures finding(s))" >&2
  exit 1
fi
echo "check_tsa: OK (control compiled; all seeded violations rejected; tree analyzes clean)"
