#!/usr/bin/env bash
# Fails when a gtest source under tests/ skips a test at run time. A
# skipped case checks nothing; a randomized suite must instead draw an
# input it can check (see NextTerminatingCase in src/testing/generator.h)
# and fail when it cannot.
#
# Usage: check_no_skips.sh [repo-root]   (default: the repo holding it)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# The macro's name, split so that this script does not match itself.
macro="GTEST_""SKIP"

# grep exits 0 on a match, 1 on none, and 2 when it cannot read a file
# (or the glob matched nothing); only 1 means the tree is clean.
rc=0
hits="$(grep -n "$macro" tests/*.cc)" || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "$hits" >&2
  echo "check_no_skips: tests/*.cc must not skip; assert instead" >&2
  exit 1
fi
if [ "$rc" -ne 1 ]; then
  echo "check_no_skips: grep failed (status $rc); nothing was checked" >&2
  exit 2
fi
echo "check_no_skips: no test skips"
