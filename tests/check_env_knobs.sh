#!/usr/bin/env bash
# Fails when src/ or tools/ reads an environment variable other than the
# documented ones. Every behaviour the program has must be reachable
# through an option or a command, not a hidden knob.
#
# Usage: check_env_knobs.sh [repo-root]   (default: the repo holding it)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# The documented reads, as "file:VARIABLE" with paths from the repo root.
allowed=(
  "src/core/fault.cc:GEREL_FAULT"          # fault-injection plan (DESIGN.md §9)
  "src/testing/differential.cc:TMPDIR"     # the harness's scratch directory
)

status=0
# Any *getenv( call (getenv, std::getenv, secure_getenv), one per line.
while IFS= read -r hit; do
  file="${hit%%:*}"
  rest="${hit#*:}"
  line="${rest%%:*}"
  code="${rest#*:}"
  var="$(sed -nE 's/.*getenv[[:space:]]*\([[:space:]]*"([^"]*)".*/\1/p' <<<"$code")"
  if [[ -z "$var" ]]; then
    echo "$file:$line: getenv without a string-literal name: $code" >&2
    status=1
    continue
  fi
  ok=0
  for entry in "${allowed[@]}"; do
    if [[ "$entry" == "$file:$var" ]]; then ok=1; fi
  done
  if [[ $ok -eq 0 ]]; then
    echo "$file:$line: undocumented environment variable $var" >&2
    status=1
  fi
done < <(grep -rnE 'getenv[[:space:]]*\(' src tools \
           --include='*.cc' --include='*.h' || true)

if [[ $status -eq 0 ]]; then
  echo "check_env_knobs: only documented environment variables are read"
fi
exit "$status"
