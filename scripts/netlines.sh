#!/usr/bin/env bash
# netlines.sh — Go lines added, deleted and net since BASE (default HEAD),
# non-test files apart from _test.go files, over cmd/, internal/ and bench/.
# The counts are `git diff --numstat BASE`: the working tree against BASE,
# so new files count once they are staged (git add).
#
# Usage:
#   scripts/netlines.sh [BASE]
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -le 1 ] || { echo "usage: scripts/netlines.sh [BASE]" >&2; exit 2; }

git diff --numstat --no-renames "${1:-HEAD}" -- 'cmd/*.go' 'internal/*.go' 'bench/*.go' | awk '
{ k = ($3 ~ /_test\.go$/) ? "test" : "non-test"; add[k] += $1; del[k] += $2 }
END {
    split("non-test test", kinds, " ")
    for (i = 1; i <= 2; i++) {
        k = kinds[i]
        printf "%-9s +%d -%d net %+d\n", k, add[k], del[k], add[k] - del[k]
    }
}'
