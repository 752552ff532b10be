#!/usr/bin/env bash
# check-alternatives.sh KINDS PATTERN PKG... fails unless every
# |-separated alternative of PATTERN lists, under go test -list in
# PKG..., at least one name that starts with one of KINDS (an extended
# regexp alternation: 'Test|Example|Fuzz' for a -run pattern,
# 'Benchmark' for a -bench one). go test -run 'A|B' and -bench 'A|B'
# pass when B matches nothing, so a renamed or deleted test or
# benchmark would otherwise drop out of a CI step unnoticed.
set -euo pipefail
kinds=$1 pattern=$2
shift 2
IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
	listed=$(go test -list "$alt" "$@")
	if ! grep -qE "^($kinds)" <<< "$listed"; then
		echo "check-alternatives: '$alt' matches no $kinds in $*" >&2
		exit 1
	fi
done
