#!/usr/bin/env bash
# race-repeat.sh COUNT PATTERN PKG... runs
#
#   go test -race -count=COUNT -run PATTERN PKG...
#
# after checking that every |-separated alternative of PATTERN names at
# least one test, example or fuzz target in PKG...: go test -run 'A|B'
# passes when B matches nothing, so a renamed or deleted test would
# otherwise drop out of a repeated race step unnoticed.
set -euo pipefail
count=$1 pattern=$2
shift 2
IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
	listed=$(go test -list "$alt" "$@")
	if ! grep -qE '^(Test|Example|Fuzz)' <<< "$listed"; then
		echo "race-repeat: -run alternative '$alt' matches no test in $*" >&2
		exit 1
	fi
done
go test -race -count="$count" -run "$pattern" "$@"
