#!/usr/bin/env bash
# race-repeat.sh COUNT PATTERN PKG... runs
#
#   go test -race -count=COUNT -run PATTERN PKG...
#
# after check-alternatives.sh has made sure every |-separated
# alternative of PATTERN names at least one test, example or fuzz
# target in PKG..., so a renamed test cannot leave the repeated race
# step unnoticed.
set -euo pipefail
count=$1 pattern=$2
shift 2
"$(dirname "$0")/check-alternatives.sh" 'Test|Example|Fuzz' "$pattern" "$@"
go test -race -count="$count" -run "$pattern" "$@"
