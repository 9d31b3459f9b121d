#!/usr/bin/env bash
# ci-run.sh runs `go test` with the given arguments after checking that
# every |-separated alternative of its -run, -bench and -fuzz patterns
# names at least one test, benchmark or fuzz target in the listed
# packages. Without the check, renaming or deleting a test silently turns
# the CI step that guards it into a no-op. The pattern '^$' (run nothing)
# is exempt. For a subtest pattern (Top/sub) only the top level is
# checked, since `go test -list` lists top-level names.
#
# usage: scripts/ci-run.sh [go test flags] -run 'TestA|TestB' ./pkg/...
set -euo pipefail

pats=()
pkgs=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	a=${args[i]}
	case $a in
	-run | -bench | -fuzz)
		pats+=("${args[i + 1]}")
		i=$((i + 1))
		;;
	-run=* | -bench=* | -fuzz=*) pats+=("${a#*=}") ;;
	-count | -fuzztime | -benchtime | -timeout | -cpu | -parallel | -tags) i=$((i + 1)) ;;
	-*) ;;
	*) pkgs+=("$a") ;;
	esac
done
((${#pkgs[@]})) || pkgs=(.)

list=$(go test -list '.*' "${pkgs[@]}")
names=$(grep -E '^(Test|Benchmark|Fuzz|Example)' <<<"$list" || true)
fail=0
for pat in ${pats[@]+"${pats[@]}"}; do
	[[ $pat == '^$' ]] && continue
	IFS='|' read -r -a alts <<<"${pat%%/*}"
	for alt in "${alts[@]}"; do
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "ci-run: pattern '$alt' matches no test in ${pkgs[*]}" >&2
			fail=1
		fi
	done
done
((fail == 0)) || exit 1
exec go test "$@"
