#!/usr/bin/env bash
# ci_run_names.sh — every test-selecting pattern in
# .github/workflows/ci.yml must name tests that exist. `go test -run`,
# `-bench` and `-fuzz` pass silently when a pattern matches nothing, so
# a renamed or deleted test would drop out of its CI step unnoticed. For
# each `go test` line, every |-separated alternative of each such
# pattern must match at least one name `go test -list` prints for the
# line's packages. '^$' (run no tests) is skipped.
#
# Usage: scripts/ci_run_names.sh   (lint.sh runs it; exits 1 on a miss)
set -euo pipefail
cd "$(dirname "$0")/.."

ci=.github/workflows/ci.yml
fail=0
while IFS= read -r line; do
	read -ra words <<<"${line#*go test }"
	pats=()
	pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		-run | -bench | -fuzz)
			i=$((i + 1))
			pats+=("${words[i]}")
			;;
		-run=* | -bench=* | -fuzz=*) pats+=("${w#*=}") ;;
		-timeout | -count | -benchtime | -fuzztime | -coverprofile) i=$((i + 1)) ;;
		./* | .) pkgs+=("$w") ;;
		esac
	done
	[ ${#pats[@]} -eq 0 ] && continue
	if [ ${#pkgs[@]} -eq 0 ]; then
		echo "$ci: no package paths in: $line" >&2
		fail=1
		continue
	fi
	names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	for pat in "${pats[@]}"; do
		pat=${pat//\'/}
		[ "$pat" = '^$' ] && continue
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			# Patterns match subtests level by level; the top level names a test.
			if ! grep -qE -- "${alt%%/*}" <<<"$names"; then
				echo "$ci: pattern '$alt' matches no test in ${pkgs[*]}" >&2
				fail=1
			fi
		done
	done
done < <(grep -E 'go test .*-(run|bench|fuzz)[= ]' "$ci")

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "ci-run-names: OK"
