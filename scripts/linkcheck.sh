#!/usr/bin/env bash
# linkcheck.sh — keep the documentation anchored to the tree. Four
# checks, the first three over README.md and docs/*.md (lint.sh runs
# this; CI's lint job inherits it):
#
#   1. Every relative markdown link [text](path) resolves to a file or
#      directory in the repo (http(s) and #anchor links are skipped).
#   2. Every `path/file.go:line` pointer names a file that exists and
#      has at least that many lines, and a pointer written as
#      `Name` (`path/file.go:line`) finds Name (its last dotted part)
#      within three lines of that line — a refactor that moves an anchor
#      breaks the doc build, not the reader.
#   3. Every metric registered in internal/serve/metrics.go and
#      internal/dispatch/metrics.go appears in docs/OPERATIONS.md's
#      catalog, and every catalog row names a registered metric.
#   4. Every NAME.md a comment in a tracked .go file names exists
#      relative to that file's directory, the repository root or docs/.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
docs=(README.md docs/*.md)

echo "linkcheck: markdown links"
for doc in "${docs[@]}"; do
	dir=$(dirname "$doc")
	# Pull out (target) of every [text](target); one per line.
	while IFS= read -r target; do
		case "$target" in
		http://* | https://* | "#"*) continue ;;
		esac
		path=${target%%#*}
		[ -z "$path" ] && continue
		if ! [ -e "$dir/$path" ] && ! [ -e "$path" ]; then
			echo "linkcheck: FAIL — $doc links to missing $target" >&2
			fail=1
		fi
	done < <(grep -oE '\[[^][]*\]\([^()[:space:]]+\)' "$doc" | sed -E 's/.*\(([^()]*)\)/\1/')
done

echo "linkcheck: file:line pointers"
for doc in "${docs[@]}"; do
	while IFS=: read -r file line; do
		if ! [ -f "$file" ]; then
			echo "linkcheck: FAIL — $doc points at missing file $file" >&2
			fail=1
		elif [ "$(wc -l < "$file")" -lt "$line" ]; then
			echo "linkcheck: FAIL — $doc points at $file:$line, past EOF" >&2
			fail=1
		fi
	done < <(grep -oE '`(cmd|internal|scripts)/[A-Za-z0-9_/.-]+\.go:[0-9]+' "$doc" | tr -d '\140')
	# Named pointers, matched across line wraps.
	while IFS=' :' read -r name file line; do
		[ -f "$file" ] || continue # reported above
		lo=$((line > 3 ? line - 3 : 1))
		if ! sed -n "${lo},$((line + 3))p" "$file" | grep -qw -- "${name##*.}"; then
			echo "linkcheck: FAIL — $doc says $name is at $file:$line, but ${name##*.} is not within three lines of it" >&2
			fail=1
		fi
	done < <(tr '\n' ' ' < "$doc" |
		grep -oE '`[A-Za-z0-9_.]+` +\(`(cmd|internal|scripts)/[A-Za-z0-9_/.-]+\.go:[0-9]+' |
		tr -d '\140(' | tr -s ' ')
done

echo "linkcheck: metrics catalog sync"
# catalog_sync SRC NAMES: names matching the NAMES prefix alternation
# are registered in SRC as string literals ("name" or "name{label...")
# and documented in docs/OPERATIONS.md as `name` or `name{label...}`.
catalog_sync() {
	local src=$1 names=$2 m
	while IFS= read -r m; do
		if ! grep -q "\`$m[\`{]" docs/OPERATIONS.md; then
			echo "linkcheck: FAIL — metric $m registered in $src but not documented in docs/OPERATIONS.md" >&2
			fail=1
		fi
	done < <(grep -oE "\"($names)_[a-z_]+[\"{]" "$src" | tr -d '"{' | sort -u)
	while IFS= read -r m; do
		if ! grep -qE "\"$m[\"{]" "$src"; then
			echo "linkcheck: FAIL — docs/OPERATIONS.md documents $m, which $src does not register" >&2
			fail=1
		fi
	done < <(grep -oE "\`($names)_[a-z_]+[\`{]" docs/OPERATIONS.md | tr -d '\140{' | sort -u)
}
catalog_sync internal/serve/metrics.go 'fastserve|fast_plan_cache'
catalog_sync internal/dispatch/metrics.go 'fast_dispatch'

echo "linkcheck: markdown files named in Go comments"
while IFS=: read -r file line text; do
	comment=${text#*//}
	while IFS= read -r name; do
		if ! [ -e "$(dirname "$file")/$name" ] && ! [ -e "$name" ] && ! [ -e "docs/$name" ]; then
			echo "linkcheck: FAIL — $file:$line names $name, which is not in $(dirname "$file"), the root or docs/" >&2
			fail=1
		fi
	done < <(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md([^A-Za-z0-9_]|$)' <<<"$comment" | sed -E 's/[^A-Za-z0-9_]$//')
done < <(git ls-files -z '*.go' | xargs -0 grep -HnE '//.*[A-Za-z0-9_]\.md([^A-Za-z0-9_]|$)' || true)

if [ "$fail" != 0 ]; then
	echo "linkcheck: FAIL" >&2
	exit 1
fi
echo "linkcheck: OK"
