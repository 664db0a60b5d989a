#!/usr/bin/env bash
# lint.sh — the repo's one-stop lint entry point (CI's lint job runs
# exactly this). Runs, in order:
#
#   1. fastlint    — the in-tree static-analysis suite (cmd/fastlint):
#                    determinism invariants and pooled-scratch discipline
#   2. linkcheck   — docs stay anchored: markdown links, file:line
#                    pointers, and the metrics catalog resolve
#   3. run names   — every -run pattern in ci.yml names existing tests
#                    (ci_run_names.sh)
#   4. staticcheck — general Go correctness/style checks
#   5. govulncheck — known-vulnerability scan
#   6. shellcheck  — over scripts/*.sh
#
# fastlint always runs: it builds from this module and needs nothing
# installed. The external tools run when present on PATH; set
# LINT_STRICT=1 (CI does) to fail instead of skip when one is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

STRICT=${LINT_STRICT:-0}

echo "lint: fastlint"
go run ./cmd/fastlint ./...

bash scripts/linkcheck.sh

echo "lint: ci run names"
bash scripts/ci_run_names.sh

run_tool() {
	local name=$1
	shift
	if command -v "$name" >/dev/null 2>&1; then
		echo "lint: $name"
		"$@"
	elif [ "$STRICT" = "1" ]; then
		echo "lint: FAIL — $name not on PATH (LINT_STRICT=1)" >&2
		exit 1
	else
		echo "lint: skip — $name not on PATH"
	fi
}

run_tool staticcheck staticcheck ./...
run_tool govulncheck govulncheck ./...
run_tool shellcheck shellcheck scripts/*.sh

echo "lint: OK"
