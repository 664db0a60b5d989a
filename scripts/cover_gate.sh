#!/usr/bin/env bash
# cover_gate.sh — fail when total statement coverage drops below the
# checked-in floor (same spirit as `fast-bench -check` for perf).
#
# The floor is deliberately a couple of points under the current total
# (~82% with the decoder/KV-cache subsystem included — the new builders
# themselves measure 94-98% and take no exclusions) so routine churn
# passes but a PR that lands a subsystem without tests does not. Raise
# the floor when coverage grows; never lower it to make a PR pass — add
# tests instead.
#
# Knobs:
#   COVER_GATE_FLOOR=78 scripts/cover_gate.sh      # override the floor (%)
#   COVER_GATE_PROFILE=/tmp/c.out ...              # profile output path
#   COVER_GATE_SKIP=1 scripts/cover_gate.sh        # escape hatch
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${COVER_GATE_SKIP:-0}" = "1" ]; then
	echo "cover_gate: skipped (COVER_GATE_SKIP=1)"
	exit 0
fi

FLOOR=${COVER_GATE_FLOOR:-80.0}
PROFILE=${COVER_GATE_PROFILE:-coverage.out}

go test -count=1 -timeout 300s -coverprofile="$PROFILE" ./...

# The fastlint CLI wiring (flag parsing, output formats in
# cmd/fastlint) is driven end to end through `run` by TestTreeIsClean
# rather than by unit tests of each flag, and the fast-serve main (flag
# parsing, signal handling) by the serve-smoke job
# (scripts/docs_smoke.sh); keep both out of the statement-coverage
# floor. The daemon's actual logic
# (internal/serve, internal/store, internal/obsv) stays gated.
GATED="$PROFILE.gated"
grep -v -e '^fast/cmd/fastlint/' -e '^fast/cmd/fast-serve/' "$PROFILE" > "$GATED"

total=$(go tool cover -func="$GATED" | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
if [ -z "$total" ]; then
	echo "cover_gate: could not parse total coverage from $GATED" >&2
	exit 1
fi

awk -v total="$total" -v floor="$FLOOR" 'BEGIN {
	printf "cover_gate: total coverage %.1f%%, floor %.1f%%\n", total, floor
	if (total + 0 < floor + 0) {
		print "cover_gate: FAIL — coverage dropped below the floor" > "/dev/stderr"
		exit 1
	}
	print "cover_gate: OK"
}'
