#!/usr/bin/env bash
# no_orphans.sh — run a command and fail if any process it started
# outlives it.
#
#   scripts/no_orphans.sh CMD [ARG...]
#
# Runs CMD in a session of its own (setsid -w), waits for it, then reads
# /proc/*/stat for processes still in that session. Any it finds are
# listed, killed with SIGKILL, and the script exits 1; otherwise it
# exits with CMD's status. A process that starts a session of its own
# escapes the check; nothing in this repository does. Linux only.
set -uo pipefail

if [ $# -eq 0 ]; then
	echo "usage: $0 CMD [ARG...]" >&2
	exit 2
fi

# Without job control a background child is not a process-group leader,
# so setsid makes it a session leader in place, without forking: the
# session id is its pid.
setsid -w "$@" &
sid=$!
trap 'kill -TERM "$sid" 2>/dev/null' INT TERM
status=0
wait "$sid" || status=$?
# A trapped signal ends the wait early; wait for CMD itself to exit.
while kill -0 "$sid" 2>/dev/null; do
	wait "$sid" || status=$?
done

left=()
for stat in /proc/[0-9]*/stat; do
	{ read -r line <"$stat"; } 2>/dev/null || continue # already gone
	# Fields after the parenthesised command name: state ppid pgrp session.
	read -r state _ _ session _ <<<"${line##*) }"
	if [ "$session" = "$sid" ] && [ "$state" != Z ]; then
		pid=${stat#/proc/}
		left+=("${pid%/stat}")
	fi
done

if [ ${#left[@]} -gt 0 ]; then
	echo "no_orphans: $* left ${#left[@]} process(es) running in session $sid:" >&2
	for pid in "${left[@]}"; do
		{ cmd=$(tr '\0' ' ' <"/proc/$pid/cmdline"); } 2>/dev/null || cmd="(exited)"
		echo "  $pid $cmd" >&2
	done
	kill -KILL "${left[@]}" 2>/dev/null
	exit 1
fi
exit "$status"
