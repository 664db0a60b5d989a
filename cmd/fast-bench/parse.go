package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// The harness sees the binaries only through their documented output:
// the parsers below are the whole coupling, and each is tested against
// output captured in testdata/.

var (
	progressRE = regexp.MustCompile(`^\s*trial (\d+)/(\d+)\s+best \S+$`)
	doneRE     = regexp.MustCompile(`^done in [0-9.]+s \(`)
	fusionRE   = regexp.MustCompile(`^memory stall .*\(fusion efficiency [0-9.]+%, method ([a-z-]+)(?:, gap (unbounded|[0-9.]+)%?)?(?:, (\d+) nodes)?\)$`)
	dispatchRE = regexp.MustCompile(`^dispatch: (\d+)/(\d+) workers live, (\d+) points in (\d+) chunks remote; retries=(\d+) hedges=(\d+) respawns=(\d+) degraded=(\d+)$`)
	workerUpRE = regexp.MustCompile(`^dispatch: .*msg="worker up"`)
)

// parseProgress reads one `-progress N` stderr line of fast-search.
func parseProgress(line string) (n, total int, ok bool) {
	m := progressRE.FindStringSubmatch(line)
	if m == nil {
		return 0, 0, false
	}
	n, _ = strconv.Atoi(m[1])
	total, _ = strconv.Atoi(m[2])
	return n, total, true
}

// fusionLine is the exact-ILP outcome fast-sim prints on its "memory
// stall" line.
type fusionLine struct {
	Method string
	// Gap is the proven relative gap of an unproven solve (+Inf when
	// the solver printed "gap unbounded"), 0 for a proven one.
	Gap    float64
	Nodes  int
	Proven bool
}

func parseFusion(line string) (fusionLine, bool) {
	m := fusionRE.FindStringSubmatch(line)
	if m == nil {
		return fusionLine{}, false
	}
	f := fusionLine{Method: m[1], Proven: m[1] == "ilp-optimal"}
	switch m[2] {
	case "":
	case "unbounded":
		f.Gap = math.Inf(1)
	default:
		pct, _ := strconv.ParseFloat(m[2], 64)
		f.Gap = pct / 100
	}
	f.Nodes, _ = strconv.Atoi(m[3])
	return f, true
}

// dispatchStats is fast-search's end-of-run worker-pool status line.
type dispatchStats struct {
	Live, Workers, Points, Chunks, Retries, Hedges, Respawns, Degraded int
}

func parseDispatch(line string) (dispatchStats, bool) {
	m := dispatchRE.FindStringSubmatch(line)
	if m == nil {
		return dispatchStats{}, false
	}
	var v [8]int
	for i := range v {
		v[i], _ = strconv.Atoi(m[i+1])
	}
	return dispatchStats{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]}, true
}

// normalize strips from a binary's stdout the lines that legitimately
// differ between two runs of the same op: the wall-clock `done in` line
// and the worker-pool status line, each with the blank line that
// follows it (so an op run with -workers 2 digests equal to the same op
// in-process). stripFusion also drops fast-sim's fusion line, for
// deadline-pinned instances whose node count depends on the host.
func normalize(stdout string, stripFusion bool) string {
	var b strings.Builder
	dropped := false
	for _, line := range strings.Split(stdout, "\n") {
		if dropped && line == "" {
			dropped = false
			continue
		}
		dropped = doneRE.MatchString(line) || dispatchRE.MatchString(line)
		if dropped || (stripFusion && strings.HasPrefix(line, "memory stall ")) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// normalizeResult strips the per-submission identity from a fast-serve
// result document, so the same study submitted under two ids digests
// equal.
func normalizeResult(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, `"id":`) || strings.HasPrefix(t, `"tenant":`) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
