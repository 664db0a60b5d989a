package dispatch

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/power"
	"fast/internal/sim"
)

// testSpec builds a minimal valid EvalSpec (scalar perf-per-tdp on
// mobilenetv2 against the default platform).
func testSpec(t *testing.T) (raw []byte, fp string) {
	t.Helper()
	pm := power.Default()
	simOpts := sim.FASTOptions()
	simOpts.PowerModel = pm
	sp := core.EvalSpec{
		Workloads:  []string{"mobilenetv2"},
		Objective:  "perf-per-tdp",
		Base:       core.DefaultPlatform(),
		Budget:     power.DefaultBudget(pm),
		SimOptions: simOpts,
	}
	raw, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw, core.FingerprintSpec(raw)
}

// runWorker drives ServeConn with a scripted request stream and returns
// the reply frames.
func runWorker(t *testing.T, lines []string) []frame {
	t.Helper()
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := ServeConn(in, pw, nil)
		pw.Close()
		done <- err
	}()
	var replies []frame
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("unparsable reply %q: %v", sc.Text(), err)
		}
		replies = append(replies, f)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	return replies
}

func mustLine(t *testing.T, f frame) string {
	t.Helper()
	b, err := marshalFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkerProtocol scripts one connection through the happy path and
// every defended failure: spec registration, evaluation, eval against
// an unknown spec, a corrupted spec frame, malformed JSON, and an
// unknown frame type — none of which may kill the connection.
func TestWorkerProtocol(t *testing.T) {
	raw, fp := testSpec(t)
	idxs := [][arch.NumParams]int{{}, {}}
	// Corrupt a digit: still valid JSON, no longer matching fp.
	corrupt := append([]byte(nil), raw...)
	for i, b := range corrupt {
		if b >= '0' && b <= '8' {
			corrupt[i] = b + 1
			break
		}
	}

	replies := runWorker(t, []string{
		mustLine(t, frame{Type: frameEval, ID: 2, SpecFP: fp, Idxs: idxs}), // before spec: addressed error
		mustLine(t, frame{Type: frameSpec, SpecFP: fp, Spec: corrupt}),     // fingerprint mismatch: error
		mustLine(t, frame{Type: frameSpec, SpecFP: fp, Spec: raw}),         // registers (no reply)
		mustLine(t, frame{Type: frameEval, ID: 3, SpecFP: fp, Idxs: idxs}),
		`{"type":"eval","id":4,`, // malformed JSON: error reply, connection survives
		mustLine(t, frame{Type: "mystery", ID: 5}),
		mustLine(t, frame{Type: frameEval, ID: 6, SpecFP: fp, Idxs: idxs[:1]}),
		mustLine(t, frame{Type: frameEval, ID: 7, SpecFP: fp, Idxs: [][arch.NumParams]int{{99}}}), // outside the space: addressed error, worker survives
		mustLine(t, frame{Type: frameEval, ID: 8, SpecFP: fp, Idxs: idxs[:1]}),                    // still serving after it
	})

	want := []struct {
		typ string
		id  uint64
	}{
		{frameError, 2},
		{frameError, 0},
		{frameResult, 3},
		{frameError, 0},
		{frameError, 5},
		{frameResult, 6},
		{frameError, 7},
		{frameResult, 8},
	}
	if len(replies) != len(want) {
		t.Fatalf("got %d replies, want %d: %+v", len(replies), len(want), replies)
	}
	for i, w := range want {
		if replies[i].Type != w.typ || replies[i].ID != w.id {
			t.Fatalf("reply %d = (%s, %d), want (%s, %d); err=%q",
				i, replies[i].Type, replies[i].ID, w.typ, w.id, replies[i].Err)
		}
	}
	if n := len(replies[2].Evals); n != 2 {
		t.Fatalf("eval reply carries %d evals, want 2", n)
	}
	if n := len(replies[5].Evals); n != 1 {
		t.Fatalf("eval reply carries %d evals, want 1", n)
	}
	// Same point evaluated twice on one connection must agree exactly.
	if !replies[2].Evals[0].Equal(replies[5].Evals[0]) {
		t.Fatalf("repeat evaluation of the same point diverged: %+v vs %+v",
			replies[2].Evals[0], replies[5].Evals[0])
	}
}

// TestWorkerRoundTripsFloatsExactly pins the wire-format contract the
// whole design rests on: an Evaluation's float64s survive a JSON
// round-trip bit-exactly.
func TestWorkerRoundTripsFloatsExactly(t *testing.T) {
	raw, fp := testSpec(t)
	var sp core.EvalSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	local, err := core.BuildBatchEvaluator(sp)
	if err != nil {
		t.Fatal(err)
	}
	pts := [][arch.NumParams]int{{}}
	want := local(pts)

	replies := runWorker(t, []string{
		mustLine(t, frame{Type: frameSpec, SpecFP: fp, Spec: raw}),
		mustLine(t, frame{Type: frameEval, ID: 1, SpecFP: fp, Idxs: pts}),
	})
	if len(replies) != 1 || replies[0].Type != frameResult {
		t.Fatalf("unexpected replies: %+v", replies)
	}
	if len(replies[0].Evals) != len(want) {
		t.Fatalf("got %d evals, want %d", len(replies[0].Evals), len(want))
	}
	for i := range want {
		if !replies[0].Evals[i].Equal(want[i]) {
			t.Fatalf("eval %d differs after wire round-trip:\n  local %+v\n  wire  %+v",
				i, want[i], replies[0].Evals[i])
		}
	}
}
