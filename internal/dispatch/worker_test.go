package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/power"
	"fast/internal/search"
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

// specFrame is the spec frame a dispatcher of this process's ABI sends.
func specFrame(fp string, raw []byte) frame {
	self := localABI()
	return frame{Type: frameSpec, SpecFP: fp, Spec: raw, Arch: self.Arch, ABI: self.Version}
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
		mustLine(t, specFrame(fp, corrupt)),                                // fingerprint mismatch: error
		mustLine(t, specFrame(fp, raw)),                                    // registers (no reply)
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
		mustLine(t, specFrame(fp, raw)),
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

// TestWorkerRefusesOtherABI: a spec frame from a dispatcher of another
// CPU architecture or results-ABI version — or from one that states no
// ABI at all — earns a refused frame naming both ABIs, and registers
// nothing. The connection still serves a matching spec.
func TestWorkerRefusesOtherABI(t *testing.T) {
	raw, fp := testSpec(t)
	self := localABI()
	forged := func(arch string, version int) string {
		f := specFrame(fp, raw)
		f.Arch, f.ABI = arch, version
		return mustLine(t, f)
	}
	idxs := [][arch.NumParams]int{{}}
	replies := runWorker(t, []string{
		forged("forged-arch", self.Version),
		mustLine(t, frame{Type: frameEval, ID: 1, SpecFP: fp, Idxs: idxs}), // nothing registered
		forged(self.Arch, self.Version+1),
		forged("", 0),
		mustLine(t, specFrame(fp, raw)),
		mustLine(t, frame{Type: frameEval, ID: 2, SpecFP: fp, Idxs: idxs}),
	})
	want := []struct {
		typ string
		id  uint64
	}{
		{frameRefused, 0},
		{frameError, 1},
		{frameRefused, 0},
		{frameRefused, 0},
		{frameResult, 2},
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
	if got := replies[0].Err; !strings.Contains(got, "forged-arch") || !strings.Contains(got, self.String()) {
		t.Errorf("refusal text %q does not name both ABIs", got)
	}
}

// TestPoolRetiresWorkerOfAnotherABI joins a worker of a forged
// architecture over the loopback transport. The pool must retire its
// slot on the refusal, without spending respawns on it (every respawn
// would reach the same worker), and the chunk must come back from the
// in-process objective, never from the worker.
func TestPoolRetiresWorkerOfAnotherABI(t *testing.T) {
	raw, _ := testSpec(t)
	var sp core.EvalSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	var logs strings.Builder
	var mu sync.Mutex
	p, err := New(Options{
		Workers: 1,
		Dialer:  loopbackDialer(abi{Arch: "forged-arch", Version: resultsABI}),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sentinel := search.Evaluation{Value: 42, Feasible: true}
	local := func(idxs [][arch.NumParams]int) []search.Evaluation {
		out := make([]search.Evaluation, len(idxs))
		for i := range out {
			out[i] = sentinel
		}
		return out
	}
	obj := p.Dispatch()(context.Background(), sp, local)
	got := obj([][arch.NumParams]int{{}, {1}})
	if len(got) != 2 || !got[0].Equal(sentinel) || !got[1].Equal(sentinel) {
		t.Fatalf("evaluations %+v did not come from the in-process objective", got)
	}
	st := p.Stats()
	if st.LiveWorkers != 0 || st.Respawns != 0 || st.RemoteChunks != 0 || st.DegradedChunks != 1 {
		t.Fatalf("want the slot retired with no respawn and the chunk degraded: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(logs.String(), "worker refused the study") {
		t.Errorf("the refusal is not logged:\n%s", logs.String())
	}
}
