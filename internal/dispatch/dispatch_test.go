package dispatch_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fast/internal/core"
	"fast/internal/dispatch"
	"fast/internal/dispatch/chaos"
	"fast/internal/search"
)

// The differential contract under test: a study dispatched to remote
// workers — any count, any fault plan — produces a StudyResult
// bit-identical to the in-process run. History, best design, and
// Pareto front all come from the optimizer transcript, so if any fault
// leaked into evaluation or fold order, these comparisons break.

type studyCase struct {
	name  string
	study func() *core.Study
}

func studyCases() []studyCase {
	return []studyCase{
		{"scalar-lcs", func() *core.Study {
			return &core.Study{
				Workloads: []string{"mobilenetv2"},
				Objective: core.PerfPerTDP,
				Algorithm: search.AlgLCS,
				Trials:    32,
				Seed:      7,
			}
		}},
		{"multi-nsga2", func() *core.Study {
			return &core.Study{
				Workloads:  []string{"mobilenetv2"},
				Objectives: []core.ObjectiveKind{core.PerfPerTDP, core.Area},
				Algorithm:  search.AlgNSGA2,
				Trials:     32,
				Seed:       7,
				FrontCap:   8,
			}
		}},
	}
}

// refMu guards refResults: one in-process reference run per study
// shape, shared by every differential subtest.
var (
	refMu      sync.Mutex
	refResults = map[string]*core.StudyResult{}
)

func reference(t *testing.T, tc studyCase) *core.StudyResult {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if r, ok := refResults[tc.name]; ok {
		return r
	}
	r, err := tc.study().Run(context.Background(), core.WithParallelism(4), core.WithBatchSize(16))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refResults[tc.name] = r
	return r
}

func runDispatched(t *testing.T, tc studyCase, p *dispatch.Pool) *core.StudyResult {
	t.Helper()
	got, err := tc.study().Run(context.Background(),
		core.WithParallelism(4), core.WithBatchSize(16), core.WithDispatch(p.Dispatch()))
	if err != nil {
		t.Fatalf("dispatched run: %v", err)
	}
	return got
}

// sameResult asserts bit-identity of everything deterministic in a
// study result: the full trial history in tell order, the best trial
// and decoded design, and the Pareto front's indices and values.
func sameResult(t *testing.T, label string, want, got *core.StudyResult) {
	t.Helper()
	if len(want.Search.History) != len(got.Search.History) {
		t.Fatalf("%s: history length %d, want %d", label, len(got.Search.History), len(want.Search.History))
	}
	for i := range want.Search.History {
		if !want.Search.History[i].Equal(got.Search.History[i]) {
			t.Fatalf("%s: trial %d differs:\n  want %+v\n  got  %+v",
				label, i, want.Search.History[i], got.Search.History[i])
		}
	}
	if !want.Search.Best.Equal(got.Search.Best) {
		t.Fatalf("%s: best trial differs", label)
	}
	if want.BestValue != got.BestValue {
		t.Fatalf("%s: best value %v, want %v", label, got.BestValue, want.BestValue)
	}
	if (want.Best == nil) != (got.Best == nil) {
		t.Fatalf("%s: best design presence differs", label)
	}
	if want.Best != nil && *want.Best != *got.Best {
		t.Fatalf("%s: best design differs", label)
	}
	wf, gf := want.Front(), got.Front()
	if len(wf) != len(gf) {
		t.Fatalf("%s: front size %d, want %d", label, len(gf), len(wf))
	}
	for i := range wf {
		if wf[i].Index != gf[i].Index {
			t.Fatalf("%s: front point %d index differs: %v vs %v", label, i, gf[i].Index, wf[i].Index)
		}
		for k := range wf[i].Values {
			if wf[i].Values[k] != gf[i].Values[k] {
				t.Fatalf("%s: front point %d value %d differs: %v vs %v",
					label, i, k, gf[i].Values[k], wf[i].Values[k])
			}
		}
	}
}

// fastOpts returns pool options tuned for test speed: a short attempt
// deadline and a generous respawn budget (chaos kills a lot).
func fastOpts(workers int) dispatch.Options {
	return dispatch.Options{
		Workers:       workers,
		Dialer:        dispatch.LoopbackDialer(),
		ChunkTimeout:  2 * time.Second,
		RespawnBudget: 200,
	}
}

// TestDifferentialWorkerCounts proves the headline invariant on clean
// connections: 1, 2, and 4 workers all reproduce the in-process study
// bit-for-bit, for scalar and multi-objective optimizers, with every
// chunk actually evaluated remotely.
func TestDifferentialWorkerCounts(t *testing.T) {
	for _, tc := range studyCases() {
		want := reference(t, tc)
		for _, workers := range []int{1, 2, 4} {
			t.Run(tc.name+"/workers"+string(rune('0'+workers)), func(t *testing.T) {
				p, err := dispatch.New(fastOpts(workers))
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				got := runDispatched(t, tc, p)
				sameResult(t, tc.name, want, got)
				st := p.Stats()
				if st.RemoteChunks == 0 || st.RemotePoints == 0 {
					t.Fatalf("no remote evaluation happened: %+v", st)
				}
				if st.DegradedChunks != 0 {
					t.Fatalf("clean pool degraded %d chunks: %+v", st.DegradedChunks, st)
				}
			})
		}
	}
}

// chaosPlans is the differential suite: every fault class alone, then
// all of them together. Probabilities are high enough that a ~50-trial
// study hits each fault many times.
var chaosPlans = []chaos.Plan{
	{Name: "delays", Seed: 11, DelayProb: 0.5, MaxDelay: 50 * time.Millisecond},
	{Name: "drops", Seed: 12, DropReplyProb: 0.15},
	{Name: "dups", Seed: 13, DupReplyProb: 0.4},
	{Name: "corrupt", Seed: 14, CorruptProb: 0.3},
	{Name: "kill-send", Seed: 15, KillSendProb: 0.06},
	{Name: "refusals", Seed: 16, ConnectRefusals: 2},
	{
		Name: "everything", Seed: 17,
		DelayProb: 0.25, MaxDelay: 30 * time.Millisecond,
		DropReplyProb: 0.08, DupReplyProb: 0.15,
		CorruptProb: 0.04, KillSendProb: 0.03,
		ConnectRefusals: 1,
	},
}

// TestDifferentialChaos is the fault-plan differential: every chaos
// plan — delays, drops, duplicates, corruption, mid-send kills, connect
// refusals, and all of them at once — perturbs scheduling, deadlines,
// retries, and respawns, and the study result must not move a bit.
func TestDifferentialChaos(t *testing.T) {
	for _, tc := range studyCases() {
		want := reference(t, tc)
		for _, plan := range chaosPlans {
			plan := plan
			t.Run(tc.name+"/"+plan.Name, func(t *testing.T) {
				opts := fastOpts(2)
				opts.WrapDialer = plan.Wrap
				p, err := dispatch.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				got := runDispatched(t, tc, p)
				sameResult(t, tc.name+"/"+plan.Name, want, got)
				st := p.Stats()
				t.Logf("plan %s: %+v", plan.Name, st)
				if plan.ConnectRefusals > 0 && st.DialFails < int64(plan.ConnectRefusals) {
					t.Fatalf("refusal plan saw %d dial failures, want >= %d", st.DialFails, plan.ConnectRefusals)
				}
				if plan.CorruptProb >= 0.05 && st.Corrupt == 0 {
					t.Fatalf("corrupt plan injected no observed corruption: %+v", st)
				}
			})
		}
	}
}

// dieAfterDialer wraps the loopback so each connection dies after n
// received frames, with a cap on total successful dials — the pool
// loses every worker mid-study and must degrade to in-process
// evaluation rather than stall or fail.
type countingTransport struct {
	dispatch.Transport
	left int
}

func (t *countingTransport) Recv() ([]byte, error) {
	if t.left <= 0 {
		t.Transport.Close() //nolint:errcheck // simulated death
		return nil, errors.New("test: connection expired")
	}
	t.left--
	return t.Transport.Recv()
}

// TestTotalPoolLossDegrades kills every connection after a few frames
// with no respawn budget: the pool dies mid-study, and the study must
// complete bit-identically via the in-process fallback, reporting
// degraded chunks.
func TestTotalPoolLossDegrades(t *testing.T) {
	tc := studyCases()[0]
	want := reference(t, tc)

	inner := dispatch.LoopbackDialer()
	opts := fastOpts(2)
	opts.RespawnBudget = -1 // no respawns: first death retires the slot
	opts.WrapDialer = func(d dispatch.Dialer) dispatch.Dialer {
		return func(slot, attempt int) (dispatch.Transport, error) {
			tr, err := inner(slot, attempt)
			if err != nil {
				return nil, err
			}
			return &countingTransport{Transport: tr, left: 3}, nil
		}
	}
	p, err := dispatch.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := runDispatched(t, tc, p)
	sameResult(t, "total-pool-loss", want, got)
	st := p.Stats()
	t.Logf("total-pool-loss: %+v", st)
	if st.DegradedChunks == 0 {
		t.Fatalf("expected degraded chunks after total pool loss: %+v", st)
	}
	if st.LiveWorkers != 0 {
		t.Fatalf("expected all workers retired, got %d live", st.LiveWorkers)
	}
}

// silentTransport connects but never replies; Send succeeds (handing
// each swallowed frame to onSend, when set), Recv blocks until Close.
type silentTransport struct {
	done   chan struct{}
	once   sync.Once
	onSend func(line []byte)
}

func (s *silentTransport) Send(line []byte) error {
	if s.onSend != nil {
		s.onSend(line)
	}
	return nil
}
func (s *silentTransport) Recv() ([]byte, error) {
	<-s.done
	return nil, errors.New("test: closed")
}
func (s *silentTransport) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}

// silentFirstOpts is a one-worker pool whose first connection is a
// silent worker and whose respawns are loopback workers.
func silentFirstOpts(onSend func(line []byte)) dispatch.Options {
	loop := dispatch.LoopbackDialer()
	opts := fastOpts(1)
	opts.Dialer = func(slot, attempt int) (dispatch.Transport, error) {
		if attempt == 0 {
			return &silentTransport{done: make(chan struct{}), onSend: onSend}, nil
		}
		return loop(slot, attempt)
	}
	return opts
}

// TestDeadlineReapsSilentWorker connects a worker that accepts chunks
// but never answers: the first chunk's attempt deadline must kill the
// connection, the slot must respawn, and the retried chunk must land
// there, leaving the study bit-identical to the in-process run.
func TestDeadlineReapsSilentWorker(t *testing.T) {
	tc := studyCases()[0]
	want := reference(t, tc)
	p, err := dispatch.New(silentFirstOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := runDispatched(t, tc, p)
	sameResult(t, "silent-worker", want, got)
	st := p.Stats()
	if st.Timeouts != 1 || st.Respawns != 1 || st.DegradedChunks != 0 {
		t.Fatalf("want one deadline kill, one respawn, no degradation: %+v", st)
	}
}

// TestAbandonedChunkDeadlineRespawns cancels a study while its chunk
// sits on a silent worker. Nobody waits on that attempt any more, so
// its own deadline must reap the slot, which then respawns back to full
// strength and serves the next study bit-identically.
func TestAbandonedChunkDeadlineRespawns(t *testing.T) {
	tc := studyCases()[0]
	want := reference(t, tc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := dispatch.New(silentFirstOpts(func(line []byte) {
		if strings.Contains(string(line), `"type":"eval"`) {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := tc.study().Run(ctx, core.WithParallelism(4), core.WithBatchSize(16),
		core.WithDispatch(p.Dispatch())); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st := p.Stats()
		if st.Timeouts == 1 && st.Respawns == 1 && st.LiveWorkers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned attempt's slot was not reaped and respawned: %+v", st)
		}
	}
	sameResult(t, "after-abandon", want, runDispatched(t, tc, p))
	if st := p.Stats(); st.DegradedChunks != 0 || st.Timeouts != 1 {
		t.Fatalf("respawned pool did not serve the study cleanly: %+v", st)
	}
}

// TestCloseDuringDial closes a pool while one slot is mid-dial. Close
// sweeps the slots once, in order; slot 0's dial is gated on slot 1's
// connection being swept, so it returns a transport after the sweep has
// already passed slot 0. Close must still own that transport: the slot
// manager re-checks closed after installing and tears it down, instead
// of parking a readLoop that nobody will ever unblock.
func TestCloseDuringDial(t *testing.T) {
	dialing := make(chan struct{})
	swept := &silentTransport{done: make(chan struct{})}
	late := &silentTransport{done: make(chan struct{})}
	p, err := dispatch.New(dispatch.Options{
		Workers: 2,
		Dialer: func(slot, attempt int) (dispatch.Transport, error) {
			if slot == 1 {
				return swept, nil
			}
			close(dialing)
			<-swept.done
			return late, nil
		},
		RespawnBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-dialing
	for p.Stats().LiveWorkers != 1 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		late.Close() // unblock the stranded readLoop so the test binary can exit
		t.Fatal("Close hung: a transport installed across the sweep was never closed")
	}
	select {
	case <-late.done:
	default:
		t.Fatal("Close returned but the late transport is still open")
	}
}
