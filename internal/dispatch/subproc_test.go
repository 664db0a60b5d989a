package dispatch_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/dispatch"
	"fast/internal/search"
)

// workerBin builds cmd/fast-worker once per test process and returns
// the binary path. Subprocess tests are skipped in -short mode.
var workerBinOnce struct {
	sync.Once
	path string
	err  error
}

func workerBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess worker tests skipped in -short mode")
	}
	workerBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fast-worker-bin")
		if err != nil {
			workerBinOnce.err = err
			return
		}
		bin := filepath.Join(dir, "fast-worker")
		cmd := exec.Command("go", "build", "-o", bin, "fast/cmd/fast-worker")
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			workerBinOnce.err = err
			os.RemoveAll(dir)
			workerBinOnce.path = string(out)
			return
		}
		workerBinOnce.path = bin
	})
	if workerBinOnce.err != nil {
		t.Fatalf("building fast-worker: %v\n%s", workerBinOnce.err, workerBinOnce.path)
	}
	return workerBinOnce.path
}

// TestSubprocessWorkersDifferential runs the differential against real
// fast-worker subprocesses over stdin/stdout: same transcript, all
// points evaluated out of process.
func TestSubprocessWorkersDifferential(t *testing.T) {
	bin := workerBin(t)
	for _, tc := range studyCases() {
		want := reference(t, tc)
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOpts(2)
			opts.Dialer = nil
			opts.WorkerCmd = []string{bin}
			opts.ChunkTimeout = 10 * time.Second // real processes pay plan-compile time
			p, err := dispatch.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			got := runDispatched(t, tc, p)
			sameResult(t, tc.name, want, got)
			st := p.Stats()
			if st.RemotePoints == 0 || st.DegradedChunks != 0 {
				t.Fatalf("expected fully remote evaluation: %+v", st)
			}
		})
	}
}

// TestSubprocessKillRespawn SIGKILLs a live worker process mid-study:
// the dispatcher must detect the death, respawn the worker within its
// budget, re-dispatch the lost chunk, and still produce the
// bit-identical result.
func TestSubprocessKillRespawn(t *testing.T) {
	bin := workerBin(t)
	tc := studyCases()[0]
	want := reference(t, tc)

	opts := fastOpts(2)
	opts.Dialer = nil
	opts.WorkerCmd = []string{bin}
	opts.ChunkTimeout = 10 * time.Second
	p, err := dispatch.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The kill is a seam, not a timer: the second batch call SIGKILLs a
	// live worker before it forwards its batch, so the death always lands
	// while the study still has work to ship.
	var calls atomic.Int32
	var killed atomic.Int64
	assassin := func(ctx context.Context, spec core.EvalSpec, local search.BatchObjective) search.BatchObjective {
		inner := p.Dispatch()(ctx, spec, local)
		return func(idxs [][arch.NumParams]int) []search.Evaluation {
			if calls.Add(1) == 2 {
				killed.Store(int64(killLiveWorker(t, p)))
			}
			return inner(idxs)
		}
	}
	got, err := tc.study().Run(context.Background(),
		core.WithParallelism(4), core.WithBatchSize(16), core.WithDispatch(assassin))
	if err != nil {
		t.Fatalf("dispatched run: %v", err)
	}
	sameResult(t, "kill-respawn", want, got)
	if killed.Load() == 0 {
		t.Fatalf("study made %d batch calls; the assassin needs two", calls.Load())
	}
	t.Logf("killed worker pid %d mid-study", killed.Load())
	// The death must have been noticed: either the worker respawned, or
	// the remaining worker absorbed the rest of the study.
	st := p.Stats()
	t.Logf("kill-respawn stats: %+v", st)
	if st.Respawns == 0 && st.LiveWorkers == len(st.PerWorker) {
		t.Fatalf("worker kill left no trace in the pool: %+v", st)
	}
}

// killLiveWorker SIGKILLs the first connected subprocess worker and
// returns its pid, waiting for a slot to come up if none has yet
// (workers dial asynchronously; the first chunk may still be queued).
func killLiveWorker(t *testing.T, p *dispatch.Pool) int {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, w := range p.Stats().PerWorker {
			if w.Live && w.Pid > 0 {
				syscall.Kill(w.Pid, syscall.SIGKILL) //nolint:errcheck // the kill is the test
				return w.Pid
			}
		}
	}
	t.Error("no live subprocess worker to kill within 30s")
	return 0
}

// TestSubprocessChaosMatrix is the full chaos matrix against real
// subprocess workers — expensive, so it only runs when the CI chaos job
// (or a developer) opts in via FAST_DISPATCH_SUBPROC=1.
func TestSubprocessChaosMatrix(t *testing.T) {
	if os.Getenv("FAST_DISPATCH_SUBPROC") == "" {
		t.Skip("set FAST_DISPATCH_SUBPROC=1 to run the subprocess chaos matrix")
	}
	bin := workerBin(t)
	tc := studyCases()[0]
	want := reference(t, tc)
	for _, plan := range chaosPlans {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			opts := fastOpts(2)
			opts.Dialer = nil
			opts.WorkerCmd = []string{bin}
			opts.ChunkTimeout = 10 * time.Second
			opts.WrapDialer = plan.Wrap
			p, err := dispatch.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			got := runDispatched(t, tc, p)
			sameResult(t, plan.Name, want, got)
			t.Logf("plan %s: %+v", plan.Name, p.Stats())
		})
	}
}
