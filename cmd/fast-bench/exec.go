package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opTimeout bounds one op. The slowest, a deadline-pinned report, costs
// 2.2 s on the reference box; a hang (ROADMAP item
// 1a: Pool.Close) must become a counted failure well inside the
// contract's 180 s.
const opTimeout = 45 * time.Second

// opResult is what the harness observed of one op, from outside.
type opResult struct {
	Key    string
	Failed string // empty on success, else the reason
	Digest string
	// Wall is start → result in hand (process exit, or result body
	// read). First, Search and Report are the phase boundaries, seconds
	// since start; zero when the op has no such phase or the line never
	// came.
	Wall, First, Search, Report float64
	CPU                         float64 // user+sys seconds (CLI ops)
	RSSMB                       float64
	Trials                      int
	Fusion                      []fusionLine
	Dispatch                    *dispatchStats
	WorkerUp                    float64
	// Serve-only client-side latencies, milliseconds.
	SubmitMS, SSEFirstMS, ResultMS float64
}

// lineStamper is an io.Writer that splits a child's output into lines
// and hands each to fn with its arrival time: the phase boundaries of
// an op are the times its own progress lines reach the harness.
type lineStamper struct {
	mu   sync.Mutex
	buf  []byte
	fn   func(line string, at time.Time)
	keep *bytes.Buffer // optional: full text
}

func (l *lineStamper) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.keep != nil {
		l.keep.Write(p)
	}
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		l.fn(string(l.buf[:i]), now)
		l.buf = l.buf[i+1:]
	}
}

// killGroup kills every process left in the op's process group — the
// binary itself on a timeout, and any fast-worker it orphaned.
func killGroup(pgid int) { _ = syscall.Kill(-pgid, syscall.SIGKILL) } // ESRCH (nobody left) is the normal case

// groupCommand is exec.CommandContext with the child in a process group
// of its own, which is killed as a whole when ctx ends.
func groupCommand(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { killGroup(cmd.Process.Pid); return nil }
	// An orphaned worker keeps the pipes open; do not wait for it.
	cmd.WaitDelay = 2 * time.Second
	return cmd
}

// runCLI executes one op as a fresh process, as a user would, and
// observes it only through its exit status, output and resource usage.
func runCLI(ctx context.Context, o op, binDir, root string) opResult {
	res := opResult{Key: o.Key}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	cmd := groupCommand(ctx, binDir+"/"+o.Bin, o.Args...)
	cmd.Dir = root

	var start, first, last, done, workerUp time.Time
	var stdout, stderrTail bytes.Buffer
	cmd.Stdout = &lineStamper{keep: &stdout, fn: func(line string, at time.Time) {
		if doneRE.MatchString(line) {
			done = at
		}
	}}
	cmd.Stderr = &lineStamper{fn: func(line string, at time.Time) {
		if n, total, ok := parseProgress(line); ok {
			if first.IsZero() {
				first = at
			}
			if n == total {
				last = at
			}
			res.Trials = total
			return
		}
		if workerUpRE.MatchString(line) {
			workerUp = at
			return
		}
		if stderrTail.Len() < 2048 {
			stderrTail.WriteString(line + "\n")
		}
	}}

	start = time.Now()
	err := cmd.Start()
	if err != nil {
		res.Failed = "start: " + err.Error()
		return res
	}
	pgid := cmd.Process.Pid
	err = cmd.Wait()
	res.Wall = time.Since(start).Seconds()
	killGroup(pgid)

	since := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return t.Sub(start).Seconds()
	}
	res.First, res.Search, res.Report, res.WorkerUp = since(first), since(last), since(done), since(workerUp)
	if ps := cmd.ProcessState; ps != nil {
		res.CPU = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case ctx.Err() != nil:
		res.Failed = fmt.Sprintf("%v after at most %s (process group killed)", ctx.Err(), opTimeout)
	case errors.Is(err, exec.ErrWaitDelay):
		res.Failed = "exited but left a process holding its output open (killed)"
	case err != nil:
		res.Failed = fmt.Sprintf("%v: %s", err, strings.TrimSpace(stderrTail.String()))
	case o.Search && (first.IsZero() || last.IsZero() || done.IsZero()):
		res.Failed = "search op printed no complete progress/done lines"
	}
	out := stdout.String()
	res.Digest = digest(normalize(out, o.Pinned))
	for _, line := range strings.Split(out, "\n") {
		if f, ok := parseFusion(line); ok {
			res.Fusion = append(res.Fusion, f)
		}
		if d, ok := parseDispatch(line); ok {
			res.Dispatch = &d
		}
	}
	return res
}
