package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one real fast-serve process on a free loopback port with a
// private data directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	log     bytes.Buffer
	client  *http.Client
}

// startDaemon starts fast-serve with a fresh data directory under
// runDir; stop removes it.
func startDaemon(binDir, runDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	dataDir, err := os.MkdirTemp(runDir, "serve-data-")
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, dataDir: dataDir, client: &http.Client{}}
	d.cmd = exec.Command(filepath.Join(binDir, "fast-serve"), "-addr", addr, "-data", dataDir,
		"-parallel", fmt.Sprint(parallel), "-max-active", "2", "-max-studies", "100000")
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("start fast-serve: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fast-serve not healthy after 10s: %v\n%s", err, d.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the daemon down the documented way (SIGTERM, drain), waits
// until it has gone and removes its data directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }() // exit status is irrelevant: the run is over
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		killGroup(d.cmd.Process.Pid)
		<-done
	}
	killGroup(d.cmd.Process.Pid)
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dataDir)
}

// peakRSSMB reads the daemon's peak resident set so far (VmHWM, KiB)
// from /proc; 0 if it cannot be read.
func (d *daemon) peakRSSMB() float64 {
	raw, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kib / 1024
		}
	}
	return 0
}

// cpuSeconds reads the daemon's cumulative on-CPU time from /proc: the
// first field of every thread's schedstat, in nanoseconds. (stat's
// utime+stime count 10 ms ticks, too coarse for a 0.5 s pass; the Go
// runtime keeps its threads, so none leaves the sum between two reads.)
func (d *daemon) cpuSeconds() float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	var ns float64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// userSeconds reads the daemon's cumulative user-mode CPU time from
// /proc (utime, in 10 ms ticks): the time spent in the daemon's own
// code, without the kernel's share of every fsync.
func (d *daemon) userSeconds() float64 {
	raw, _ := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	// The command name (field 2) may hold spaces; count from its ")".
	_, rest, _ := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if len(f) < 12 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[11], 64) // field 14 of the line
	return ticks / 100                        // USER_HZ is 100 on every Linux ABI
}

// vars fetches /debug/vars (a flat JSON object of numbers).
func (d *daemon) vars() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return out, nil
}

// runStudy is one serve op: submit, follow the SSE stream to `done`,
// fetch the result. The study id is unique per submission; everything
// else comes from the op.
func (d *daemon) runStudy(ctx context.Context, o op, id string) opResult {
	res := opResult{Key: o.Key, Trials: o.Study.Trials}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	fail := func(format string, a ...any) opResult {
		res.Failed = fmt.Sprintf(format, a...)
		return res
	}
	sp := *o.Study
	sp.ID = id
	body, _ := json.Marshal(sp)

	start := time.Now()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/studies", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fail("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	res.SubmitMS = time.Since(start).Seconds() * 1e3

	sseStart := time.Now()
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/studies/"+id+"/events", nil)
	resp, err = d.client.Do(req)
	if err != nil {
		return fail("events: %v", err)
	}
	if resp.StatusCode/100 != 2 {
		resp.Body.Close()
		return fail("events: %s", resp.Status)
	}
	// Frames are best-effort (a slow consumer loses intermediate ones),
	// so the boundaries are read off whichever frames arrive: the first
	// one that reports a told trial, and the first that reports them all.
	var event, state string
	var first, last, done time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() && done.IsZero() {
		line := sc.Text()
		now := time.Now()
		if res.SSEFirstMS == 0 {
			res.SSEFirstMS = now.Sub(sseStart).Seconds() * 1e3
		}
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var sum struct {
			State        string `json:"state"`
			TrialsDone   int    `json:"trials_done"`
			TrialsTarget int    `json:"trials_target"`
		}
		if event != "front" && json.Unmarshal([]byte(data), &sum) == nil {
			if sum.TrialsDone > 0 && first.IsZero() {
				first = now
			}
			if sum.TrialsDone >= sum.TrialsTarget && last.IsZero() {
				last = now
			}
			state = sum.State
		}
		if event == "done" || event == "shutdown" {
			done = now
		}
	}
	resp.Body.Close()
	if done.IsZero() {
		return fail("events: stream ended without a terminal frame: %v", sc.Err())
	}
	if state != "done" {
		return fail("study ended in state %q", state)
	}
	res.First, res.Search, res.Report = first.Sub(start).Seconds(), last.Sub(start).Seconds(), done.Sub(start).Seconds()

	getStart := time.Now()
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/studies/"+id+"/result", nil)
	resp, err = d.client.Do(req)
	if err != nil {
		return fail("result: %v", err)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode/100 != 2 {
		return fail("result: %s %v", resp.Status, err)
	}
	res.ResultMS = time.Since(getStart).Seconds() * 1e3
	res.Wall = time.Since(start).Seconds()
	res.Digest = digest(normalizeResult(string(doc)))
	return res
}

// fsName names the filesystem holding dir, so a run whose "fsync" went
// to tmpfs is recognisable in the results.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// fsyncProbeMS measures what one small append+fsync costs in dir: the
// floor under every checkpointed batch.
func fsyncProbeMS(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := bytes.Repeat([]byte("x"), 4096)
	var ms []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms)
}
