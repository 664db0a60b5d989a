package dispatch

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// Transport is one framed connection to a worker. Send writes one frame
// line (appending the newline); Recv returns the next frame line
// (newline stripped). Both may be called concurrently with each other;
// Send may be called from multiple goroutines. Close tears the
// connection down (killing the worker process for subprocess
// transports) and unblocks a pending Recv with an error.
type Transport interface {
	Send(line []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Dialer establishes a worker connection for a pool slot. attempt
// counts dials of that slot from 0 (respawns re-dial with increasing
// attempt), which fault-injection wrappers use to derive deterministic
// per-connection fault streams.
type Dialer func(slot, attempt int) (Transport, error)

// pidder is implemented by transports backed by a local process.
type pidder interface{ Pid() int }

// rwTransport frames an arbitrary read/write pair. closer tears down
// the underlying resources (and must unblock the reader).
type rwTransport struct {
	r      *bufio.Reader
	wmu    sync.Mutex
	w      io.Writer
	closer func() error

	closeOnce sync.Once
	closeErr  error
}

func newRWTransport(r io.Reader, w io.Writer, closer func() error) *rwTransport {
	return &rwTransport{r: bufio.NewReaderSize(r, 64<<10), w: w, closer: closer}
}

func (t *rwTransport) Send(line []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	// One Write call per frame: interleaving-safe on pipes and sockets.
	_, err := t.w.Write(buf)
	return err
}

func (t *rwTransport) Recv() ([]byte, error) {
	line, err := t.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

func (t *rwTransport) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.closer() })
	return t.closeErr
}

// procTransport runs a worker as a local subprocess and speaks the
// protocol over its stdin/stdout. stderr passes through to this
// process's stderr so worker logs land in the operator's terminal.
type procTransport struct {
	*rwTransport
	cmd *exec.Cmd
}

func (t *procTransport) Pid() int { return t.cmd.Process.Pid }

// CommandDialer spawns one worker subprocess per dial, running argv
// (typically a fast-worker binary). Close kills the process.
func CommandDialer(argv []string) Dialer {
	return func(slot, attempt int) (Transport, error) {
		if len(argv) == 0 {
			return nil, fmt.Errorf("dispatch: empty worker command")
		}
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		closer := func() error {
			stdin.Close()      //nolint:errcheck // best-effort EOF first
			cmd.Process.Kill() //nolint:errcheck // may already be gone
			return cmd.Wait()  //nolint:errcheck // reap; error expected after Kill
		}
		return &procTransport{rwTransport: newRWTransport(stdout, stdin, closer), cmd: cmd}, nil
	}
}

// ResolveWorkerBin locates the fast-worker binary for subprocess
// pools: an explicit path wins, then a fast-worker next to the current
// executable (the common install layout), then $PATH.
func ResolveWorkerBin(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "fast-worker")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("fast-worker"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("dispatch: fast-worker binary not found (pass -worker-bin, or install fast-worker next to this binary or on PATH)")
}

// tcpDialTimeout bounds one connection attempt to a remote worker.
const tcpDialTimeout = 5 * time.Second

// TCPDialer connects to a fast-worker listening on addr
// (fast-worker -listen host:port). net.DialTimeout enables TCP
// keep-alive (15 s), so a peer whose host vanishes surfaces as a read
// error even while no attempt is outstanding.
func TCPDialer(addr string) Dialer {
	return func(slot, attempt int) (Transport, error) {
		conn, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
		if err != nil {
			return nil, err
		}
		return newRWTransport(conn, conn, conn.Close), nil
	}
}

// LoopbackDialer serves each dial with an in-process worker over a
// synchronous pipe — the degenerate "remote" evaluator. The tests use
// it to exercise every dispatcher path (routing, deadlines, retries,
// respawns, chaos) without process or socket overhead; results are identical to
// real workers because both sides run the same ServeConn loop.
func LoopbackDialer() Dialer { return loopbackDialer(localABI()) }

// loopbackDialer is LoopbackDialer with workers of ABI worker.
func loopbackDialer(worker abi) Dialer {
	return func(slot, attempt int) (Transport, error) {
		local, remote := net.Pipe()
		go func() {
			defer remote.Close()
			serveConn(remote, remote, nil, worker) //nolint:errcheck // worker loop ends with the pipe
		}()
		return newRWTransport(local, local, local.Close), nil
	}
}
