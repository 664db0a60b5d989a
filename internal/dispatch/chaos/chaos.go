// Package chaos injects seeded faults into dispatch worker connections
// and study-store filesystem operations.
//
// A Plan wraps a dispatch.Dialer so that every connection misbehaves on
// a deterministic schedule derived from (plan seed, slot, dial attempt):
// replies get delayed, dropped, or duplicated; requests get torn
// mid-write with the connection killed; reply bytes get corrupted into
// unparsable JSON; dials get refused. The same plan's StoreHook stalls
// filesystem ops and fails transcript fsyncs. The same plan against the
// same dispatch sequence replays the same faults, which is what lets the
// differential suites assert bit-identical study results under every
// plan — the faults perturb timing, routing, retries, respawns, and
// resumes, and none of that may reach the transcript.
//
// Transport faults are injected on the dispatcher's side of the wire,
// so they compose with any worker transport: loopback in-process
// workers, subprocesses, or TCP peers.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"fast/internal/dispatch"
	"fast/internal/store"
)

// Plan is one deterministic fault schedule. Probabilities are per
// event in [0,1]; zero fields inject nothing.
type Plan struct {
	// Name labels the plan in test output and bench reports.
	Name string `json:"name"`
	// Seed drives every random draw of the plan.
	Seed int64 `json:"seed"`

	// DelayProb delays a received reply by up to MaxDelay (straggler
	// simulation).
	DelayProb float64       `json:"delay_prob,omitempty"`
	MaxDelay  time.Duration `json:"max_delay,omitempty"`
	// DropReplyProb silently discards a received reply (the dispatcher
	// sees silence and must deadline + retry).
	DropReplyProb float64 `json:"drop_reply_prob,omitempty"`
	// DupReplyProb delivers a received reply twice (the dispatcher must
	// discard the second by ID).
	DupReplyProb float64 `json:"dup_reply_prob,omitempty"`
	// CorruptProb mangles a reply into unparsable JSON (the dispatcher
	// must kill the connection: framing is untrustworthy after that).
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// KillSendProb tears a request mid-write and kills the connection
	// (worker dies mid-message; for subprocess workers the process is
	// killed too, exercising the respawn path).
	KillSendProb float64 `json:"kill_send_prob,omitempty"`
	// ConnectRefusals makes the first N dials of every slot fail
	// (worker slow to come up; pool must back off and re-dial).
	ConnectRefusals int `json:"connect_refusals,omitempty"`

	// FsDelayProb stalls a store filesystem op by FsDelay (slow disk;
	// exercises pacing and deadlines without violating durability).
	FsDelayProb float64       `json:"fs_delay_prob,omitempty"`
	FsDelay     time.Duration `json:"fs_delay,omitempty"`
	// FsyncErrProb fails a transcript fsync (classified retryable by the
	// store). The write below the failed sync is still on disk, so the
	// study fails with its batch durable and must resume.
	FsyncErrProb float64 `json:"fsync_err_prob,omitempty"`
}

// StoreHook returns a store.FaultHook implementing the plan's
// filesystem faults from a stream seeded by Plan.Seed alone (each
// connection's stream also mixes in its slot and attempt). Delays apply
// to every op; injected errors target transcript fsyncs only — the
// durability seam whose failure a resumable daemon must survive.
func (p Plan) StoreHook() store.FaultHook {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(p.Seed))
	return func(op store.FaultOp, path string) error {
		mu.Lock()
		delay := p.FsDelayProb > 0 && rng.Float64() < p.FsDelayProb
		fail := p.FsyncErrProb > 0 && op == store.OpSync &&
			strings.HasSuffix(path, "transcript.jsonl") && rng.Float64() < p.FsyncErrProb
		mu.Unlock()
		if delay {
			time.Sleep(p.FsDelay)
		}
		if fail {
			return fmt.Errorf("chaos[%s]: injected %s fault on %s", p.Name, op, path)
		}
		return nil
	}
}

// Wrap decorates d with the plan's faults. Each (slot, attempt)
// connection draws from its own rand stream seeded by
// (Plan.Seed, slot, attempt), so fault schedules do not depend on
// goroutine interleaving.
func (p Plan) Wrap(d dispatch.Dialer) dispatch.Dialer {
	return func(slot, attempt int) (dispatch.Transport, error) {
		if attempt < p.ConnectRefusals {
			return nil, fmt.Errorf("chaos[%s]: connection refused (slot %d attempt %d)", p.Name, slot, attempt)
		}
		tr, err := d(slot, attempt)
		if err != nil {
			return nil, err
		}
		seed := p.Seed*1_000_003 + int64(slot)*9_176 + int64(attempt)
		return &faultTransport{
			Transport: tr,
			plan:      p,
			rng:       rand.New(rand.NewSource(seed)),
		}, nil
	}
}

// faultTransport injects the plan's faults around a real transport.
type faultTransport struct {
	dispatch.Transport
	plan Plan

	mu      sync.Mutex // guards rng and pending
	rng     *rand.Rand
	pending [][]byte // duplicated replies awaiting redelivery
}

// Send occasionally writes a torn prefix of the frame and kills the
// connection, simulating a worker dying mid-message.
func (t *faultTransport) Send(line []byte) error {
	t.mu.Lock()
	kill := t.plan.KillSendProb > 0 && t.rng.Float64() < t.plan.KillSendProb
	t.mu.Unlock()
	if kill {
		if len(line) > 1 {
			t.Transport.Send(line[:len(line)/2]) //nolint:errcheck // torn write, best effort
		}
		t.Transport.Close() //nolint:errcheck // the fault is the point
		return fmt.Errorf("chaos[%s]: connection killed mid-send", t.plan.Name)
	}
	return t.Transport.Send(line)
}

// Recv applies reply faults: redeliver a stashed duplicate, then per
// received frame — drop (read the next one instead), corrupt (mangle
// into unparsable bytes), duplicate (stash a copy), delay.
func (t *faultTransport) Recv() ([]byte, error) {
	t.mu.Lock()
	if len(t.pending) > 0 {
		line := t.pending[0]
		t.pending = t.pending[1:]
		t.mu.Unlock()
		return line, nil
	}
	t.mu.Unlock()
	for {
		line, err := t.Transport.Recv()
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		switch {
		case t.plan.DropReplyProb > 0 && t.rng.Float64() < t.plan.DropReplyProb:
			t.mu.Unlock()
			continue // swallowed; the dispatcher sees silence
		case t.plan.CorruptProb > 0 && t.rng.Float64() < t.plan.CorruptProb:
			t.mu.Unlock()
			// Guaranteed-unparsable corruption: JSON frames start with
			// '{'; a mangled first byte always fails the parse, which is
			// the contract the dispatcher's corrupt-reply path needs.
			bad := append([]byte("\x01corrupt\x01"), line...)
			return bad, nil
		case t.plan.DupReplyProb > 0 && t.rng.Float64() < t.plan.DupReplyProb:
			dup := append([]byte(nil), line...)
			t.pending = append(t.pending, dup)
		}
		var delay time.Duration
		if t.plan.DelayProb > 0 && t.rng.Float64() < t.plan.DelayProb && t.plan.MaxDelay > 0 {
			delay = time.Duration(t.rng.Int63n(int64(t.plan.MaxDelay)))
		}
		t.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		return line, nil
	}
}
