// Package dispatch shards trial evaluation across worker processes: the
// study runner's ask-batch chunks (internal/core/runner.go) are shipped
// to fast-worker peers as JSON lines — eval spec fingerprint plus config
// index vectors — evaluated remotely against each worker's own
// compiled-plan cache, and folded back positionally, so the optimizer
// transcript is bit-identical to the in-process path at any worker
// count, under any reply interleaving.
//
// Remote evaluation turns worker crashes, wedged workers, torn
// connections, and duplicate replies into everyday events, and the
// pool answers each with one mechanism:
//
//   - every attempt carries its own deadline, armed when the chunk is
//     sent and disarmed by its reply; on expiry the connection is
//     killed, which fails the attempt like any other connection loss;
//   - a failed attempt is retried on the next free worker after capped
//     exponential backoff, up to maxAttempts rounds per chunk; replies
//     for requests nobody holds any more are discarded by ID;
//   - dead workers surface as read or write errors on their connection
//     (a subprocess's exit is an EOF, a TCP peer's host is covered by
//     the dialer's keep-alive) and are respawned within a per-slot
//     budget, so a crash-looping worker retires instead of flapping;
//   - when the pool is exhausted — every slot retired, or one chunk out
//     of attempts — evaluation falls back to the in-process objective.
//     The study always completes; degraded runs say so in the stats and
//     logs.
//
// None of this machinery can reach the search trajectory: evaluations
// are deterministic per index vector, replies are folded by position,
// and a retried chunk re-evaluates to bit-identical values wherever it
// lands. The chaos differential suite (dispatch_test.go) proves exactly
// that under every fault plan.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/fault"
	"fast/internal/search"
)

// Retry schedule: a chunk gets maxAttempts dispatch rounds, separated
// (and slot respawns likewise paced) by capped exponential backoff.
const (
	maxAttempts    = 4
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 3 * time.Second
)

// Options configures a Pool. Exactly one of Workers (+WorkerCmd),
// Connect, or Dialer selects the worker source.
type Options struct {
	// Workers is the subprocess worker count (with WorkerCmd), or the
	// slot count when Dialer is set (default 1).
	Workers int
	// WorkerCmd is the argv spawning one subprocess worker (typically
	// {"/path/to/fast-worker"}).
	WorkerCmd []string
	// Connect lists TCP worker addresses; one slot per address.
	Connect []string
	// Dialer overrides the worker source entirely (tests, loopback).
	Dialer Dialer
	// WrapDialer decorates every slot's dialer (the fault-injection
	// seam; see the chaos subpackage).
	WrapDialer func(Dialer) Dialer

	// ChunkTimeout is the per-attempt deadline: an attempt unanswered
	// this long kills its worker's connection (presumed wedged) and the
	// chunk retries. Default 2m.
	ChunkTimeout time.Duration
	// RespawnBudget is the per-slot re-dial allowance (failed or
	// successful) after the initial connection; a slot that exhausts it
	// retires. Default 5; negative means no respawns.
	RespawnBudget int
	// Logf receives structured worker lifecycle and degradation lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.ChunkTimeout <= 0 {
		o.ChunkTimeout = 2 * time.Minute
	}
	if o.RespawnBudget < 0 {
		o.RespawnBudget = 0
	} else if o.RespawnBudget == 0 {
		o.RespawnBudget = 5
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// outcome is one attempt's terminal report back to its chunk.
type outcome struct {
	id    uint64
	evals []search.Evaluation
	err   error
}

// deliver hands o to its chunk without blocking: a chunk that gave up
// (context ended) reads nothing more, and its report is dropped.
func deliver(ch chan outcome, o outcome) {
	select {
	case ch <- o:
	default:
	}
}

// slot is one worker seat: a dialer, the current connection (nil while
// down), and the single outstanding request the protocol allows.
type slot struct {
	id   int
	dial Dialer

	mu       sync.Mutex
	tr       Transport
	pid      int
	specs    map[string]bool // spec fingerprints sent on this connection
	leased   bool
	cur      uint64       // outstanding request ID (0 = none)
	chunk    chan outcome // where cur's outcome goes
	deadline *time.Timer  // cur's attempt deadline
	retired  bool

	trials   atomic.Int64
	respawns atomic.Int64
}

// endAttemptLocked disarms the outstanding attempt's deadline and frees
// the lease (caller holds s.mu).
func (s *slot) endAttemptLocked() {
	if s.deadline != nil {
		s.deadline.Stop()
	}
	s.cur, s.chunk, s.deadline, s.leased = 0, nil, nil, false
}

// Pool dispatches evaluation chunks across a set of worker slots. It is
// safe for concurrent use by any number of study runner goroutines.
type Pool struct {
	opts Options

	slots   []*slot
	free    chan *slot
	dead    chan struct{} // closed when every slot has retired
	closing chan struct{} // closed by Close
	live    atomic.Int64
	closed  atomic.Bool
	wg      sync.WaitGroup

	reqID atomic.Uint64

	specMu sync.RWMutex
	specs  map[string][]byte // fp -> marshaled EvalSpec

	degradedOnce sync.Once

	mRemoteChunks atomic.Int64
	mRemotePoints atomic.Int64
	mRetries      atomic.Int64
	mDuplicates   atomic.Int64
	mTimeouts     atomic.Int64
	mRespawns     atomic.Int64
	mDialFails    atomic.Int64
	mCorrupt      atomic.Int64
	mDegraded     atomic.Int64
	mInFlight     atomic.Int64
}

// New starts a pool: every slot dials its worker asynchronously (a slow
// or refusing worker delays nothing but itself). Always pair with Close.
func New(opts Options) (*Pool, error) {
	o := opts.withDefaults()
	var dialers []Dialer
	switch {
	case opts.Dialer != nil:
		for i := 0; i < o.Workers; i++ {
			dialers = append(dialers, opts.Dialer)
		}
	case len(opts.Connect) > 0:
		for _, addr := range opts.Connect {
			dialers = append(dialers, TCPDialer(addr))
		}
	case len(opts.WorkerCmd) > 0:
		d := CommandDialer(opts.WorkerCmd)
		for i := 0; i < o.Workers; i++ {
			dialers = append(dialers, d)
		}
	default:
		return nil, fmt.Errorf("dispatch: Options needs a worker source (WorkerCmd, Connect, or Dialer)")
	}
	if o.WrapDialer != nil {
		for i := range dialers {
			dialers[i] = o.WrapDialer(dialers[i])
		}
	}

	p := &Pool{
		opts:    o,
		free:    make(chan *slot, 2*len(dialers)),
		dead:    make(chan struct{}),
		closing: make(chan struct{}),
		specs:   map[string][]byte{},
	}
	for i, d := range dialers {
		p.slots = append(p.slots, &slot{id: i, dial: d})
	}
	p.live.Store(int64(len(p.slots)))
	p.wg.Add(len(p.slots))
	for _, s := range p.slots {
		go p.manage(s)
	}
	return p, nil
}

// Size returns the pool's slot count.
func (p *Pool) Size() int { return len(p.slots) }

// Close tears the pool down: kills every worker connection and waits
// for slot managers to exit. Chunks dispatched concurrently with Close
// fail over to their in-process fallback.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.closing)
	for _, s := range p.slots {
		p.killSlot(s, "pool closing")
	}
	p.wg.Wait()
}

// Dispatch adapts the pool to core.WithDispatch: it registers the
// study's eval spec under its content fingerprint and returns a batch
// objective that ships chunks to the pool, keeping the in-process
// objective as the degradation fallback. The Run's context rides along
// into every chunk: a canceled context stops waiting on remote work
// immediately (the Runner abandons the batch, so the placeholder
// evaluations a canceled chunk returns are never told to the optimizer).
func (p *Pool) Dispatch() core.DispatchFunc {
	return func(ctx context.Context, spec core.EvalSpec, local search.BatchObjective) search.BatchObjective {
		raw, err := spec.Marshal()
		if err != nil {
			// An unserializable spec cannot leave the process; evaluate
			// in-process (bit-identical by definition).
			p.opts.Logf("level=error msg=\"eval spec not serializable; dispatch disabled for study\" err=%q", err)
			return local
		}
		fp := core.FingerprintSpec(raw)
		p.specMu.Lock()
		p.specs[fp] = raw
		p.specMu.Unlock()
		return func(idxs [][arch.NumParams]int) []search.Evaluation {
			return p.Do(ctx, fp, idxs, local)
		}
	}
}

// abandoned returns placeholder evaluations for a chunk whose context
// ended. Safe by construction: context doneness is monotone, so the
// Runner — which re-checks ctx after the worker pool drains — discards
// the whole batch untold and the placeholders never reach the
// transcript.
func abandoned(n int) []search.Evaluation {
	return make([]search.Evaluation, n)
}

// Do evaluates one chunk remotely, one attempt per round with retries
// on other workers, and returns exactly one Evaluation per index vector.
// It never fails: out of attempts or out of workers, it falls back to
// local. A done ctx is the one exception — the chunk returns placeholder
// evaluations that the Runner's own cancellation check discards (see
// abandoned); its outstanding attempt keeps its deadline, so a worker
// that never answers is still reaped.
func (p *Pool) Do(ctx context.Context, fp string, idxs [][arch.NumParams]int, local search.BatchObjective) []search.Evaluation {
	if len(idxs) == 0 {
		return nil
	}
	if ctx.Err() != nil {
		return abandoned(len(idxs))
	}
	if p.closed.Load() {
		return local(idxs)
	}
	p.mInFlight.Add(1)
	defer p.mInFlight.Add(-1)

	// One outcome per attempt at most, so the buffer never fills.
	ch := make(chan outcome, maxAttempts)
	for round := 1; round <= maxAttempts; round++ {
		if round > 1 {
			p.mRetries.Add(1)
			if !p.sleep(ctx, backoff(round-1)) {
				if ctx.Err() != nil {
					return abandoned(len(idxs))
				}
				break // pool closing
			}
		}
		s := p.acquire()
		if s == nil {
			// Every slot retired (or the pool is closing): the study
			// must still complete, so evaluate in-process from here on.
			p.degradedOnce.Do(func() {
				p.opts.Logf("level=warn msg=\"worker pool exhausted; degrading to in-process evaluation\"")
			})
			p.mDegraded.Add(1)
			return local(idxs)
		}
		id, err := p.sendAttempt(s, ch, fp, idxs)
		if err != nil {
			continue
		}
		o, ok := await(ctx, ch, id)
		if !ok {
			return abandoned(len(idxs))
		}
		if o.err == nil && len(o.evals) != len(idxs) {
			o.err = fmt.Errorf("dispatch: short reply: %d evals for %d points", len(o.evals), len(idxs))
		}
		if o.err == nil {
			p.mRemoteChunks.Add(1)
			p.mRemotePoints.Add(int64(len(idxs)))
			return o.evals
		}
	}
	p.mDegraded.Add(1)
	p.opts.Logf("level=warn msg=\"chunk degraded to in-process evaluation\" attempts=%d points=%d", maxAttempts, len(idxs))
	return local(idxs)
}

// await blocks until attempt id reports on ch or ctx ends (ok=false).
// Reports for other IDs are earlier rounds' send failures, already
// retried, and are skipped.
func await(ctx context.Context, ch chan outcome, id uint64) (outcome, bool) {
	for {
		// A context win abandons the batch entirely; a reply carries
		// the same deterministic evaluations whenever it lands.
		//fast:allow nondetsource reply-vs-cancel race; a canceled batch is never told to the optimizer
		select {
		case <-ctx.Done():
			return outcome{}, false
		case o := <-ch:
			if o.id == id {
				return o, true
			}
		}
	}
}

// acquire leases a connected, idle slot, blocking until one frees up;
// nil means the pool is dead (every slot retired) or closing.
func (p *Pool) acquire() *slot {
	for {
		// Blocking on whichever of (free slot, pool death, shutdown)
		// happens first is inherently racy and deliberately so; slot
		// identity never influences evaluation results.
		//fast:allow nondetsource worker availability race; any leased worker returns identical evaluations
		select {
		case s := <-p.free:
			if s.tryLease() {
				return s
			}
		case <-p.dead:
			return nil
		case <-p.closing:
			return nil
		}
	}
}

func (s *slot) tryLease() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired || s.tr == nil || s.leased {
		return false
	}
	s.leased = true
	return true
}

// enqueue returns a slot to the free queue (never blocks: the queue is
// sized for duplicate entries, which tryLease filters out).
func (p *Pool) enqueue(s *slot) {
	select {
	case p.free <- s:
	default:
	}
}

// sendAttempt ships one chunk to a leased slot, prefixed by the spec
// frame the first time this connection sees the study, and arms the
// attempt's deadline. A send failure kills the connection (its manager
// respawns it and reports the attempt failed on ch) and returns an
// error, as does a local failure, which frees the slot instead.
func (p *Pool) sendAttempt(s *slot, ch chan outcome, fp string, idxs [][arch.NumParams]int) (uint64, error) {
	id := p.reqID.Add(1)
	s.mu.Lock()
	tr := s.tr
	if tr == nil || s.retired {
		s.leased = false
		s.mu.Unlock()
		return 0, errors.New("dispatch: slot connection lost")
	}
	needSpec := !s.specs[fp]
	if needSpec {
		s.specs[fp] = true
	}
	s.cur, s.chunk = id, ch
	s.deadline = time.AfterFunc(p.opts.ChunkTimeout, func() { p.expire(s, id) })
	s.mu.Unlock()

	if needSpec {
		p.specMu.RLock()
		raw := p.specs[fp]
		p.specMu.RUnlock()
		if raw == nil {
			p.clearAttempt(s)
			return 0, fmt.Errorf("dispatch: unregistered spec %.12s", fp)
		}
		self := localABI()
		line, err := marshalFrame(frame{Type: frameSpec, SpecFP: fp, Spec: raw, Arch: self.Arch, ABI: self.Version})
		if err != nil {
			p.clearAttempt(s)
			return 0, err
		}
		if err := tr.Send(line); err != nil {
			p.killSlot(s, "spec send failed")
			return 0, err
		}
	}
	line, err := marshalFrame(frame{Type: frameEval, ID: id, SpecFP: fp, Idxs: idxs})
	if err != nil {
		p.clearAttempt(s)
		return 0, err
	}
	if err := tr.Send(line); err != nil {
		p.killSlot(s, "eval send failed")
		return 0, err
	}
	return id, nil
}

// expire is attempt id's deadline: if the slot still holds it, the
// worker is presumed wedged (or its reply lost), so the attempt fails
// and the connection dies; the slot's manager respawns it. Its chunk
// may long since have been abandoned; the kill still frees the slot.
// The attempt is detached under the lock but the lease is kept until
// the respawned connection is installed, so a reply racing the kill is
// discarded as a duplicate and the doomed connection serves no one else.
func (p *Pool) expire(s *slot, id uint64) {
	s.mu.Lock()
	if s.cur != id {
		s.mu.Unlock()
		return
	}
	tr, ch := s.tr, s.chunk
	s.cur, s.chunk, s.deadline = 0, nil, nil
	s.mu.Unlock()
	p.mTimeouts.Add(1)
	deliver(ch, outcome{id: id, err: errors.New("dispatch: chunk deadline exceeded")})
	p.closeConn(s, tr, "chunk deadline")
}

// clearAttempt rolls back a lease after a local (non-transport) send
// failure, returning the slot to the free queue.
func (p *Pool) clearAttempt(s *slot) {
	s.mu.Lock()
	s.endAttemptLocked()
	s.mu.Unlock()
	p.enqueue(s)
}

// killSlot tears down a slot's connection; the slot's manager observes
// the dead transport, fails the in-flight attempt over, and respawns
// within the slot's budget.
func (p *Pool) killSlot(s *slot, why string) {
	s.mu.Lock()
	tr := s.tr
	s.mu.Unlock()
	p.closeConn(s, tr, why)
}

// closeConn closes one of s's connections (nil is a no-op).
func (p *Pool) closeConn(s *slot, tr Transport, why string) {
	if tr != nil {
		if !p.closed.Load() {
			p.opts.Logf("level=warn msg=\"killing worker connection\" slot=%d reason=%q", s.id, why)
		}
		tr.Close() //nolint:errcheck // best-effort teardown
	}
}

// manage owns one slot's lifecycle: dial, serve reads until the
// connection dies, fail over the in-flight attempt, respawn within
// budget, retire when the budget is gone or the pool closes.
func (p *Pool) manage(s *slot) {
	defer p.wg.Done()
	budget := p.opts.RespawnBudget
	for attempt := 0; ; attempt++ {
		if p.closed.Load() {
			p.retire(s)
			return
		}
		if attempt > 0 {
			if budget <= 0 {
				p.opts.Logf("level=warn msg=\"worker slot retired\" slot=%d reason=\"respawn budget exhausted\"", s.id)
				p.retire(s)
				return
			}
			budget--
			if !p.sleep(context.Background(), backoff(attempt)) {
				p.retire(s)
				return
			}
		}
		tr, err := s.dial(s.id, attempt)
		if err != nil {
			p.mDialFails.Add(1)
			p.opts.Logf("level=warn msg=\"worker dial failed\" slot=%d attempt=%d err=%q", s.id, attempt, err)
			continue
		}
		if attempt > 0 {
			p.mRespawns.Add(1)
			s.respawns.Add(1)
		}
		s.install(tr)
		// Close sweeps killSlot once. A dial that straddles the sweep
		// publishes a transport the sweep never saw, so re-check here:
		// either the sweep sees the transport or this sees closed.
		if p.closed.Load() {
			p.teardown(s, errors.New("pool closing"))
			p.retire(s)
			return
		}
		p.opts.Logf("level=info msg=\"worker up\" slot=%d pid=%d attempt=%d", s.id, s.pidLocked(), attempt)
		p.enqueue(s)
		rerr := p.readLoop(s, tr)
		p.teardown(s, rerr)
		if fault.ClassOf(rerr) == fault.ClassTerminal {
			// A worker of another ABI: every respawn would reach it
			// again, so the slot retires at once.
			p.opts.Logf("level=error msg=\"worker slot retired\" slot=%d err=%q", s.id, rerr)
			p.retire(s)
			return
		}
		if !p.closed.Load() {
			p.opts.Logf("level=warn msg=\"worker connection lost\" slot=%d err=%q", s.id, rerr)
		}
	}
}

// install publishes a fresh connection on the slot.
func (s *slot) install(tr Transport) {
	s.mu.Lock()
	s.tr = tr
	s.specs = map[string]bool{}
	s.endAttemptLocked()
	s.pid = 0
	if pp, ok := tr.(pidder); ok {
		s.pid = pp.Pid()
	}
	s.mu.Unlock()
}

func (s *slot) pidLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pid
}

// teardown clears a dead connection and fails the in-flight attempt
// over to its chunk.
func (p *Pool) teardown(s *slot, err error) {
	s.mu.Lock()
	tr := s.tr
	s.tr = nil
	id, ch := s.cur, s.chunk
	s.endAttemptLocked()
	s.specs = nil
	s.mu.Unlock()
	if tr != nil {
		tr.Close() //nolint:errcheck // already dead
	}
	if ch != nil && id != 0 {
		deliver(ch, outcome{id: id, err: fmt.Errorf("dispatch: worker died: %w", err)})
	}
}

// retire permanently removes a slot; when the last slot retires the
// pool is dead and acquire unblocks into degradation.
func (p *Pool) retire(s *slot) {
	s.mu.Lock()
	already := s.retired
	s.retired = true
	s.mu.Unlock()
	if already {
		return
	}
	if p.live.Add(-1) == 0 {
		close(p.dead)
	}
}

// readLoop routes one connection's replies until it dies. A frame that
// does not parse kills the connection (line framing can no longer be
// trusted).
func (p *Pool) readLoop(s *slot, tr Transport) error {
	for {
		line, err := tr.Recv()
		if err != nil {
			return err
		}
		f, err := parseReply(line)
		if err != nil {
			p.mCorrupt.Add(1)
			return fmt.Errorf("dispatch: corrupt reply: %w", err)
		}
		switch f.Type {
		case frameRefused:
			return fault.Terminal("dispatch.handshake", fmt.Errorf("worker refused the study: %s", f.Err))
		case frameResult, frameError:
			s.mu.Lock()
			if f.ID != 0 && f.ID == s.cur {
				ch := s.chunk
				s.endAttemptLocked()
				s.mu.Unlock()
				o := outcome{id: f.ID}
				if f.Type == frameError {
					o.err = errors.New(f.Err)
				} else {
					o.evals = f.Evals
					s.trials.Add(int64(len(f.Evals)))
				}
				deliver(ch, o)
				p.enqueue(s)
			} else {
				s.mu.Unlock()
				if f.ID != 0 {
					p.mDuplicates.Add(1) // duplicated or long-retired reply
				} else if f.Type == frameError {
					p.opts.Logf("level=warn msg=\"worker error\" slot=%d err=%q", s.id, f.Err)
				}
			}
		default:
			// Unknown reply type: tolerated for forward compatibility.
			p.opts.Logf("level=warn msg=\"unknown reply type\" slot=%d type=%q", s.id, f.Type)
		}
	}
}

// backoff returns the capped exponential delay before the n-th retry
// or respawn (n >= 1).
func backoff(n int) time.Duration {
	d := retryBaseDelay << uint(n-1)
	if d <= 0 || d > retryMaxDelay {
		d = retryMaxDelay
	}
	return d
}

// sleep pauses for d, returning false if the pool began closing or ctx
// ended first.
func (p *Pool) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	//fast:allow nondetsource retry backoff timer; delays scheduling only, never evaluation values
	select {
	case <-t.C:
		return true
	case <-p.closing:
		return false
	case <-ctx.Done():
		return false
	}
}
