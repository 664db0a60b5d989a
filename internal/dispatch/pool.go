// Package dispatch shards trial evaluation across worker processes: the
// Runner's ask-batch chunks (see core.Runner) are shipped to fast-worker
// peers as JSON lines — eval spec fingerprint plus config index vectors
// — evaluated remotely against each worker's own compiled-plan cache,
// and folded back positionally, so the optimizer transcript is
// bit-identical to the in-process path at any worker count, under any
// reply interleaving.
//
// The package is built robustness-first, because remote evaluation
// turns worker crashes, stragglers, torn connections, and duplicate
// replies into everyday events rather than theory:
//
//   - per-chunk attempt deadlines, with capped exponential backoff and
//     seeded-jitter retries on other workers;
//   - hedged re-dispatch of straggler chunks (first reply wins; late
//     and duplicate replies are discarded by ID);
//   - worker health via idle-probe heartbeats plus broken-pipe / exit
//     detection on every read and write;
//   - bounded per-slot respawn budgets, so a crash-looping worker
//     retires instead of flapping forever;
//   - graceful degradation: when the pool is exhausted — every slot
//     retired, or one chunk out of attempts — evaluation falls back to
//     the in-process objective. The study always completes; degraded
//     runs just say so in the stats and logs.
//
// None of this machinery can reach the search trajectory: evaluations
// are deterministic per index vector, replies are folded by position,
// and a retried or hedged chunk re-evaluates to bit-identical values
// wherever it lands. The chaos differential suite (chaos_test.go)
// proves exactly that under every fault plan.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/search"
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

	// ChunkTimeout is the per-attempt deadline: a chunk unanswered this
	// long kills the attempt's workers (presumed wedged) and retries.
	// Default 2m.
	ChunkTimeout time.Duration
	// HedgeAfter is the straggler threshold: a chunk unanswered this
	// long is speculatively re-dispatched to a free worker, first reply
	// wins. 0 defaults to 15s; negative disables hedging.
	HedgeAfter time.Duration
	// RetryBaseDelay / RetryMaxDelay shape the capped exponential
	// backoff between attempts (defaults 100ms / 3s); each delay is
	// jittered by the seeded generator.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// MaxAttempts bounds dispatch rounds per chunk before the chunk
	// degrades to in-process evaluation. Default 4.
	MaxAttempts int
	// HeartbeatEvery is the idle-probe period (default 10s);
	// HeartbeatMiss is the silence threshold after which an unanswered
	// probe kills the connection (default 30s).
	HeartbeatEvery time.Duration
	HeartbeatMiss  time.Duration
	// RespawnBudget is the per-slot re-dial allowance (failed or
	// successful) after the initial connection; a slot that exhausts it
	// retires. Default 5.
	RespawnBudget int
	// Seed drives the backoff jitter deterministically. Default 1.
	Seed int64
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
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 15 * time.Second
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 100 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 3 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 10 * time.Second
	}
	if o.HeartbeatMiss <= 0 {
		o.HeartbeatMiss = 30 * time.Second
	}
	if o.RespawnBudget < 0 {
		o.RespawnBudget = 0
	} else if o.RespawnBudget == 0 {
		o.RespawnBudget = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
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

// chunkState is the rendezvous for one chunk's attempts: every reply or
// failure addressed to one of the chunk's request IDs lands on ch;
// done marks the chunk completed so stragglers can be counted as
// discarded duplicates.
type chunkState struct {
	ch   chan outcome
	done atomic.Bool
}

func (ck *chunkState) deliver(o outcome) {
	select {
	case ck.ch <- o:
	default: // chunk gave up long ago; drop
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
	cur      uint64      // outstanding request ID (0 = none)
	chunk    *chunkState // nil for pings
	pinging  bool
	pingSent time.Time
	lastSeen time.Time
	retired  bool

	trials   atomic.Int64
	respawns atomic.Int64
}

// Pool dispatches evaluation chunks across a set of worker slots. It is
// safe for concurrent use by any number of Runner goroutines.
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

	jmu    sync.Mutex
	jitter *rand.Rand

	degradedOnce sync.Once

	mRemoteChunks atomic.Int64
	mRemotePoints atomic.Int64
	mRetries      atomic.Int64
	mHedges       atomic.Int64
	mDuplicates   atomic.Int64
	mTimeouts     atomic.Int64
	mRespawns     atomic.Int64
	mDialFails    atomic.Int64
	mCorrupt      atomic.Int64
	mDegraded     atomic.Int64
	mInFlight     atomic.Int64
}

// New starts a pool: every slot dials its worker asynchronously (a slow
// or refusing worker delays nothing but itself) and the heartbeat
// prober begins. Always pair with Close.
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
		jitter:  rand.New(rand.NewSource(o.Seed)),
	}
	for i, d := range dialers {
		p.slots = append(p.slots, &slot{id: i, dial: d})
	}
	p.live.Store(int64(len(p.slots)))
	p.wg.Add(len(p.slots) + 1)
	for _, s := range p.slots {
		go p.manage(s)
	}
	go p.heartbeatLoop()
	return p, nil
}

// Size returns the pool's slot count.
func (p *Pool) Size() int { return len(p.slots) }

// Close tears the pool down: kills every worker connection, stops the
// heartbeat, and waits for slot managers to exit. Chunks dispatched
// concurrently with Close fail over to their in-process fallback.
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
// into every chunk: per-attempt deadlines are clamped to the context's
// remaining time, and a canceled context stops remote work immediately
// (the Runner abandons the batch, so the placeholder evaluations a
// canceled chunk returns are never told to the optimizer).
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

// attemptTimeout clamps the per-attempt chunk deadline to ctx's
// remaining time; ok=false means the context is already over budget.
func (p *Pool) attemptTimeout(ctx context.Context) (time.Duration, bool) {
	timeout := p.opts.ChunkTimeout
	if dl, ok := ctx.Deadline(); ok {
		// The study deadline bounds scheduling only; evaluations carry no
		// timestamps, so clamping attempts cannot reach the transcript.
		//fast:allow nondetsource study-deadline clamp gates retry scheduling, never evaluation values
		rem := time.Until(dl)
		if rem <= 0 {
			return 0, false
		}
		if rem < timeout {
			timeout = rem
		}
	}
	return timeout, true
}

// Do evaluates one chunk remotely, retrying/hedging across workers, and
// returns exactly one Evaluation per index vector. It never fails: out
// of attempts or out of workers, it falls back to local. A done ctx is
// the one exception — the chunk returns placeholder evaluations that
// the Runner's own cancellation check discards (see abandoned).
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

	ck := &chunkState{ch: make(chan outcome, 4*p.opts.MaxAttempts+8)}
	defer ck.done.Store(true)
	live := map[uint64]*slot{} // request ID -> slot holding that attempt
	outstanding := 0

	for round := 1; round <= p.opts.MaxAttempts; round++ {
		if round > 1 {
			p.mRetries.Add(1)
			if !p.sleepCtx(ctx, p.backoff(round-1)) {
				if ctx.Err() != nil {
					return abandoned(len(idxs))
				}
				break // pool closing
			}
		}
		timeout, ok := p.attemptTimeout(ctx)
		if !ok {
			return abandoned(len(idxs))
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
		id, err := p.sendAttempt(s, ck, fp, idxs)
		if err != nil {
			continue
		}
		live[id] = s
		outstanding++

		hedge := newHedgeTimer(p.opts.HedgeAfter)
		deadline := time.NewTimer(timeout)
		waiting := true
		for waiting {
			// The four-way race below — first reply wins against the
			// hedge and deadline timers and the study's own context — is
			// the robustness mechanism itself. It cannot reach the
			// transcript: whichever attempt answers carries the same
			// deterministic evaluations, and a context win abandons the
			// batch entirely.
			//fast:allow nondetsource first-reply-wins race among attempts of one chunk; all replies carry identical evaluations
			select {
			case <-ctx.Done():
				// Client gone or study deadline passed: stop burning
				// workers on a batch nobody will consume.
				hedge.Stop()
				deadline.Stop()
				return abandoned(len(idxs))
			case o := <-ck.ch:
				if _, mine := live[o.id]; !mine {
					continue // stale attempt from an earlier round
				}
				delete(live, o.id)
				outstanding--
				if o.err == nil && len(o.evals) != len(idxs) {
					o.err = fmt.Errorf("dispatch: short reply: %d evals for %d points", len(o.evals), len(idxs))
				}
				if o.err == nil {
					hedge.Stop()
					deadline.Stop()
					ck.done.Store(true)
					p.mRemoteChunks.Add(1)
					p.mRemotePoints.Add(int64(len(idxs)))
					return o.evals
				}
				if outstanding == 0 {
					waiting = false // every attempt in flight failed; retry now
				}
			case <-hedge.C:
				hedge.fired()
				if s2 := p.tryAcquire(); s2 != nil {
					if id2, err := p.sendAttempt(s2, ck, fp, idxs); err == nil {
						live[id2] = s2
						outstanding++
						p.mHedges.Add(1)
					}
				}
			case <-deadline.C:
				// Past the deadline every outstanding attempt is
				// presumed wedged (or its reply lost): kill those
				// connections — their managers respawn them — and
				// retry on a fresh worker.
				p.mTimeouts.Add(1)
				for _, sl := range live {
					p.killSlot(sl, "chunk deadline")
				}
				waiting = false
			}
		}
		hedge.Stop()
		deadline.Stop()
	}
	p.mDegraded.Add(1)
	p.opts.Logf("level=warn msg=\"chunk degraded to in-process evaluation\" attempts=%d points=%d", p.opts.MaxAttempts, len(idxs))
	return local(idxs)
}

// hedgeTimer wraps the optional speculative-re-dispatch timer; a
// non-positive threshold never fires, and the timer fires at most once
// per round.
type hedgeTimer struct {
	C <-chan time.Time
	t *time.Timer
}

func newHedgeTimer(after time.Duration) *hedgeTimer {
	if after <= 0 {
		return &hedgeTimer{C: nil}
	}
	t := time.NewTimer(after)
	return &hedgeTimer{C: t.C, t: t}
}

func (h *hedgeTimer) fired() { h.C = nil }
func (h *hedgeTimer) Stop() {
	if h.t != nil {
		h.t.Stop()
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

// tryAcquire leases a free slot without blocking (the hedge path).
func (p *Pool) tryAcquire() *slot {
	for {
		select {
		case s := <-p.free:
			if s.tryLease() {
				return s
			}
		default:
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
// frame the first time this connection sees the study. A send failure
// kills the connection (its manager respawns it) and reports the
// attempt failed without consuming a request ID registration.
func (p *Pool) sendAttempt(s *slot, ck *chunkState, fp string, idxs [][arch.NumParams]int) (uint64, error) {
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
	s.cur, s.chunk, s.pinging = id, ck, false
	s.mu.Unlock()

	if needSpec {
		p.specMu.RLock()
		raw := p.specs[fp]
		p.specMu.RUnlock()
		if raw == nil {
			p.clearAttempt(s)
			return 0, fmt.Errorf("dispatch: unregistered spec %.12s", fp)
		}
		line, err := marshalFrame(frame{Type: frameSpec, SpecFP: fp, Spec: raw})
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

// clearAttempt rolls back a lease after a local (non-transport) send
// failure, returning the slot to the free queue.
func (p *Pool) clearAttempt(s *slot) {
	s.mu.Lock()
	s.cur, s.chunk, s.leased = 0, nil, false
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
			if !p.sleep(p.backoff(attempt)) {
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
	s.leased, s.cur, s.chunk, s.pinging = false, 0, nil, false
	s.pid = 0
	if pp, ok := tr.(pidder); ok {
		s.pid = pp.Pid()
	}
	//fast:allow nondetsource worker-liveness bookkeeping; timestamps gate respawns, never evaluations
	s.lastSeen = time.Now()
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
	id, ck := s.cur, s.chunk
	s.cur, s.chunk, s.pinging, s.leased = 0, nil, false, false
	s.specs = nil
	s.mu.Unlock()
	if tr != nil {
		tr.Close() //nolint:errcheck // already dead
	}
	if ck != nil && id != 0 {
		ck.deliver(outcome{id: id, err: fmt.Errorf("dispatch: worker died: %w", err)})
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

// readLoop routes one connection's replies until it dies. Every frame
// refreshes the slot's liveness; a frame that does not parse kills the
// connection (line framing can no longer be trusted).
func (p *Pool) readLoop(s *slot, tr Transport) error {
	for {
		line, err := tr.Recv()
		if err != nil {
			return err
		}
		s.touch()
		f, err := parseReply(line)
		if err != nil {
			p.mCorrupt.Add(1)
			return fmt.Errorf("dispatch: corrupt reply: %w", err)
		}
		switch f.Type {
		case framePong:
			s.mu.Lock()
			if s.pinging && f.ID == s.cur {
				s.pinging, s.cur, s.leased = false, 0, false
				s.mu.Unlock()
				p.enqueue(s)
			} else {
				s.mu.Unlock()
			}
		case frameResult, frameError:
			s.mu.Lock()
			if f.ID != 0 && f.ID == s.cur && s.chunk != nil {
				ck := s.chunk
				s.cur, s.chunk, s.leased = 0, nil, false
				s.mu.Unlock()
				o := outcome{id: f.ID}
				if f.Type == frameError {
					o.err = errors.New(f.Err)
				} else {
					o.evals = f.Evals
					s.trials.Add(int64(len(f.Evals)))
				}
				if ck.done.Load() {
					// The chunk completed on another worker first;
					// this straggler's reply only frees the slot.
					p.mDuplicates.Add(1)
				}
				ck.deliver(o)
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

// touch refreshes the slot's last-heard-from stamp.
func (s *slot) touch() {
	s.mu.Lock()
	//fast:allow nondetsource worker-liveness bookkeeping; timestamps gate respawns, never evaluations
	s.lastSeen = time.Now()
	s.mu.Unlock()
}

// heartbeatLoop probes idle workers: an idle slot gets a ping each
// period; a ping unanswered past HeartbeatMiss kills the connection so
// the manager can respawn it. Busy slots are reaped by chunk deadlines
// instead — their liveness signal is the reply itself.
func (p *Pool) heartbeatLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		//fast:allow nondetsource heartbeat scheduling race; probes only gate worker respawns
		select {
		case <-tick.C:
			p.probe()
		case <-p.closing:
			return
		}
	}
}

// probe sends one liveness ping to every idle slot and reaps slots
// whose previous ping went unanswered.
func (p *Pool) probe() {
	//fast:allow nondetsource worker-liveness probe deadline; never reaches evaluation paths
	now := time.Now()
	for _, s := range p.slots {
		s.mu.Lock()
		switch {
		case s.retired || s.tr == nil:
			s.mu.Unlock()
		case s.pinging && now.Sub(s.pingSent) > p.opts.HeartbeatMiss:
			s.mu.Unlock()
			p.killSlot(s, "heartbeat missed")
		case s.leased && s.cur != 0 && !s.pinging && now.Sub(s.lastSeen) > p.opts.ChunkTimeout+p.opts.HeartbeatMiss:
			// A leased slot silent past the chunk deadline belongs to an
			// attempt nobody waits on anymore (its chunk completed
			// elsewhere and this reply was lost): reap it, or the lease
			// leaks forever.
			s.mu.Unlock()
			p.killSlot(s, "stale lease")
		case !s.leased:
			id := p.reqID.Add(1)
			s.leased, s.pinging, s.pingSent = true, true, now
			s.cur, s.chunk = id, nil
			tr := s.tr
			s.mu.Unlock()
			line, err := marshalFrame(frame{Type: framePing, ID: id})
			if err == nil {
				err = tr.Send(line)
			}
			if err != nil {
				p.killSlot(s, "ping send failed")
			}
		default:
			s.mu.Unlock()
		}
	}
}

// backoff returns the jittered, capped exponential delay for the n-th
// retry (n >= 1). Jitter comes from the pool's seeded generator, so a
// fixed Options.Seed reproduces the retry schedule.
func (p *Pool) backoff(n int) time.Duration {
	d := p.opts.RetryBaseDelay << uint(n-1)
	if d <= 0 || d > p.opts.RetryMaxDelay {
		d = p.opts.RetryMaxDelay
	}
	p.jmu.Lock()
	f := 0.5 + p.jitter.Float64()
	p.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleep pauses for d, returning false if the pool began closing.
func (p *Pool) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	//fast:allow nondetsource retry backoff timer; delays scheduling only, never evaluation values
	select {
	case <-t.C:
		return true
	case <-p.closing:
		return false
	}
}

// sleepCtx is sleep that additionally wakes when ctx ends (the chunk's
// study was canceled or deadlined mid-backoff).
func (p *Pool) sleepCtx(ctx context.Context, d time.Duration) bool {
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
