package search

// Durable optimizer state.
//
// Every built-in optimizer evolves only through its seeded generator and
// the ask/tell transcript (the Optimizer contract), so the transcript IS
// the state: rebuilding the optimizer with the same constructor
// parameters and replaying the same interaction log lands it in a
// bit-identical internal configuration. Snapshot captures exactly that —
// the constructor triple plus the transcript — which makes checkpoints
// small, trivially serializable (no rand.Rand internals, no float
// matrices), and immune to representation drift across versions of the
// optimizer implementations: a snapshot taken by an old binary restores
// correctly in a new one as long as the search trajectory itself is
// unchanged.

import (
	"fmt"
)

// Snapshot is a serializable capture of an optimizer mid-study: the
// constructor parameters (Algorithm, Seed, Budget as passed to New) and
// the full ask/tell interaction log so far. Restore rebuilds an
// optimizer in the exact state that produced the snapshot.
//
// AskSizes records the size of every Ask batch in order; Trials holds
// the told trials, concatenated in tell order. Snapshots assume the
// lockstep driving discipline every in-tree driver follows (each Ask
// batch is told in full before the next Ask): the i-th AskSizes entry
// pairs with the next AskSizes[i] entries of Trials.
type Snapshot struct {
	Algorithm Algorithm `json:"algorithm"`
	Seed      int64     `json:"seed"`
	Budget    int       `json:"budget"`
	AskSizes  []int     `json:"ask_sizes"`
	Trials    []Trial   `json:"trials"`
}

// Append records one fully told ask batch. It is the building block for
// external checkpointers (core.WithTranscript feeds it every told
// batch); optimizers themselves record internally and hand out complete
// snapshots via Snapshotter.
func (s *Snapshot) Append(batch []Trial) {
	s.AskSizes = append(s.AskSizes, len(batch))
	for _, t := range batch {
		s.Trials = append(s.Trials, t.clone())
	}
}

// Validate checks the snapshot's internal consistency: every ask size
// positive and the sizes summing to the trial count.
func (s Snapshot) Validate() error {
	sum := 0
	for _, n := range s.AskSizes {
		if n <= 0 {
			return fmt.Errorf("search: snapshot has non-positive ask size %d", n)
		}
		sum += n
	}
	if sum != len(s.Trials) {
		return fmt.Errorf("search: snapshot ask sizes sum to %d but it holds %d trials", sum, len(s.Trials))
	}
	return nil
}

// Snapshotter is an Optimizer whose state can be captured mid-study.
// Every built-in family implements it; Snapshot returns an independent
// copy, so callers may serialize it while the optimizer keeps running
// (from the driving goroutine — Snapshot is not synchronized against
// concurrent Ask/Tell, which no in-tree driver issues anyway).
type Snapshotter interface {
	Optimizer
	Snapshot() Snapshot
}

// Restore rebuilds an optimizer in the exact state captured by s: it
// constructs a fresh optimizer from the snapshot's constructor
// parameters and replays the recorded ask/tell transcript. The replayed
// proposals are verified against the recorded trials — a mismatch means
// the snapshot is corrupt or was taken under different constructor
// parameters (or optimizer code whose trajectory has since changed),
// and restoring it would silently fork the search.
func Restore(s Snapshot) (Snapshotter, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opt, ok := New(s.Algorithm, s.Seed, s.Budget).(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("search: optimizer %q does not support snapshots", s.Algorithm)
	}
	pos := 0
	for bi, n := range s.AskSizes {
		asks := opt.Ask(n)
		if len(asks) != n {
			return nil, fmt.Errorf("search: snapshot replay: batch %d asked %d proposals, optimizer returned %d", bi, n, len(asks))
		}
		batch := make([]Trial, n)
		for i, idx := range asks {
			rec := s.Trials[pos+i]
			if idx != rec.Index {
				return nil, fmt.Errorf("search: snapshot does not replay at trial %d: optimizer proposed %v, snapshot recorded %v (corrupt snapshot or mismatched algorithm/seed/budget)", pos+i, idx, rec.Index)
			}
			batch[i] = rec.clone()
		}
		opt.Tell(batch)
		pos += n
	}
	return opt, nil
}

// clone deep-copies a trial (the Values slice is the only reference).
func (t Trial) clone() Trial {
	if t.Values != nil {
		vals := make([]float64, len(t.Values))
		copy(vals, t.Values)
		t.Values = vals
	}
	return t
}

// transcript is the interaction recorder embedded in every built-in
// optimizer: Ask/Tell implementations log through it, and the promoted
// Snapshot method captures the log together with the constructor
// parameters. Each told batch is copied once, into a slice of exactly
// its size, so the log never regrows and never holds room for trials
// that have not been told.
type transcript struct {
	alg    Algorithm
	seed   int64
	budget int

	askSizes []int
	told     [][]Trial
}

// initTranscript stamps the constructor parameters Snapshot will report.
func (t *transcript) initTranscript(alg Algorithm, seed int64, budget int) {
	t.alg, t.seed, t.budget = alg, seed, budget
}

// recordAsk logs one non-empty Ask batch.
func (t *transcript) recordAsk(n int) {
	if n > 0 {
		t.askSizes = append(t.askSizes, n)
	}
}

// recordTell logs told trials. The caller keeps ownership of batch.
func (t *transcript) recordTell(batch []Trial) {
	if len(batch) == 0 {
		return
	}
	kept := make([]Trial, len(batch))
	for i, tr := range batch {
		kept[i] = tr.clone()
	}
	t.told = append(t.told, kept)
}

// Snapshot implements Snapshotter; the returned copy shares nothing
// with the live optimizer.
func (t *transcript) Snapshot() Snapshot {
	n := 0
	for _, batch := range t.told {
		n += len(batch)
	}
	s := Snapshot{
		Algorithm: t.alg,
		Seed:      t.seed,
		Budget:    t.budget,
		AskSizes:  make([]int, len(t.askSizes)),
		Trials:    make([]Trial, 0, n),
	}
	copy(s.AskSizes, t.askSizes)
	for _, batch := range t.told {
		for _, tr := range batch {
			s.Trials = append(s.Trials, tr.clone())
		}
	}
	return s
}
