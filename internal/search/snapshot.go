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

// Append records one fully told ask batch. It is how a snapshot is
// built: core.WithTranscript hands every told batch to the checkpoint
// hook, which appends it here or persists it with internal/store.
func (s *Snapshot) Append(batch []Trial) {
	s.AskSizes = append(s.AskSizes, len(batch))
	for _, t := range batch {
		s.Trials = append(s.Trials, t.clone())
	}
}

// Validate checks the snapshot's internal consistency: a known
// algorithm, positive ask sizes summing to the trial count.
func (s Snapshot) Validate() error {
	if s.Algorithm.Validate() != nil {
		return fmt.Errorf("search: snapshot names unknown algorithm %q", s.Algorithm)
	}
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

// Restore rebuilds an optimizer in the exact state captured by s: it
// constructs a fresh optimizer from the snapshot's constructor
// parameters and replays the recorded ask/tell transcript. The replayed
// proposals are verified against the recorded trials — a mismatch means
// the snapshot is corrupt or was taken under different constructor
// parameters (or optimizer code whose trajectory has since changed),
// and restoring it would silently fork the search.
func Restore(s Snapshot) (Optimizer, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opt := New(s.Algorithm, s.Seed, s.Budget)
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
