package dispatch

import (
	"encoding/json"
	"fmt"
	"io"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/search"
)

// ServeConn runs the worker side of the protocol over one connection
// (cmd/fast-worker's stdin/stdout, one TCP connection, or a test pipe)
// until EOF. It is a strictly serial request loop: read a frame,
// execute it, write the reply — so replies never interleave and the
// peer's per-connection capacity is exactly one outstanding evaluation.
//
// Evaluators compile lazily from spec frames and are cached per
// fingerprint for the life of the connection, each backed by the
// process-wide compiled-plan cache — a worker serving many chunks of
// one study pays graph build + plan compile once per (workload, batch).
//
// A cleanly torn final line (the dispatcher died mid-write) ends the
// loop without error, mirroring internal/store's torn-tail semantics;
// any parsable-but-wrong frame earns an error reply instead of killing
// the connection, so one corrupt request cannot take the worker down.
// A spec frame from a dispatcher of another ABI (CPU architecture or
// results-ABI version) earns a refused frame and registers nothing:
// no evaluation this worker computes would be bit-identical to that
// dispatcher's, and the dispatcher hangs up on receipt.
func ServeConn(r io.Reader, w io.Writer, logf func(format string, args ...any)) error {
	return serveConn(r, w, logf, localABI())
}

// serveConn is ServeConn for a worker of ABI self.
func serveConn(r io.Reader, w io.Writer, logf func(format string, args ...any), self abi) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tr := newRWTransport(r, w, func() error { return nil })
	evaluators := map[string]search.BatchObjective{}
	reply := func(f frame) error {
		line, err := marshalFrame(f)
		if err != nil {
			return err
		}
		return tr.Send(line)
	}
	for {
		line, err := tr.Recv()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		var f frame
		if err := json.Unmarshal(line, &f); err != nil {
			logf("level=warn msg=\"bad frame\" err=%q", err)
			if rerr := reply(frame{Type: frameError, Err: fmt.Sprintf("bad frame: %v", err)}); rerr != nil {
				return rerr
			}
			continue
		}
		switch f.Type {
		case frameSpec:
			if peer := (abi{Arch: f.Arch, Version: f.ABI}); peer != self {
				err := fmt.Errorf("worker is %s, dispatcher is %s: evaluations would not be bit-identical", self, peer)
				logf("level=error msg=\"dispatcher refused\" err=%q", err)
				if rerr := reply(frame{Type: frameRefused, Err: err.Error()}); rerr != nil {
					return rerr
				}
				continue
			}
			// Verify the fingerprint over the exact received bytes: a
			// frame that parsed but was corrupted in flight must not
			// poison the evaluator cache under the true spec's key.
			if got := core.FingerprintSpec(f.Spec); got != f.SpecFP {
				if err := reply(frame{Type: frameError, Err: fmt.Sprintf("spec fingerprint mismatch: got %s want %s", got, f.SpecFP)}); err != nil {
					return err
				}
				continue
			}
			if _, ok := evaluators[f.SpecFP]; ok {
				continue
			}
			var sp core.EvalSpec
			if err := json.Unmarshal(f.Spec, &sp); err != nil {
				if rerr := reply(frame{Type: frameError, Err: fmt.Sprintf("bad spec: %v", err)}); rerr != nil {
					return rerr
				}
				continue
			}
			obj, err := core.BuildBatchEvaluator(sp)
			if err != nil {
				if rerr := reply(frame{Type: frameError, Err: fmt.Sprintf("spec rejected: %v", err)}); rerr != nil {
					return rerr
				}
				continue
			}
			evaluators[f.SpecFP] = obj
			logf("level=info msg=\"spec registered\" fp=%.12s workloads=%d", f.SpecFP, len(sp.Workloads))
		case frameEval:
			obj, ok := evaluators[f.SpecFP]
			if !ok {
				// The dispatcher resends specs after a respawn; an
				// unknown fingerprint means this connection never got
				// one (or the spec frame was faulted away) — an
				// addressed error lets it retry elsewhere.
				if err := reply(frame{Type: frameError, ID: f.ID, Err: fmt.Sprintf("unknown spec %.12s", f.SpecFP)}); err != nil {
					return err
				}
				continue
			}
			// Index vectors are outside input: one beyond the search
			// space would panic in arch.Space.Decode and take the whole
			// worker process down with it.
			if err := checkIdxs(f.Idxs); err != nil {
				if rerr := reply(frame{Type: frameError, ID: f.ID, Err: err.Error()}); rerr != nil {
					return rerr
				}
				continue
			}
			evals := obj(f.Idxs)
			if err := reply(frame{Type: frameResult, ID: f.ID, Evals: evals}); err != nil {
				return err
			}
		default:
			if err := reply(frame{Type: frameError, ID: f.ID, Err: fmt.Sprintf("unknown frame type %q", f.Type)}); err != nil {
				return err
			}
		}
	}
}

// checkIdxs range-checks wire index vectors against the search space.
func checkIdxs(idxs [][arch.NumParams]int) error {
	dims := arch.Space{}.Dims()
	for i, idx := range idxs {
		for d, v := range idx {
			if v < 0 || v >= dims[d] {
				return fmt.Errorf("point %d: index %d for %s outside [0,%d)", i, v, arch.ParamNames[d], dims[d])
			}
		}
	}
	return nil
}
