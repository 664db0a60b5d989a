package dispatch

import (
	"encoding/json"

	"fast/internal/arch"
	"fast/internal/search"
)

// The wire protocol is newline-delimited JSON, one frame per line, both
// directions (the uPIMulator-style cosim idiom: a subprocess or socket
// peer that is just a read-line / write-line loop). Frames are tiny —
// a chunk is at most maxObjectiveChunk index vectors, a reply the same
// number of Evaluations — so there is no framing beyond the newline.
//
// Dispatcher → worker:
//
//	{"type":"spec","spec_fp":h,"spec":{...}}   register an eval spec
//	{"type":"eval","id":n,"spec_fp":h,"idxs":[[...],...]}
//
// Worker → dispatcher:
//
//	{"type":"result","id":n,"evals":[{...},...]}
//	{"type":"error","id":n,"err":"..."}        id 0 = connection-level
//
// Bit-identity over this wire needs no quantization care: Evaluation
// carries float64s, and encoding/json's shortest-representation float
// encoding round-trips every finite float64 exactly.
const (
	frameSpec   = "spec"
	frameEval   = "eval"
	frameResult = "result"
	frameError  = "error"
)

// frame is one protocol message; unused fields stay empty on the wire.
type frame struct {
	Type string `json:"type"`
	// ID correlates an eval with its reply. IDs are unique per
	// dispatcher process; replies carrying an ID the dispatcher no
	// longer waits on (duplicates, stragglers of an expired attempt)
	// are discarded by the routing layer.
	ID uint64 `json:"id,omitempty"`
	// SpecFP identifies the eval spec (core.FingerprintSpec of Spec).
	SpecFP string `json:"spec_fp,omitempty"`
	// Spec is the marshaled core.EvalSpec of a spec frame, verbatim, so
	// the worker can verify SpecFP over the exact received bytes.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Idxs are the chunk's hyperparameter index vectors.
	Idxs [][arch.NumParams]int `json:"idxs,omitempty"`
	// Evals is the result vector, positionally aligned with Idxs.
	Evals []search.Evaluation `json:"evals,omitempty"`
	// Err describes a worker-side failure of this request.
	Err string `json:"err,omitempty"`
}

// marshalFrame renders a frame as one line (no trailing newline; the
// transport appends it).
func marshalFrame(f frame) ([]byte, error) { return json.Marshal(f) }

// parseReply decodes one received frame line.
func parseReply(line []byte) (frame, error) {
	var f frame
	err := json.Unmarshal(line, &f)
	return f, err
}
