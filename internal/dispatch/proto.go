package dispatch

import (
	"encoding/json"
	"fmt"
	"runtime"

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
//	{"type":"spec","spec_fp":h,"spec":{...},"arch":a,"abi":v}   register an eval spec
//	{"type":"eval","id":n,"spec_fp":h,"idxs":[[...],...]}
//
// Worker → dispatcher:
//
//	{"type":"result","id":n,"evals":[{...},...]}
//	{"type":"error","id":n,"err":"..."}        id 0 = connection-level
//	{"type":"refused","err":"..."}             the spec's ABI is not the worker's
//
// Bit-identity over this wire needs no quantization care: Evaluation
// carries float64s, and encoding/json's shortest-representation float
// encoding round-trips every finite float64 exactly. It does need both
// ends to compute the same bits, which the spec fingerprint alone does
// not promise: the spec frame also carries the dispatcher's ABI (see
// abi), and a worker of another ABI answers with a refused frame
// instead of registering the spec.
const (
	frameSpec    = "spec"
	frameEval    = "eval"
	frameResult  = "result"
	frameError   = "error"
	frameRefused = "refused"
)

// resultsABI versions the bits an evaluation carries for a given eval
// spec. Bump it with any change that moves an Evaluation of an
// unchanged spec, so dispatchers and workers built on either side of
// the change refuse each other instead of mixing results.
const resultsABI = 1

// abi is what two processes must share for a worker's evaluations to
// be bit-identical to the dispatcher's own: the CPU architecture (the
// compiler fuses multiply-adds into FMAs differently per GOARCH, which
// moves last bits) and the results-ABI version.
type abi struct {
	Arch    string
	Version int
}

// localABI is this process's ABI.
func localABI() abi { return abi{Arch: runtime.GOARCH, Version: resultsABI} }

func (a abi) String() string { return fmt.Sprintf("%s/abi%d", a.Arch, a.Version) }

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
	// Arch and ABI carry the dispatcher's abi on a spec frame.
	Arch string `json:"arch,omitempty"`
	ABI  int    `json:"abi,omitempty"`
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
