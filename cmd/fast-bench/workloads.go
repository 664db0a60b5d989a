package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// parallel is the -parallel value every op passes explicitly: a
// constant of the benchmark, not the host's CPU count, so two hosts run
// the same commands.
const parallel = 2

const winnerFile = "cmd/fast-bench/testdata/b0_seed9_winner.json"

// op is one unit of user-visible work: a fresh process of one of the
// real binaries, or one study submitted to the daemon.
type op struct {
	// Key names the op in results and goldens.
	Key  string
	Bin  string
	Args []string
	// Study, when non-nil, makes this a fast-serve op.
	Study *studySpec
	// Search ops print `-progress` lines, which give the first-trial
	// and last-trial timestamps; report ops have no search phase.
	Search bool
	// Pinned marks an op whose exact fusion solve ends at the wall-clock
	// deadline, not at a proof: which incumbent it holds then can depend
	// on the host. A pinned fast-sim op digests without its fusion line
	// (the node count), and the -quick smoke does not hold a pinned op
	// to the golden recorded on another host, only to itself.
	Pinned bool
}

// studySpec is the body of POST /v1/studies.
type studySpec struct {
	ID        string   `json:"id"`
	Workloads []string `json:"workloads"`
	Trials    int      `json:"trials"`
	Seed      int64    `json:"seed"`
	BatchSize int      `json:"batch_size"`
}

// inprocSpec describes the representative op of a workload for the
// traced in-process run (see inproc.go).
type inprocSpec struct {
	Workloads  []string `json:"workloads,omitempty"`
	Objectives []string `json:"objectives,omitempty"`
	Trials     int      `json:"trials,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	BatchSize  int      `json:"batch_size,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	// Model/Design (or DesignFile) make it a report op: no study, one
	// exact evaluation of a fixed design.
	Model      string `json:"model,omitempty"`
	Design     string `json:"design,omitempty"`
	DesignFile string `json:"design_file,omitempty"`
}

type workload struct {
	Name string
	Why  string
	// Clients is the closed loop's width: ops of one pass are dealt
	// round-robin to this many clients, each running its share one
	// after another.
	Clients int
	ops     func() []op
	Traced  inprocSpec
	// InProcess names the workload that runs the same ops without
	// workers, where there is one.
	InProcess string
}

func searchOp(args ...string) op {
	full := append(append([]string{}, args...), "-parallel", fmt.Sprint(parallel), "-progress", "8")
	return op{Key: "fast-search " + strings.Join(args, " "), Bin: "fast-search", Args: full, Search: true}
}

func simOp(args ...string) op {
	return op{Key: "fast-sim " + strings.Join(args, " "), Bin: "fast-sim", Args: args}
}

// Study seeds are fixed, not drawn from -seed. Measured on the
// unmodified tree, what a study costs is set by whether the exact
// fusion solves of its final report prove optimality or run into the
// 2 s wall-clock deadline, and that differs from seed to seed by an
// order of magnitude: the 512-trial efficientnet-b7 Pareto study takes
// 4.2 s with seed 1 and 21 s with seed 2, resnet50 0.10 s and 3.4 s.
// Runs at different -seed values would then compare seeds, not code.
// -seed instead sets the order of the ops within a pass (and so, on
// serve_fsync, which studies run side by side).
//
// The Pareto ops are two of the three 512-trial studies, out of 54
// surveyed, whose 32 front points all prove optimality in milliseconds
// (0.10 s and 0.06 s a study), so a pass is the vector path, the archive
// and the front's re-simulation (and, with -workers 2, dispatch) and no
// ILP deadline. The issue's own two, efficientnet-b7 @512 (4.2 s) and
// resnet50 @2000 (1.5-2.2 s from run to run), are deadline rounds with
// the search phase a twentieth of them; README.md lists them among the
// ops to restore when the time cap allows.
func paretoOps(extra ...string) []op {
	var ops []op
	for _, w := range []string{"resnet50", "ocr-rpn"} {
		args := []string{"-workloads", w, "-objectives", "perf-per-tdp,area", "-trials", "512", "-seed", "1"}
		ops = append(ops, searchOp(append(args, extra...)...))
	}
	return ops
}

var workloads = []workload{
	{
		Name:    "single_5000",
		Why:     "paper protocol, 5000 trials on one workload: the warm ask/tell + memo + stage-hit loop, almost no compile or ILP",
		Clients: 1,
		ops: func() []op {
			var ops []op
			for _, w := range []string{"efficientnet-b0", "efficientnet-b7", "resnet50", "bert-128", "ocr-rpn", "gpt2-decode-1024"} {
				ops = append(ops, searchOp("-workloads", w, "-trials", "5000", "-seed", "1"))
			}
			return ops
		},
		Traced: inprocSpec{Workloads: []string{"efficientnet-b7"}, Trials: 5000, Seed: 1},
	},
	{
		Name:    "cold_multi_64",
		Why:     "64 trials over the 5-workload suite: model build, compile and cold mapping misses, then a deadline-pinned final report",
		Clients: 1,
		ops: func() []op {
			o := searchOp("-multi", "-trials", "64", "-seed", "1")
			o.Pinned = true // two of the winner's five report solves end at the deadline
			return []op{o}
		},
		Traced: inprocSpec{Workloads: []string{"efficientnet-b7", "resnet50", "ocr-rpn", "ocr-recognizer", "bert-1024"}, Trials: 64, Seed: 1},
	},
	{
		Name:    "report_exact",
		Why:     "fixed-design reports whose exact fusion ILP proves optimality: real solver work plus one cold compile per op, no search loop",
		Clients: 1,
		ops: func() []op {
			var ops []op
			for _, p := range [][2]string{
				{"ocr-rpn", "fast-small"}, {"bert-128", "fast-small"}, {"efficientnet-b7", "fast-large"},
				{"bert-1024", "fast-small"}, {"resnet50", "fast-small"}, {"bert-1024", "fast-large"},
				{"mobilenetv2", "tpu-v3"}, {"efficientnet-b0", "fast-large"},
			} {
				ops = append(ops, simOp("-model", p[0], "-design", p[1]))
			}
			return append(ops, op{Key: "fast-experiments -exp table6", Bin: "fast-experiments",
				Args: []string{"-exp", "table6", "-parallel", fmt.Sprint(parallel)}})
		},
		Traced: inprocSpec{Model: "bert-128", Design: "fast-small"},
	},
	{
		Name:    "report_hard",
		Why:     "fixed-design reports whose ILP is still unproven at the deadline: every op costs the deadline until a bound or stop rule changes",
		Clients: 1,
		ops: func() []op {
			o := simOp("-design-file", winnerFile, "-model", "efficientnet-b0")
			o.Pinned = true
			return []op{o}
		},
		Traced: inprocSpec{Model: "efficientnet-b0", DesignFile: winnerFile},
	},
	{
		Name:    "pareto_512",
		Why:     "two-objective NSGA-II studies: the vector path, the archive and the exact re-simulation of every front point",
		Clients: 1,
		ops:     func() []op { return paretoOps() },
		Traced:  inprocSpec{Workloads: []string{"resnet50"}, Objectives: []string{"perf-per-tdp", "area"}, Trials: 512, Seed: 1},
	},
	{
		Name:    "pareto_512_workers2",
		Why:     "pareto_512 with evaluation shipped to two fast-worker subprocesses: same transcript, plus the dispatch wire and chunking",
		Clients: 1,
		ops:     func() []op { return paretoOps("-workers", "2") },
		Traced:  inprocSpec{Workloads: []string{"resnet50"}, Objectives: []string{"perf-per-tdp", "area"}, Trials: 512, Seed: 1, Workers: 2},

		InProcess: "pareto_512",
	},
	{
		Name:    "serve_fsync",
		Why:     "256-trial studies through a real fast-serve with fsync on, 2 clients: store append+fsync per batch and the HTTP/SSE handlers",
		Clients: 2,
		ops: func() []op {
			// Three studies, each submitted four times a pass under its
			// own id: three goldens, and one warm-up pass warms them all.
			var ops []op
			for i := 0; i < 12; i++ {
				sp := &studySpec{Workloads: []string{[]string{"resnet50", "efficientnet-b0", "mobilenetv2"}[i%3]}, Trials: 256, Seed: int64(i % 3), BatchSize: 8}
				ops = append(ops, op{
					Key:    fmt.Sprintf("fast-serve study %s trials=256 batch_size=8 seed=%d", sp.Workloads[0], sp.Seed),
					Study:  sp,
					Search: true,
				})
			}
			return ops
		},
		Traced: inprocSpec{Workloads: []string{"resnet50"}, Trials: 256, Seed: 0, BatchSize: 8},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opList is the workload's fixed op list for one -seed: its ops in an
// order drawn from the seed. The same seed gives the same list; quick
// keeps only the first op.
func (w *workload) opList(seed int64, quick bool) []op {
	ops := w.ops()
	if quick {
		return ops[:1]
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
