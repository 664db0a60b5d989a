package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzILPSparseVsDense cross-checks the sparse revised-simplex solver
// against the frozen dense reference (and, when the binary count
// permits, brute-force enumeration) on randomized mixed 0/1 problems,
// and holds its relative-gap and stall stops to the exact solve
// (checkRelGap, checkStallNodes).
// The fuzz inputs seed the generator, so go test runs the corpus
// deterministically and `go test -fuzz` explores fresh instances. shape
// picks the sparsity pattern: half-full rows, hypersparse rows (about
// one non-zero each, so most solves touch a zero), or a dense first
// column under sparse others (one long L/U column, fill-in).
func FuzzILPSparseVsDense(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(0))
	f.Add(int64(42), uint8(8), uint8(5), uint8(0))
	f.Add(int64(7), uint8(3), uint8(1), uint8(0))
	f.Add(int64(99), uint8(9), uint8(4), uint8(0))
	f.Add(int64(5), uint8(8), uint8(5), uint8(1))
	f.Add(int64(6), uint8(8), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, m, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		nv := 1 + int(n)%9
		nr := 1 + int(m)%6
		p := Problem{Binary: make([]bool, nv), U: make([]float64, nv)}
		for i := 0; i < nv; i++ {
			c := math.Round(20 * (r.Float64() - 0.6))
			switch r.Intn(3) {
			case 0:
				p.Binary[i] = true
				p.U[i] = 1
			case 1:
				p.U[i] = float64(1 + r.Intn(5))
			default:
				p.U[i] = math.Inf(1)
				if c < 0 {
					c = -c
				}
			}
			p.C = append(p.C, c)
		}
		for j := 0; j < nr; j++ {
			row := make([]float64, nv)
			for i := range row {
				var fill bool
				switch shape % 3 {
				case 0:
					fill = r.Intn(2) == 0
				case 1:
					fill = r.Intn(nv) == 0
				default:
					fill = i == 0 || r.Intn(8) == 0
				}
				if fill {
					row[i] = math.Round(10 * (r.Float64() - 0.2))
				}
			}
			p.A = append(p.A, denseRow(row))
			p.B = append(p.B, math.Round(8*float64(nv)*(r.Float64()-0.1)))
		}

		sp, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		de, err := Solve(p, Options{Dense: true})
		if err != nil {
			t.Fatal(err)
		}
		if sp.Feasible != de.Feasible {
			t.Fatalf("feasible sparse=%v dense=%v (p=%+v)", sp.Feasible, de.Feasible, p)
		}
		if !sp.Feasible {
			return
		}
		tol := 1e-6 * (1 + math.Abs(de.Objective))
		if math.Abs(sp.Objective-de.Objective) > tol {
			t.Fatalf("objective sparse=%.12g dense=%.12g (p=%+v)", sp.Objective, de.Objective, p)
		}
		if !integerFeasible(p, sp.X) {
			t.Fatalf("sparse solution violates constraints: %v (p=%+v)", sp.X, p)
		}
		nBin := 0
		for _, b := range p.Binary {
			if b {
				nBin++
			}
		}
		if nBin <= 10 {
			want := BruteForce(p)
			if want.Feasible && math.Abs(sp.Objective-want.Objective) > tol {
				t.Fatalf("objective sparse=%.12g brute=%.12g (p=%+v)", sp.Objective, want.Objective, p)
			}
		}
		checkRelGap(t, p)
		checkStallNodes(t, p)
	})
}
