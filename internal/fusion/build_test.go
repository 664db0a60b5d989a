package fusion

import (
	"math"
	"math/rand"
	"testing"
)

// referenceBuildILP is the dense Figure 8 builder that buildILP's
// sparse emission replaced, frozen verbatim: one nv-wide row per
// constraint, producer look-ups by scanning all regions, duplicate
// capacity rows detected on the dense coefficients. Do not "improve" it.
func referenceBuildILP(regions []RegionCost, usable []bool, capacity int64) (c []float64, a [][]float64, b, u []float64, bin []bool, ok bool) {
	n := len(regions)
	wIdx := make([]int, n)
	eIdx := make([]int, n)
	vars := 0
	for i := range regions {
		wIdx[i] = -1
		if regions[i].PinnableWeights && regions[i].DWeight > 0 {
			wIdx[i] = vars
			vars++
		}
	}
	for i := range regions {
		eIdx[i] = -1
		if usable[i] {
			eIdx[i] = vars
			vars++
		}
	}
	hIdx := make([]int, n)
	for i := range regions {
		hIdx[i] = -1
		if regions[i].KVBytes > 0 && regions[i].TKVRead > 0 {
			hIdx[i] = vars
			vars++
		}
	}
	if vars == 0 {
		return nil, nil, nil, nil, nil, false
	}
	tIdx := make([]int, n)
	nv := vars
	for i := range regions {
		tIdx[i] = -1
		touched := wIdx[i] >= 0 || eIdx[i] >= 0 || hIdx[i] >= 0
		for j := range regions {
			if eIdx[j] >= 0 && regions[j].EdgeProducer == i {
				touched = true
			}
		}
		if touched {
			tIdx[i] = nv
			nv++
		}
	}

	c = make([]float64, nv)
	u = make([]float64, nv)
	bin = make([]bool, nv)
	for i := 0; i < vars; i++ {
		bin[i] = true
		u[i] = 1
	}
	for i := range regions {
		if ti := tIdx[i]; ti >= 0 {
			c[ti] = 1
			u[ti] = math.Inf(1)
		}
	}

	for i, r := range regions {
		ti := tIdx[i]
		if ti < 0 {
			continue
		}
		row := make([]float64, nv)
		row[ti] = -1
		if wIdx[i] >= 0 {
			row[wIdx[i]] = -r.TWeight
		}
		if eIdx[i] >= 0 {
			row[eIdx[i]] -= r.TEdgeRead
		}
		if hIdx[i] >= 0 {
			row[hIdx[i]] -= r.TKVRead
		}
		for j, rj := range regions {
			if eIdx[j] >= 0 && rj.EdgeProducer == i {
				row[eIdx[j]] -= rj.TEdgeWrite
			}
		}
		a = append(a, row)
		b = append(b, -(r.TMax - r.TMin))
	}

	tight := make(map[string]int)
	sig := make([]byte, 0, vars*8)
	for k, rk := range regions {
		row := make([]float64, nv)
		for j, rj := range regions {
			if wIdx[j] >= 0 {
				row[wIdx[j]] = float64(rj.DWeight)
			}
			if hIdx[j] >= 0 {
				row[hIdx[j]] = float64(rj.KVBytes)
			}
			if eIdx[j] >= 0 && rj.EdgeProducer <= k && k <= j {
				row[eIdx[j]] += float64(rj.EdgeResidentBytes)
			}
		}
		rhs := float64(capacity - rk.BaseGM)
		sig = sig[:0]
		for i := 0; i < vars; i++ {
			bits := math.Float64bits(row[i])
			sig = append(sig, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
				byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
		}
		if prev, dup := tight[string(sig)]; dup {
			if rhs < b[prev] {
				b[prev] = rhs
			}
			continue
		}
		tight[string(sig)] = len(a)
		a = append(a, row)
		b = append(b, rhs)
	}
	return c, a, b, u, bin, true
}

// TestSparseBuildMatchesDense: the problem buildILP emits sparse equals
// the frozen dense builder's — same columns, same rows in the same
// order, same coefficient bits, same tightest right-hand sides — on
// randomized instances that include KV holds, zero-byte edges, zero
// savings, producer-less usable edges and long duplicate-row runs.
func TestSparseBuildMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	built := 0
	for trial := 0; trial < 300; trial++ {
		regions, usable := randomRegions(rng, 1+rng.Intn(40))
		for i := range regions {
			r := &regions[i]
			switch rng.Intn(12) {
			case 0:
				r.KVBytes, r.TKVRead = rng.Int63n(1<<22), 1e-6*rng.Float64()
			case 1:
				r.EdgeBytes, r.EdgeResidentBytes = 0, 0
			case 2:
				r.TWeight, r.TEdgeRead, r.TEdgeWrite = 0, 0, 0
			case 3:
				r.TMax = r.TMin
			case 4:
				usable[i] = true // whatever the producer is, even none
			case 5:
				r.BaseGM = 0 // lengthen runs of identical capacity rows
			}
		}
		normalizeResident(regions)
		capacity := rng.Int63n(1 << 24)
		c, a, b, u, bin, ok := referenceBuildILP(regions, usable, capacity)
		f, gotOK := buildILP(regions, usable, capacity, new(rowArena))
		if ok != gotOK {
			t.Fatalf("trial %d: sparse built=%v, dense built=%v", trial, gotOK, ok)
		}
		if !ok {
			continue
		}
		built++
		p := f.prob
		if len(p.C) != len(c) || len(p.A) != len(a) || len(p.B) != len(b) {
			t.Fatalf("trial %d: shape %d cols × %d rows (%d rhs), want %d × %d", trial, len(p.C), len(p.A), len(p.B), len(c), len(a))
		}
		for j := range c {
			// ilp.Problem implies the upper bound from Binary: 1 for a
			// binary, +inf for a continuous column.
			pu := math.Inf(1)
			if p.Binary[j] {
				pu = 1
			}
			if p.C[j] != c[j] || pu != u[j] || p.Binary[j] != bin[j] {
				t.Fatalf("trial %d: column %d: (c,u,bin) = (%v,%v,%v), want (%v,%v,%v)", trial, j, p.C[j], pu, p.Binary[j], c[j], u[j], bin[j])
			}
		}
		for i := range a {
			if math.Float64bits(p.B[i]) != math.Float64bits(b[i]) {
				t.Fatalf("trial %d: rhs %d = %v, want %v", trial, i, p.B[i], b[i])
			}
			// The sparse row must hold exactly the dense row's nonzeros,
			// in ascending column order.
			k := 0
			for j, v := range a[i] {
				if v == 0 {
					continue
				}
				if k >= len(p.A[i].Idx) || p.A[i].Idx[k] != int32(j) || math.Float64bits(p.A[i].Val[k]) != math.Float64bits(v) {
					t.Fatalf("trial %d: row %d has columns %v values %v, want %v", trial, i, p.A[i].Idx, p.A[i].Val, a[i])
				}
				k++
			}
			if k != len(p.A[i].Idx) {
				t.Fatalf("trial %d: row %d has columns %v, want the nonzeros of %v", trial, i, p.A[i].Idx, a[i])
			}
		}
	}
	if built < 250 {
		t.Fatalf("only %d of 300 instances had a placement decision", built)
	}
}
