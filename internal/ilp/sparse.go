package ilp

import "fmt"

// Sparse problem storage for the revised simplex.
//
// The fusion ILPs this package exists for are extremely sparse: a T'
// row touches its own shifted-time variable plus the handful of
// binaries that can lower it, and a capacity row touches the pinnable
// weights plus the edges spanning that region. Problems therefore
// arrive as sparse rows, and the simplex keeps the constraint matrix in
// both orientations — by columns for FTRAN inputs and basis
// factorization, by rows for pricing. No pass of a pivot costs
// O(rows × cols): the pivot row and its ratio test cost the non-zeros
// of ρ's rows, and FTRAN and BTRAN the rows their input reaches. What is
// left sweeps the m rows once per pivot: the leaving-row scan.

// Row is one constraint row in sparse form: Val[k] is the coefficient
// of column Idx[k]. Idx is strictly ascending.
type Row struct {
	Idx []int32
	Val []float64
}

// dot returns the row's inner product with a dense vector.
func (r Row) dot(x []float64) float64 {
	var s float64
	for k, j := range r.Idx {
		s += r.Val[k] * x[j]
	}
	return s
}

// validate checks structural consistency of a problem definition and
// that it lies in the class Problem states.
func validate(p Problem) error {
	if len(p.A) != len(p.B) {
		return fmt.Errorf("ilp: %d rows but %d rhs entries", len(p.A), len(p.B))
	}
	if p.Binary != nil && len(p.Binary) != len(p.C) {
		return fmt.Errorf("ilp: %d binary flags for %d columns", len(p.Binary), len(p.C))
	}
	for j, c := range p.C {
		if c < 0 && (p.Binary == nil || !p.Binary[j]) {
			return fmt.Errorf("ilp: continuous column %d has negative cost %g, so its relaxation is unbounded below", j, c)
		}
	}
	for i, r := range p.A {
		if len(r.Idx) != len(r.Val) {
			return fmt.Errorf("ilp: row %d has %d indices but %d coefficients", i, len(r.Idx), len(r.Val))
		}
		prev := int32(-1)
		for _, j := range r.Idx {
			if j <= prev || int(j) >= len(p.C) {
				return fmt.Errorf("ilp: row %d column index %d out of order or range (%d columns)", i, j, len(p.C))
			}
			prev = j
		}
	}
	return nil
}

// csc is the structural constraint matrix A (rows m × cols n) in
// compressed-sparse-column form, plus the caller's rows as the
// row-major view. Slack columns (the identity appended by A·x + s = b)
// are implicit: variable j ≥ n is the slack of row j - n. The pooled
// lpState owns one and reloads it for every problem, so its arrays are
// allocated once per state, not once per solve.
type csc struct {
	m, n int
	ptr  []int32 // len n+1: column j spans [ptr[j], ptr[j+1])
	row  []int32 // ascending within a column
	val  []float64
	rows []Row // the same matrix by rows (may carry explicit zeros)
}

// load transposes sparse rows into column form, dropping explicit
// zeros, in the buffers of the previous load. It keeps rows as the
// row-major view until the state releases it.
func (c *csc) load(rows []Row, n int) {
	c.m, c.n, c.rows = len(rows), n, rows
	// Column j's entries are counted at ptr[j+2], so that after the
	// prefix sum ptr[j+1] is its start: the fill advances it to the end,
	// which is column j+1's start.
	ptr := grow(&c.ptr, n+2)
	clear(ptr)
	for _, r := range rows {
		for k, j := range r.Idx {
			if r.Val[k] != 0 {
				ptr[j+2]++
			}
		}
	}
	for j := 0; j < n; j++ {
		ptr[j+2] += ptr[j+1]
	}
	nnz := ptr[n+1]
	row, val := grow(&c.row, int(nnz)), grow(&c.val, int(nnz))
	for i, r := range rows {
		for k, j := range r.Idx {
			if v := r.Val[k]; v != 0 {
				q := ptr[j+1]
				row[q], val[q] = int32(i), v
				ptr[j+1]++
			}
		}
	}
	c.ptr = ptr[:n+1]
}

// mulRow computes out = ρᵀ[A I] for a dense row multiplier ρ (len m):
// out[j] = ρ·A_j for structural columns, out[n+i] = ρ_i for slacks.
// Only rows with ρ_i ≠ 0 are visited, in ascending i, so every out[j]
// receives its products in the row order a column dot would — the sum
// is bit-identical, and a skipped ρ_i = 0 term adds nothing to an
// accumulator that started at +0.
func (c *csc) mulRow(rho, out []float64) {
	head := out[:c.n]
	for j := range head {
		head[j] = 0
	}
	for i, ri := range rho {
		if ri == 0 {
			continue
		}
		r := &c.rows[i]
		for k, j := range r.Idx {
			head[j] += ri * r.Val[k]
		}
	}
	copy(out[c.n:], rho)
}
