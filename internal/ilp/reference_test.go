package ilp

import "math"

// refFactor is the dense row-major LU + dense-eta basis factorization
// the sparse kernels in basis.go replaced, frozen verbatim as their
// differential oracle: same pivots, same per-element update order, same
// `x -= a*b` expressions, every zero visited. Do not "improve" it.
type refFactor struct {
	m    int
	lu   []float64 // m×m row-major; unit-L strictly below, U on/above
	ipiv []int32   // LAPACK-style row swaps
	etas []refEta
}

type refEta struct {
	r   int32
	piv float64
	w   []float64
}

func (f *refFactor) factorize(c *csc, basis []int32) bool {
	m := len(basis)
	f.m = m
	f.lu = make([]float64, m*m)
	f.ipiv = make([]int32, m)
	f.etas = nil
	lu := f.lu
	// Column k of the basis matrix lands in lu[:, k].
	for k, j := range basis {
		if int(j) < c.n {
			for p := c.ptr[j]; p < c.ptr[j+1]; p++ {
				lu[int(c.row[p])*m+k] = c.val[p]
			}
		} else {
			lu[(int(j)-c.n)*m+k] = 1
		}
	}
	for k := 0; k < m; k++ {
		// Partial pivoting.
		p, best := k, math.Abs(lu[k*m+k])
		for i := k + 1; i < m; i++ {
			if a := math.Abs(lu[i*m+k]); a > best {
				p, best = i, a
			}
		}
		if best < luPivTol {
			return false
		}
		f.ipiv[k] = int32(p)
		if p != k {
			rk, rp := lu[k*m:k*m+m], lu[p*m:p*m+m]
			for j := 0; j < m; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / lu[k*m+k]
		for i := k + 1; i < m; i++ {
			l := lu[i*m+k] * inv
			if l == 0 {
				continue
			}
			lu[i*m+k] = l
			ri, rk := lu[i*m:i*m+m], lu[k*m:k*m+m]
			for j := k + 1; j < m; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return true
}

// ftran solves B x = v in place (v has length m).
func (f *refFactor) ftran(v []float64) {
	m := f.m
	lu := f.lu
	for k := 0; k < m; k++ {
		if p := int(f.ipiv[k]); p != k {
			v[k], v[p] = v[p], v[k]
		}
	}
	// L (unit lower) forward substitution.
	for i := 1; i < m; i++ {
		ri := lu[i*m : i*m+i]
		s := v[i]
		for j, l := range ri {
			if l != 0 {
				s -= l * v[j]
			}
		}
		v[i] = s
	}
	// U back substitution.
	for i := m - 1; i >= 0; i-- {
		ri := lu[i*m : i*m+m]
		s := v[i]
		for j := i + 1; j < m; j++ {
			if u := ri[j]; u != 0 {
				s -= u * v[j]
			}
		}
		v[i] = s / ri[i]
	}
	// Product-form updates in creation order.
	for k := range f.etas {
		e := &f.etas[k]
		t := v[e.r] / e.piv
		if t != 0 {
			for i, wi := range e.w {
				if wi != 0 {
					v[i] -= wi * t
				}
			}
		}
		v[e.r] = t
	}
}

// btran solves Bᵀ y = v in place (v has length m).
func (f *refFactor) btran(v []float64) {
	m := f.m
	// Eta transposes in reverse order.
	for k := len(f.etas) - 1; k >= 0; k-- {
		e := &f.etas[k]
		var s float64
		for i, wi := range e.w {
			if wi != 0 {
				s += wi * v[i]
			}
		}
		// s includes the pivot term piv·v[r]; remove it.
		v[e.r] = (v[e.r] - (s - e.piv*v[e.r])) / e.piv
	}
	lu := f.lu
	// Uᵀ forward substitution.
	for i := 0; i < m; i++ {
		s := v[i]
		for j := 0; j < i; j++ {
			if u := lu[j*m+i]; u != 0 {
				s -= u * v[j]
			}
		}
		v[i] = s / lu[i*m+i]
	}
	// Lᵀ (unit) back substitution.
	for i := m - 2; i >= 0; i-- {
		s := v[i]
		for j := i + 1; j < m; j++ {
			if l := lu[j*m+i]; l != 0 {
				s -= l * v[j]
			}
		}
		v[i] = s
	}
	for k := m - 1; k >= 0; k-- {
		if p := int(f.ipiv[k]); p != k {
			v[k], v[p] = v[p], v[k]
		}
	}
}

// update appends the product-form eta for a pivot that replaced basis
// row r with a column whose FTRAN'd image is w. w is copied.
func (f *refFactor) update(r int, w []float64) {
	f.etas = append(f.etas, refEta{r: int32(r), piv: w[r], w: append([]float64(nil), w...)})
}

// refDot is the column dot product pricing used before the pivot row
// was scattered from rows: ρ · A_j for full-system column j.
func refDot(c *csc, j int, rho []float64) float64 {
	if j >= c.n {
		return rho[j-c.n]
	}
	var s float64
	for k := c.ptr[j]; k < c.ptr[j+1]; k++ {
		s += rho[c.row[k]] * c.val[k]
	}
	return s
}

// scatter writes full-system column j (structural or slack) into the
// dense buffer out (len m), zeroing it first, and returns the rows where
// it is non-zero.
func (c *csc) scatter(j int, out []float64) []int32 {
	for i := range out {
		out[i] = 0
	}
	if j < c.n {
		for k := c.ptr[j]; k < c.ptr[j+1]; k++ {
			out[c.row[k]] = c.val[k]
		}
		return c.row[c.ptr[j]:c.ptr[j+1]]
	}
	out[j-c.n] = 1
	return []int32{int32(j - c.n)}
}
