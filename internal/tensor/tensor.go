// Package tensor provides the shape and data-type vocabulary shared by the
// HLO graph IR, the schedule mapper, and the simulator.
//
// The simulator is analytical: it never materializes tensor contents, only
// shapes and byte sizes. Shapes use the NHWC layout convention for image
// tensors and [batch, seq, feature] for sequence tensors, matching the
// convention the paper's XLA HLO graphs use.
package tensor

import (
	"fmt"
	"strings"
)

// DType identifies the element type of a tensor. The paper evaluates
// bfloat16 inference throughout; fp32 and int8 are provided so datapath
// experiments can model other precisions.
type DType int

const (
	// BF16 is the 2-byte brain floating-point format used by TPUs and by
	// every experiment in the paper.
	BF16 DType = iota
	// FP32 is IEEE 754 single precision.
	FP32
	// INT8 is 8-bit integer (quantized inference; out of the paper's scope
	// but supported by the datapath model).
	INT8
)

// Size returns the element size in bytes.
func (d DType) Size() int64 {
	switch d {
	case BF16:
		return 2
	case FP32:
		return 4
	case INT8:
		return 1
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case BF16:
		return "bf16"
	case FP32:
		return "f32"
	case INT8:
		return "s8"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Shape is a dense tensor shape. The zero value is a scalar.
type Shape struct {
	Dims []int64
	Type DType
	// Name optionally labels the tensor for reports (e.g. "weights").
	Name string
}

// NewShape builds a Shape with the given dtype and dimensions.
func NewShape(t DType, dims ...int64) Shape {
	d := make([]int64, len(dims))
	copy(d, dims)
	return Shape{Dims: d, Type: t}
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s.Dims) }

// Elems returns the number of elements (1 for a scalar).
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// Bytes returns the dense size of the tensor in bytes.
func (s Shape) Bytes() int64 { return s.Elems() * s.Type.Size() }

// Dim returns dimension i, or 1 if the shape has fewer dimensions. This
// lets cost models treat missing leading dims as broadcast size-1 dims.
func (s Shape) Dim(i int) int64 {
	if i < 0 || i >= len(s.Dims) {
		return 1
	}
	return s.Dims[i]
}

// Clone returns a deep copy.
func (s Shape) Clone() Shape {
	d := make([]int64, len(s.Dims))
	copy(d, s.Dims)
	return Shape{Dims: d, Type: s.Type, Name: s.Name}
}

// Equal reports whether two shapes have identical dims and dtype (names
// are ignored).
func (s Shape) Equal(o Shape) bool {
	if s.Type != o.Type || len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if s.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// String renders e.g. "bf16[1,224,224,3]".
func (s Shape) String() string {
	var b strings.Builder
	b.WriteString(s.Type.String())
	b.WriteByte('[')
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte(']')
	return b.String()
}

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	for _, d := range s.Dims {
		if d <= 0 {
			return false
		}
	}
	return true
}

// MiB converts a byte count to mebibytes.
func MiB(bytes int64) float64 { return float64(bytes) / (1024 * 1024) }

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("tensor: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// RoundUp returns the smallest multiple of m that is >= a (m > 0).
func RoundUp(a, m int64) int64 { return CeilDiv(a, m) * m }
