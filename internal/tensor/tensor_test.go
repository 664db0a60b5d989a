package tensor

import (
	"testing"
	"testing/quick"
)

func TestDTypeSize(t *testing.T) {
	cases := []struct {
		d    DType
		want int64
	}{{BF16, 2}, {FP32, 4}, {INT8, 1}}
	for _, c := range cases {
		if got := c.d.Size(); got != c.want {
			t.Errorf("%v.Size() = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestDTypeString(t *testing.T) {
	if BF16.String() != "bf16" || FP32.String() != "f32" || INT8.String() != "s8" {
		t.Errorf("unexpected dtype names: %v %v %v", BF16, FP32, INT8)
	}
	if DType(99).String() != "dtype(99)" {
		t.Errorf("unknown dtype string = %q", DType(99).String())
	}
}

func TestUnknownDTypeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown dtype size")
		}
	}()
	_ = DType(42).Size()
}

func TestShapeElemsAndBytes(t *testing.T) {
	s := NewShape(BF16, 8, 224, 224, 3)
	if got := s.Elems(); got != 8*224*224*3 {
		t.Errorf("Elems = %d", got)
	}
	if got := s.Bytes(); got != 8*224*224*3*2 {
		t.Errorf("Bytes = %d", got)
	}
	scalar := Shape{Type: FP32}
	if scalar.Elems() != 1 || scalar.Bytes() != 4 {
		t.Errorf("scalar: elems=%d bytes=%d", scalar.Elems(), scalar.Bytes())
	}
}

func TestShapeDimOutOfRange(t *testing.T) {
	s := NewShape(BF16, 4, 5)
	if s.Dim(0) != 4 || s.Dim(1) != 5 {
		t.Errorf("in-range dims wrong")
	}
	if s.Dim(2) != 1 || s.Dim(-1) != 1 {
		t.Errorf("out-of-range dims should be 1")
	}
}

func TestWithBatch(t *testing.T) {
	s := NewShape(BF16, 1, 7, 7, 1280)
	b := s.WithBatch(64)
	if b.Dim(0) != 64 {
		t.Errorf("WithBatch dim0 = %d", b.Dim(0))
	}
	if s.Dim(0) != 1 {
		t.Errorf("WithBatch mutated the receiver")
	}
	scalar := Shape{Type: BF16}
	if got := scalar.WithBatch(4); len(got.Dims) != 0 {
		t.Errorf("scalar WithBatch should be a no-op")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewShape(FP32, 2, 3)
	c := s.Clone()
	c.Dims[0] = 99
	if s.Dims[0] != 2 {
		t.Error("Clone shares backing array")
	}
}

func TestEqual(t *testing.T) {
	a := NewShape(BF16, 2, 3)
	b := NewShape(BF16, 2, 3)
	b.Name = "other"
	if !a.Equal(b) {
		t.Error("names must not affect equality")
	}
	if a.Equal(NewShape(FP32, 2, 3)) {
		t.Error("dtype must affect equality")
	}
	if a.Equal(NewShape(BF16, 3, 2)) {
		t.Error("dims must affect equality")
	}
	if a.Equal(NewShape(BF16, 2, 3, 1)) {
		t.Error("rank must affect equality")
	}
}

func TestString(t *testing.T) {
	s := NewShape(BF16, 1, 224, 224, 3)
	if got := s.String(); got != "bf16[1,224,224,3]" {
		t.Errorf("String = %q", got)
	}
}

func TestValid(t *testing.T) {
	if !NewShape(BF16, 1, 2).Valid() {
		t.Error("positive dims should be valid")
	}
	if NewShape(BF16, 1, 0).Valid() {
		t.Error("zero dim should be invalid")
	}
	if NewShape(BF16, -1, 2).Valid() {
		t.Error("negative dim should be invalid")
	}
}

func TestCeilDivRoundUp(t *testing.T) {
	cases := []struct{ a, b, ceil, round int64 }{
		{10, 3, 4, 12}, {9, 3, 3, 9}, {1, 128, 1, 128}, {0, 4, 0, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
		if got := RoundUp(c.a, c.b); got != c.round {
			t.Errorf("RoundUp(%d,%d) = %d, want %d", c.a, c.b, got, c.round)
		}
	}
}

func TestCeilDivPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CeilDiv(4, 0)
}

// Property: CeilDiv is the smallest q with q*b >= a.
func TestCeilDivProperty(t *testing.T) {
	f := func(a uint16, b uint8) bool {
		bb := int64(b%64) + 1
		aa := int64(a)
		q := CeilDiv(aa, bb)
		return q*bb >= aa && (q-1)*bb < aa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bytes == Elems * dtype size for random shapes.
func TestBytesProperty(t *testing.T) {
	f := func(d0, d1, d2 uint8) bool {
		s := NewShape(BF16, int64(d0)+1, int64(d1)+1, int64(d2)+1)
		return s.Bytes() == s.Elems()*2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMiB(t *testing.T) {
	if MiB(1<<20) != 1 {
		t.Errorf("MiB(1MiB) = %v", MiB(1<<20))
	}
	if MiB(3<<19) != 1.5 {
		t.Errorf("MiB(1.5MiB) = %v", MiB(3<<19))
	}
}

// WithBatch returns a copy of the shape with dimension 0 replaced by b.
// For rank-0 shapes it returns the shape unchanged.
func (s Shape) WithBatch(b int64) Shape {
	if len(s.Dims) == 0 {
		return s
	}
	out := s.Clone()
	out.Dims[0] = b
	return out
}
