// Package hilbert implements the d-dimensional Hilbert space-filling
// curve used by the paper's "perfect partition function" (Theorem 2).
//
// The curve linearises the m-dimensional hyper-cube formed by the
// cross-product of the joined relations: each relation contributes one
// dimension, recursively halved η times (the paper's recursion count),
// giving 2^η cells per dimension. A contiguous segment of the curve is
// one reducer's component; because the curve traverses every dimension
// "fairly", equal-length segments touch near-equal proportions of every
// dimension, which minimises tuple duplication (Eq. 7–9).
//
// The implementation is Skilling's transpose algorithm ("Programming
// the Hilbert curve", AIP Conf. Proc. 707, 2004): conversions between
// axes and the transposed index in O(dims·bits) bit operations, plus
// bit interleaving to pack the transpose into a single uint64 index.
package hilbert

import "fmt"

// Curve is a Hilbert curve over a dims-dimensional grid with 2^bits
// cells per dimension. The total index space is 2^(dims·bits), which
// must fit in 63 bits.
type Curve struct {
	dims int
	bits int
}

// New creates a curve. dims ≥ 1, bits ≥ 1, dims·bits ≤ 63.
func New(dims, bits int) (*Curve, error) {
	if dims < 1 {
		return nil, fmt.Errorf("hilbert: dims must be >= 1, got %d", dims)
	}
	if bits < 1 {
		return nil, fmt.Errorf("hilbert: bits must be >= 1, got %d", bits)
	}
	if dims*bits > 63 {
		return nil, fmt.Errorf("hilbert: dims*bits = %d exceeds 63", dims*bits)
	}
	return &Curve{dims: dims, bits: bits}, nil
}

// MustNew is New that panics on error.
func MustNew(dims, bits int) *Curve {
	c, err := New(dims, bits)
	if err != nil {
		panic(err)
	}
	return c
}

// Dims returns the dimensionality.
func (c *Curve) Dims() int { return c.dims }

// Bits returns the per-dimension order (cells per dim = 2^bits).
func (c *Curve) Bits() int { return c.bits }

// CellsPerDim returns 2^bits.
func (c *Curve) CellsPerDim() uint32 { return 1 << uint(c.bits) }

// NumCells returns the total cell count 2^(dims·bits) — the curve length.
func (c *Curve) NumCells() uint64 { return 1 << uint(c.dims*c.bits) }

// AxesToIndex maps grid coordinates (each < 2^bits) to the Hilbert
// index along the curve. The axes slice is not modified; buf is the
// caller's scratch of at least dims elements, so that a caller mapping
// a million cells allocates nothing.
func (c *Curve) AxesToIndex(axes, buf []uint32) uint64 {
	if len(axes) != c.dims {
		panic(fmt.Sprintf("hilbert: got %d axes for %d-dim curve", len(axes), c.dims))
	}
	x := buf[:c.dims]
	copy(x, axes)
	c.axesToTranspose(x)
	return c.interleave(x)
}

// IndexToAxes maps a Hilbert index back to grid coordinates, written
// into axes (at least dims elements) and returned as axes[:dims].
func (c *Curve) IndexToAxes(h uint64, axes []uint32) []uint32 {
	x := axes[:c.dims]
	c.deinterleave(h, x)
	c.transposeToAxes(x)
	return x
}

// axesToTranspose converts coordinates into the transposed Hilbert
// form in place (Skilling's AxestoTranspose).
func (c *Curve) axesToTranspose(x []uint32) {
	n := c.dims
	m := uint32(1) << uint(c.bits-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts the transposed Hilbert form back to
// coordinates in place (Skilling's TransposetoAxes).
func (c *Curve) transposeToAxes(x []uint32) {
	n := c.dims
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work: where x[i] has bit q, invert x[0]'s low bits,
	// otherwise exchange the low bits of x[0] and x[i]. The bit is as good
	// as random from one cell to the next, so it selects by mask, not by
	// branch.
	for k := uint(1); k < uint(c.bits); k++ {
		p := uint32(1)<<k - 1
		for i := n - 1; i >= 0; i-- {
			set := -(x[i] >> k & 1) // all ones when x[i] has bit q
			t := (x[0] ^ x[i]) & p &^ set
			x[0] ^= t | p&set
			x[i] ^= t
		}
	}
}

// interleave packs the transposed form into a single index: bit j
// (from msb) of x[i] becomes bit (bits-1-j)·dims + (dims-1-i) of the
// result, i.e. the most significant index bits cycle x[0]…x[n-1] at
// their top bit positions.
func (c *Curve) interleave(x []uint32) uint64 {
	var h uint64
	for j := c.bits - 1; j >= 0; j-- {
		for i := 0; i < c.dims; i++ {
			h <<= 1
			h |= uint64((x[i] >> uint(j)) & 1)
		}
	}
	return h
}

// deinterleave unpacks an index into transposed form in x: interleave's
// inverse, walking h from its most significant used bit down.
func (c *Curve) deinterleave(h uint64, x []uint32) {
	clear(x)
	shift := uint(c.dims * c.bits)
	for j := c.bits - 1; j >= 0; j-- {
		for i := 0; i < c.dims; i++ {
			shift--
			x[i] |= uint32((h>>shift)&1) << uint(j)
		}
	}
}
