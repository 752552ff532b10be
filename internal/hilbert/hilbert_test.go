package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// indexToAxes and axesToIndex are the transforms with a buffer of their
// own per call, which the tests want and no caller outside them does.
func indexToAxes(c *Curve, h uint64) []uint32 {
	return c.IndexToAxes(h, make([]uint32, c.Dims()))
}

func axesToIndex(c *Curve, axes []uint32) uint64 {
	return c.AxesToIndex(axes, make([]uint32, c.Dims()))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("dims=0 accepted")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := New(8, 8); err == nil {
		t.Error("64-bit curve accepted")
	}
	c, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dims() != 3 || c.Bits() != 4 {
		t.Error("accessors wrong")
	}
	if c.CellsPerDim() != 16 {
		t.Errorf("CellsPerDim = %d", c.CellsPerDim())
	}
	if c.NumCells() != 1<<12 {
		t.Errorf("NumCells = %d", c.NumCells())
	}
}

func TestKnown2DOrder1(t *testing.T) {
	// The order-1 2-D Hilbert curve visits (0,0),(0,1),(1,1),(1,0)
	// (up to reflection/rotation; Skilling's variant produces exactly
	// this sequence for x[0]=x, x[1]=y).
	c := MustNew(2, 1)
	var visited [][]uint32
	for h := uint64(0); h < 4; h++ {
		visited = append(visited, indexToAxes(c, h))
	}
	// Each consecutive pair must differ by exactly 1 in exactly one axis.
	for i := 1; i < len(visited); i++ {
		if manhattan(visited[i-1], visited[i]) != 1 {
			t.Errorf("step %d→%d not unit: %v → %v", i-1, i, visited[i-1], visited[i])
		}
	}
}

func manhattan(a, b []uint32) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += int(a[i] - b[i])
		} else {
			d += int(b[i] - a[i])
		}
	}
	return d
}

func TestRoundTripExhaustive(t *testing.T) {
	for _, cfg := range []struct{ dims, bits int }{
		{1, 6}, {2, 4}, {3, 3}, {4, 2}, {5, 2}, {6, 2},
	} {
		c := MustNew(cfg.dims, cfg.bits)
		n := c.NumCells()
		seen := make(map[uint64]bool, n)
		for h := uint64(0); h < n; h++ {
			axes := indexToAxes(c, h)
			for i, a := range axes {
				if a >= c.CellsPerDim() {
					t.Fatalf("%d/%d: axis %d out of range: %d", cfg.dims, cfg.bits, i, a)
				}
			}
			back := axesToIndex(c, axes)
			if back != h {
				t.Fatalf("%d/%d: roundtrip %d → %v → %d", cfg.dims, cfg.bits, h, axes, back)
			}
			if seen[back] {
				t.Fatalf("%d/%d: index %d visited twice", cfg.dims, cfg.bits, back)
			}
			seen[back] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("%d/%d: visited %d of %d cells", cfg.dims, cfg.bits, len(seen), n)
		}
	}
}

// The defining Hilbert property: consecutive curve positions are
// adjacent grid cells (unit Manhattan distance).
func TestUnitStepContinuity(t *testing.T) {
	for _, cfg := range []struct{ dims, bits int }{
		{2, 5}, {3, 4}, {4, 3}, {5, 2},
	} {
		c := MustNew(cfg.dims, cfg.bits)
		prev := indexToAxes(c, 0)
		for h := uint64(1); h < c.NumCells(); h++ {
			cur := indexToAxes(c, h)
			if manhattan(prev, cur) != 1 {
				t.Fatalf("%d/%d: step at %d has distance %d (%v → %v)",
					cfg.dims, cfg.bits, h, manhattan(prev, cur), prev, cur)
			}
			prev = cur
		}
	}
}

// The curve's recursion, as the partitioner uses it: any aligned block
// of 2^(dims·k) consecutive indices fills exactly one axis-aligned cube
// of side 2^k — the one holding the block's first cell. Every index of
// the block is checked to fall inside that cube; the block has as many
// indices as the cube has cells and the transform is a bijection, so
// inside is onto.
func TestAlignedBlocksAreCubes(t *testing.T) {
	for _, cfg := range []struct{ dims, bits int }{
		{1, 8}, {2, 6}, {3, 4}, {4, 3},
	} {
		c := MustNew(cfg.dims, cfg.bits)
		axes := make([]uint32, cfg.dims)
		for k := 0; k <= cfg.bits; k++ {
			size := uint64(1) << uint(cfg.dims*k)
			for first := uint64(0); first < c.NumCells(); first += size {
				corner := indexToAxes(c, first)
				for h := first; h < first+size; h++ {
					for i, a := range c.IndexToAxes(h, axes) {
						if a>>uint(k) != corner[i]>>uint(k) {
							t.Fatalf("%d/%d: index %d leaves the side-2^%d cube of block %d: axis %d is %d, corner %v",
								cfg.dims, cfg.bits, h, k, first, i, a, corner)
						}
					}
				}
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	c := MustNew(4, 4)
	f := func(raw uint64) bool {
		h := raw % c.NumCells()
		return axesToIndex(c, indexToAxes(c, h)) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestAxesRoundTripQuick(t *testing.T) {
	c := MustNew(3, 5)
	f := func(a, b, cc uint32) bool {
		axes := []uint32{a % 32, b % 32, cc % 32}
		got := indexToAxes(c, axesToIndex(c, axes))
		return got[0] == axes[0] && got[1] == axes[1] && got[2] == axes[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestAxesToIndexDoesNotMutate(t *testing.T) {
	c := MustNew(3, 3)
	axes := []uint32{1, 2, 3}
	axesToIndex(c, axes)
	if axes[0] != 1 || axes[1] != 2 || axes[2] != 3 {
		t.Errorf("input mutated: %v", axes)
	}
}

func TestAxesToIndexPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong arity")
		}
	}()
	axesToIndex(MustNew(3, 3), []uint32{1, 2})
}

// Theorem 2 fairness: a contiguous segment of the curve of length
// |H|/k traverses approximately the same proportion of every
// dimension's coordinate range. We verify that per-dimension coverage
// of each segment is within a factor ~2.5 of ideal — tight enough to
// separate Hilbert from row-major linearisation, where one dimension's
// segment coverage is 2^bits× the other's.
func TestSegmentFairness(t *testing.T) {
	c := MustNew(3, 4) // 4096 cells, 16 per dim
	k := 8
	segLen := c.NumCells() / uint64(k)
	for s := 0; s < k; s++ {
		lo := uint64(s) * segLen
		distinct := make([]map[uint32]bool, c.Dims())
		for i := range distinct {
			distinct[i] = make(map[uint32]bool)
		}
		for h := lo; h < lo+segLen; h++ {
			axes := indexToAxes(c, h)
			for i, a := range axes {
				distinct[i][a] = true
			}
		}
		// Ideal: each segment covers 1/k of the volume; per-dim distinct
		// coordinate counts should be balanced across dimensions.
		minD, maxD := 1<<30, 0
		for _, d := range distinct {
			if len(d) < minD {
				minD = len(d)
			}
			if len(d) > maxD {
				maxD = len(d)
			}
		}
		if maxD > minD*3 {
			t.Errorf("segment %d: per-dim distinct coords unbalanced: min %d max %d", s, minD, maxD)
		}
	}
}

// Row-major linearisation fails the fairness test (sanity check that
// the fairness property is non-trivial): for comparison only.
func TestRowMajorIsUnfair(t *testing.T) {
	bits := 4
	dims := 3
	cells := uint64(1) << uint(bits*dims)
	k := uint64(8)
	segLen := cells / k
	// Row-major: axes from index digits.
	axesOf := func(h uint64) []uint32 {
		a := make([]uint32, dims)
		for i := dims - 1; i >= 0; i-- {
			a[i] = uint32(h & 15)
			h >>= uint(bits)
		}
		return a
	}
	distinct := make([]map[uint32]bool, dims)
	for i := range distinct {
		distinct[i] = make(map[uint32]bool)
	}
	for h := uint64(0); h < segLen; h++ {
		for i, a := range axesOf(h) {
			distinct[i][a] = true
		}
	}
	// Dimension 0 moves slowest: the first segment shouldn't cover it.
	if len(distinct[0]) >= len(distinct[dims-1]) {
		t.Skip("row-major coverage unexpectedly balanced (layout changed)")
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	c := MustNew(3, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x := []uint32{uint32(rng.Intn(16)), uint32(rng.Intn(16)), uint32(rng.Intn(16))}
		h := c.interleave(x)
		back := []uint32{99, 99, 99} // stale contents must not survive
		c.deinterleave(h, back)
		for j := range x {
			if x[j] != back[j] {
				t.Fatalf("interleave roundtrip: %v → %d → %v", x, h, back)
			}
		}
	}
}

func Test1DCurveIsIdentityLike(t *testing.T) {
	c := MustNew(1, 8)
	for h := uint64(0); h < 256; h++ {
		axes := indexToAxes(c, h)
		if uint64(axes[0]) != h {
			// A 1-D Hilbert curve is the identity mapping.
			t.Fatalf("1-D curve not identity at %d: %v", h, axes)
		}
	}
}
