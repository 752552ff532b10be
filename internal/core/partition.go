// Package core implements the paper's query processor: planning a
// multi-way theta-join as a set of MapReduce jobs over the pruned
// join-path graph, evaluating several theta conditions in ONE job via
// Hilbert-curve partitioning of the cross-product hyper-cube (§5.1,
// Algorithm 1, Theorem 2), selecting the job set by weighted set cover
// and scheduling it on k_P bounded processing units (§4.2, §5.2).
package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hilbert"
)

// Partitioner maps the m-dimensional hyper-cube S = R_1 × … × R_m onto
// kR components, each a contiguous segment of a Hilbert curve over the
// η-times-recursively-halved cube (Theorem 2's perfect partition
// function f): component s owns the curve indices [⌈s·N/kR⌉,
// ⌈(s+1)·N/kR⌉) of the N = 2^(m·η) cells. It provides the two
// operations Algorithm 1 needs:
//
//   - ComponentsOf(dim, globalID): the set of components a tuple must
//     be replicated to (every component containing at least one cell
//     whose dim-th coordinate equals the tuple's cell coordinate);
//   - ComponentOfCell(axes): the single component owning a full
//     combination, so exactly one reducer emits each join result.
//
// The first is a table built once per job, from the segments' shapes
// rather than their cells (buildMapping); the second is one curve
// transform and a multiply.
type Partitioner struct {
	curve  *hilbert.Curve
	cards  []int // relation cardinalities (hyper-cube side lengths)
	kr     int   // number of components (reduce tasks)
	nCells uint64

	// comps[i][v] lists the components containing any cell with
	// axes[i] == v, ascending.
	comps [][][]int32
}

// maxCubeCells bounds the resolution of every theta job's cube; η is
// the largest recursion depth with 2^(m·η) ≤ maxCubeCells. No cell is
// ever visited, so what η costs is the width of comps — m·2^η
// coordinate lists — and what it buys is how finely a component's
// boundary follows the curve. 2^14 and 2^18 were measured against each
// other. At 2^18 these thetabench -quick cells move: Fig. 9 Q1 shuffle
// 393.00 → 393.23 GB, Fig. 9 Q3 2798.4 → 2798.8 s, Fig. 10 Q1 1648.3 →
// 1652.9 s and 329.19 → 333.21 GB, and the kR ablation's 10 GB row
// 673.2 → 685.5 s; plans.golden, estimates.golden and model.golden do
// not, since the planner never reads the bound. Going from
// 2^18 to 2^14, no benchmark workload emits more pairs (q1_merge 9631
// → 9617, band_scan 389 105 → 387 684) and none a different result. It
// is an internal resolution of the partition (§5.1), not a setting.
const maxCubeCells = 1 << 14

// NewPartitioner builds the partition of the cube with the given
// relation cardinalities into kr components at the finest η that keeps
// it within maxCells cells (and at η = 1 when even that exceeds them).
func NewPartitioner(cards []int, kr int, maxCells int) (*Partitioner, error) {
	m := len(cards)
	if m < 1 {
		return nil, fmt.Errorf("core: partitioner needs at least 1 dimension")
	}
	if kr < 1 {
		return nil, fmt.Errorf("core: partitioner needs kr >= 1, got %d", kr)
	}
	for i, c := range cards {
		if c < 1 {
			return nil, fmt.Errorf("core: dimension %d has cardinality %d", i, c)
		}
	}
	eta := etaFor(m, maxCells)
	curve, err := hilbert.New(m, eta)
	if err != nil {
		return nil, err
	}
	p := &Partitioner{
		curve:  curve,
		cards:  append([]int(nil), cards...),
		kr:     kr,
		nCells: curve.NumCells(),
	}
	p.buildMapping()
	return p, nil
}

// etaFor picks the recursion depth: the largest η ≥ 1 with 2^(m·η) ≤
// maxCells, capped at 16 bits per dimension.
func etaFor(m, maxCells int) int {
	eta := 1
	for (m*(eta+1)) <= 62 && (uint64(1)<<uint(m*(eta+1))) <= uint64(maxCells) && eta+1 <= 16 {
		eta++
	}
	return eta
}

// buildMapping fills comps from the shape of each component rather than
// from its cells. Any aligned block of 2^(m·k) curve indices is an
// axis-aligned sub-cube of side 2^k (the curve's recursion; pinned by
// hilbert's TestAlignedBlocksAreCubes), so component s's index range
// is cut greedily into maximal aligned blocks — at most 2·(2^m − 1) per
// level k — and each block marks the coordinate range [c, c + 2^k) of
// its corner in every dimension: O(kR·2^m·η) curve transforms where
// visiting the cells took 2^(m·η). Components are walked in ascending
// order and `seen` drops a coordinate's repeat visits by the same
// component, so every list comes out ascending and duplicate-free —
// the lists, and their growth steps, that a walk over the cells appends.
func (p *Partitioner) buildMapping() {
	m, eta := p.curve.Dims(), p.curve.Bits()
	side := int(p.curve.CellsPerDim())
	seen := make([][]int32, m)
	for i := range seen {
		seen[i] = make([]int32, side)
		for v := range seen[i] {
			seen[i][v] = -1
		}
	}
	p.comps = make([][][]int32, m)
	for i := range p.comps {
		p.comps[i] = make([][]int32, side)
	}
	axes := make([]uint32, m)
	lo := uint64(0)
	for s := 0; s < p.kr; s++ {
		comp, hi := int32(s), p.componentStart(s+1)
		for lo < hi {
			// The largest block that starts at lo and ends by hi.
			k, size := 0, uint64(1)
			for k < eta && lo&(size<<m-1) == 0 && hi-lo >= size<<m {
				k, size = k+1, size<<m
			}
			for i, c := range p.curve.IndexToAxes(lo, axes) {
				c &^= 1<<uint(k) - 1
				for v := c; v < c+1<<uint(k); v++ {
					if seen[i][v] != comp {
						seen[i][v] = comp
						p.comps[i][v] = append(p.comps[i][v], comp)
					}
				}
			}
			lo += size
		}
	}
}

// componentStart is the first curve index of component s, ⌈s·N/kR⌉; s
// = kR gives N. The product takes 128 bits: a cube may have 2^62 cells.
func (p *Partitioner) componentStart(s int) uint64 {
	hi, lo := bits.Mul64(uint64(s), p.nCells)
	q, r := bits.Div64(hi, lo, uint64(p.kr))
	if r > 0 {
		q++
	}
	return q
}

// componentOfIndex assigns Hilbert position h to one of kr balanced
// contiguous segments: ⌊h·kR/N⌋, the s with componentStart(s) ≤ h <
// componentStart(s+1). N is a power of two, so the division is a shift
// of the 128-bit product.
func (p *Partitioner) componentOfIndex(h uint64) int32 {
	hi, lo := bits.Mul64(h, uint64(p.kr))
	shift := uint(bits.TrailingZeros64(p.nCells))
	return int32(hi<<(64-shift) | lo>>shift)
}

// Eta returns the recursion depth η.
func (p *Partitioner) Eta() int { return p.curve.Bits() }

// CellCoord maps a tuple's global ID in dimension dim to its cell
// coordinate: IDs are spread uniformly over the 2^η cells.
func (p *Partitioner) CellCoord(dim int, globalID uint64) uint32 {
	card := uint64(p.cards[dim])
	if globalID >= card {
		globalID = card - 1
	}
	side := uint64(p.curve.CellsPerDim())
	return uint32(globalID * side / card)
}

// ComponentsOf returns the components tuple (dim, globalID) must be
// copied to. The returned slice is shared; callers must not modify it.
func (p *Partitioner) ComponentsOf(dim int, globalID uint64) []int32 {
	return p.comps[dim][p.CellCoord(dim, globalID)]
}

// componentOfAxes returns the component owning the cell at the given
// per-dimension coordinates (CellCoord of each tuple's global ID); buf
// is the curve transform's scratch, as long as axes. The reducers call
// it once per verified combination.
func (p *Partitioner) componentOfAxes(axes, buf []uint32) int32 {
	return p.componentOfIndex(p.curve.AxesToIndex(axes, buf))
}

// Score computes the partition score of Eq. 7: the total number of
// tuple copies across components, Σ_i Σ_j Cnt(t_j^{R_i}, C). With IDs
// uniform over cells, every coordinate of dimension i carries
// |R_i|/2^η tuples.
func (p *Partitioner) Score() float64 {
	side := int(p.curve.CellsPerDim())
	total := 0.0
	for i := range p.comps {
		perCoord := float64(p.cards[i]) / float64(side)
		for v := 0; v < side; v++ {
			total += float64(len(p.comps[i][v])) * perCoord
		}
	}
	return total
}

// IdealScore is the analytic lower bound of the duplication volume for
// kr components (Eq. 9's fair-duplication form): each component holds
// an ε = 1/kr share of every dimension under perfect fairness, so each
// tuple of R_i is duplicated kr^((m-1)/m) times in expectation.
func IdealScore(cards []int, kr int) float64 {
	m := len(cards)
	if m == 0 || kr < 1 {
		return 0
	}
	dup := math.Pow(float64(kr), float64(m-1)/float64(m))
	total := 0.0
	for _, c := range cards {
		total += float64(c) * dup
	}
	return total
}
