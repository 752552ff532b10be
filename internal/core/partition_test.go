package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
)

func TestNewPartitionerValidation(t *testing.T) {
	if _, err := NewPartitioner(nil, 4, 1<<12); err == nil {
		t.Error("no dims accepted")
	}
	if _, err := NewPartitioner([]int{10}, 0, 1<<12); err == nil {
		t.Error("kr=0 accepted")
	}
	if _, err := NewPartitioner([]int{10, 0}, 4, 1<<12); err == nil {
		t.Error("zero cardinality accepted")
	}
	p, err := NewPartitioner([]int{100, 200, 300}, 8, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if p.kr != 8 {
		t.Errorf("components = %d", p.kr)
	}
	if p.Eta() < 1 {
		t.Errorf("eta = %d", p.Eta())
	}
}

func TestEtaFor(t *testing.T) {
	// 3 dims, max 2^18 cells → eta = 6 (2^18 exactly).
	if got := etaFor(3, 1<<18); got != 6 {
		t.Errorf("etaFor(3, 2^18) = %d, want 6", got)
	}
	// 2 dims → eta = 9.
	if got := etaFor(2, 1<<18); got != 9 {
		t.Errorf("etaFor(2, 2^18) = %d, want 9", got)
	}
	if got := etaFor(5, 4); got != 1 {
		t.Errorf("etaFor(5, 4) = %d, want 1", got)
	}
	// Cap at 16 bits per dim.
	if got := etaFor(1, 1<<30); got != 16 {
		t.Errorf("etaFor(1, 2^30) = %d, want 16", got)
	}
}

// Every cell belongs to exactly one component, and ComponentsOf is
// consistent: the owner of any cell appears in the ComponentsOf set of
// every dimension coordinate of that cell.
func TestPartitionCoverage(t *testing.T) {
	cards := []int{50, 70, 90}
	p, err := NewPartitioner(cards, 7, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, p.kr)
	for h := uint64(0); h < p.nCells; h++ {
		comp := p.componentOfIndex(h)
		if comp < 0 || int(comp) >= p.kr {
			t.Fatalf("cell %d in component %d", h, comp)
		}
		counts[comp]++
		axes := p.curve.IndexToAxes(h, make([]uint32, p.curve.Dims()))
		for i, v := range axes {
			found := false
			for _, c := range p.comps[i][v] {
				if c == comp {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("component %d missing from comps[%d][%d]", comp, i, v)
			}
		}
	}
	// Balanced segments: max/min cell counts within 1 of each other
	// after integer division.
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced components: min %d max %d", min, max)
	}
}

// The joinability guarantee behind Algorithm 1: for any combination of
// global IDs, the owning component appears in every participating
// tuple's ComponentsOf set — so all m tuples meet at that reducer.
func TestCombinationMeetsAtOwner(t *testing.T) {
	cards := []int{40, 60, 25}
	p, err := NewPartitioner(cards, 11, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	axes, buf := make([]uint32, len(cards)), make([]uint32, len(cards))
	for trial := 0; trial < 3000; trial++ {
		ids := []uint64{
			uint64(rng.Intn(cards[0])),
			uint64(rng.Intn(cards[1])),
			uint64(rng.Intn(cards[2])),
		}
		for dim, id := range ids {
			axes[dim] = p.CellCoord(dim, id)
		}
		owner := p.componentOfAxes(axes, buf)
		for dim, id := range ids {
			found := false
			for _, c := range p.ComponentsOf(dim, id) {
				if c == owner {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: owner %d not in ComponentsOf(%d, %d)", trial, owner, dim, id)
			}
		}
	}
}

// Theorem 2 consequence: the Hilbert partition's duplication score
// stays close to the analytic fair-duplication lower bound, and far
// below the worst case (every tuple to every component).
func TestScoreNearIdeal(t *testing.T) {
	cards := []int{500, 500, 500}
	for _, kr := range []int{2, 4, 8, 16, 32} {
		p, err := NewPartitioner(cards, kr, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		score := p.Score()
		ideal := IdealScore(cards, kr)
		worst := float64(kr) * 1500
		if score < float64(1500) {
			t.Errorf("kr=%d: score %v below tuple count", kr, score)
		}
		if score > 3*ideal {
			t.Errorf("kr=%d: score %v far above ideal %v", kr, score, ideal)
		}
		if score >= worst && kr > 2 {
			t.Errorf("kr=%d: score %v at worst case %v", kr, score, worst)
		}
	}
}

// scoreFor is Eq. 7's score of the kr-component partition of cards.
func scoreFor(t *testing.T, cards []int, kr, maxCells int) float64 {
	t.Helper()
	p, err := NewPartitioner(cards, kr, maxCells)
	if err != nil {
		t.Fatal(err)
	}
	return p.Score()
}

// Fig. 5's monotonicity: the network volume (score) grows with the
// number of reduce tasks.
func TestScoreGrowsWithKR(t *testing.T) {
	cards := []int{300, 300, 300}
	prev := 0.0
	for _, kr := range []int{1, 2, 4, 8, 16, 32, 64} {
		s := scoreFor(t, cards, kr, 1<<15)
		if s < prev {
			t.Errorf("score decreased at kr=%d: %v < %v", kr, s, prev)
		}
		prev = s
	}
	// kr=1: every tuple copied exactly once.
	if s1 := scoreFor(t, cards, 1, 1<<15); s1 != 900 {
		t.Errorf("score at kr=1 = %v, want 900", s1)
	}
}

func TestCellCoordRange(t *testing.T) {
	p, err := NewPartitioner([]int{10, 1000}, 4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	side := p.curve.CellsPerDim()
	for dim, card := range []int{10, 1000} {
		for id := 0; id < card; id++ {
			c := p.CellCoord(dim, uint64(id))
			if c >= side {
				t.Fatalf("coord %d out of range for dim %d id %d", c, dim, id)
			}
		}
		// Out-of-range IDs clamp.
		if c := p.CellCoord(dim, uint64(card+100)); c >= side {
			t.Fatalf("clamped coord out of range")
		}
	}
	// Coordinates cover the full range for the large dimension.
	seen := map[uint32]bool{}
	for id := 0; id < 1000; id++ {
		seen[p.CellCoord(1, uint64(id))] = true
	}
	if len(seen) != int(side) {
		t.Errorf("dim 1 covers %d of %d coordinates", len(seen), side)
	}
}

// TestGlobalIDProperties: tupleGlobalID is a pure function of its
// arguments, lands in [0, card), sends every rid to 0 when card < 1, and
// a different job salt reshuffles the assignment — except for the
// parity of the ID under an even card, which the salt does not reach
// (ROADMAP open item 9). TestTupleGlobalIDUniform checks the spread.
func TestGlobalIDProperties(t *testing.T) {
	if a, b := tupleGlobalID(relation.Int(42), 1000, 7, 0), tupleGlobalID(relation.Int(42), 1000, 7, 0); a != b {
		t.Errorf("not deterministic: %d then %d", a, b)
	}
	for _, card := range []int{-1, 0} {
		if id := tupleGlobalID(relation.Int(5), card, 7, 1); id != 0 {
			t.Errorf("card=%d: id %d, want 0", card, id)
		}
	}
	for card := 2; card < 50; card += 7 {
		for rid := int64(-20); rid < 20; rid++ {
			if id := tupleGlobalID(relation.Int(rid), card, 3, 1); id >= uint64(card) {
				t.Errorf("rid %d: id %d out of range %d", rid, id, card)
			}
		}
	}
	// At an odd card another salt reassigns the rids independently:
	// they agree on about 1/card of them.
	same := 0
	for i := 0; i < 10000; i++ {
		if tupleGlobalID(relation.Int(int64(i)), 9, 7, 2) == tupleGlobalID(relation.Int(int64(i)), 9, 8, 2) {
			same++
		}
	}
	if same < 900 || same > 1350 {
		t.Errorf("card 9: salts 7 and 8 agree on %d of 10000 rids (want ~1111)", same)
	}
	// At an even card the ID's parity stays with the rid: the hash's low
	// bit before the modulus is the XOR of its input bytes' low bits,
	// and the salt's odd multiple flips back the salt byte's. This pins
	// the known defect of ROADMAP open item 9; a fix must turn this into
	// a decorrelation check like the one above.
	for i := 0; i < 10000; i++ {
		a, b := tupleGlobalID(relation.Int(int64(i)), 10, 7, 2), tupleGlobalID(relation.Int(int64(i)), 10, 8, 2)
		if a%2 != b%2 {
			t.Fatalf("card 10, rid %d: salt 7 gives %d, salt 8 gives %d; the parity no longer follows the rid (ROADMAP open item 9 fixed?)", i, a, b)
		}
	}
}

// referenceGlobalID is tupleGlobalID through hash/fnv over its ten
// bytes: the oracle for the inlined arithmetic.
func referenceGlobalID(rid int64, card int, salt uint64, dim int) uint64 {
	var buf [10]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(rid))
	buf[8], buf[9] = byte(salt), byte(dim)
	h := fnv.New64a()
	h.Write(buf[:])
	return (h.Sum64() ^ salt*0x9e3779b97f4a7c15) % uint64(card)
}

func TestTupleGlobalIDUniform(t *testing.T) {
	buckets := make([]int, 8)
	for i := 0; i < 8000; i++ {
		id := tupleGlobalID(relation.Int(int64(i)), 8, 99, 2)
		buckets[id]++
	}
	for b, n := range buckets {
		if n < 700 || n > 1300 {
			t.Errorf("bucket %d has %d of 8000", b, n)
		}
	}
	if tupleGlobalID(relation.Int(5), 1, 0, 0) != 0 {
		t.Error("card=1 id != 0")
	}
}

func TestTupleGlobalIDMatchesFNV(t *testing.T) {
	rids := []int64{0, 1, -1, 255, 256, math.MinInt64, math.MaxInt64, 0x0102030405060708}
	salts := []uint64{0, 1, 0xff, 0x100, 0xabcd, jobSalt("band"), math.MaxUint64}
	dims := []int{0, 1, 2, 255, 256, 0x1234}
	cards := []int{2, 7, 1000, 1 << 40, math.MaxInt}
	for _, rid := range rids {
		for _, salt := range salts {
			for _, dim := range dims {
				for _, card := range cards {
					if got, want := tupleGlobalID(relation.Int(rid), card, salt, dim), referenceGlobalID(rid, card, salt, dim); got != want {
						t.Errorf("rid %d salt %#x dim %d card %d: %d, hash/fnv gives %d", rid, salt, dim, card, got, want)
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, rid := range rids {
			keySink += tupleGlobalID(relation.Int(rid), 1000, 0xabcd, 1)
		}
	}); n != 0 {
		t.Errorf("tupleGlobalID allocates %v times over %d rids", n, len(rids))
	}
}

// cellAxes lists the coordinates of every cell in curve order, m per
// cell: the walk the component map is defined by, made once per cube so
// that the oracle below can be asked about many component counts.
func cellAxes(p *Partitioner) []uint32 {
	m := p.curve.Dims()
	cells := make([]uint32, p.nCells*uint64(m))
	for h := uint64(0); h < p.nCells; h++ {
		p.curve.IndexToAxes(h, cells[h*uint64(m):])
	}
	return cells
}

// enumerateMapping is the definition buildMapping must equal: visit
// every cell in curve order and record, per (dimension, coordinate), each
// component the first time it touches it.
func enumerateMapping(p *Partitioner, cells []uint32) [][][]int32 {
	m := p.curve.Dims()
	side := int(p.curve.CellsPerDim())
	seen := make([][]int32, m)
	comps := make([][][]int32, m)
	for i := range seen {
		seen[i] = make([]int32, side)
		for v := range seen[i] {
			seen[i][v] = -1
		}
		comps[i] = make([][]int32, side)
	}
	for h := uint64(0); h < p.nCells; h++ {
		comp := int32(h * uint64(p.kr) / p.nCells)
		for i, v := range cells[h*uint64(m) : (h+1)*uint64(m)] {
			if seen[i][v] != comp {
				seen[i][v] = comp
				comps[i][v] = append(comps[i][v], comp)
			}
		}
	}
	return comps
}

// TestMappingEqualsEnumeration: the closed-form component map is the
// enumerated one, list for list — also where components outnumber cells
// and most are empty.
func TestMappingEqualsEnumeration(t *testing.T) {
	krs := []int{1, 2, 3, 5, 6, 7, 16, 31, 64, 77, 96, 255, 1000, 5000, 1 << 21}
	for dims := 1; dims <= 5; dims++ {
		t.Run(fmt.Sprintf("dims=%d", dims), func(t *testing.T) {
			t.Parallel()
			cards := make([]int, dims)
			for i := range cards {
				cards[i] = 1000 + 37*i
			}
			for _, maxCells := range []int{1 << 10, maxCubeCells, 1 << 18, 1 << 20} {
				var cells []uint32
				for _, kr := range krs {
					p, err := NewPartitioner(cards, kr, maxCells)
					if err != nil {
						t.Fatal(err)
					}
					if cells == nil {
						cells = cellAxes(p)
					}
					if want := enumerateMapping(p, cells); !reflect.DeepEqual(p.comps, want) {
						t.Fatalf("maxCells=%d kr=%d (eta %d): mapping differs from the enumeration", maxCells, kr, p.Eta())
					}
				}
			}
		})
	}
}

// TestComponentBoundariesIn128Bits: at dims 4, η 15 the cube has 2^60
// cells and h·kR overflows 64 bits for most of the curve. Boundaries must
// still fall at ⌈s·N/kR⌉, and a cell's owner must still be among the
// components each of its coordinates is routed to.
func TestComponentBoundariesIn128Bits(t *testing.T) {
	const kr = 96
	p, err := NewPartitioner([]int{1 << 20, 1 << 20, 1 << 20, 1 << 20}, kr, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eta() != 15 || p.nCells != 1<<60 {
		t.Fatalf("eta %d, %d cells; want 15 and 2^60", p.Eta(), p.nCells)
	}
	n := new(big.Int).SetUint64(p.nCells)
	for s := 1; s < kr; s++ {
		// ⌈s·N/kR⌉ in arbitrary precision.
		b := new(big.Int).Mul(big.NewInt(int64(s)), n)
		b.Add(b, big.NewInt(kr-1)).Div(b, big.NewInt(kr))
		start := b.Uint64()
		if got := p.componentStart(s); got != start {
			t.Fatalf("componentStart(%d) = %d, want %d", s, got, start)
		}
		if got := p.componentOfIndex(start); got != int32(s) {
			t.Errorf("index %d (start of %d) in component %d", start, s, got)
		}
		if got := p.componentOfIndex(start - 1); got != int32(s-1) {
			t.Errorf("index %d (end of %d) in component %d", start-1, s-1, got)
		}
	}
	rng := rand.New(rand.NewSource(15))
	axes, buf := make([]uint32, 4), make([]uint32, 4)
	for trial := 0; trial < 20000; trial++ {
		for i := range axes {
			axes[i] = uint32(rng.Intn(1 << 15))
		}
		owner := p.componentOfAxes(axes, buf)
		if owner < 0 || owner >= kr {
			t.Fatalf("cell %v in component %d", axes, owner)
		}
		for dim, v := range axes {
			if !slices.Contains(p.comps[dim][v], owner) {
				t.Fatalf("cell %v: owner %d not in comps[%d][%d] = %v", axes, owner, dim, v, p.comps[dim][v])
			}
		}
	}
}

// BenchmarkBuildMapping times what every theta job pays before its first
// map task: the component map of the job's cube (two and three
// relations) at k_R 96, built from the components' aligned blocks.
func BenchmarkBuildMapping(b *testing.B) {
	for _, cards := range [][]int{{60000, 60000}, {400, 400, 400}} {
		b.Run(fmt.Sprintf("dims=%d", len(cards)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPartitioner(cards, 96, maxCubeCells); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(96*float64(b.N)/b.Elapsed().Seconds(), "components/s")
		})
	}
}
