package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func TestNewPartitionerValidation(t *testing.T) {
	if _, err := NewPartitioner(nil, 4, 0); err == nil {
		t.Error("no dims accepted")
	}
	if _, err := NewPartitioner([]int{10}, 0, 0); err == nil {
		t.Error("kr=0 accepted")
	}
	if _, err := NewPartitioner([]int{10, 0}, 4, 0); err == nil {
		t.Error("zero cardinality accepted")
	}
	p, err := NewPartitioner([]int{100, 200, 300}, 8, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if p.Components() != 8 {
		t.Errorf("components = %d", p.Components())
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
	counts := make([]int, p.Components())
	for h := uint64(0); h < p.nCells; h++ {
		comp := p.componentOfIndex(h)
		if comp < 0 || int(comp) >= p.Components() {
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
	for trial := 0; trial < 3000; trial++ {
		ids := []uint64{
			uint64(rng.Intn(cards[0])),
			uint64(rng.Intn(cards[1])),
			uint64(rng.Intn(cards[2])),
		}
		owner := p.ComponentOfCombination(ids)
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

// Fig. 5's monotonicity: the network volume (score) grows with the
// number of reduce tasks.
func TestScoreGrowsWithKR(t *testing.T) {
	cards := []int{300, 300, 300}
	prev := 0.0
	for _, kr := range []int{1, 2, 4, 8, 16, 32, 64} {
		s, err := ScoreForKR(cards, kr, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev {
			t.Errorf("score decreased at kr=%d: %v < %v", kr, s, prev)
		}
		prev = s
	}
	// kr=1: every tuple copied exactly once.
	s1, _ := ScoreForKR(cards, 1, 1<<15)
	if s1 != 900 {
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

func TestGlobalIDProperties(t *testing.T) {
	tup := relation.Tuple{relation.Int(42), relation.Str("x")}
	// Deterministic.
	a := GlobalID(tup, 1000, 7)
	b := GlobalID(tup, 1000, 7)
	if a != b {
		t.Error("GlobalID not deterministic")
	}
	// Salt changes the assignment (decorrelation).
	c := GlobalID(tup, 1000, 8)
	if a == c {
		t.Log("salt collision (possible but unlikely)")
	}
	if GlobalID(tup, 1, 7) != 0 {
		t.Error("card=1 must map to 0")
	}
	// Range.
	for card := 2; card < 50; card += 7 {
		if id := GlobalID(tup, card, 3); id >= uint64(card) {
			t.Errorf("id %d out of range %d", id, card)
		}
	}
	// Roughly uniform over many tuples.
	buckets := make([]int, 10)
	for i := 0; i < 10000; i++ {
		tt := relation.Tuple{relation.Int(int64(i))}
		buckets[GlobalID(tt, 10, 1)]++
	}
	for b, n := range buckets {
		if n < 700 || n > 1300 {
			t.Errorf("bucket %d has %d of 10000 (want ~1000)", b, n)
		}
	}
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

// BenchmarkBuildMapping times what every theta job pays before its first
// map task: enumerating the 2¹⁸ cells of the default cube (two and three
// relations) to find which components touch each coordinate.
func BenchmarkBuildMapping(b *testing.B) {
	for _, cards := range [][]int{{60000, 60000}, {400, 400, 400}} {
		b.Run(fmt.Sprintf("dims=%d", len(cards)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPartitioner(cards, 96, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(MaxCellsDefault)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
