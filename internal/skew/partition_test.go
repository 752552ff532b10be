package skew

import (
	"testing"

	"repro/internal/relation"
)

func tup(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Int(v)
	}
	return t
}

// TestEquiPartitionerColdKey: non-hot keys route exactly like the
// default hash partition.
func TestEquiPartitionerColdKey(t *testing.T) {
	p := &EquiPartitioner{Splits: map[uint64]Split{99: {Rows: 4, Cols: 1}}}
	for _, key := range []uint64{0, 1, 17, 1 << 40} {
		dst := p.Route(nil, key, 0, tup(1), 8)
		if len(dst) != 1 || dst[0] != int(key%8) {
			t.Errorf("key %d: route %v, want [%d]", key, dst, key%8)
		}
	}
}

// TestEquiPartitionerPairsMeetOnce: for a hot key, every (row-side,
// col-side) tuple pair shares exactly one reducer — the join neither
// loses nor duplicates pairs — and row-side tuples spread over Rows
// distinct reducers.
func TestEquiPartitionerPairsMeetOnce(t *testing.T) {
	const n = 16
	const hot = uint64(42)
	p := &EquiPartitioner{Splits: map[uint64]Split{hot: {Rows: 3, Cols: 2}}}
	var rowRoutes, colRoutes [][]int
	rowDst := map[int]bool{}
	for i := 0; i < 40; i++ {
		r := p.Route(nil, hot, 0, tup(int64(i), 7), n)
		if len(r) != 2 { // Cols copies
			t.Fatalf("row-side tuple %d: %d destinations, want 2", i, len(r))
		}
		rowRoutes = append(rowRoutes, r)
		rowDst[r[0]] = true
	}
	for i := 0; i < 40; i++ {
		c := p.Route(nil, hot, 1, tup(int64(1000+i), 9), n)
		if len(c) != 3 { // Rows copies
			t.Fatalf("col-side tuple %d: %d destinations, want 3", i, len(c))
		}
		colRoutes = append(colRoutes, c)
	}
	for ri, r := range rowRoutes {
		for ci, c := range colRoutes {
			shared := 0
			for _, a := range r {
				for _, b := range c {
					if a == b {
						shared++
					}
				}
			}
			if shared != 1 {
				t.Fatalf("pair (%d,%d): %d shared reducers (routes %v / %v), want exactly 1", ri, ci, shared, r, c)
			}
		}
	}
	if len(rowDst) < 2 {
		t.Errorf("row side never spread: all tuples landed on %v", rowDst)
	}
}

// TestEquiPartitionerDeterministic: routing is a pure function of the
// pair.
func TestEquiPartitionerDeterministic(t *testing.T) {
	p := &EquiPartitioner{Splits: map[uint64]Split{5: {Rows: 4, Cols: 3}}}
	a := p.Route(nil, 5, 0, tup(11, 22), 16)
	b := p.Route(nil, 5, 0, tup(11, 22), 16)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("routes differ: %v vs %v", a, b)
		}
	}
}

func TestSplitFactor(t *testing.T) {
	cases := []struct {
		frac      float64
		reducers  int
		threshold float64
		want      int
	}{
		{0, 16, 1.5, 1},    // no skew info
		{0.05, 16, 1.5, 1}, // 0.8× mean: below threshold
		{0.2, 16, 1.5, 4},  // 3.2× mean: ceil(0.2*16)
		{0.5, 8, 1.5, 4},   // ceil(0.5*8)
		{1.0, 8, 1.5, 8},   // whole side one key: use all reducers
		{0.9, 1, 1.5, 1},   // single reducer: nothing to split
		{0.4, 4, 2.0, 1},   // 1.6× mean under threshold 2
	}
	for _, c := range cases {
		if got := SplitFactor(c.frac, c.reducers, c.threshold); got != c.want {
			t.Errorf("SplitFactor(%v,%d,%v) = %d, want %d", c.frac, c.reducers, c.threshold, got, c.want)
		}
	}
}

func TestSigmaFrac(t *testing.T) {
	// Near-uniform distribution: small residual floor, far below the
	// 0.3 constant it replaces.
	if cv := SigmaFrac(0.01, 16, 1.5); cv != 0.02 {
		t.Errorf("uniform cv = %v, want floor 0.02", cv)
	}
	// Heavy key, mitigation caps at threshold: (1.5)/3 = 0.5.
	if cv := SigmaFrac(0.5, 16, 1.5); cv != 0.5 {
		t.Errorf("hot cv = %v, want 0.5", cv)
	}
	// Moderate skew between floor and cap: (0.25*8-1)/3.
	if cv := SigmaFrac(0.25, 8, 1.5); cv < 0.3 || cv > 0.35 {
		t.Errorf("moderate cv = %v, want ~1/3", cv)
	}
}

// TestTupleHashDistinguishesContent: different tuples hash apart (so a
// hot key's tuples spread) and equal content hashes equal (so map and
// reduce sides agree).
func TestTupleHashDistinguishesContent(t *testing.T) {
	if TupleHash(tup(1, 2)) != TupleHash(tup(1, 2)) {
		t.Error("equal tuples hash differently")
	}
	seen := map[uint64]bool{}
	for i := int64(0); i < 100; i++ {
		seen[TupleHash(tup(i, 7))] = true
	}
	if len(seen) < 95 {
		t.Errorf("only %d distinct hashes over 100 tuples", len(seen))
	}
}

// TestEquiPartitionerMultiHotSpread is the multi-hot-key regression:
// with the historical consecutive-slot layout, two hot keys whose
// base slots are close alias their sub-grids onto the same reducers
// and re-concentrate load. The coordinated layout must (a) still give
// each grid exactly Cells distinct reducers, (b) place the two grids
// on disjoint reducer sets (8 + 8 cells fit in 16 slots exactly), and
// (c) balance the combined load strictly better than the consecutive
// layout.
func TestEquiPartitionerMultiHotSpread(t *testing.T) {
	const n = 16
	// Two hot keys with adjacent base slots (key % 16 = 4 and 5).
	k1, k2 := uint64(4+16*3), uint64(5+16*9)
	sp := Split{Rows: 4, Cols: 2}
	p := &EquiPartitioner{Splits: map[uint64]Split{k1: sp, k2: sp}}

	load := make([]int64, n)
	consecutive := make([]int64, n)
	gridSlots := map[uint64]map[int]bool{k1: {}, k2: {}}
	for _, key := range []uint64{k1, k2} {
		base := int(key % n)
		for i := 0; i < 400; i++ {
			tpl := tup(int64(i), int64(key))
			for _, s := range p.Route(nil, key, 0, tpl, n) {
				load[s]++
				gridSlots[key][s] = true
			}
			// Replay the pre-fix consecutive layout for the same tuple.
			row := int(TupleHash(tpl) % uint64(sp.Rows))
			for c := 0; c < sp.Cols; c++ {
				consecutive[(base+row*sp.Cols+c)%n]++
			}
		}
		for i := 0; i < 100; i++ {
			tpl := tup(int64(5000+i), int64(key))
			for _, s := range p.Route(nil, key, 1, tpl, n) {
				load[s]++
				gridSlots[key][s] = true
			}
			col := int(TupleHash(tpl) % uint64(sp.Cols))
			for r := 0; r < sp.Rows; r++ {
				consecutive[(base+r*sp.Cols+col)%n]++
			}
		}
	}
	for key, slots := range gridSlots {
		if len(slots) != sp.Cells() {
			t.Errorf("key %d grid occupies %d distinct reducers, want %d", key, len(slots), sp.Cells())
		}
	}
	for s := range gridSlots[k1] {
		if gridSlots[k2][s] {
			t.Errorf("grids overlap on reducer %d despite free capacity", s)
		}
	}
	ratio := func(loads []int64) float64 {
		var max, total int64
		for _, l := range loads {
			total += l
			if l > max {
				max = l
			}
		}
		return float64(max) * float64(len(loads)) / float64(total)
	}
	got, old := ratio(load), ratio(consecutive)
	if got >= old {
		t.Errorf("coordinated layout balance %.2f not better than consecutive %.2f", got, old)
	}
	if got > 1.5 {
		t.Errorf("two simultaneous hot keys still imbalanced: ratio %.2f", got)
	}
	t.Logf("multi-hot balance ratio: coordinated %.2f vs consecutive %.2f", got, old)
}

// TestGridLayoutOverCapacity: three 8-cell grids on 16 slots cannot be
// disjoint, but occupancy must stay even — no slot carries all three
// grids while another carries none.
func TestGridLayoutOverCapacity(t *testing.T) {
	const n = 16
	sp := Split{Rows: 4, Cols: 2}
	splits := map[uint64]Split{3: sp, 4: sp, 5: sp}
	layout := gridLayout(splits, n)
	occ := make([]int, n)
	for key, slots := range layout {
		if len(slots) != sp.Cells() {
			t.Fatalf("key %d: %d slots, want %d", key, len(slots), sp.Cells())
		}
		seen := map[int]bool{}
		for _, s := range slots {
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("key %d: bad slot list %v", key, slots)
			}
			seen[s] = true
			occ[s]++
		}
	}
	for s, o := range occ {
		if o < 1 || o > 2 {
			t.Errorf("slot %d carries %d grids, want 1..2 (24 cells over 16 slots)", s, o)
		}
	}
}

// TestJobPlanJointRoundTrip: Add/Hot key on the ordered column vector
// and are nil-safe.
func TestJobPlanJointRoundTrip(t *testing.T) {
	p := NewJobPlan(DefaultThreshold)
	g := []relation.HotKey{{Values: []relation.Value{relation.Int(7), relation.Int(8)}, Count: 10, Frac: 0.4}}
	p.Add("L", []string{"a", "b"}, g)
	if got := p.Hot("L", []string{"a", "b"}); len(got) != 1 || got[0].Frac != 0.4 {
		t.Errorf("Hot round trip failed: %v", got)
	}
	if got := p.Hot("L", []string{"b", "a"}); got != nil {
		t.Errorf("column order ignored: %v", got)
	}
	if got := p.Hot("R", []string{"a", "b"}); got != nil {
		t.Errorf("unknown relation returned %v", got)
	}
	var nilPlan *JobPlan
	if got := nilPlan.Hot("L", []string{"a"}); got != nil {
		t.Errorf("nil plan returned %v", got)
	}
	p.Add("L", []string{"a", "b"}, nil) // no-op, must not clobber
	if got := p.Hot("L", []string{"a", "b"}); len(got) != 1 {
		t.Errorf("empty Add clobbered existing groups: %v", got)
	}
}
