package skew

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
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

// hot2 is a two-member hot value: fractions of the left and right
// member's tuples carrying it.
func hot2(key uint64, l, r float64) Hot { return Hot{Key: key, Fracs: []float64{l, r}} }

// TestOverlayColdKey: non-hot keys route exactly like the default hash
// partition.
func TestOverlayColdKey(t *testing.T) {
	lay := Overlay(8, []Hot{hot2(99, 0.5, 0)}, DefaultThreshold)
	for _, key := range []uint64{0, 1, 17, 1 << 40} {
		dst := lay.Route(nil, key, 0, tup(1), 8)
		if len(dst) != 1 || dst[0] != int(key%8) {
			t.Errorf("key %d: route %v, want [%d]", key, dst, key%8)
		}
	}
}

// TestOverlayShares: a member's axis gets ⌈f·k⌉ slots once f·k passes
// the threshold, and the largest axis shrinks until the run fits in k.
func TestOverlayShares(t *testing.T) {
	cases := []struct {
		l, r      float64
		k         int
		threshold float64
		want      []int // nil: the value is not hot
	}{
		{0, 0, 16, 1.5, nil},    // no skew info
		{0.05, 0, 16, 1.5, nil}, // 0.8× mean: below threshold
		{0.2, 0, 16, 1.5, []int{4, 1}},
		{0.5, 0, 8, 1.5, []int{4, 1}},
		{1.0, 0, 8, 1.5, []int{8, 1}}, // whole side one key: every reducer
		{0.9, 0, 1, 1.5, nil},         // single reducer: nothing to split
		{0.4, 0, 4, 2.0, nil},         // 1.6× mean under threshold 2
		{0, 0.25, 16, 1.5, []int{1, 4}},
		{0.5, 0.5, 8, 1.5, []int{2, 3}}, // 4×4 shrinks to 3×4, 3×3, 2×3
	}
	for _, c := range cases {
		run := Overlay(c.k, []Hot{hot2(5, c.l, c.r)}, c.threshold).Hot(5)
		var got []int
		if run != nil {
			got = run.shares
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("Overlay(%d, {%v, %v}, %v): shares %v, want %v", c.k, c.l, c.r, c.threshold, got, c.want)
		}
	}
}

// TestOverlayPairsMeetOnce: for a hot key, every (left, right) tuple
// pair shares exactly one reducer — the join neither loses nor
// duplicates pairs — and left tuples spread over distinct reducers.
func TestOverlayPairsMeetOnce(t *testing.T) {
	const n = 16
	const hot = uint64(42)
	lay := Overlay(n, []Hot{hot2(hot, 3.0/n, 2.0/n)}, DefaultThreshold) // a 3×2 run
	var rowRoutes, colRoutes [][]int
	rowDst := map[int]bool{}
	for i := 0; i < 40; i++ {
		r := lay.Route(nil, hot, 0, tup(int64(i), 7), n)
		if len(r) != 2 { // right-axis copies
			t.Fatalf("left tuple %d: %d destinations, want 2", i, len(r))
		}
		rowRoutes = append(rowRoutes, r)
		rowDst[r[0]] = true
	}
	for i := 0; i < 40; i++ {
		c := lay.Route(nil, hot, 1, tup(int64(1000+i), 9), n)
		if len(c) != 3 { // left-axis copies
			t.Fatalf("right tuple %d: %d destinations, want 3", i, len(c))
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
		t.Errorf("left side never spread: all tuples landed on %v", rowDst)
	}
}

// TestOverlayDeterministic: routing is a pure function of the pair.
func TestOverlayDeterministic(t *testing.T) {
	a := Overlay(16, []Hot{hot2(5, 0.25, 0.1875)}, DefaultThreshold).Route(nil, 5, 0, tup(11, 22), 16)
	b := Overlay(16, []Hot{hot2(5, 0.25, 0.1875)}, DefaultThreshold).Route(nil, 5, 0, tup(11, 22), 16)
	if len(a) != 3 || !slices.Equal(a, b) {
		t.Fatalf("routes differ or miss the 3 right-axis copies: %v vs %v", a, b)
	}
}

// TestRunOneSharedSlot is the property every placement rests on: for
// runs of 1–4 members with shares of 1–5, and every combination of
// member hashes, the members' tuples share exactly one slot, and Owner
// returns it.
func TestRunOneSharedSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var shares []int
	var check func()
	check = func() {
		if len(shares) > 0 {
			cells := product(shares)
			slots := rng.Perm(3 * cells)[:cells] // distinct, in no particular order
			run := newRun(slices.Clone(shares), slots)
			hashes := make([]uint64, len(shares))
			count := make([]int, 3*cells) // by slot: members reaching it
			for combo := 0; combo < cells; combo++ {
				clear(count)
				for m, c := combo, 0; c < len(shares); c++ {
					// Any hash with the same residue pins the same index.
					hashes[c] = uint64(m%shares[c]) + uint64(shares[c])*uint64(rng.Intn(1000))
					m /= shares[c]
					reached := run.Slots(c, hashes[c])
					if len(reached) != cells/shares[c] {
						t.Fatalf("shares %v member %d: %d slots, want %d", shares, c, len(reached), cells/shares[c])
					}
					for _, s := range reached {
						count[s]++
					}
				}
				var common []int
				for s, n := range count {
					if n == len(shares) {
						common = append(common, s)
					}
				}
				if len(common) != 1 || common[0] != run.Owner(hashes) {
					t.Fatalf("shares %v hashes %v: shared slots %v, Owner %d", shares, hashes, common, run.Owner(hashes))
				}
			}
		}
		if len(shares) == 4 {
			return
		}
		for s := 1; s <= 5; s++ {
			shares = append(shares, s)
			check()
			shares = shares[:len(shares)-1]
		}
	}
	check()
}

// TestCarve: hot values take ⌈f·share⌉ consecutive slots from the
// front, hottest first and ties by text, one slot always stays cold,
// and only the split member pins within a run.
func TestCarve(t *testing.T) {
	hots := []Hot{
		{Key: 1, Text: "b", Fracs: []float64{0, 0.25}},
		{Key: 2, Text: "a", Fracs: []float64{0.25, 0}},
		{Key: 1, Text: "b", Fracs: []float64{0.1, 0}}, // merged: keeps 0.25
		{Key: 3, Text: "c", Fracs: []float64{0.5, 0.5}},
		{Key: 4, Text: "d", Fracs: []float64{0.05, 0}}, // 0.05·16 under the threshold
	}
	lay := Carve(16, hots, 0, DefaultThreshold)
	want := map[uint64][]int{3: {0, 1, 2, 3, 4, 5, 6, 7}, 2: {8, 9, 10, 11}, 1: {12, 13, 14}}
	for key, slots := range want {
		run := lay.Hot(key)
		if run == nil || !slices.Equal(run.slots, slots) {
			t.Fatalf("key %d: run %+v, want slots %v", key, run, slots)
		}
		if run.Share(0) != len(slots) || run.Share(1) != 1 {
			t.Errorf("key %d: shares %v, want the split member alone to pin", key, run.shares)
		}
		if got := run.Slots(1, 12345); !slices.Equal(got, slots) {
			t.Errorf("key %d: replicating member reaches %v, want the whole run", key, got)
		}
	}
	if len(lay.runs) != 3 || lay.Hot(4) != nil {
		t.Errorf("placed %d runs (key 4: %v), want 3 and key 4 cold", len(lay.runs), lay.Hot(4))
	}
	for key := uint64(0); key < 64; key++ {
		if c := lay.Cold(key); c != 15 {
			t.Fatalf("cold key %d → slot %d, want the one slot left, 15", key, c)
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

// referenceTupleHash is TupleHash through hash/fnv, one []byte per
// field: the oracle for the inlined folds.
func referenceTupleHash(t relation.Tuple) uint64 {
	h := fnv.New64a()
	for _, v := range t {
		h.Write([]byte{byte(v.Kind())})
		if c, ok := v.DictCode(); ok {
			var cb [8]byte
			binary.LittleEndian.PutUint64(cb[:], uint64(c))
			h.Write(cb[:])
		} else {
			h.Write([]byte(v.String()))
		}
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// TestTupleHashMatchesFNV: TupleHash equals the hash/fnv oracle for
// every kind, interned and plain strings, NULL, −0 and NaN, one value at
// a time and all in one tuple, and allocates nothing.
func TestTupleHashMatchesFNV(t *testing.T) {
	long := string(make([]byte, 300)) + "longer than the scratch buffer"
	vals := []relation.Value{
		relation.Null(),
		relation.Int(0), relation.Int(255), relation.Int(-1), relation.Int(math.MinInt64), relation.Int(math.MaxInt64),
		relation.TimeUnix(86400), relation.Int(7).Add(0.5),
		relation.Float(0.1), relation.Float(math.Copysign(0, -1)), relation.Float(math.NaN()), relation.Float(-math.MaxFloat64),
		relation.Str(""), relation.Str("plain"), relation.Str(long), relation.Str("sep\x1einside"),
		relation.InternedStr("member", 0), relation.InternedStr("member", 1<<40), relation.InternedStr("", 3), relation.InternedStr(long, 255),
	}
	for _, v := range vals {
		if got, want := TupleHash(relation.Tuple{v}), referenceTupleHash(relation.Tuple{v}); got != want {
			t.Errorf("%v %q: %#x, hash/fnv gives %#x", v.Kind(), v.String(), got, want)
		}
	}
	if got, want := TupleHash(vals), referenceTupleHash(vals); got != want {
		t.Errorf("all %d values in one tuple: %#x, hash/fnv gives %#x", len(vals), got, want)
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += TupleHash(vals) }); n != 0 {
		t.Errorf("TupleHash allocates %v times over %d values", n, len(vals))
	}
}

// TestOverlayMultiHotSpread is the multi-hot-key regression: with the
// historical consecutive-slot layout, two hot keys whose base slots are
// close alias their runs onto the same reducers and re-concentrate
// load. Overlay must (a) still give each run exactly its cells'
// count of distinct reducers, (b) place the two runs on disjoint
// reducer sets (8 + 8 cells fit in 16 slots exactly), and (c) balance
// the combined load strictly better than the consecutive layout.
func TestOverlayMultiHotSpread(t *testing.T) {
	const n = 16
	const rows, cols = 4, 2
	// Two hot keys with adjacent base slots (key % 16 = 4 and 5).
	k1, k2 := uint64(4+16*3), uint64(5+16*9)
	lay := Overlay(n, []Hot{hot2(k1, 0.25, 0.125), hot2(k2, 0.25, 0.125)}, DefaultThreshold)

	load := make([]int64, n)
	consecutive := make([]int64, n)
	gridSlots := map[uint64]map[int]bool{k1: {}, k2: {}}
	for _, key := range []uint64{k1, k2} {
		base := int(key % n)
		for i := 0; i < 400; i++ {
			tpl := tup(int64(i), int64(key))
			for _, s := range lay.Route(nil, key, 0, tpl, n) {
				load[s]++
				gridSlots[key][s] = true
			}
			// Replay the consecutive layout for the same tuple.
			row := int(TupleHash(tpl) % rows)
			for c := 0; c < cols; c++ {
				consecutive[(base+row*cols+c)%n]++
			}
		}
		for i := 0; i < 100; i++ {
			tpl := tup(int64(5000+i), int64(key))
			for _, s := range lay.Route(nil, key, 1, tpl, n) {
				load[s]++
				gridSlots[key][s] = true
			}
			col := int(TupleHash(tpl) % cols)
			for r := 0; r < rows; r++ {
				consecutive[(base+r*cols+col)%n]++
			}
		}
	}
	for key, slots := range gridSlots {
		if len(slots) != rows*cols {
			t.Errorf("key %d run occupies %d distinct reducers, want %d", key, len(slots), rows*cols)
		}
	}
	for s := range gridSlots[k1] {
		if gridSlots[k2][s] {
			t.Errorf("runs overlap on reducer %d despite free capacity", s)
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
		t.Errorf("overlay balance %.2f not better than consecutive %.2f", got, old)
	}
	if got > 1.5 {
		t.Errorf("two simultaneous hot keys still imbalanced: ratio %.2f", got)
	}
	t.Logf("multi-hot balance ratio: overlay %.2f vs consecutive %.2f", got, old)
}

// TestGridLayoutOverCapacity: three 8-cell Overlay runs on 16 slots
// cannot be disjoint, but occupancy must stay even — no slot carries
// all three runs while another carries none.
func TestGridLayoutOverCapacity(t *testing.T) {
	const n = 16
	lay := Overlay(n, []Hot{hot2(3, 0.25, 0.125), hot2(4, 0.25, 0.125), hot2(5, 0.25, 0.125)}, DefaultThreshold)
	occ := make([]int, n)
	for key, run := range lay.runs {
		if len(run.slots) != 8 {
			t.Fatalf("key %d: %d slots, want 8", key, len(run.slots))
		}
		seen := map[int]bool{}
		for _, s := range run.slots {
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("key %d: bad slot list %v", key, run.slots)
			}
			seen[s] = true
			occ[s]++
		}
	}
	for s, o := range occ {
		if o < 1 || o > 2 {
			t.Errorf("slot %d carries %d runs, want 1..2 (24 cells over 16 slots)", s, o)
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
