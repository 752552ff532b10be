package mr

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
)

// tagged is the shuffled value reducers used to be handed — one merged
// run of (tag, tuple) — kept here as the reference the engine's per-tag
// groups are checked against.
type tagged struct {
	tag   uint8
	tuple relation.Tuple
}

// referenceSplit is the loop every join reducer began with.
func referenceSplit(run []tagged, nTags int) [][]relation.Tuple {
	groups := make([][]relation.Tuple, nTags)
	for _, v := range run {
		groups[v.tag] = append(groups[v.tag], v.tuple)
	}
	return groups
}

// fanOut routes every third key to two reducers, the rest to one.
type fanOut struct{}

func (fanOut) Route(dst []int, key uint64, tag uint8, t relation.Tuple, n int) []int {
	dst = append(dst, int(key%uint64(n)))
	if key%3 == 0 && n > 1 {
		dst = append(dst, int((key+1)%uint64(n)))
	}
	return dst
}

// groupProbe is a random job whose reducers write down the groups they
// are handed — one output row (key, tag, position, row id) per value —
// and then wreck them, plus the same rows computed by referenceSplit
// over a plain model of the shuffle.
type groupProbe struct {
	job  *Job
	want []relation.Tuple
}

func newGroupProbe(rng *rand.Rand, nTags, nRed, keys int) groupProbe {
	schema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "id", Kind: relation.KindInt},
	)
	outSchema := relation.MustSchema(
		relation.Column{Name: "key", Kind: relation.KindInt},
		relation.Column{Name: "tag", Kind: relation.KindInt},
		relation.Column{Name: "pos", Kind: relation.KindInt},
		relation.Column{Name: "id", Kind: relation.KindInt},
	)
	inputs := make([]Input, nTags)
	streams := make([][]tagged, nRed) // per reducer, in emission order
	keyOf := func(t relation.Tuple) uint64 { return uint64(t[0].Int64()) }
	var route []int
	for tag := range inputs {
		rel := relation.New(fmt.Sprintf("in%d", tag), schema)
		rows := rng.Intn(120)
		if tag > 0 && rng.Intn(4) == 0 {
			rows = 0 // a tag no key ever sees
		}
		for i := 0; i < rows; i++ {
			// Tag t skips the keys divisible by t+2, so runs miss tags.
			k := int64(rng.Intn(keys))
			if k%int64(tag+2) == 0 && tag > 0 {
				continue
			}
			rel.MustAppend(relation.Tuple{relation.Int(k), relation.Int(int64(tag*1000 + i))})
		}
		tag := uint8(tag)
		inputs[tag] = Input{Rel: rel, Map: func(t relation.Tuple, emit Emitter) { emit(keyOf(t), tag) }}
		for _, t := range rel.Tuples {
			route = fanOut{}.Route(route[:0], keyOf(t), tag, t, nRed)
			for _, red := range route {
				streams[red] = append(streams[red], tagged{tag, t})
			}
		}
	}
	record := func(key uint64, groups [][]relation.Tuple, emit func(relation.Tuple)) {
		for tag, g := range groups {
			for pos, t := range g {
				emit(relation.Tuple{relation.Int(int64(key)), relation.Int(int64(tag)), relation.Int(int64(pos)), t[1]})
			}
		}
	}
	var want []relation.Tuple
	for _, stream := range streams {
		sort.SliceStable(stream, func(i, j int) bool { return keyOf(stream[i].tuple) < keyOf(stream[j].tuple) })
		for len(stream) > 0 {
			key := keyOf(stream[0].tuple)
			n := sort.Search(len(stream), func(i int) bool { return keyOf(stream[i].tuple) > key })
			record(key, referenceSplit(stream[:n], nTags), func(t relation.Tuple) { want = append(want, t) })
			stream = stream[n:]
		}
	}
	junk := relation.Tuple{relation.Int(-1), relation.Int(-1)}
	return groupProbe{want: want, job: &Job{
		Name:   "groups",
		Inputs: inputs,
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
			record(key, groups, ctx.Emit)
			// None of this may reach the next key run or another attempt.
			for tag, g := range groups {
				if cap(g) != len(g) {
					ctx.Emit(append(junk, junk...)) // a row no reference has
				}
				for i := range g {
					g[i] = junk
				}
				_ = append(g, junk, junk)
				groups[tag] = nil
			}
		},
		NumReducers:  nRed,
		Partitioner:  fanOut{},
		OutputName:   "seen",
		OutputSchema: outSchema,
	}}
}

// TestReduceGroupsMatchReferenceSplit: the groups the engine hands a
// reducer are the slices the reducers used to build from the merged run
// — same tuples, same order within a tag, empty where a tag is absent —
// in memory and from spilled runs, at any worker count, through killed,
// retried and speculatively duplicated attempts, and whatever a reducer
// does to the slices it was handed.
func TestReduceGroupsMatchReferenceSplit(t *testing.T) {
	plan, err := ParseFaultPlan("seed=5,reduce-kills=3,stragglers=2,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	oldFloor, oldMin := specFloor, specMinSamples
	specFloor, specMinSamples = 2*time.Millisecond, 1
	defer func() { specFloor, specMinSamples = oldFloor, oldMin }()

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		nTags, nRed := 1+trial%4, 1+rng.Intn(5)
		keys := nRed // keys ≡ reducers: one key run per reducer, sized exactly
		if trial%2 == 1 {
			keys = 5 + rng.Intn(40) // many keys per reducer: buffers reused run to run
		}
		probe := newGroupProbe(rng, nTags, nRed, keys)
		for _, workers := range []int{1, runtime.NumCPU()} {
			for _, budget := range []int64{0, 1 << 10} {
				for _, faults := range []*FaultPlan{nil, plan} {
					cfg := smallConfig()
					cfg.MaxParallelWorkers = workers
					cfg.SpillBudgetBytes = budget
					cfg.Faults = faults
					cfg.SpeculativeFactor = 1
					res, err := Run(context.Background(), cfg, probe.job)
					if err != nil {
						t.Fatalf("trial %d workers=%d budget=%d faults=%v: %v", trial, workers, budget, faults != nil, err)
					}
					if faults != nil && res.Metrics.ReduceFailures == 0 {
						t.Errorf("trial %d: the plan's reduce kills were not charged", trial)
					}
					if got := res.Output.Tuples; !sameRows(got, probe.want) {
						t.Fatalf("trial %d (%d tags, %d reducers, %d keys) workers=%d budget=%d faults=%v: reducers saw %d values, the reference split has %d, or they differ",
							trial, nTags, nRed, keys, workers, budget, faults != nil, len(got), len(probe.want))
					}
				}
			}
		}
	}
}

// TestOutOfRangeTagIsError: a map function emitting a tag the job has no
// input for is reported, not indexed with.
func TestOutOfRangeTagIsError(t *testing.T) {
	job := countJob(intsRelation("in", 1, 2, 3), 2)
	job.Inputs[0].Map = func(t relation.Tuple, emit Emitter) { emit(1, 1) }
	for _, budget := range []int64{0, 64} {
		cfg := smallConfig()
		cfg.SpillBudgetBytes = budget
		_, err := Run(context.Background(), cfg, job)
		if err == nil || !strings.HasPrefix(err.Error(), "mr: ") || !strings.Contains(err.Error(), "tag 1") {
			t.Errorf("budget %d: err = %v, want an mr: error naming tag 1", budget, err)
		}
	}
}

// sizeProbeSplit is a split whose rows cover what EncodedSize depends
// on: NULLs, numbers, plain strings (length-priced) and interned ones
// (code-priced).
func sizeProbeSplit() []relation.Tuple {
	return []relation.Tuple{
		{relation.Null(), relation.Int(-7), relation.Float(2.5), relation.TimeUnix(99)},
		{relation.Str(""), relation.Str("plain string"), relation.InternedStr("interned", 0)},
		{relation.InternedStr("big code", 1<<21), relation.Null(), relation.Str(strings.Repeat("x", 300))},
	}
}

// sizeProbeRecords names every row of split once, with keys and tags
// that reach the top bytes of their fields.
func sizeProbeRecords(split []relation.Tuple) []spillRec {
	recs := make([]spillRec, len(split))
	for i, t := range split {
		recs[i] = spillRec{key: uint64(i+1) << 60, row: uint32(i), size: uint32(t.EncodedSize()), tag: uint8(i << 7)}
	}
	return recs
}

// encodeRecords is the bytes appendRecord produces for recs, back to
// back: one frame's payload.
func encodeRecords(recs []spillRec) []byte {
	var b []byte
	for _, rec := range recs {
		b = appendRecord(b, rec)
	}
	return b
}

// decodePairs decodes a whole payload against split and returns the
// pairs decoded before any error, with the bytes they took.
func decodePairs(b []byte, split []relation.Tuple) ([]pair, int, error) {
	var ps []pair
	n := 0
	for n < len(b) {
		p, rest, err := decodeRecord(b[n:], split)
		if err != nil {
			return ps, n, err
		}
		if len(rest) >= len(b)-n {
			return ps, n, fmt.Errorf("decodeRecord consumed nothing of %d bytes", len(b)-n)
		}
		ps, n = append(ps, p), len(b)-len(rest)
	}
	return ps, n, nil
}

// rowOf returns the ordinal of the split row t is, by identity, or -1.
func rowOf(t relation.Tuple, split []relation.Tuple) int {
	for i, row := range split {
		if len(t) > 0 && len(row) == len(t) && &row[0] == &t[0] {
			return i
		}
	}
	return -1
}

func samePairs(a, b []pair) bool {
	return slices.EqualFunc(a, b, func(x, y pair) bool {
		return x.key == y.key && x.tag == y.tag && x.size == y.size && slices.EqualFunc(x.tuple, y.tuple, relation.Identical)
	})
}

// TestPairSizeMeasuredOnce: the size a pair carries is its tuple's
// EncodedSize on both sides of a spill round trip, so the byte metrics
// that now read the field equal the ones that walked the tuple — pinned
// here to the values the engine reported before pairs carried a size.
func TestPairSizeMeasuredOnce(t *testing.T) {
	split := sizeProbeSplit()
	recs := sizeProbeRecords(split)
	got, _, err := decodePairs(encodeRecords(recs), split)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("decoded %d of %d records: %v", len(got), len(recs), err)
	}
	for i, p := range got {
		rec := recs[i]
		if p.key != rec.key || p.tag != rec.tag || p.size != rec.size || rowOf(p.tuple, split) != int(rec.row) {
			t.Errorf("record %+v came back as key %#x tag %d size %d row %d", rec, p.key, p.tag, p.size, rowOf(p.tuple, split))
		}
		if int(p.size) != p.tuple.EncodedSize() {
			t.Errorf("pair %d: size %d, tuple measures %d", i, p.size, p.tuple.EncodedSize())
		}
	}

	in := spillProbeRelation(t, 900)
	for _, pin := range []struct {
		budget                    int64
		shuffle, peak, spill, out int64
		runs                      int
	}{
		{budget: 0, shuffle: 28718, peak: 35706, out: 984},
		{budget: 512, shuffle: 28718, peak: 702, spill: 11272, runs: 57, out: 984},
	} {
		cfg := smallConfig()
		cfg.SpillBudgetBytes = pin.budget
		m := mustRun(t, cfg, groupJob(in, 5)).Metrics
		if m.ShuffleBytes != pin.shuffle || m.PeakLiveBytes != pin.peak || m.SpillBytes != pin.spill ||
			m.SpillRuns != pin.runs || m.OutputBytes != pin.out {
			t.Errorf("budget %d: shuffle=%d peak=%d spill=%d runs=%d out=%d, pinned %+v",
				pin.budget, m.ShuffleBytes, m.PeakLiveBytes, m.SpillBytes, m.SpillRuns, m.OutputBytes, pin)
		}
	}
}

// TestMapPartitionStable: dealing the routed pairs out of the flat buffer
// gives every reducer what appending to its own bucket would have — the
// same pairs in emission order — as exactly sized, capacity-limited
// pieces of one block.
func TestMapPartitionStable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sc mapScratch
	for trial := 0; trial < 50; trial++ {
		nRed := 1 + rng.Intn(9)
		sc.pairs, sc.dest = sc.pairs[:0], sc.dest[:0] // reused, as the run reuses it
		want := make([][]pair, nRed)
		for i, n := 0, rng.Intn(400); i < n; i++ {
			p := pair{key: uint64(rng.Intn(7)), tag: uint8(rng.Intn(3)), size: uint32(i)}
			// Skewed routes: low reducers busy, some left empty.
			red := rng.Intn(1 + rng.Intn(nRed))
			sc.add(red, p)
			want[red] = append(want[red], p)
		}
		got := sc.partition(nRed)
		total := 0
		for red := range want {
			if !samePairs(got[red], want[red]) {
				t.Fatalf("trial %d reducer %d: partition gives %v, appending gives %v", trial, red, got[red], want[red])
			}
			if cap(got[red]) != len(got[red]) {
				t.Errorf("trial %d reducer %d: bucket of %d has capacity %d: an append would write into the next bucket",
					trial, red, len(got[red]), cap(got[red]))
			}
			total += len(got[red])
		}
		if total != len(sc.pairs) {
			t.Errorf("trial %d: buckets hold %d of %d pairs", trial, total, len(sc.pairs))
		}
	}
}

// FuzzSpillFrame: decodeRecord reads spill records back from disk and
// resolves them against a split. Whatever the bytes are it must return
// pairs or an error — no panic, no read past the payload, no row outside
// the split, progress on every record — and the bytes it accepts must be
// exactly what appendRecord writes for the records it returns.
func FuzzSpillFrame(f *testing.F) {
	split := sizeProbeSplit()
	whole := encodeRecords(sizeProbeRecords(split))
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a row far past the split
	f.Fuzz(func(t *testing.T, payload []byte) {
		// An exact-capacity copy: a read past the end is out of range.
		ps, n, err := decodePairs(slices.Clip(slices.Clone(payload)), split)
		if err == nil && n != len(payload) {
			t.Fatalf("decoded %d of %d bytes without an error", n, len(payload))
		}
		recs := make([]spillRec, len(ps))
		for i, p := range ps {
			row := rowOf(p.tuple, split)
			if row < 0 {
				t.Fatalf("pair %d is no row of the split: %v", i, p.tuple)
			}
			if int(p.size) != p.tuple.EncodedSize() {
				t.Fatalf("decoded pair carries size %d, its tuple measures %d", p.size, p.tuple.EncodedSize())
			}
			recs[i] = spillRec{key: p.key, row: uint32(row), size: p.size, tag: p.tag}
		}
		if written := encodeRecords(recs); !bytes.Equal(written, payload[:n]) {
			t.Fatalf("records decoded from %x re-encode as %x", payload[:n], written)
		}
	})
}
