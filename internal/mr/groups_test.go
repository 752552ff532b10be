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
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
		inputs[tag] = Input{Rel: rel, Map: func(t relation.Tuple, emit Emitter) { emit(keyOf(t)) }}
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
			record(key, groups, func(t relation.Tuple) { ctx.EmitConcat(t) })
			// None of this may reach the next key run or another attempt.
			for tag, g := range groups {
				if cap(g) != len(g) {
					ctx.EmitConcat(junk, junk) // a row no reference has
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
	quickSpeculation(t, 2*time.Millisecond)

	store := tempSpill(t)
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
					cfg.Spill = store
					cfg.Faults = faults
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

// TestGroupsAreTheirInputs: a pair's tag is the input its row was
// mapped from, so groups[i] holds input i's own rows — the very slices,
// not copies — however a replicating Partitioner fans them out, in
// memory and from spilled runs.
func TestGroupsAreTheirInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nInputs, nRed = 3, 4
	inputOf := map[*relation.Value]int{}
	var routed [nInputs]int64 // pairs each input routes
	inputs := make([]Input, nInputs)
	for i := range inputs {
		rel := relation.New(fmt.Sprintf("in%d", i), relation.MustSchema(relation.Column{Name: "k", Kind: relation.KindInt}))
		for j := 0; j < 40+rng.Intn(40); j++ {
			k := int64(rng.Intn(9)) // few keys: every key run mixes the inputs
			rel.MustAppend(relation.Tuple{relation.Int(k)})
			routed[i] += int64(len(fanOut{}.Route(nil, uint64(k), uint8(i), nil, nRed)))
		}
		for _, row := range rel.Tuples {
			inputOf[&row[0]] = i
		}
		inputs[i] = Input{Rel: rel, Map: func(t relation.Tuple, emit Emitter) { emit(uint64(t[0].Int64())) }}
	}
	for _, budget := range []int64{0, 64} {
		var seen [nInputs]atomic.Int64
		job := &Job{
			Name:   "inputs",
			Inputs: inputs,
			Reduce: func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext) {
				for i, g := range groups {
					for _, row := range g {
						if in, ok := inputOf[&row[0]]; !ok || in != i {
							t.Errorf("budget %d key %d: groups[%d] holds %v, a row of input %d (found %v)", budget, key, i, row, in, ok)
						}
					}
					seen[i].Add(int64(len(g)))
				}
			},
			NumReducers:  nRed,
			Partitioner:  fanOut{},
			OutputName:   "none",
			OutputSchema: relation.MustSchema(relation.Column{Name: "k", Kind: relation.KindInt}),
		}
		cfg := smallConfig()
		cfg.TuplesPerMapTask = 7
		cfg.SpillBudgetBytes = budget
		cfg.Spill = tempSpill(t)
		res := mustRun(t, cfg, job)
		if budget > 0 && res.Metrics.SpillRuns == 0 {
			t.Errorf("budget %d: nothing spilled", budget)
		}
		for i := range seen {
			if got := seen[i].Load(); got != routed[i] {
				t.Errorf("budget %d: Reduce saw %d rows of input %d, it routes %d", budget, got, i, routed[i])
			}
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

// sizeProbeRecords names every row of split once, with keys that reach
// the top byte of their field.
func sizeProbeRecords(split []relation.Tuple) []record {
	recs := make([]record, len(split))
	for i, t := range split {
		recs[i] = record{key: uint64(i+1) << 60, row: uint32(i), size: uint32(t.EncodedSize())}
	}
	return recs
}

// encodeRecords is the bytes appendRecord produces for recs, back to
// back: one frame's payload.
func encodeRecords(recs []record) []byte {
	var b []byte
	for _, rec := range recs {
		b = appendRecord(b, rec)
	}
	return b
}

// rowSizes measures each row of split, as planTasks does for a spilling
// run's readers.
func rowSizes(split []relation.Tuple) []uint32 {
	sizes := make([]uint32, len(split))
	for i, t := range split {
		sizes[i] = uint32(t.EncodedSize())
	}
	return sizes
}

// decodeRecords decodes a whole payload against split and returns the
// records decoded before any error, with the bytes they took.
func decodeRecords(b []byte, split []relation.Tuple) ([]record, int, error) {
	var recs []record
	n, sizes := 0, rowSizes(split)
	for n < len(b) {
		rec, rest, err := decodeRecord(b[n:], sizes)
		if err != nil {
			return recs, n, err
		}
		if len(rest) >= len(b)-n {
			return recs, n, fmt.Errorf("decodeRecord consumed nothing of %d bytes", len(b)-n)
		}
		recs, n = append(recs, rec), len(b)-len(rest)
	}
	return recs, n, nil
}

// TestRecordLayout pins the shuffle record: 16 bytes in memory, at most
// 13 on disk. A field added to it costs every in-memory pair its width.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 16 {
		t.Errorf("record is %d bytes, want 16", size)
	}
	if maxRecordLen != 13 {
		t.Errorf("maxRecordLen = %d, want 13", maxRecordLen)
	}
	if n := len(appendRecord(nil, record{key: ^uint64(0), row: ^uint32(0)})); n != maxRecordLen {
		t.Errorf("the widest record encodes in %d bytes, maxRecordLen is %d", n, maxRecordLen)
	}
}

// TestPairSizeMeasuredOnce: the size a record carries is its row's
// EncodedSize on both sides of a spill round trip, so the byte metrics
// that read the field equal the ones that walked the tuple — pinned
// here to the values the engine reported before pairs carried a size,
// except spill: a spilled record has since lost its tag byte, one byte
// less for each of the 900 pairs.
func TestPairSizeMeasuredOnce(t *testing.T) {
	split := sizeProbeSplit()
	recs := sizeProbeRecords(split)
	got, _, err := decodeRecords(encodeRecords(recs), split)
	if err != nil || !slices.Equal(got, recs) {
		t.Fatalf("records %+v decode as %+v: %v", recs, got, err)
	}

	in := spillProbeRelation(t, 900)
	for _, pin := range []struct {
		budget                    int64
		shuffle, peak, spill, out int64
		runs                      int
	}{
		{budget: 0, shuffle: 28718, peak: 35706, out: 984},
		{budget: 512, shuffle: 28718, peak: 702, spill: 10372, runs: 57, out: 984},
	} {
		cfg := smallConfig()
		cfg.SpillBudgetBytes = pin.budget
		cfg.Spill = tempSpill(t)
		m := mustRun(t, cfg, groupJob(in, 5)).Metrics
		if m.ShuffleBytes != pin.shuffle || m.PeakLiveBytes != pin.peak || m.SpillBytes != pin.spill ||
			m.SpillRuns != pin.runs || m.OutputBytes != pin.out {
			t.Errorf("budget %d: shuffle=%d peak=%d spill=%d runs=%d out=%d, pinned %+v",
				pin.budget, m.ShuffleBytes, m.PeakLiveBytes, m.SpillBytes, m.SpillRuns, m.OutputBytes, pin)
		}
	}
}

// TestMapPartitionStable: dealing the routed records out of the flat
// buffer gives every reducer what appending to its own bucket would
// have — the same records in emission order — as exactly sized,
// capacity-limited pieces of one block.
func TestMapPartitionStable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sc mapScratch
	for trial := 0; trial < 50; trial++ {
		nRed := 1 + rng.Intn(9)
		sc.recs, sc.dest = sc.recs[:0], sc.dest[:0] // reused, as the run reuses it
		want := make([][]record, nRed)
		for i, n := 0, rng.Intn(400); i < n; i++ {
			rec := record{key: uint64(rng.Intn(7)), row: uint32(i), size: uint32(rng.Intn(50))}
			// Skewed routes: low reducers busy, some left empty.
			red := rng.Intn(1 + rng.Intn(nRed))
			if err := sc.add(red, rec); err != nil {
				t.Fatal(err)
			}
			want[red] = append(want[red], rec)
		}
		got := sc.deal(make([]record, len(sc.recs)), make([][]record, nRed))
		total := 0
		for red := range want {
			if !slices.Equal(got[red], want[red]) {
				t.Fatalf("trial %d reducer %d: partition gives %v, appending gives %v", trial, red, got[red], want[red])
			}
			if cap(got[red]) != len(got[red]) {
				t.Errorf("trial %d reducer %d: bucket of %d has capacity %d: an append would write into the next bucket",
					trial, red, len(got[red]), cap(got[red]))
			}
			total += len(got[red])
		}
		if total != len(sc.recs) {
			t.Errorf("trial %d: buckets hold %d of %d records", trial, total, len(sc.recs))
		}
	}
}

// FuzzSpillFrame: decodeRecord reads spill records back from disk and
// resolves them against a split. Whatever the bytes are it must return
// records or an error — no panic, no read past the payload, no row
// outside the split, progress on every record — and the bytes it
// accepts must be exactly what appendRecord writes for the records it
// returns.
func FuzzSpillFrame(f *testing.F) {
	split := sizeProbeSplit()
	whole := encodeRecords(sizeProbeRecords(split))
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a row far past the split
	f.Fuzz(func(t *testing.T, payload []byte) {
		// An exact-capacity copy: a read past the end is out of range.
		recs, n, err := decodeRecords(slices.Clip(slices.Clone(payload)), split)
		if err == nil && n != len(payload) {
			t.Fatalf("decoded %d of %d bytes without an error", n, len(payload))
		}
		for i, rec := range recs {
			if int(rec.row) >= len(split) {
				t.Fatalf("record %d names row %d of a split of %d", i, rec.row, len(split))
			}
			if int(rec.size) != split[rec.row].EncodedSize() {
				t.Fatalf("decoded record carries size %d, its row measures %d", rec.size, split[rec.row].EncodedSize())
			}
		}
		if written := encodeRecords(recs); !bytes.Equal(written, payload[:n]) {
			t.Fatalf("records decoded from %x re-encode as %x", payload[:n], written)
		}
	})
}
