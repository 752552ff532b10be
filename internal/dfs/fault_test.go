package dfs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
)

// sealedProbeFile writes a multi-page payload and returns the sealed
// file plus its bytes.
func sealedProbeFile(t *testing.T, store *BlockStore) ([]byte, *blockFile) {
	t.Helper()
	payload := make([]byte, 2*DefaultPageSize+333)
	rng := rand.New(rand.NewSource(3))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	f, err := store.CreateSpillFile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	return payload, f.(*blockFile)
}

// TestPageChecksumFailover: a transient page corruption (one bad disk
// read) is detected by the page CRC, absorbed by a replica re-read, and
// counted in both the store stats and the attached obs registry.
func TestPageChecksumFailover(t *testing.T) {
	store, err := NewBlockStore("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	store.AttachObs(o)
	payload, f := sealedProbeFile(t, store)

	store.corruptFill = func(file int, page int64, attempt int, data []byte) {
		if page == 1 && attempt == 1 {
			data[17] ^= 0xFF
		}
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read with transient corruption failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover returned wrong bytes")
	}
	cs, fo := store.IntegrityStats()
	if cs != 1 || fo != 1 {
		t.Errorf("IntegrityStats = (%d, %d), want (1, 1)", cs, fo)
	}
	if n := o.Counter("dfs.checksum_failures").Value(); n != 1 {
		t.Errorf("obs checksum counter = %d", n)
	}
	if n := o.Counter("dfs.failover_reads").Value(); n != 1 {
		t.Errorf("obs failover counter = %d", n)
	}
}

// TestPageChecksumExhaustsReplicas: persistent corruption (every
// replica read bad) must surface an error after DFSReplication reads,
// never silently decode bad bytes.
func TestPageChecksumExhaustsReplicas(t *testing.T) {
	store, err := NewBlockStore("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SetReplication(3)
	payload, f := sealedProbeFile(t, store)

	store.corruptFill = func(file int, page int64, attempt int, data []byte) {
		if page == 0 {
			data[0] ^= 0xFF
		}
	}
	_, err = f.ReadAt(make([]byte, len(payload)), 0)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("persistent corruption not surfaced: %v", err)
	}
	cs, fo := store.IntegrityStats()
	if cs != 3 || fo != 2 {
		t.Errorf("IntegrityStats = (%d, %d), want (3, 2)", cs, fo)
	}
}

// requireRestored asserts got is want as a checkpoint must restore it:
// name, multiplier, schema and dictionaries by reference, and every row
// Value by Value.
func requireRestored(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	if got.Name != want.Name || got.VolumeMultiplier != want.VolumeMultiplier || got.Schema != want.Schema {
		t.Fatalf("%s: metadata lost: name=%q mult=%v", want.Name, got.Name, got.VolumeMultiplier)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d rows restored, want %d", want.Name, len(got.Tuples), len(want.Tuples))
	}
	for ci := 0; ci < want.Schema.Len(); ci++ {
		if got.DictOf(ci) != want.DictOf(ci) {
			t.Fatalf("%s: column %d restored with another dictionary", want.Name, ci)
		}
	}
	for i, wt := range want.Tuples {
		if len(got.Tuples[i]) != len(wt) {
			t.Fatalf("%s: row %d arity %d, want %d", want.Name, i, len(got.Tuples[i]), len(wt))
		}
		for j, wv := range wt {
			if gv := got.Tuples[i][j]; !relation.Identical(gv, wv) {
				t.Fatalf("%s: row %d col %d: %#v, want %#v", want.Name, i, j, gv, wv)
			}
		}
	}
	if relation.ContentHash(got) != relation.ContentHash(want) {
		t.Fatalf("%s: restored relation hashes differently", want.Name)
	}
}

// checkpointInputs are the relations the round trip must survive: the
// probe fixture, no rows at all, a row larger than a block between two
// small ones, rows that end exactly on block boundaries, and every kind
// of value a column can hold.
func checkpointInputs() []*relation.Relation {
	probe := probeRelation(500)
	probe.VolumeMultiplier = 2.5

	text := relation.MustSchema(relation.Column{Name: "s", Kind: relation.KindString})
	empty := relation.New("empty", text)

	giant := relation.New("giant-row", text)
	giant.Tuples = []relation.Tuple{
		{relation.Str("before")},
		{relation.Str(strings.Repeat("x", 2*checkpointBlockBytes+17))},
		{relation.Str("after")},
	}

	// A one-column row of a plain n-byte string encodes as arity, kind
	// and code-slot bytes, a u32 length and the string: n+7 bytes. 64-byte
	// rows fill a block exactly, leaving no partial block at the end.
	exact := relation.New("exact-blocks", text)
	for i := 0; i < 2*checkpointBlockBytes/64; i++ {
		exact.MustAppend(relation.Tuple{relation.Str(fmt.Sprintf("%057d", i))})
	}

	kinds := relation.New("kinds", relation.MustSchema(
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "city", Kind: relation.KindString},
		relation.Column{Name: "note", Kind: relation.KindString},
		relation.Column{Name: "ts", Kind: relation.KindTime},
	))
	// city is interned against the column's dictionary, note stays plain.
	d := relation.NewDict([]string{"amsterdam", "beijing", "chicago", "delhi"})
	kinds.Dicts = []*relation.Dict{nil, nil, d, nil, nil}
	city := func(s string) relation.Value {
		code, _ := d.Code(s)
		return relation.InternedStr(s, code)
	}
	kinds.Tuples = []relation.Tuple{
		{relation.Int(1), relation.Float(1.5), city("beijing"), relation.Str("plain"), relation.TimeUnix(100)},
		{relation.Int(math.MinInt64), relation.Float(math.Copysign(0, -1)), city("amsterdam"), relation.Str(""), relation.TimeUnix(-5)},
		{relation.Int(math.MaxInt64), relation.Float(math.NaN()), city("delhi"), relation.Str("a,\"b\"\n"), relation.TimeUnix(math.MaxInt64)},
		{relation.Int(0), relation.Float(math.Inf(1)), city("beijing"), relation.Str("x"), relation.TimeUnix(0)},
		{relation.Int(-8), relation.Float(math.Inf(-1)), city("chicago"), relation.Str("y"), relation.TimeUnix(800)},
		{relation.Null(), relation.Null(), relation.Null(), relation.Null(), relation.Null()},
		// A plain string in the dictionary column, a code far past the
		// dictionary, and a string where the schema says int.
		{relation.Int(9), relation.Float(9), relation.Str("unseen"), relation.Str("nine"), relation.TimeUnix(900)},
		{relation.Str("oops"), relation.Float(0), relation.InternedStr("far", 1<<40), relation.Null(), relation.TimeUnix(1)},
	}
	return []*relation.Relation{probe, empty, giant, exact, kinds}
}

// blockFiles counts the files the store currently keeps on disk.
func blockFiles(t *testing.T, s *BlockStore) int {
	t.Helper()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestCheckpointStoreRoundTrip: a saved intermediate loads back
// bit-identically (every Value, content hash, multiplier, dictionaries
// by reference), missing keys report ok=false, overwriting releases the
// previous file, and Drop releases a plan's entries.
func TestCheckpointStoreRoundTrip(t *testing.T) {
	// A cache of one page: blocks are re-read from disk as they are evicted.
	store, err := NewBlockStore("", DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cp := NewCheckpointStore(store)

	inputs := checkpointInputs()
	for _, r := range inputs {
		if err := cp.SaveIntermediate("plan-a", r.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range inputs {
		got, ok, err := cp.LoadIntermediate("plan-a", r.Name)
		if err != nil || !ok {
			t.Fatalf("load %s: ok=%v err=%v", r.Name, ok, err)
		}
		requireRestored(t, got, r)
	}
	// Two exactly full blocks and nothing after them.
	if size := cp.entries[checkpointKey("plan-a", "exact-blocks")].size; size != 2*(4+checkpointBlockBytes) {
		t.Fatalf("exact-blocks wrote %d bytes, want two full blocks (%d)", size, 2*(4+checkpointBlockBytes))
	}
	if cp.Len() != len(inputs) || blockFiles(t, store) != len(inputs) {
		t.Fatalf("%d entries in %d files, want %d each", cp.Len(), blockFiles(t, store), len(inputs))
	}

	if _, ok, err := cp.LoadIntermediate("plan-a", "nope"); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
	// Overwrite replaces (and releases) the previous checkpoint.
	if err := cp.SaveIntermediate("plan-a", "probe", probeRelation(10)); err != nil {
		t.Fatal(err)
	}
	got, _, err := cp.LoadIntermediate("plan-a", "probe")
	if err != nil || got.Cardinality() != 10 {
		t.Fatalf("overwrite: n=%d err=%v", got.Cardinality(), err)
	}
	if n := blockFiles(t, store); n != len(inputs) {
		t.Errorf("overwrite left %d files for %d checkpoints", n, len(inputs))
	}
	cp.Drop("plan-a")
	if cp.Len() != 0 || blockFiles(t, store) != 0 {
		t.Errorf("Drop left %d entries in %d files", cp.Len(), blockFiles(t, store))
	}
	if _, ok, _ := cp.LoadIntermediate("plan-a", "probe"); ok {
		t.Error("dropped checkpoint still loads")
	}
}

// TestCheckpointPageCorruption: checkpoints are protected by the store's
// page checksums. A bad first read of every page is absorbed by replica
// failover and the relation loads bit-identically; a page bad on every
// replica makes the load an error — never a short or wrong relation.
func TestCheckpointPageCorruption(t *testing.T) {
	store, err := NewBlockStore("", 1<<20) // every page fills once
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cp := NewCheckpointStore(store)
	r := probeRelation(12000)
	if err := cp.SaveIntermediate("plan-a", "j1", r); err != nil {
		t.Fatal(err)
	}
	size := cp.entries[checkpointKey("plan-a", "j1")].size
	pages := (size + DefaultPageSize - 1) / DefaultPageSize
	if pages < 3 {
		t.Fatalf("fixture spans %d pages, want several", pages)
	}

	store.corruptFill = func(file int, page int64, attempt int, data []byte) {
		if attempt == 1 {
			data[len(data)/2] ^= 0xFF
		}
	}
	got, ok, err := cp.LoadIntermediate("plan-a", "j1")
	if err != nil || !ok {
		t.Fatalf("load with transient corruption: ok=%v err=%v", ok, err)
	}
	requireRestored(t, got, r)
	if cs, fo := store.IntegrityStats(); cs != pages || fo != pages {
		t.Errorf("IntegrityStats = (%d, %d), want one failover for each of %d pages", cs, fo, pages)
	}

	// The last page bad on every replica, in a second copy (the first
	// one's pages are all cached by now): the rows before it decode fine,
	// and must not come back as the relation.
	if err := cp.SaveIntermediate("plan-a", "j2", r); err != nil {
		t.Fatal(err)
	}
	store.corruptFill = func(file int, page int64, attempt int, data []byte) {
		if page == pages-1 {
			data[0] ^= 0xFF
		}
	}
	got, ok, err = cp.LoadIntermediate("plan-a", "j2")
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("persistent corruption not surfaced: %v", err)
	}
	if got != nil || ok {
		t.Fatalf("failed load returned a relation of %d rows, ok=%v", got.Cardinality(), ok)
	}
}

// TestRecycledPagesNeverAlias: page buffers are refilled, unzeroed, for
// whatever page misses next, so a reader holding one past its eviction
// would see another page's bytes. Concurrent readers over a cache of one
// page and over no cache at all — every fill a recycled buffer, every
// third one corrupted on its first disk read so that failover re-reads
// into it as well — must read exactly the file.
func TestRecycledPagesNeverAlias(t *testing.T) {
	for _, budget := range []int64{DefaultPageSize, 0} {
		store, err := NewBlockStore("", budget)
		if err != nil {
			t.Fatal(err)
		}
		var fills atomic.Int64
		store.corruptFill = func(file int, page int64, attempt int, data []byte) {
			if attempt == 1 && fills.Add(1)%3 == 0 {
				data[len(data)/2] ^= 0xFF
			}
		}
		// Three files of pages that each repeat their own tag byte: bytes
		// from any other page are recognisable wherever they land.
		const pages = 5
		files := make([]*blockFile, 3)
		for fi := range files {
			f, err := store.CreateSpillFile()
			if err != nil {
				t.Fatal(err)
			}
			for pg := 0; pg < pages; pg++ {
				n := DefaultPageSize
				if pg == pages-1 {
					n = 777 // a short last page reuses a buffer that held a full one
				}
				if _, err := f.Write(bytes.Repeat([]byte{byte(fi*pages + pg + 1)}, n)); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Seal(); err != nil {
				t.Fatal(err)
			}
			files[fi] = f.(*blockFile)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				buf := make([]byte, 3*DefaultPageSize/2)
				for i := 0; i < 300; i++ {
					fi := rng.Intn(len(files))
					f := files[fi]
					off := rng.Int63n(f.size)
					p := buf[:1+rng.Intn(len(buf)-1)]
					n, err := f.ReadAt(p, off)
					if err != nil && err != io.EOF {
						t.Errorf("budget %d: read file %d at %d: %v", budget, fi, off, err)
						return
					}
					for j, b := range p[:n] {
						if want := byte(fi*pages + int((off+int64(j))/DefaultPageSize) + 1); b != want {
							t.Errorf("budget %d: file %d offset %d reads %d, the page there holds %d",
								budget, fi, off+int64(j), b, want)
							return
						}
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		if cs, fo := store.IntegrityStats(); cs == 0 || cs != fo {
			t.Errorf("budget %d: %d checksum failures, %d failover reads: every corrupted fill should fail over once", budget, cs, fo)
		}
		if _, _, resident := store.CacheStats(); resident > budget {
			t.Errorf("budget %d exceeded: %d resident", budget, resident)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
