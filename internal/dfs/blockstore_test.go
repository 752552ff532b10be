package dfs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// TestBlockStoreRoundTrip: bytes written to a sealed file read back
// identically through the page cache at any budget, including one too
// small to hold a single page and one of zero (caching disabled).
func TestBlockStoreRoundTrip(t *testing.T) {
	payload := make([]byte, 3*DefaultPageSize+257) // straddles page edges
	rng := rand.New(rand.NewSource(11))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	for _, budget := range []int64{0, 100, DefaultPageSize, 1 << 20} {
		store, err := NewBlockStore("", budget)
		if err != nil {
			t.Fatal(err)
		}
		f, err := store.CreateSpillFile()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(make([]byte, 1), 0); err == nil {
			t.Fatal("read before Seal accepted")
		}
		if err := f.Seal(); err != nil {
			t.Fatal(err)
		}
		// Whole file, unaligned slices, and a read past EOF.
		got := make([]byte, len(payload))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("budget %d: full read differs", budget)
		}
		slice := make([]byte, 1000)
		off := int64(DefaultPageSize - 500)
		if _, err := f.ReadAt(slice, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(slice, payload[off:off+1000]) {
			t.Fatalf("budget %d: unaligned read differs", budget)
		}
		tail := make([]byte, 512)
		n, err := f.ReadAt(tail, int64(len(payload))-100)
		if err != io.EOF || n != 100 {
			t.Fatalf("budget %d: tail read n=%d err=%v", budget, n, err)
		}

		hits, misses, resident := store.CacheStats()
		if budget == 0 {
			if hits != 0 || resident != 0 {
				t.Fatalf("budget 0 cached: hits=%d resident=%d", hits, resident)
			}
		} else if misses == 0 {
			t.Fatalf("budget %d: no cache activity: hits=%d misses=%d", budget, hits, misses)
		}
		if budget > int64(3*DefaultPageSize) && hits == 0 {
			// Every page fits, so the re-reads must hit.
			t.Fatalf("budget %d: re-reads did not hit the cache", budget)
		}
		if resident > budget {
			t.Fatalf("budget %d exceeded: %d resident", budget, resident)
		}
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
		if _, _, resident := store.CacheStats(); resident != 0 {
			t.Fatal("pages survive Release")
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// patterned returns n bytes that differ from any other seed's at almost
// every offset.
func patterned(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// writeSealed writes payload to a new file of the store and seals it.
func writeSealed(t testing.TB, store *BlockStore, payload []byte) *blockFile {
	t.Helper()
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
	return f.(*blockFile)
}

// readAll reads a sealed file back whole and fails unless it is want.
func readAll(t testing.TB, f *blockFile, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("file %d: %v", f.id, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file %d reads back other bytes than were written", f.id)
	}
}

func backingSize(t *testing.T, store *BlockStore) int64 {
	t.Helper()
	st, err := store.blocks.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestBlockStoreOneBackingFile: files are slots of one backing file, not
// files of their own — 200 of them leave one file in the directory, and
// Close removes it.
func TestBlockStoreOneBackingFile(t *testing.T) {
	dir := t.TempDir()
	store, err := NewBlockStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		writeSealed(t, store, patterned(int64(i), 100*i))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in the store's directory, want the backing file alone", len(entries))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Close left %d entries behind", len(entries))
	}
}

// TestSlotReuseBoundsBackingFile: released slots take the next files, so
// writing, releasing and writing the same volume again does not grow the
// backing file.
func TestSlotReuseBoundsBackingFile(t *testing.T) {
	store, err := NewBlockStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sizes := []int{3*slotSize + 100, slotSize, 777, 2 * slotSize}
	write := func(seed int64) []*blockFile {
		files := make([]*blockFile, len(sizes))
		for i, n := range sizes {
			files[i] = writeSealed(t, store, patterned(seed+int64(i), n))
		}
		return files
	}
	for _, f := range write(1) {
		if err := f.Release(); err != nil {
			t.Fatal(err)
		}
	}
	slots, size := store.slots, backingSize(t, store)
	files := write(100)
	if store.slots != slots || backingSize(t, store) > size {
		t.Fatalf("backing file grew from %d slots (%d bytes) to %d (%d bytes) on rewriting the released volume",
			slots, size, store.slots, backingSize(t, store))
	}
	for i, f := range files {
		readAll(t, f, patterned(100+int64(i), sizes[i]))
	}
}

// TestRecycledSlotReadsOwnBytes: a file written onto a released file's
// slots — with that file's pages cached until its release — reads back
// its own bytes only, up to its own size.
func TestRecycledSlotReadsOwnBytes(t *testing.T) {
	store, err := NewBlockStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	old := patterned(1, 2*slotSize+500)
	a := writeSealed(t, store, old)
	readAll(t, a, old) // caches a's pages
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	own := patterned(2, slotSize+300)
	b := writeSealed(t, store, own)
	for _, slot := range b.slots {
		if slot >= store.slots || !slices.Contains(a.slots, slot) {
			t.Fatalf("file b's slots %v are not a's released slots %v", b.slots, a.slots)
		}
	}
	readAll(t, b, own)
	tail := make([]byte, 512)
	n, err := b.ReadAt(tail, int64(len(own))-100)
	if err != io.EOF || n != 100 || !bytes.Equal(tail[:n], own[len(own)-100:]) {
		t.Fatalf("read across the end of a recycled slot: n=%d err=%v", n, err)
	}
	if _, err := a.ReadAt(tail, 0); err == nil {
		t.Fatal("a released file still reads")
	}
}

// TestBlockStoreConcurrentWriters: four files written at once, one slot
// each per round so their slots interleave in the backing file, read
// back exactly — and concurrently — in any order.
func TestBlockStoreConcurrentWriters(t *testing.T) {
	store, err := NewBlockStore(t.TempDir(), 8*DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const writers, rounds = 4, 5
	payloads := make([][]byte, writers)
	files := make([]mr.SpillFile, writers)
	for w := range files {
		payloads[w] = patterned(int64(w), rounds*slotSize-w*1000)
		if files[w], err = store.CreateSpillFile(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := range files {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				chunk := payloads[w][r*slotSize : min((r+1)*slotSize, len(payloads[w]))]
				// Two writes per slot, as a frame writer's header and payload.
				if _, err := files[w].Write(chunk[:8]); err != nil {
					t.Error(err)
				}
				if _, err := files[w].Write(chunk[8:]); err != nil {
					t.Error(err)
				}
				if r == rounds-1 {
					if err := files[w].Seal(); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if t.Failed() {
		t.FailNow()
	}
	for w, f := range files {
		if got := f.(*blockFile).slots; len(got) != rounds {
			t.Fatalf("writer %d holds slots %v, want %d", w, got, rounds)
		}
	}
	var wg sync.WaitGroup
	for w := range files {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			want := payloads[w]
			for i := 0; i < 200; i++ {
				off := rng.Intn(len(want))
				p := make([]byte, 1+rng.Intn(2*slotSize))
				n, err := files[w].ReadAt(p, int64(off))
				if (err != nil && err != io.EOF) || !bytes.Equal(p[:n], want[off:off+n]) || off+n != min(off+len(p), len(want)) {
					t.Errorf("writer %d: read %d at %d: n=%d err=%v, or other bytes", w, len(p), off, n, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// countDiskReads attaches a metrics registry to the store and returns
// its dfs.disk_reads counter.
func countDiskReads(store *BlockStore) *obs.Counter {
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	store.AttachObs(o)
	return o.Counter("dfs.disk_reads")
}

// TestBlockStoreRunFill: a miss fills the pages the read covers and no
// more, with one disk read per slot its missing pages span, stopping at
// a page already cached; Release drops every cached page of the file.
func TestBlockStoreRunFill(t *testing.T) {
	store, err := NewBlockStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reads := countDiskReads(store)
	payload := patterned(7, 4*slotSize)
	f := writeSealed(t, store, payload)
	read := func(off, n int, wantReads, wantMisses int64) {
		t.Helper()
		reads0 := reads.Value()
		_, misses0, _ := store.CacheStats()
		got := make([]byte, n)
		if _, err := f.ReadAt(got, int64(off)); err != nil || !bytes.Equal(got, payload[off:off+n]) {
			t.Fatalf("read %d at %d: %v, or other bytes", n, off, err)
		}
		_, misses, _ := store.CacheStats()
		if r, m := reads.Value()-reads0, misses-misses0; r != wantReads || m != wantMisses {
			t.Fatalf("read %d at %d: %d disk reads, %d page misses; want %d, %d", n, off, r, m, wantReads, wantMisses)
		}
	}

	// 700 bytes across a page boundary: two pages in one read.
	read(DefaultPageSize-300, 700, 1, 2)
	if _, _, resident := store.CacheStats(); resident != 2*DefaultPageSize {
		t.Fatalf("%d bytes cached after a two-page read", resident)
	}
	// Page 5 alone, then all of slot 0: the run splits at page 5.
	read(5*DefaultPageSize+10, 10, 1, 1)
	read(0, slotSize, 2, pagesPerSlot-3)
	// From inside slot 1 to inside slot 3: one read per slot.
	read(slotSize+100, 2*slotSize, 3, 2*pagesPerSlot+1)

	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if _, _, resident := store.CacheStats(); resident != 0 {
		t.Fatalf("Release left %d bytes of the file cached", resident)
	}
}

// TestBlockStoreCloseWithLiveFiles: Close with files still being
// written, sealed or released returns cleanly, and what those files do
// afterwards fails or does nothing — never panics.
func TestBlockStoreCloseWithLiveFiles(t *testing.T) {
	store, err := NewBlockStore("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sealed := writeSealed(t, store, patterned(1, slotSize+10))
	readAll(t, sealed, patterned(1, slotSize+10))
	released := writeSealed(t, store, patterned(2, 100))
	if err := released.Release(); err != nil {
		t.Fatal(err)
	}
	open, err := store.CreateSpillFile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open.Write(patterned(3, 1000)); err != nil {
		t.Fatal(err)
	}

	if err := store.Close(); err != nil {
		t.Fatalf("Close with live files: %v", err)
	}
	if _, err := sealed.ReadAt(make([]byte, 10), 0); err == nil {
		t.Error("read after Close succeeded")
	}
	if _, err := open.Write(patterned(4, 2*slotSize)); err == nil {
		t.Error("a slot write after Close succeeded")
	}
	if err := open.Seal(); err == nil {
		t.Error("Seal after Close succeeded")
	}
	for _, f := range []mr.SpillFile{sealed, released, open} {
		if err := f.Release(); err != nil {
			t.Errorf("Release after Close: %v", err)
		}
	}
	if _, err := store.CreateSpillFile(); err == nil {
		t.Error("CreateSpillFile after Close succeeded")
	}
	if err := store.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// probeRelation mirrors the mr spill tests' fixture: interned strings,
// NULLs and floats, so dictionary code slots go through disk.
func probeRelation(rows int) *relation.Relation {
	r := relation.New("probe", relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "city", Kind: relation.KindString},
		relation.Column{Name: "w", Kind: relation.KindFloat},
	))
	cities := []string{"amsterdam", "beijing", "chicago", "delhi"}
	for i := 0; i < rows; i++ {
		city := relation.Str(cities[i%len(cities)])
		if i%13 == 0 {
			city = relation.Null()
		}
		r.MustAppend(relation.Tuple{
			relation.Int(int64(i % 37)),
			city,
			relation.Float(float64(i) * 1.25),
		})
	}
	relation.InternStrings(r)
	return r
}

// TestFullyOutOfCoreJob is the package's end-to-end acceptance check
// of BlockStore as the engine's SpillStore: the shuffle spilled to it
// under a tiny budget and a tiny page cache — and the result is
// bit-identical to the fully in-memory run.
func TestFullyOutOfCoreJob(t *testing.T) {
	in := probeRelation(1200)
	job := func(rel *relation.Relation) *mr.Job {
		return &mr.Job{
			Name:   "count",
			Inputs: []mr.Input{{Rel: rel, Map: func(tp relation.Tuple, emit mr.Emitter) { emit(uint64(tp[0].Int64()), 0) }}},
			Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
				ctx.Emit(relation.Tuple{groups[0][0][0], relation.Int(int64(len(groups[0])))})
			},
			NumReducers: 6,
			OutputName:  "counts",
			OutputSchema: relation.MustSchema(
				relation.Column{Name: "k", Kind: relation.KindInt},
				relation.Column{Name: "n", Kind: relation.KindInt},
			),
		}
	}
	cfg := mr.DefaultConfig()
	cfg.TuplesPerMapTask = 128
	base, err := mr.Run(context.Background(), cfg, job(in))
	if err != nil {
		t.Fatal(err)
	}

	store, err := NewBlockStore(t.TempDir(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	oocCfg := cfg
	oocCfg.SpillBudgetBytes = 2048
	oocCfg.Spill = store
	ooc, err := mr.Run(context.Background(), oocCfg, job(in))
	if err != nil {
		t.Fatal(err)
	}

	if relation.ContentHash(ooc.Output) != relation.ContentHash(base.Output) {
		t.Fatal("out-of-core result differs from in-memory result")
	}
	if ooc.Metrics.SpillBytes <= 0 || ooc.Metrics.SpillRuns <= 0 {
		t.Fatalf("nothing spilled: %+v", ooc.Metrics)
	}
	if ooc.Metrics.PeakLiveBytes >= base.Metrics.PeakLiveBytes {
		t.Fatalf("peak live bytes did not drop: %d vs %d",
			ooc.Metrics.PeakLiveBytes, base.Metrics.PeakLiveBytes)
	}
	if base.Metrics.InputBytes != ooc.Metrics.InputBytes ||
		base.Metrics.PairsEmitted != ooc.Metrics.PairsEmitted {
		t.Fatalf("input accounting differs:\nbase: %+v\nooc:  %+v", base.Metrics, ooc.Metrics)
	}
}

// BenchmarkBlockStoreSequentialRead streams a sealed 4 MiB file through
// a 64 KiB page cache the way a reducer reads a spilled segment of full
// frames: each read starts at a frame (an 8-byte header and a payload
// just past 32 KiB) and reaches 1 KiB beyond it. It reports the disk
// reads per MiB, and fails if a read costs more than one disk read per
// slot it touches.
func BenchmarkBlockStoreSequentialRead(b *testing.B) {
	const frameLen, readLen = 8 + 32<<10 + 100, 8 + 32<<10 + 1<<10
	store, err := NewBlockStore("", 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	reads := countDiskReads(store)
	payload := patterned(5, 4<<20)
	f := writeSealed(b, store, payload)
	buf := make([]byte, readLen)
	var slotsTouched int64
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := int64(0); off < int64(len(payload)); off += frameLen {
			n := min(readLen, int64(len(payload))-off)
			if _, err := f.ReadAt(buf[:n], off); err != nil {
				b.Fatal(err)
			}
			slotsTouched += (off+n-1)/slotSize - off/slotSize + 1
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(reads.Value())/float64(b.N*len(payload)>>20), "preads/MiB")
	if reads.Value() > slotsTouched {
		b.Fatalf("%d disk reads for reads touching %d slots", reads.Value(), slotsTouched)
	}
}

// BenchmarkSpilledShuffle runs a foreign-key join fully out of core, the
// way the engine uses this store: 60 k fact rows with a Zipf-skewed
// string key against 2 k dimension rows on 96 reducers, under a 64 KiB
// spill budget and a 64 KiB page cache — some 60 spill files in the
// slots of one backing file, each reducer's segment of one read back
// through the one or two 4 KiB pages it covers and its CRC frames.
func BenchmarkSpilledShuffle(b *testing.B) {
	const stations = 2000
	name := func(i uint64) string { return fmt.Sprintf("bs-%05d", i) }
	calls := relation.New("c", relation.MustSchema(
		relation.Column{Name: "bs", Kind: relation.KindString},
		relation.Column{Name: "len", Kind: relation.KindInt},
		relation.Column{Name: core.RowIDColumn, Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(29))
	zipf := rand.NewZipf(rng, 1.3, 1, stations-1)
	for i := 0; i < 60000; i++ {
		calls.MustAppend(relation.Tuple{relation.Str(name(zipf.Uint64())), relation.Int(rng.Int63n(3600)), relation.Int(int64(i))})
	}
	dim := relation.New("s", relation.MustSchema(
		relation.Column{Name: "bs", Kind: relation.KindString},
		relation.Column{Name: "region", Kind: relation.KindInt},
		relation.Column{Name: core.RowIDColumn, Kind: relation.KindInt},
	))
	for i := 0; i < stations; i++ {
		dim.MustAppend(relation.Tuple{relation.Str(name(uint64(i))), relation.Int(int64(i % 17)), relation.Int(int64(i))})
	}
	job, err := core.BuildHashEquiJob("fk", calls, dim, predicate.Conjunction{predicate.C("c", "bs", predicate.EQ, "s", "bs")}, 96, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var spilled int64
	for i := 0; i < b.N; i++ {
		store, err := NewBlockStore("", 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		cfg := mr.DefaultConfig()
		cfg.SpillBudgetBytes = 64 << 10
		cfg.Spill = store
		res, err := mr.Run(context.Background(), cfg, job)
		if err != nil {
			b.Fatal(err)
		}
		if res.Output.Cardinality() != 60000 {
			b.Fatalf("%d rows joined, every call has one station", res.Output.Cardinality())
		}
		spilled += res.Metrics.SpillBytes
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spilled)/1e6/b.Elapsed().Seconds(), "spilledMB/s")
}
