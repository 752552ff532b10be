package dfs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mr"
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
			Inputs: []mr.Input{{Rel: rel, Map: func(tp relation.Tuple, emit mr.Emitter) { emit(uint64(tp[0].Int64()), 0, tp) }}},
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
	base, err := mr.Run(context.Background(), cfg, nil, job(in))
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
	ooc, err := mr.Run(context.Background(), oocCfg, nil, job(in))
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

// BenchmarkSpilledShuffle runs a foreign-key join fully out of core, the
// way the engine uses this store: 60 k fact rows with a Zipf-skewed
// string key against 2 k dimension rows on 96 reducers, under a 64 KiB
// spill budget and a 64 KiB page cache — some 120 spill files, each read
// back through one page and every segment through its CRC frames.
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
	job, err := core.BuildHashEquiJob("fk", calls, dim, predicate.Conjunction{predicate.C("c", "bs", predicate.EQ, "s", "bs")}, 96)
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
		res, err := mr.Run(context.Background(), cfg, nil, job)
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
