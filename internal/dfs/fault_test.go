package dfs

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// sealedProbeFile writes a multi-page payload and returns the sealed
// file plus its bytes.
func sealedProbeFile(t *testing.T, store *BlockStore) ([]byte, *blockFile) {
	t.Helper()
	payload := patterned(3, 2*DefaultPageSize+333)
	return payload, writeSealed(t, store, payload)
}

// TestPageChecksumFailover: a transient corruption of the middle page of
// a run fill (one bad disk read) is detected by the page CRC, absorbed
// by a re-read of that page alone, and counted in both the store stats
// and the attached obs registry.
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
	if n := o.Counter("dfs.disk_reads").Value(); n != 2 {
		t.Errorf("%d disk reads, want 2: the run's and the bad page's replica", n)
	}
}

// TestPageChecksumExhaustsReplicas: persistent corruption (every
// replica read bad) of the first or a middle page of a run must surface
// an error after mr.Replication reads, never silently decode bad bytes.
func TestPageChecksumExhaustsReplicas(t *testing.T) {
	for _, bad := range []int64{0, 1} {
		store, err := NewBlockStore("", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		payload, f := sealedProbeFile(t, store)

		store.corruptFill = func(file int, page int64, attempt int, data []byte) {
			if page == bad {
				data[0] ^= 0xFF
			}
		}
		_, err = f.ReadAt(make([]byte, len(payload)), 0)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("page %d: persistent corruption not surfaced: %v", bad, err)
		}
		cs, fo := store.IntegrityStats()
		if cs != 3 || fo != 2 {
			t.Errorf("page %d: IntegrityStats = (%d, %d), want (3, 2)", bad, cs, fo)
		}
		if _, _, resident := store.CacheStats(); resident != 0 {
			t.Errorf("page %d: a failed run left %d bytes cached", bad, resident)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
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
