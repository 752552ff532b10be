package relation

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// FNV-1a, 64 bit. fnvPrime64Pow8 is fnvPrime64⁸ mod 2⁶⁴.
const (
	fnvOffset64    = 14695981039346656037
	fnvPrime64     = 1099511628211
	fnvPrime64Pow8 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 & (1<<64 - 1)
)

func fnvBytes[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fpWriter accumulates an FNV-1a fingerprint over typed fields with
// explicit separators, so adjacent fields cannot alias ("ab"+"c" vs
// "a"+"bc") and numeric zero is distinct from absence. It hashes inline
// and allocates nothing: ContentHash runs one over every value of a
// result.
type fpWriter struct{ h uint64 }

func newFPWriter() *fpWriter { return &fpWriter{h: fnvOffset64} }

// u64 hashes the eight little-endian bytes of v. Below 256 the seven
// high bytes are zero, and a zero byte is one multiplication by the
// prime.
func (f *fpWriter) u64(v uint64) {
	if v < 256 {
		f.h = (f.h ^ v) * fnvPrime64Pow8
		return
	}
	for i := 0; i < 8; i++ {
		f.h = (f.h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
}

func (f *fpWriter) str(s string)  { f.u64(uint64(len(s))); f.h = fnvBytes(f.h, s) }
func (f *fpWriter) i64(v int64)   { f.u64(uint64(v)) }
func (f *fpWriter) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f *fpWriter) sum64() uint64 { return f.h }

// value hashes the kind and the length-framed v.String() text, rendered
// into a stack buffer for the kinds that are not already a string.
func (f *fpWriter) value(v Value) {
	f.u64(uint64(v.kind))
	if v.kind == KindString {
		f.str(v.Str())
		return
	}
	var scratch [32]byte
	text := v.AppendString(scratch[:0])
	f.u64(uint64(len(text)))
	f.h = fnvBytes(f.h, text)
}

// Fingerprint returns a 64-bit content hash of the catalog: every
// relation's column names and statistics (cardinality, sizes, hot-key
// reports, and the sample rows, each value with its kind). Two catalogs
// with identical fingerprints plan identically, so the fingerprint —
// combined with an analyze generation, see core.DB.CatalogVersion —
// keys plan caches: reloading a relation or re-analyzing with a
// different sample changes the fingerprint and invalidates every
// cached plan built on the old statistics.
func (c *Catalog) Fingerprint() uint64 {
	if c == nil {
		return 0
	}
	names := make([]string, 0, len(c.Tables))
	for n := range c.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	f := newFPWriter()
	f.u64(uint64(len(names)))
	for _, n := range names {
		ts := c.Tables[n]
		f.str(n)
		f.str(ts.Relation)
		f.i64(int64(ts.Cardinality))
		f.f64(ts.AvgTuple)
		f.i64(ts.ModeledSize)
		f.u64(uint64(len(ts.colOrder)))
		for _, col := range ts.colOrder {
			f.str(col)
		}
		hkCols := make([]string, 0, len(ts.HotKeys))
		for cn := range ts.HotKeys {
			hkCols = append(hkCols, cn)
		}
		sort.Strings(hkCols)
		f.u64(uint64(len(hkCols)))
		for _, cn := range hkCols {
			f.str(cn)
			// Framed: the key count per column and the value count per
			// key, so a key moved from one column's report to the next
			// (or a value from one key to the next) changes the hash.
			f.u64(uint64(len(ts.HotKeys[cn])))
			for _, hk := range ts.HotKeys[cn] {
				f.u64(uint64(len(hk.Values)))
				for _, v := range hk.Values {
					f.value(v)
				}
				f.i64(hk.Count)
				f.f64(hk.Frac)
			}
		}
		f.u64(uint64(len(ts.SampleRows)))
		for _, row := range ts.SampleRows {
			for _, v := range row {
				f.value(v)
			}
		}
	}
	return f.sum64()
}

// ContentHash returns an order-insensitive 64-bit hash of a relation's
// content: the schema fingerprint plus a commutative combination of
// per-tuple hashes. Two relations holding the same multiset of rows
// under the same schema hash identically regardless of row order —
// letting a client compare a served query result against a one-shot
// run without shipping the rows. Because the rows combine by wrapping
// add, large relations are hashed in GOMAXPROCS shards; the value does
// not depend on the shard count. It is ContentHashOf over the relation's
// own rows; a producer that hashes its rows as it emits them
// (RowHash) calls ContentHashOf itself and need not keep them.
func ContentHash(r *Relation) uint64 {
	if r == nil {
		return 0
	}
	return ContentHashOf(r.Schema, r.Cardinality(), SumRowHashes(r.Tuples))
}

// ContentHashOf is ContentHash of a relation under schema holding rows
// rows whose RowHash values wrap-sum to rowSum.
func ContentHashOf(schema *Schema, rows int, rowSum uint64) uint64 {
	f := newFPWriter()
	f.u64(uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		col := schema.Column(i)
		f.str(col.Name)
		f.u64(uint64(col.Kind))
	}
	out := newFPWriter()
	out.u64(f.sum64())
	out.u64(uint64(rows))
	out.u64(rowSum)
	return out.sum64()
}

// RowHash is one row's term of ContentHash: the hash of the row that
// concatenates parts, computed from the parts without building it.
func RowHash(parts ...Tuple) uint64 {
	f := fpWriter{h: fnvOffset64}
	for _, p := range parts {
		for _, v := range p {
			f.value(v)
		}
	}
	return f.h
}

// hashShardRows is the fewest rows worth a goroutine of their own.
const hashShardRows = 4096

// SumRowHashes is the wrapping sum of the rows' RowHash values,
// computed over contiguous shards, one goroutine each.
func SumRowHashes(rows []Tuple) uint64 {
	shards := min(runtime.GOMAXPROCS(0), len(rows)/hashShardRows)
	if shards <= 1 {
		return hashRows(rows)
	}
	var sum atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum.Add(hashRows(rows[w*len(rows)/shards : (w+1)*len(rows)/shards]))
		}()
	}
	wg.Wait()
	return sum.Load()
}

func hashRows(rows []Tuple) uint64 {
	var sum uint64
	for _, t := range rows {
		sum += RowHash(t)
	}
	return sum
}
