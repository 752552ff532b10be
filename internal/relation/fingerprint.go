package relation

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// str hashes s framed by its length, so adjacent fields cannot alias
// ("ab"+"c" vs "a"+"bc").
func (h FNV) str(s string) FNV { return h.U64(uint64(len(s))).String(s) }

// value hashes the kind and the length-framed v.String() text, rendered
// into a stack buffer for the kinds that are not already a string.
// ContentHash runs it over every value of a result, so it frames a
// string itself: str is over the compiler's inlining budget.
func (h FNV) value(v Value) FNV {
	h = h.U64(uint64(v.kind))
	if v.kind == KindString {
		s := v.Str()
		return fnvBytes(h.U64(uint64(len(s))), s)
	}
	var scratch [32]byte
	text := v.AppendString(scratch[:0])
	return fnvBytes(h.U64(uint64(len(text))), text)
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
	f := NewFNV().U64(uint64(len(names)))
	for _, n := range names {
		ts := c.Tables[n]
		f = f.str(n).str(ts.Relation).U64(uint64(ts.Cardinality))
		f = f.U64(math.Float64bits(ts.AvgTuple)).U64(uint64(ts.ModeledSize))
		f = f.U64(uint64(len(ts.colOrder)))
		for _, col := range ts.colOrder {
			f = f.str(col)
		}
		hkCols := make([]string, 0, len(ts.HotKeys))
		for cn := range ts.HotKeys {
			hkCols = append(hkCols, cn)
		}
		sort.Strings(hkCols)
		f = f.U64(uint64(len(hkCols)))
		for _, cn := range hkCols {
			f = f.str(cn)
			// Framed: the key count per column and the value count per
			// key, so a key moved from one column's report to the next
			// (or a value from one key to the next) changes the hash.
			f = f.U64(uint64(len(ts.HotKeys[cn])))
			for _, hk := range ts.HotKeys[cn] {
				f = f.U64(uint64(len(hk.Values)))
				for _, v := range hk.Values {
					f = f.value(v)
				}
				f = f.U64(uint64(hk.Count)).U64(math.Float64bits(hk.Frac))
			}
		}
		f = f.U64(uint64(len(ts.SampleRows)))
		for _, row := range ts.SampleRows {
			for _, v := range row {
				f = f.value(v)
			}
		}
	}
	return uint64(f)
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
	f := NewFNV().U64(uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		col := schema.Column(i)
		f = f.str(col.Name).U64(uint64(col.Kind))
	}
	return uint64(NewFNV().U64(uint64(f)).U64(uint64(rows)).U64(rowSum))
}

// RowHash is one row's term of ContentHash: the hash of the row that
// concatenates parts, computed from the parts without building it.
func RowHash(parts ...Tuple) uint64 {
	f := NewFNV()
	for _, p := range parts {
		for _, v := range p {
			f = f.value(v)
		}
	}
	return uint64(f)
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
