package relation

import (
	"math"
	"sort"
)

// str hashes s framed by its length, so adjacent fields cannot alias
// ("ab"+"c" vs "a"+"bc").
func (h FNV) str(s string) FNV { return h.U64(uint64(len(s))).String(s) }

// value hashes the kind and the length-framed v.String() text: an int's
// or a time's from its digits (decimal), a float's rendered into a
// stack buffer. ContentHash runs it over every value of a result, so it
// frames a string itself: str is over the compiler's inlining budget.
func (h FNV) value(v Value) FNV {
	h = h.U64(uint64(v.kind))
	if v.kind == KindInt || v.kind == KindTime {
		return h.decimal(v.int())
	}
	if v.kind == KindString {
		s := v.Str()
		return fnvBytes(h.U64(uint64(len(s))), s)
	}
	var scratch [32]byte
	text := v.AppendString(scratch[:0])
	return fnvBytes(h.U64(uint64(len(text))), text)
}

// decimal folds the length-framed decimal text of v, the bytes
// strconv.AppendInt(nil, v, 10) writes, without rendering it: the
// digits are peeled into two registers, four bits each, and folded most
// significant first. Rendering through strconv zeroes a 65-byte stack
// buffer per value, which took three times as long in some builds as
// in others: its cost follows the stack alignment of the callers.
func (h FNV) decimal(v int64) FNV {
	u, n := uint64(v), 0
	if v < 0 {
		u = -u
	}
	var lo, hi uint64 // digits 0–15 and 16–18, least significant lowest
	for ; n == 0 || u != 0; n++ {
		if n < 16 {
			lo |= u % 10 << (4 * n)
		} else {
			hi |= u % 10 << (4 * (n - 16))
		}
		u /= 10
	}
	if v < 0 {
		h = h.U64(uint64(n + 1)).Byte('-')
	} else {
		h = h.U64(uint64(n))
	}
	for i := n - 1; i >= 16; i-- {
		h = h.Byte('0' + byte(hi>>(4*(i-16))&15))
	}
	for i := min(n, 16) - 1; i >= 0; i-- {
		h = h.Byte('0' + byte(lo>>(4*i)&15))
	}
	return h
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
// run without shipping the rows. It is ContentHashOf over the relation's
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
// concatenates parts, computed from the parts without building it. A
// stream of rows that share leading parts hashes through a RowHasher.
func RowHash(parts ...Tuple) uint64 {
	f := NewFNV()
	for _, p := range parts {
		f = f.part(p)
	}
	return uint64(f)
}

// part folds one part of a row: each value in turn.
func (h FNV) part(p Tuple) FNV {
	for _, v := range p {
		h = h.value(v)
	}
	return h
}

// rowHasherParts is how many leading part positions a RowHasher
// remembers; a row's parts past them are folded in full every time.
const rowHasherParts = 8

// RowHasher computes RowHash for a stream of rows that share leading
// parts, as a depth-first join emits them: (t1, t2, t3), (t1, t2, t4),
// (t1, t5, t6), …. It remembers, for each of the first
// rowHasherParts positions of the last row it hashed, which part was
// there and the hash state after it, and resumes from the state after
// the longest prefix of parts the new row shares with that one.
//
// A part is the same as the last row's part at its position when it
// starts at the same address and has the same length: the hasher
// compares identity, not values, so a caller must not rewrite a part's
// values between two calls that may share it (Reset between them when
// it does). The memo holds the parts' pointers, so a part it remembers
// is never freed and its address never reused by another part. The
// zero value is ready to use; a RowHasher hashes with no allocation.
type RowHasher struct {
	n    int // memo[:n] describes the last row's leading parts
	memo [rowHasherParts]struct {
		first *Value // &p[0]; nil for an empty part
		len   int
		state FNV // the hash of the row up to and including this part
	}
}

// Hash returns RowHash(parts...): RowHash's fold, resumed after the
// parts shared with the last row.
func (h *RowHasher) Hash(parts ...Tuple) uint64 {
	f, i := NewFNV(), 0
	for ; i < min(h.n, len(parts)); i++ {
		m, p := &h.memo[i], parts[i]
		if len(p) != m.len || len(p) > 0 && &p[0] != m.first {
			break
		}
		f = m.state
	}
	for ; i < len(parts); i++ {
		p := parts[i]
		f = f.part(p)
		if i < rowHasherParts {
			m := &h.memo[i]
			m.first, m.len, m.state = nil, len(p), f
			if len(p) > 0 {
				m.first = &p[0]
			}
		}
	}
	h.n = min(len(parts), rowHasherParts)
	return uint64(f)
}

// Reset forgets the last row, so the next one is hashed from its first
// part. It keeps the remembered parts' pointers, which Hash no longer
// reads; the zero value drops them too.
func (h *RowHasher) Reset() { h.n = 0 }

// SumRowHashes is the wrapping sum of the rows' RowHash values.
func SumRowHashes(rows []Tuple) uint64 {
	var sum uint64
	for _, t := range rows {
		sum += RowHash(t)
	}
	return sum
}
