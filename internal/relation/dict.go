package relation

import (
	"sort"
	"strings"
)

// Order-preserving string dictionary. A Dict maps the distinct strings
// of one column to dense codes 0..Len()-1 assigned in lexicographic
// order, so integer code comparison agrees with Compare on the member
// strings. Dictionaries are built once — at Analyze time for base
// relations (see InternStrings) — and shared by reference through job
// outputs; they are immutable afterwards.
//
// Normalized sort keys derived from a dictionary use an even/odd
// scheme so that probe strings absent from the dictionary still
// resolve to the correct range position:
//
//   - NULL          → NullSortKey (Compare's NULL-sorts-first rule);
//   - member at sorted index i → even key 2·(i+1) (CodeKey);
//   - absent string with insertion point j (count of member strings
//     below it) → odd key 2·j+1, strictly between the neighbouring
//     member keys.
//
// Keys from different dictionaries are not mutually comparable, and
// two distinct absent strings falling in the same gap collide on the
// same odd key. Both hazards are avoided by construction: a condition
// only compiles to dictionary keys when one side's column carries a
// dictionary covering all of that side's values (predicate.KeyDict,
// see CondKeyModeDict), so every compared pair has at most one absent
// side and both sides key against the same reference dictionary.
type Dict struct {
	strs []string
	code map[string]int64
}

// NewDict builds a dictionary over the given strings (sorted,
// deduplicated). The members' bytes are copied too, end to end into one
// string of the dictionary's own: InternStrings points every value of a
// column at its member, and a member cut from a larger string — ReadCSV
// cuts a block's values from one — would keep all of that alive.
func NewDict(strs []string) *Dict {
	sorted := append([]string(nil), strs...)
	sort.Strings(sorted)
	uniq, size := sorted[:0], 0
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			uniq = append(uniq, s)
			size += len(s)
		}
	}
	var packed strings.Builder
	packed.Grow(size)
	for _, s := range uniq {
		packed.WriteString(s)
	}
	d := &Dict{strs: uniq, code: make(map[string]int64, len(uniq))}
	rest := packed.String()
	for i, s := range uniq {
		uniq[i], rest = rest[:len(s)], rest[len(s):]
		d.code[uniq[i]] = int64(i)
	}
	return d
}

// Len returns the number of member strings.
func (d *Dict) Len() int { return len(d.strs) }

// Code returns the dense order-preserving code of s, or false when s
// is not a member.
func (d *Dict) Code(s string) (int64, bool) {
	c, ok := d.code[s]
	return c, ok
}

// At returns the member string with the given code ("" out of range).
func (d *Dict) At(code int64) string {
	if code < 0 || code >= int64(len(d.strs)) {
		return ""
	}
	return d.strs[code]
}

// CodeKey is the normalized sort key of a member string with the given
// dictionary code: the even slot of the even/odd scheme.
func CodeKey(code int64) int64 { return 2 * (code + 1) }

// ProbeKey returns the normalized sort key of an arbitrary probe
// string: the member key when s is in the dictionary, otherwise the
// odd gap key between the neighbouring members. Key order agrees with
// Compare for any pair of strings of which at least one is a member.
func (d *Dict) ProbeKey(s string) int64 {
	if c, ok := d.code[s]; ok {
		return CodeKey(c)
	}
	j := sort.SearchStrings(d.strs, s)
	return 2*int64(j) + 1
}

// Key returns the normalized sort key of a value under this
// dictionary: NullSortKey for NULL, ProbeKey of the string payload
// otherwise. Callers that know v was interned against this exact
// dictionary can skip the lookup and use CodeKey(code) directly.
func (d *Dict) Key(v Value) int64 {
	if v.IsNull() {
		return NullSortKey
	}
	return d.ProbeKey(v.Str())
}

// InternStrings builds an order-preserving dictionary for every string
// column of r that lacks one and rewrites the column's values in place
// to carry their dictionary codes (see InternedStr). Interning changes
// no comparison result — Compare, Equal and Tuple.Key stay
// string-based — but shrinks EncodedSize to the varint code width and
// unlocks the predicate.KeyDict fast path in the join evaluator.
// Columns containing non-NULL, non-string values are skipped.
func InternStrings(r *Relation) {
	if r.Schema == nil {
		return
	}
	n := r.Schema.Len()
	for ci := 0; ci < n; ci++ {
		if r.Schema.Column(ci).Kind != KindString || r.DictOf(ci) != nil {
			continue
		}
		distinct := make(map[string]struct{})
		ok := true
		for _, t := range r.Tuples {
			v := t[ci]
			if v.IsNull() {
				continue
			}
			if v.Kind() != KindString {
				ok = false
				break
			}
			distinct[v.Str()] = struct{}{}
		}
		if !ok || len(distinct) == 0 {
			continue
		}
		strs := make([]string, 0, len(distinct))
		for s := range distinct {
			strs = append(strs, s)
		}
		d := NewDict(strs)
		if r.Dicts == nil {
			r.Dicts = make([]*Dict, n)
		}
		r.Dicts[ci] = d
		for _, t := range r.Tuples {
			v := t[ci]
			if v.Kind() != KindString {
				continue
			}
			c, _ := d.Code(v.Str())
			t[ci] = InternedStr(d.At(c), c)
		}
	}
}
