package relation

import (
	"fmt"
	"strings"
)

// Column describes a single attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// and non-empty.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for static schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Lookup returns the ordinal of the named column and whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustLookup is Lookup that panics when the column is missing.
func (s *Schema) MustLookup(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("relation: no column %q in schema %s", name, s))
	}
	return i
}

// String renders the schema as "name:kind, ...".
func (s *Schema) String() string {
	var b strings.Builder
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Kind)
	}
	return b.String()
}

// Equal reports whether two schemas have identical column lists.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// Concat returns the schema of a join result: the columns of s prefixed
// with prefixS followed by the columns of o prefixed with prefixO.
// Prefixing keeps names unique across self-joins.
func (s *Schema) Concat(prefixS string, o *Schema, prefixO string) *Schema {
	cols := make([]Column, 0, s.Len()+o.Len())
	for _, c := range s.cols {
		cols = append(cols, Column{Name: prefixS + c.Name, Kind: c.Kind})
	}
	for _, c := range o.cols {
		cols = append(cols, Column{Name: prefixO + c.Name, Kind: c.Kind})
	}
	return MustSchema(cols...)
}

// Tuple is a row: one value per schema column. Tuples are value slices
// so the hot join paths index directly without interface dispatch.
type Tuple []Value

// EncodedSize returns the byte size charged for the tuple by the
// simulator (sum of value sizes plus a 4-byte length header).
func (t Tuple) EncodedSize() int {
	n := 4
	for _, v := range t {
		n += v.EncodedSize()
	}
	return n
}

// Clone returns a deep-enough copy (values are immutable).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// String renders the tuple as a parenthesised value list.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key renders a canonical string form usable as a map key when
// deduplicating result sets in tests and merges.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteByte(byte('0' + v.kind))
		b.WriteString(v.String())
	}
	return b.String()
}
