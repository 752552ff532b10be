package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// WriteCSV writes the relation with a typed header line
// ("name:kind,...") followed by one CSV record per tuple.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Schema.Len())
	for i := 0; i < r.Schema.Len(); i++ {
		c := r.Schema.Column(i)
		header[i] = c.Name + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, r.Schema.Len())
	for _, t := range r.Tuples {
		for i, v := range t {
			rec[i] = v.String()
		}
		if len(rec) == 1 && rec[0] == "" {
			// encoding/csv writes a lone empty field as an empty line,
			// which every CSV reader skips: quote it so the row survives.
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation written by WriteCSV. The relation name is
// supplied by the caller (CSV files do not carry one).
func ReadCSV(rd io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		parts := strings.SplitN(h, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("relation: malformed csv header field %q (want name:kind)", h)
		}
		kind, err := ParseKind(parts[1])
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: parts[0], Kind: kind}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	rel := New(name, schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv: %w", err)
		}
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("relation: csv record has %d fields, want %d", len(rec), len(cols))
		}
		t := make(Tuple, len(cols))
		for i, field := range rec {
			v, err := ParseValue(cols[i].Kind, field)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel, nil
}
