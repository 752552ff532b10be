package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/relation"
	"repro/internal/skew"
)

// RowIDColumn is the synthetic unique row identifier column added to
// every registered base relation. The paper's merge steps combine job
// outputs "using the primary keys … only output keys or data IDs
// involved" (§4.2); RowIDColumn is that data ID.
const RowIDColumn = "rid"

// DB registers the base relations a query runs against, together with
// the sampled statistics catalog the optimizer consumes.
type DB struct {
	rels    map[string]*relation.Relation
	aliasOf map[string]string
	Catalog *relation.Catalog

	// analyzeGen counts Analyze runs and version caches the catalog
	// version computed by the last one (see CatalogVersion).
	analyzeGen uint64
	version    uint64
}

// BaseName resolves an alias to the relation it was created from;
// non-alias names map to themselves. Baseline planners use this to
// recognise self-joins scanning the same physical table (YSmart's
// input correlation).
func (db *DB) BaseName(name string) string {
	if base, ok := db.aliasOf[name]; ok {
		return base
	}
	return name
}

// NewDB registers relations, adding a unique RowIDColumn to any
// relation lacking one (EnsureRowIDs: in place, for the rows
// relation.ReadCSV returns), and analyzes them (sample size and seed as
// given; sampleSize <= 0 uses 1000). Analyze's load error is NewDB's.
func NewDB(sampleSize int, seed int64, rels ...*relation.Relation) (*DB, error) {
	db := &DB{
		rels:    make(map[string]*relation.Relation, len(rels)),
		aliasOf: make(map[string]string),
	}
	for _, r := range rels {
		if r == nil {
			return nil, fmt.Errorf("core: nil relation")
		}
		if _, dup := db.rels[r.Name]; dup {
			return nil, fmt.Errorf("core: duplicate relation %q", r.Name)
		}
		withID, err := EnsureRowIDs(r)
		if err != nil {
			return nil, err
		}
		db.rels[r.Name] = withID
	}
	if err := db.Analyze(sampleSize, seed); err != nil {
		return nil, err
	}
	return db, nil
}

// Analyze (re)builds the statistics catalog, including the per-column
// heavy-hitter reports the skew subsystem consumes. The explicit seed
// makes sampling — and therefore the hot-key reports and every plan
// derived from them — deterministic across runs. String columns are
// interned first (relation.InternStrings builds their order-preserving
// dictionaries), so the retained sample rows and hot-key values carry
// dictionary codes consistent with the relation's. A non-string value
// in a string column is an error, and the catalog stays as it was.
func (db *DB) Analyze(sampleSize int, seed int64) error {
	all := make([]*relation.Relation, 0, len(db.rels))
	for _, r := range db.rels {
		all = append(all, r)
	}
	// The catalog rng is shared across relations in slice order; sort
	// by name so each relation draws the same sample every run (map
	// iteration order would otherwise leak into the statistics).
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	for _, r := range all {
		if err := relation.InternStrings(r); err != nil {
			return err
		}
	}
	db.Catalog = relation.NewCatalog(all, sampleSize, rand.New(rand.NewSource(seed)))
	skew.AnnotateCatalog(db.Catalog, all)
	db.analyzeGen++
	db.version = catalogVersion(db.Catalog.Fingerprint(), db.analyzeGen)
	return nil
}

// catalogVersion mixes the statistics fingerprint with the analyze
// generation into one cache-key component.
func catalogVersion(fingerprint, gen uint64) uint64 {
	const prime64 = 1099511628211 // FNV-1a prime
	v := fingerprint
	v ^= gen
	v *= prime64
	return v
}

// CatalogVersion identifies the statistics state plans are built from:
// a content fingerprint of the catalog (column names, cardinalities,
// hot keys, samples — see relation.Catalog.Fingerprint)
// mixed with the analyze generation. Any Analyze re-run bumps it, and
// reloading relations with different content changes the fingerprint —
// either way, plan-cache entries keyed on the old version stop
// matching, so a cached plan can never outlive the statistics that
// justified it.
func (db *DB) CatalogVersion() uint64 { return db.version }

// View returns a shallow per-query copy of the database with the given
// aliases applied: the relation and catalog maps are copied (sharing
// the underlying immutable relations and statistics), so concurrent
// queries can register self-join aliases without mutating the shared
// DB. The view keeps the base CatalogVersion — aliases are query
// naming, not a statistics change; cache keys distinguish them through
// the canonical query string instead.
func (db *DB) View(aliases map[string]string) (*DB, error) {
	v := &DB{
		rels:       make(map[string]*relation.Relation, len(db.rels)+len(aliases)),
		aliasOf:    make(map[string]string, len(db.aliasOf)+len(aliases)),
		Catalog:    &relation.Catalog{Tables: make(map[string]*relation.TableStats, len(db.Catalog.Tables)+len(aliases))},
		analyzeGen: db.analyzeGen,
		version:    db.version,
	}
	for n, r := range db.rels {
		v.rels[n] = r
	}
	for n, b := range db.aliasOf {
		v.aliasOf[n] = b
	}
	for n, ts := range db.Catalog.Tables {
		v.Catalog.Tables[n] = ts
	}
	// Alias in sorted order so error selection is deterministic when
	// several aliases conflict.
	names := make([]string, 0, len(aliases))
	for a := range aliases {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		if a == aliases[a] {
			if _, ok := v.rels[a]; !ok {
				return nil, fmt.Errorf("core: unknown relation %q", a)
			}
			continue
		}
		if err := v.Alias(a, aliases[a]); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Relation returns a registered relation.
func (db *DB) Relation(name string) (*relation.Relation, error) {
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: no relation %q", name)
	}
	return r, nil
}

// Names returns the registered relation names (unordered).
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	return out
}

// Alias registers newName as a second handle on an existing relation's
// tuples — how self-joins ("FROM table t1, table t2") enter the
// planner, which requires distinct relation names per query vertex.
func (db *DB) Alias(newName, existing string) error {
	if _, dup := db.rels[newName]; dup {
		return fmt.Errorf("core: alias %q already registered", newName)
	}
	src, ok := db.rels[existing]
	if !ok {
		return fmt.Errorf("core: alias target %q not registered", existing)
	}
	cp := *src
	cp.Name = newName
	db.rels[newName] = &cp
	db.aliasOf[newName] = db.BaseName(existing)
	if db.Catalog != nil {
		if ts, ok := db.Catalog.Tables[existing]; ok {
			tsCopy := *ts
			tsCopy.Relation = newName
			db.Catalog.Tables[newName] = &tsCopy
		}
	}
	return nil
}

// EnsureRowIDs returns a relation guaranteed to carry an integer
// RowIDColumn that numbers its rows 0…n−1 in order, so that a rid is
// its row's index — how the rid-merge finds a row. A relation that has
// the column already must number its rows that way, or it is an error
// naming the first row that does not, and it is returned as it is.
//
// Otherwise the result has r's rows widened by their rid, and a row's
// capacity decides how. When every row has room for exactly one Value
// more (cap == len+1, as relation.ReadCSV leaves them) and that spare
// slot is NULL or holds the row's own index already, the rid is written
// into the slot and the result's rows are r's own: no Value is copied,
// and a relation loaded once registers again in the same row order at
// no cost. r and the result then share their rows: what the DB does to
// them in place, such as interning their strings, r sees too, and an
// append to one of r's rows would overwrite its rid. Any other relation
// — built by hand, with a row a caller appended, or reordered since an
// earlier call claimed its slots — is copied into one slab. No slot
// that holds a rid is ever changed.
func EnsureRowIDs(r *relation.Relation) (*relation.Relation, error) {
	if idx, ok := r.Schema.Lookup(RowIDColumn); ok {
		for i, t := range r.Tuples {
			if v := t[idx]; v.Kind() != relation.KindInt || v.Int64() != int64(i) {
				return nil, fmt.Errorf("core: relation %s row %d has %s %v; a %s column must number the rows 0, 1, 2, … in order",
					r.Name, i, RowIDColumn, v, RowIDColumn)
			}
		}
		return r, nil
	}
	cols := append(r.Schema.Columns(), relation.Column{Name: RowIDColumn, Kind: relation.KindInt})
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := relation.New(r.Name, schema)
	out.VolumeMultiplier = r.VolumeMultiplier
	out.Tuples = make([]relation.Tuple, len(r.Tuples))
	if claimRowIDSlots(r.Tuples, out.Tuples) {
		return out, nil
	}
	// One slab for every widened row, each a capacity-limited subslice:
	// an allocation per relation instead of one per row.
	total := len(r.Tuples)
	for _, t := range r.Tuples {
		total += len(t)
	}
	slab := make([]relation.Value, 0, total)
	for i, t := range r.Tuples {
		a := len(slab)
		slab = append(append(slab, t...), relation.Int(int64(i)))
		out.Tuples[i] = slab[a:len(slab):len(slab)]
	}
	return out, nil
}

// claimRowIDSlots writes each row's index into its spare slot and the
// widened row into out, and reports whether every row had such a slot.
// It writes nothing unless every row has room for exactly one Value
// more, so rows cut from one slab without a capacity limit, whose room
// is their neighbour's, are left alone. It then stops at the first slot
// that is neither NULL nor the row's own index. A slot is written only
// when it is NULL, so a row listed twice fails at its second index, and
// the rids of a relation that an earlier call shares rows with never
// change; the slots written before a failure hold their rows' own
// indexes, past the rows' ends.
func claimRowIDSlots(rows, out []relation.Tuple) bool {
	for _, t := range rows {
		if cap(t) != len(t)+1 {
			return false
		}
	}
	for i, t := range rows {
		w := t[:len(t)+1]
		switch slot := &w[len(t)]; {
		case slot.IsNull():
			*slot = relation.Int(int64(i))
		case slot.Kind() != relation.KindInt || slot.Int64() != int64(i):
			return false
		}
		out[i] = w
	}
	return true
}
