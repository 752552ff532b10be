package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/workloads"
)

// The rid slot: relation.ReadCSV leaves every row one spare NULL Value,
// and core.EnsureRowIDs writes the row's rid into it instead of copying
// the row, when every row has one that is NULL or holds its own index
// already. These tests pin when a load shares its rows with the DB and
// when it must copy them.

// loadCSV writes r as CSV and reads it back, as thetajoin -rel loads it.
func loadCSV(tb testing.TB, r *relation.Relation) *relation.Relation {
	tb.Helper()
	var text bytes.Buffer
	if err := relation.WriteCSV(&text, r); err != nil {
		tb.Fatal(err)
	}
	back, err := relation.ReadCSV(&text, r.Name)
	if err != nil {
		tb.Fatal(err)
	}
	return back
}

func mobileRows(n int) *relation.Relation {
	return workloads.MobileTable(workloads.MobileConfig{Tuples: n, Seed: 7})
}

// registered returns the DB's relation that NewDB made of the one rel.
func registered(tb testing.TB, rel *relation.Relation) *relation.Relation {
	tb.Helper()
	db, err := core.NewDB(100, 1, rel)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := db.Relation(rel.Name)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// sameText compares values by kind and text: NewDB interns the strings
// of a copied row, and not those of the row it was copied from.
func sameText(a, b relation.Value) bool { return a.Kind() == b.Kind() && a.String() == b.String() }

// checkRegistered fails unless every row i of got is rows[i] widened by
// rid i, sharing rows[i]'s storage exactly when shared says so.
func checkRegistered(t *testing.T, when string, got *relation.Relation, rows []relation.Tuple, shared bool) {
	t.Helper()
	idx, ok := got.Schema.Lookup(core.RowIDColumn)
	if !ok || len(got.Tuples) != len(rows) {
		t.Fatalf("%s: rid column %v, %d rows, want %d", when, ok, len(got.Tuples), len(rows))
	}
	for i, row := range got.Tuples {
		if rid := row[idx]; rid.Kind() != relation.KindInt || rid.Int64() != int64(i) {
			t.Fatalf("%s: row %d has rid %v", when, i, rid)
		}
		if !slices.EqualFunc(row[:idx], rows[i], sameText) {
			t.Fatalf("%s: row %d is %v, want %v", when, i, row[:idx], rows[i])
		}
		if same := &row[0] == &rows[i][0]; same != shared {
			t.Fatalf("%s: row %d shares the loaded row's storage: %v, want %v", when, i, same, shared)
		}
	}
}

// TestRowIDSlotReusedInSameOrder: a loaded relation registered twice in
// the same row order gives both DBs the loaded rows themselves.
func TestRowIDSlotReusedInSameOrder(t *testing.T) {
	rel := loadCSV(t, mobileRows(700))
	first := registered(t, rel)
	checkRegistered(t, "first NewDB", first, rel.Tuples, true)
	second := registered(t, rel)
	checkRegistered(t, "second NewDB", second, rel.Tuples, true)
	checkRegistered(t, "first NewDB after the second", first, rel.Tuples, true)
}

// TestRowIDSlotCopiesReordered: rows reordered after a NewDB claimed
// their slots hold another index's rid, so the next NewDB copies them,
// and the first DB's rids stay as they were.
func TestRowIDSlotCopiesReordered(t *testing.T) {
	rel := loadCSV(t, mobileRows(700))
	first := registered(t, rel)
	inOrder := slices.Clone(rel.Tuples)
	slices.Reverse(rel.Tuples)
	second := registered(t, rel)
	checkRegistered(t, "first NewDB after the second", first, inOrder, true)
	checkRegistered(t, "NewDB of the reversed rows", second, rel.Tuples, false)
}

// TestRowIDSlotCopiesOtherRows: every row must have its own NULL slot,
// or the whole relation is copied — a hand-built one, one whose rows
// share a slab, one with a row a caller appended to, a hand-built row
// appended to it, or a row listed twice — and the rows keep their
// values.
func TestRowIDSlotCopiesOtherRows(t *testing.T) {
	handBuilt := mobileRows(300)
	checkRegistered(t, "hand-built", registered(t, handBuilt), handBuilt.Tuples, false)

	// The first row's room is the second row's NULL.
	slab := make([]relation.Value, 2)
	shared := relation.New("S", relation.MustSchema(relation.Column{Name: "x", Kind: relation.KindInt}))
	shared.Tuples = []relation.Tuple{slab[0:1], slab[1:2]}
	checkRegistered(t, "rows sharing a slab", registered(t, shared), []relation.Tuple{{relation.Null()}, {relation.Null()}}, false)
	if !slab[1].IsNull() {
		t.Fatalf("rows sharing a slab: NewDB wrote %v into the second row", slab[1])
	}

	for name, edit := range map[string]func(r *relation.Relation){
		"a row appended to": func(r *relation.Relation) {
			row := r.Tuples[120]
			_ = append(row, relation.Int(99)) // into its spare slot
		},
		"a hand-built row appended": func(r *relation.Relation) {
			r.Tuples = append(r.Tuples, slices.Clone(r.Tuples[5]))
		},
		"a row listed twice": func(r *relation.Relation) {
			r.Tuples = append(r.Tuples, r.Tuples[5])
		},
	} {
		rel := loadCSV(t, mobileRows(300))
		edit(rel)
		checkRegistered(t, name, registered(t, rel), rel.Tuples, false)
	}
}

// TestRowIDSlotQueryAgrees: a query over a loaded DB, whose rows are the
// reader's own, counts and hashes the result as over the hand-built DB.
func TestRowIDSlotQueryAgrees(t *testing.T) {
	q, err := workloads.MobileQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rel *relation.Relation) *core.ExecResult {
		t.Helper()
		db, err := core.NewDB(100, 1, rel)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			if err := db.Alias(fmt.Sprintf("t%d", i), "calls"); err != nil {
				t.Fatal(err)
			}
		}
		pl := core.NewPlanner(mr.DefaultConfig(), 8)
		plan, err := pl.Plan(q, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Execute(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	handBuilt := mobileRows(400)
	loaded := loadCSV(t, handBuilt)
	want, got := run(handBuilt), run(loaded)
	if want.Rows == 0 || got.Rows != want.Rows || got.Hash != want.Hash {
		t.Fatalf("loaded DB: %d rows, hash %#x; hand-built DB: %d rows, hash %#x", got.Rows, got.Hash, want.Rows, want.Hash)
	}
}

// TestRowIDSlotRefusesMisnumbered: a relation that brings its own rid
// column is checked row by row, spare slots or not.
func TestRowIDSlotRefusesMisnumbered(t *testing.T) {
	rel, err := relation.ReadCSV(strings.NewReader("x:int,rid:int\n5,0\n6,2\n7,1\n"), "R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewDB(100, 1, rel); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("misnumbered rid column: %v, want an error naming row 1", err)
	}
	rel.Tuples[1][1], rel.Tuples[2][1] = relation.Int(1), relation.Int(2)
	if got := registered(t, rel); got != rel {
		t.Fatal("a relation numbered by its own rid column was not registered as it is")
	}
}

// BenchmarkLoad is thetajoin's load: ReadCSV of a 60 000-row call table,
// then NewDB, which numbers the rows through their spare slots.
func BenchmarkLoad(b *testing.B) {
	const rows = 60000
	var text bytes.Buffer
	if err := relation.WriteCSV(&text, workloads.MobileTable(workloads.MobileConfig{Tuples: rows, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := relation.ReadCSV(bytes.NewReader(text.Bytes()), "calls")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewDB(1000, 1, rel); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
