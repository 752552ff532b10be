package core

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// TestCatalogVersionChanges proves the plan-cache key component moves
// exactly when it must: identical construction gives identical
// versions, while re-analyzing (any seed), reloading with different
// content, or changing schema all produce new versions.
func TestCatalogVersionChanges(t *testing.T) {
	build := func(seed int64, n int) *DB {
		rng := rand.New(rand.NewSource(9))
		return newTestDB(t, randRelation("A", n, 12, rng), randRelation("B", 40, 12, rng))
	}
	db1 := build(1, 50)
	db2 := build(1, 50)
	if db1.CatalogVersion() != db2.CatalogVersion() {
		t.Error("identical databases disagree on CatalogVersion")
	}
	if db1.CatalogVersion() == 0 {
		t.Error("CatalogVersion is zero after NewDB")
	}

	// Analyze re-run: version must bump even with identical statistics.
	v0 := db1.CatalogVersion()
	fp0 := db1.Catalog.Fingerprint()
	db1.Analyze(500, 1)
	if db1.CatalogVersion() == v0 {
		t.Error("Analyze re-run kept the old CatalogVersion")
	}
	if db1.Catalog.Fingerprint() != fp0 {
		t.Error("identical re-analysis changed the statistics fingerprint")
	}

	// Different sampling parameters: the fingerprint itself moves (a
	// sub-cardinality sample makes the retained rows seed-dependent).
	db1.Analyze(20, 2)
	if db1.Catalog.Fingerprint() == fp0 {
		t.Error("different sampling parameters left the fingerprint unchanged")
	}

	// Reloaded relation with different content: different version from
	// the start.
	db3 := build(1, 60)
	if db3.CatalogVersion() == db2.CatalogVersion() {
		t.Error("different relation content has equal CatalogVersion")
	}
}

// TestCatalogFingerprintSensitivity exercises the fingerprint directly
// on hand-built catalogs: equal content hashes equal; cardinality,
// hot-key and schema deltas all perturb it.
func TestCatalogFingerprintSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randRelation("R", 30, 10, rng)
	base := func() *relation.Catalog {
		return relation.NewCatalog([]*relation.Relation{r}, 100, rand.New(rand.NewSource(5)))
	}
	c1, c2 := base(), base()
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Error("identical catalogs disagree")
	}
	c2.Tables["R"].Cardinality++
	if c1.Fingerprint() == c2.Fingerprint() {
		t.Error("cardinality change not reflected")
	}
	c3 := base()
	c3.Tables["R"].HotKeys = map[string][]relation.HotKey{
		"a": {{Values: []relation.Value{relation.Int(7)}, Count: 10, Frac: 0.3}},
	}
	if c1.Fingerprint() == c3.Fingerprint() {
		t.Error("hot-key change not reflected")
	}
	// The report is framed: the same two keys split 2+0 and 1+1 over two
	// columns' reports are different catalogs.
	k1 := relation.HotKey{Values: []relation.Value{relation.Int(7)}, Count: 10, Frac: 0.3}
	k2 := relation.HotKey{Values: []relation.Value{relation.Int(8)}, Count: 9, Frac: 0.2}
	c5, c6 := base(), base()
	c5.Tables["R"].HotKeys = map[string][]relation.HotKey{"a": {k1, k2}, "b": {}}
	c6.Tables["R"].HotKeys = map[string][]relation.HotKey{"a": {k1}, "b": {k2}}
	if c5.Fingerprint() == c6.Fingerprint() {
		t.Error("a key moved between two columns' reports not reflected")
	}
	c4 := base()
	c4.Tables["S"] = c4.Tables["R"]
	if c1.Fingerprint() == c4.Fingerprint() {
		t.Error("added table not reflected")
	}
}

// TestDBViewIsolation: a View applies aliases without touching the
// shared DB, shares the base catalog version, and resolves relations
// like Alias would have.
func TestDBViewIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := newTestDB(t, randRelation("A", 30, 10, rng))
	before := len(db.Catalog.Tables)

	v, err := db.View(map[string]string{"t1": "A", "t2": "A", "A": "A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Relation("t1"); err != nil {
		t.Fatal(err)
	}
	if v.BaseName("t2") != "A" {
		t.Errorf("BaseName(t2) = %q, want A", v.BaseName("t2"))
	}
	if v.CatalogVersion() != db.CatalogVersion() {
		t.Error("view changed the catalog version")
	}
	if len(db.Catalog.Tables) != before {
		t.Error("View mutated the shared catalog")
	}
	if _, err := db.Relation("t1"); err == nil {
		t.Error("View leaked an alias into the shared DB")
	}
	if _, err := db.View(map[string]string{"x": "missing"}); err == nil {
		t.Error("View accepted an alias to a missing relation")
	}
	if _, err := db.View(map[string]string{"missing": "missing"}); err == nil {
		t.Error("View accepted an unknown self-named relation")
	}
}
