package workloads

import (
	"context"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

func TestMobileTableShape(t *testing.T) {
	cfg := DefaultMobileConfig()
	cfg.Tuples = 500
	r := MobileTable(cfg)
	if r.Cardinality() != 500 {
		t.Fatalf("cardinality = %d", r.Cardinality())
	}
	if r.Schema.Len() != 6 {
		t.Fatalf("schema = %s", r.Schema)
	}
	dIdx := r.Schema.MustLookup("d")
	btIdx := r.Schema.MustLookup("bt")
	lIdx := r.Schema.MustLookup("l")
	bscIdx := r.Schema.MustLookup("bsc")
	bsIdx := r.Schema.MustLookup("bs")
	for _, tup := range r.Tuples {
		d := tup[dIdx].Int64()
		if d < 0 || d >= 61 {
			t.Fatalf("day %d out of range", d)
		}
		bt := tup[btIdx].Int64()
		if bt < d*86400 || bt >= (d+1)*86400 {
			t.Fatalf("begin time %d outside day %d", bt, d)
		}
		if l := tup[lIdx].Int64(); l < 10 || l > 3600 {
			t.Fatalf("length %d out of range", l)
		}
		b := tup[bscIdx].Int64()
		if b < 0 || b >= int64(cfg.Stations) {
			t.Fatalf("station %d out of range", b)
		}
		if got := tup[bsIdx].Str(); got != StationName(b) {
			t.Fatalf("station name %q does not match code %d", got, b)
		}
	}
}

func TestMobileDeterminism(t *testing.T) {
	cfg := DefaultMobileConfig()
	a := MobileTable(cfg)
	b := MobileTable(cfg)
	if a.Cardinality() != b.Cardinality() {
		t.Fatal("nondeterministic cardinality")
	}
	for i := range a.Tuples {
		if a.Tuples[i].Key() != b.Tuples[i].Key() {
			t.Fatal("nondeterministic tuples")
		}
	}
}

func TestMobileDiurnalPattern(t *testing.T) {
	cfg := DefaultMobileConfig()
	cfg.Tuples = 20000
	r := MobileTable(cfg)
	btIdx := r.Schema.MustLookup("bt")
	hourCount := make([]int, 24)
	for _, tup := range r.Tuples {
		hourCount[(tup[btIdx].Int64()%86400)/3600]++
	}
	// Peak hours (12-16) should be busier than overnight (1-5).
	peak := hourCount[12] + hourCount[13] + hourCount[14] + hourCount[15]
	trough := hourCount[1] + hourCount[2] + hourCount[3] + hourCount[4]
	if peak <= trough {
		t.Errorf("no diurnal pattern: peak %d vs trough %d", peak, trough)
	}
}

func TestMobileNominalVolume(t *testing.T) {
	cfg := DefaultMobileConfig()
	cfg.NominalGB = 20
	r := MobileTable(cfg)
	got := float64(r.ModeledSize())
	if math.Abs(got-20e9)/20e9 > 0.01 {
		t.Errorf("modeled size %.3g, want 2e10", got)
	}
}

func TestMobileQueriesMatchTable2(t *testing.T) {
	// Table 2's structural stats: relation counts, inequality funcs,
	// join counts.
	expect := []struct {
		n     int
		rels  int
		conds int
		ineq  map[predicate.Op]bool
	}{
		{1, 3, 4, map[predicate.Op]bool{predicate.LE: true, predicate.GE: true}},
		{2, 3, 4, map[predicate.Op]bool{predicate.LE: true, predicate.GE: true, predicate.NE: true}},
		{3, 4, 4, map[predicate.Op]bool{predicate.LT: true, predicate.GT: true}},
		{4, 4, 4, map[predicate.Op]bool{predicate.LT: true, predicate.GT: true, predicate.NE: true}},
	}
	for _, e := range expect {
		q, err := MobileQuery(e.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Relations) != e.rels {
			t.Errorf("Q%d relations = %d, want %d", e.n, len(q.Relations), e.rels)
		}
		if len(q.Conditions) != e.conds {
			t.Errorf("Q%d conditions = %d, want %d", e.n, len(q.Conditions), e.conds)
		}
		got := map[predicate.Op]bool{}
		for _, op := range coreInequality(q.Conditions) {
			got[op] = true
		}
		for op := range e.ineq {
			if !got[op] {
				t.Errorf("Q%d missing inequality %v", e.n, op)
			}
		}
		for op := range got {
			if !e.ineq[op] {
				t.Errorf("Q%d unexpected inequality %v", e.n, op)
			}
		}
	}
	if _, err := MobileQuery(5); err == nil {
		t.Error("Q5 accepted")
	}
}

func coreInequality(conds []predicate.Condition) []predicate.Op {
	seen := map[predicate.Op]bool{}
	var out []predicate.Op
	for _, c := range conds {
		if c.Op != predicate.EQ && !seen[c.Op] {
			seen[c.Op] = true
			out = append(out, c.Op)
		}
	}
	return out
}

// matchesNaive runs the Hive, Pig and YSmart cascades on q and compares
// each result set with core.Naive's.
func matchesNaive(t *testing.T, q *query.Query, db *core.DB) {
	t.Helper()
	want, err := core.Naive(q, db)
	if err != nil {
		t.Fatalf("%s naive: %v", q.Name, err)
	}
	if want.Cardinality() == 0 {
		t.Logf("%s produced no rows at this scale (acceptable)", q.Name)
	}
	wantRS := relation.NewResultSet()
	wantRS.AddAll(core.CanonicalizeResult(want).Tuples)
	for _, st := range []baselines.Strategy{baselines.Hive(), baselines.Pig(), baselines.YSmart()} {
		res, err := baselines.Run(context.Background(), st, mr.DefaultConfig(), q, db, 16)
		if err != nil {
			t.Fatalf("%s %s: %v", q.Name, st.Name, err)
		}
		got := relation.NewResultSet()
		got.AddAll(core.CanonicalizeResult(res.Output).Tuples)
		if !wantRS.Equal(got) {
			t.Errorf("%s %s: %d rows, naive %d: %v", q.Name, st.Name, got.Len(), wantRS.Len(), wantRS.Diff(got, 3))
		}
	}
}

func TestMobileDBAndQueriesRun(t *testing.T) {
	cfg := DefaultMobileConfig()
	cfg.Tuples = 120
	db, err := MobileDB(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		q, err := MobileQuery(n)
		if err != nil {
			t.Fatal(err)
		}
		matchesNaive(t, q, db)
	}
}

func TestMobileTuplesFor(t *testing.T) {
	// Grows with volume, capped, smaller for 4-way queries.
	if MobileTuplesFor(1, 500) <= MobileTuplesFor(1, 20) {
		t.Error("tuples not growing with volume")
	}
	if MobileTuplesFor(3, 500) >= MobileTuplesFor(1, 500) {
		t.Error("4-way queries should use fewer tuples")
	}
	if MobileTuplesFor(1, 1e9) > 500 {
		t.Error("cap exceeded")
	}
}

func TestTPCHQueriesMatchTable3(t *testing.T) {
	expect := []struct {
		n     int
		rels  int
		conds int
		ineq  map[predicate.Op]bool
	}{
		{7, 5, 8, map[predicate.Op]bool{predicate.LE: true, predicate.GE: true}},
		{17, 3, 4, map[predicate.Op]bool{predicate.LE: true}},
		{18, 4, 4, map[predicate.Op]bool{predicate.GE: true}},
		{21, 6, 8, map[predicate.Op]bool{predicate.GE: true, predicate.NE: true}},
	}
	for _, e := range expect {
		q, err := TPCHQuery(e.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Relations) != e.rels {
			t.Errorf("Q%d relations = %d, want %d", e.n, len(q.Relations), e.rels)
		}
		if len(q.Conditions) != e.conds {
			t.Errorf("Q%d conditions = %d, want %d", e.n, len(q.Conditions), e.conds)
		}
		got := map[predicate.Op]bool{}
		for _, op := range coreInequality(q.Conditions) {
			got[op] = true
		}
		for op := range e.ineq {
			if !got[op] {
				t.Errorf("Q%d missing inequality %v", e.n, op)
			}
		}
		for op := range got {
			if !e.ineq[op] {
				t.Errorf("Q%d unexpected inequality %v", e.n, op)
			}
		}
	}
	if _, err := TPCHQuery(99); err == nil {
		t.Error("Q99 accepted")
	}
}

func TestTPCHDBRunsQueries(t *testing.T) {
	cfg := DefaultTPCHConfig()
	cfg.Scale = 1 // at 0.3, Q7 has no rows
	db, err := TPCHDB(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 17, 18, 21} {
		q, err := TPCHQuery(n)
		if err != nil {
			t.Fatal(err)
		}
		matchesNaive(t, q, db)
	}
}

func TestTPCHNominalVolume(t *testing.T) {
	cfg := DefaultTPCHConfig()
	cfg.NominalGB = 200
	db, err := TPCHDB(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, name := range []string{"nation", "supplier", "customer", "orders", "lineitem", "part"} {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(r.ModeledSize())
	}
	// The rid column added by NewDB inflates encoded size slightly
	// beyond nominal; allow 25%.
	if total < 200e9*0.95 || total > 200e9*1.3 {
		t.Errorf("total modeled = %.3g, want ~2e11", total)
	}
}

func TestFlightsDBAndQuery(t *testing.T) {
	cfg := DefaultFlightsConfig()
	cfg.FlightsPerLeg = 40
	db, err := FlightsDB(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	q, err := FlightsQuery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Relations) != 3 || len(q.Conditions) != 4 {
		t.Fatalf("query shape: %d rels %d conds", len(q.Relations), len(q.Conditions))
	}
	res, err := core.Naive(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Verify every itinerary satisfies the layover window.
	at1 := res.Schema.MustLookup("FI1_2.at")
	dt2 := res.Schema.MustLookup("FI2_3.dt")
	for _, tup := range res.Tuples {
		gap := tup[dt2].Int64() - tup[at1].Int64()
		if gap <= cfg.StayMin || gap >= cfg.StayMax {
			t.Fatalf("itinerary violates layover: gap %d", gap)
		}
	}
}

func TestFlightsValidation(t *testing.T) {
	cfg := DefaultFlightsConfig()
	cfg.Cities = 1
	if _, err := FlightsDB(cfg, 100); err == nil {
		t.Error("1 city accepted")
	}
	if _, err := FlightsQuery(cfg); err == nil {
		t.Error("1-city query accepted")
	}
	cfg = DefaultFlightsConfig()
	cfg.FlightsPerLeg = 0
	if _, err := FlightsDB(cfg, 100); err == nil {
		t.Error("0 flights accepted")
	}
	cfg = DefaultFlightsConfig()
	cfg.Cities = 2
	if _, err := FlightsQuery(cfg); err == nil {
		t.Error("2-city itinerary (no chain) accepted")
	}
}

func TestTPCHRowsFor(t *testing.T) {
	if TPCHRowsFor(7, 1000) <= TPCHRowsFor(7, 200) {
		t.Error("scale not growing with volume")
	}
	if TPCHRowsFor(21, 200) >= TPCHRowsFor(17, 200) {
		t.Error("6-way query should generate less data than 3-way")
	}
}

// TestZipfSkewKnobs: the -zipf plumbing produces measurably more
// concentrated key distributions without disturbing default datasets.
func TestZipfSkewKnobs(t *testing.T) {
	topFrac := func(vals []int64) float64 {
		counts := map[int64]int{}
		max := 0
		for _, v := range vals {
			counts[v]++
			if counts[v] > max {
				max = counts[v]
			}
		}
		return float64(max) / float64(len(vals))
	}

	// Mobile: higher exponent concentrates station codes.
	mild := DefaultMobileConfig()
	mild.Tuples = 3000
	heavy := mild
	heavy.ZipfS = 2.5
	col := func(cfg MobileConfig) []int64 {
		r := MobileTable(cfg)
		idx := r.Schema.MustLookup("bsc")
		out := make([]int64, 0, r.Cardinality())
		for _, tp := range r.Tuples {
			out = append(out, tp[idx].Int64())
		}
		return out
	}
	if mf, hf := topFrac(col(mild)), topFrac(col(heavy)); hf <= mf {
		t.Errorf("mobile zipf 2.5 not more skewed: top frac %.3f vs default %.3f", hf, mf)
	}

	// TPC-H: ZipfS skews custkey; 0 keeps the uniform default.
	ucfg := DefaultTPCHConfig()
	ucfg.Scale = 4
	zcfg := ucfg
	zcfg.ZipfS = 1.5
	custCol := func(cfg TPCHConfig) []int64 {
		db, err := TPCHDB(cfg, 100)
		if err != nil {
			t.Fatal(err)
		}
		orders, err := db.Relation("orders")
		if err != nil {
			t.Fatal(err)
		}
		idx := orders.Schema.MustLookup("custkey")
		out := make([]int64, 0, orders.Cardinality())
		for _, tp := range orders.Tuples {
			out = append(out, tp[idx].Int64())
		}
		return out
	}
	uf, zf := topFrac(custCol(ucfg)), topFrac(custCol(zcfg))
	if zf < 2*uf {
		t.Errorf("tpch zipf 1.5 custkey top frac %.3f, want >= 2x uniform %.3f", zf, uf)
	}
}

// TestMobileInternedShuffleBytes: dictionary interning must cut the
// mobile workload's shuffle volume by at least 30% — the varint
// station-name codes replace ~29-byte strings in every shuffled tuple.
// NominalGB stays 0 so VolumeMultiplier is 1 and the metric reflects
// real encoded bytes. The plain leg shuffles the same generated table,
// row ids added, that no Analyze has interned. Both legs join on bsc,
// the code bs names, not on bs itself: a Hilbert job's map side ignores
// its conditions, and a string condition needs a dictionary.
func TestMobileInternedShuffleBytes(t *testing.T) {
	cfg := DefaultMobileConfig()
	cfg.Tuples = 400
	db, err := MobileDB(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	table, err := core.EnsureRowIDs(MobileTable(cfg))
	if err != nil {
		t.Fatal(err)
	}
	run := func(interned bool) int64 {
		rels := make([]*relation.Relation, 2)
		for i, name := range []string{"t1", "t2"} {
			if !interned {
				alias := *table
				alias.Name = name
				rels[i] = &alias
				continue
			}
			r, err := db.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			rels[i] = r
		}
		conds := []predicate.Condition{
			predicate.C("t1", "bsc", predicate.EQ, "t2", "bsc"),
			predicate.C("t1", "d", predicate.LT, "t2", "d"),
		}
		job, err := core.BuildThetaJob("mobile-bs", rels, conds, 4)
		if err != nil {
			t.Fatal(err)
		}
		mcfg := mr.DefaultConfig()
		mcfg.TuplesPerMapTask = 64
		res, err := mr.Run(context.Background(), mcfg, job)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.ShuffleBytes
	}
	plain := run(false)
	coded := run(true)
	if plain <= 0 || coded <= 0 {
		t.Fatalf("no shuffle traffic: plain=%d interned=%d", plain, coded)
	}
	if float64(coded) > 0.7*float64(plain) {
		t.Errorf("interned shuffle %d bytes > 70%% of plain %d (%.1f%%)",
			coded, plain, 100*float64(coded)/float64(plain))
	}
	t.Logf("shuffle bytes: plain=%d interned=%d (%.1f%%)", plain, coded, 100*float64(coded)/float64(plain))
}
