package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
	"repro/internal/skew"
)

var update = flag.Bool("update", false, "rewrite testdata/skew_routing.golden from the current routers")

// TestSkewRoutingGolden pins where hot-key routing sends the skew-aware
// jobs of TestSkewEquiJoinBalance, TestSkewShareGridBalance,
// TestCompositeSkewSplit and TestSkewExecutionDeterminism: the bytes
// each reducer reads and writes. A refactor of the routers must leave
// every line unchanged; only an intended change of placement may
// rewrite the file (-update).
func TestSkewRoutingGolden(t *testing.T) {
	equi := predicate.Conjunction{predicate.C("L", "k", predicate.EQ, "R", "k")}
	composite := predicate.Conjunction{
		predicate.C("L", "k1", predicate.EQ, "R", "k1"),
		predicate.C("L", "k2", predicate.EQ, "R", "k2"),
	}
	gridLE := predicate.Conjunction{equi[0], predicate.C("L", "v", predicate.LE, "R", "v")}
	gridGE := predicate.Conjunction{equi[0], predicate.C("L", "v", predicate.GE, "R", "v")}
	cases := []struct {
		name  string
		l, r  *relation.Relation
		kind  JobKind
		conds predicate.Conjunction
		kr    int
	}{
		{"equi-skew", zipfKeyRelation("L", 4000, 1.2, 1000, 21), zipfKeyRelation("R", 800, 1.2, 1000, 22), KindHashEqui, equi, 16},
		{"grid-skew", zipfKeyRelation("L", 3000, 1.2, 1000, 31), zipfKeyRelation("R", 600, 1.2, 1000, 32), KindShareGrid, gridLE, 16},
		{"comp-skew", compositeKeyRelation("L", 3000, 0.3, 81), compositeKeyRelation("R", 600, 0.3, 82), KindHashEqui, composite, 16},
		{"dequi", zipfKeyRelation("L", 1500, 1.3, 500, 41), zipfKeyRelation("R", 400, 1.3, 500, 42), KindHashEqui, equi, 12},
		{"dgrid", zipfKeyRelation("L", 1500, 1.3, 500, 41), zipfKeyRelation("R", 400, 1.3, 500, 42), KindShareGrid, gridGE, 12},
	}
	var got bytes.Buffer
	for _, tc := range cases {
		db := newTestDB(t, tc.l, tc.r)
		plan := SkewPlanFor(db.Catalog, tc.kind, tc.conds, tc.kr, skew.DefaultThreshold)
		if plan == nil {
			t.Fatalf("%s: no skew plan", tc.name)
		}
		l, err := db.Relation("L")
		if err != nil {
			t.Fatal(err)
		}
		r, err := db.Relation("R")
		if err != nil {
			t.Fatal(err)
		}
		var job *mr.Job
		if tc.kind == KindHashEqui {
			job, err = BuildHashEquiJob(tc.name, l, r, tc.conds, tc.kr, plan)
		} else {
			job, err = BuildShareGridJob(tc.name, []*relation.Relation{l, r}, tc.conds, tc.kr, plan)
		}
		if err != nil {
			t.Fatal(err)
		}
		m := runJob(t, job).Metrics
		fmt.Fprintf(&got, "%s in=%v out=%v\n", tc.name, m.ReducerInputBytes, m.ReducerOutputBytes)
	}
	path := filepath.Join("testdata", "skew_routing.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("reducer loads differ from %s (run with -update after checking the change is intended)\n--- got ---\n%s", path, got.Bytes())
	}
}
