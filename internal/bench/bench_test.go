package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mr"
	"repro/internal/relation"
)

func quickSuite() *Suite { return NewSuite(true) }

func TestTablePrinting(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "333") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) != 13 {
		t.Fatalf("got %d experiments", len(ids))
	}
	s := quickSuite()
	if err := s.Run("nope", &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1(t *testing.T) {
	tbl := quickSuite().Table1()
	if len(tbl.Rows) != 6 {
		t.Errorf("Table 1 has %d rows, want 6", len(tbl.Rows))
	}
}

// parseSeconds extracts the float in a cell like "123.4".
func parseSeconds(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

// Fig. 6's shape: for a large input, execution time decreases as kR
// grows (diminishing returns).
func TestFig6Shape(t *testing.T) {
	tbl, err := quickSuite().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Rows for the 100GB input appear first (quick mode: 100, 1).
	var times []float64
	for _, row := range tbl.Rows {
		if row[0] == "100GB" {
			times = append(times, parseSeconds(t, row[2]))
		}
	}
	if len(times) < 3 {
		t.Fatalf("too few 100GB rows: %v", tbl.Rows)
	}
	if times[0] <= times[len(times)-1] {
		t.Errorf("100GB: kR=2 (%v) not slower than kR=64 (%v)", times[0], times[len(times)-1])
	}
}

// Fig. 7a: the best reducer count grows with map output volume.
func TestFig7aGrowth(t *testing.T) {
	tbl, err := quickSuite().Fig7a()
	if err != nil {
		t.Fatal(err)
	}
	first, err1 := strconv.Atoi(tbl.Rows[0][1])
	last, err2 := strconv.Atoi(tbl.Rows[len(tbl.Rows)-1][1])
	if err1 != nil || err2 != nil {
		t.Fatal("unparseable kR cells")
	}
	if last <= first {
		t.Errorf("best kR did not grow: %d → %d", first, last)
	}
}

// Fig. 7b: both p and q grow with volume / parallelism.
func TestFig7bMonotone(t *testing.T) {
	tbl, err := quickSuite().Fig7b()
	if err != nil {
		t.Fatal(err)
	}
	pFirst := parseSeconds(t, tbl.Rows[0][1])
	pLast := parseSeconds(t, tbl.Rows[len(tbl.Rows)-1][1])
	if pLast <= pFirst {
		t.Errorf("p did not grow: %v → %v", pFirst, pLast)
	}
}

// Fig. 8: the analytic estimate stays within 30% of the simulation.
func TestFig8Agreement(t *testing.T) {
	tbl, err := quickSuite().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ratio := parseSeconds(t, row[3])
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("%s: estimate/sim ratio %v outside [0.7, 1.3]", row[0], ratio)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := quickSuite().Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 2 rows = %d", len(tbl.Rows))
	}
	// Q1 selectivity must exceed Q3's (equality on station+day vs the
	// 3-day ordered window).
	q1 := parseSeconds(t, tbl.Rows[0][4])
	q3 := parseSeconds(t, tbl.Rows[2][4])
	if q1 <= q3 {
		t.Errorf("Q1 sel %v not above Q3 sel %v", q1, q3)
	}
}

// The headline result: our method beats every baseline on the complex
// queries and never loses badly anywhere (quick mode runs Q1 and Q3).
func TestMobileComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiments are slow")
	}
	tbl, err := quickSuite().MobileComparison(96)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ours := parseSeconds(t, row[2])
		ysmart := parseSeconds(t, row[3])
		hive := parseSeconds(t, row[4])
		pig := parseSeconds(t, row[5])
		if ours > ysmart*1.5 {
			t.Errorf("%s %s: ours %v much slower than YSmart %v", row[0], row[1], ours, ysmart)
		}
		if hive <= ysmart*0.9 {
			t.Errorf("%s %s: Hive %v beat YSmart %v", row[0], row[1], hive, ysmart)
		}
		if pig <= hive*0.99 {
			t.Errorf("%s %s: Pig %v not slower than Hive %v", row[0], row[1], pig, hive)
		}
		if row[0] == "Q3" && ours >= ysmart {
			t.Errorf("Q3: ours %v did not beat YSmart %v", ours, ysmart)
		}
	}
}

// kP awareness: our Q3 time must degrade less than YSmart's when
// processing units drop from 96 to 64.
func TestKPAwareness(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiments are slow")
	}
	s := quickSuite()
	wide, err := s.MobileComparison(96)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := s.MobileComparison(64)
	if err != nil {
		t.Fatal(err)
	}
	// Find the Q3 rows.
	var ourRatio, ysRatio float64
	for i, row := range wide.Rows {
		if row[0] == "Q3" {
			ourRatio = parseSeconds(t, narrow.Rows[i][2]) / parseSeconds(t, row[2])
			ysRatio = parseSeconds(t, narrow.Rows[i][3]) / parseSeconds(t, row[3])
		}
	}
	if ourRatio == 0 || ysRatio == 0 {
		t.Fatal("missing Q3 rows")
	}
	if ourRatio > ysRatio*1.1 {
		t.Errorf("ours degraded more than YSmart at kP=64: %.2fx vs %.2fx", ourRatio, ysRatio)
	}
}

func TestFig11Ordering(t *testing.T) {
	tbl, err := quickSuite().Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		hive := parseSeconds(t, row[1])
		plain := parseSeconds(t, row[2])
		ours := parseSeconds(t, row[3])
		if !(plain < ours && ours < hive) {
			t.Errorf("%s: ordering violated: plain %v, ours %v, hive %v", row[0], plain, ours, hive)
		}
		if i == 0 {
			continue
		}
		// Every method scales linearly with volume: k× the gigabytes
		// costs between k/2× and 3k/2× the seconds.
		prev := tbl.Rows[i-1]
		gb := func(cell string) float64 { return parseSeconds(t, strings.TrimSuffix(cell, "GB")) }
		k := gb(row[0]) / gb(prev[0])
		for c := 1; c <= 3; c++ {
			if r := parseSeconds(t, row[c]) / parseSeconds(t, prev[c]); r < k/2 || r > 1.5*k {
				t.Errorf("%s: %s → %s (%.0f× volume) took %.1f× the time", tbl.Columns[c], prev[0], row[0], k, r)
			}
		}
	}
}

func loadRelation(n int, mult float64) *relation.Relation {
	r := relation.New("data", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Float(float64(i) / 3)})
	}
	r.VolumeMultiplier = mult
	return r
}

// loadSeconds orders the methods as Fig. 11 does at every volume, not
// only at the table's: plain upload is cheapest, our method adds the
// sampling pass, Hive's full parse costs the most.
func TestLoadMethodOrdering(t *testing.T) {
	cfg := mr.DefaultConfig()
	for _, mult := range []float64{1e6, 1e7, 5e7} {
		r := loadRelation(2000, mult)
		plain := loadSeconds(cfg, 12, r, loadPlain, 500, 1)
		hive := loadSeconds(cfg, 12, r, loadHive, 500, 1)
		ours := loadSeconds(cfg, 12, r, loadOurs, 500, 1)
		if !(plain < ours) {
			t.Errorf("mult %g: plain (%v) not cheaper than ours (%v)", mult, plain, ours)
		}
		if !(ours < hive) {
			t.Errorf("mult %g: ours (%v) not cheaper than hive (%v)", mult, ours, hive)
		}
	}
}

func TestLoadScalesLinearly(t *testing.T) {
	cfg := mr.DefaultConfig()
	small := loadSeconds(cfg, 12, loadRelation(2000, 1e6), loadOurs, 500, 1)
	big := loadSeconds(cfg, 12, loadRelation(2000, 1e7), loadOurs, 500, 1)
	if ratio := big / small; ratio < 5 || ratio > 15 {
		t.Errorf("10x volume gave %.1fx time", ratio)
	}
}

func TestTable3Shape(t *testing.T) {
	tbl, err := quickSuite().Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 3 rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] == "0.00e+00" {
			t.Errorf("%s produced an empty result", row[0])
		}
	}
}

func TestAblationPartitionShape(t *testing.T) {
	tbl, err := quickSuite().AblationPartition()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		h := parseSeconds(t, row[1])
		rm := parseSeconds(t, row[2])
		rnd := parseSeconds(t, row[3])
		if row[0] == "4" || row[0] == "32" {
			if !(h <= rm && rm <= rnd) {
				t.Errorf("kR=%s: Hilbert %v, row-major %v, random %v not ordered", row[0], h, rm, rnd)
			}
		}
	}
}

func TestAblationSchedulingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl, err := quickSuite().AblationScheduling()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		sched := parseSeconds(t, row[1])
		serial := parseSeconds(t, row[2])
		if sched > serial*1.01 {
			t.Errorf("kP=%s: scheduled %v worse than serial %v", row[0], sched, serial)
		}
	}
}

func TestAblationFeedbackShape(t *testing.T) {
	tbl, err := quickSuite().AblationFeedback()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick feedback ablation produced %d rows, want 2", len(tbl.Rows))
	}
	static, feedback := tbl.Rows[0], tbl.Rows[1]
	sBal := parseSeconds(t, static[2])
	fBal := parseSeconds(t, feedback[2])
	if fBal*1.5 > sBal {
		t.Errorf("feedback balance %v not materially better than static %v", fBal, sBal)
	}
	if static[5] != "0" || feedback[5] == "0" {
		t.Errorf("replanned counts: static %s feedback %s", static[5], feedback[5])
	}
}
