package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden and testdata/model.golden from the current code")

// TestQuickTablesGolden renders every experiment of `thetabench -quick`
// and compares the text with testdata/quick.golden: the paper's tables
// keep their shape, to the printed digit. Every cell is a modeled
// quantity or a deterministic count, so the file does not depend on the
// machine or its worker count. Regenerate with
// `go test ./internal/bench -run TestQuickTablesGolden -update`.
func TestQuickTablesGolden(t *testing.T) {
	s := NewSuite(true)
	var got bytes.Buffer
	for _, id := range Experiments() {
		tables, err := s.Tables(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			tb.Fprint(&got)
		}
	}
	checkGolden(t, "quick.golden", got.Bytes())
}

// TestModelGolden pins, at full float64 precision, the modeled values
// behind the quick cells of Fig. 6 (simulated seconds), Fig. 7b (p and
// q) and Fig. 8 (simulated and estimated seconds), so a reassociated
// cost or simulator formula shows up even where quick.golden's rounding
// would hide it. The loops mirror the figures' quick sweeps. Regenerate
// with `go test ./internal/bench -run TestModelGolden -update`.
func TestModelGolden(t *testing.T) {
	s := NewSuite(true)
	r := mr.PaperRates()
	var got bytes.Buffer
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, gb := range []float64{100, 1} {
		in := sampleJoinInput("sample", 2048, 512, gb)
		for _, kr := range []int{2, 8, 32, 64} {
			res, err := mr.Run(s.ctx(), s.Cfg, selfJoinJob(in, kr))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "fig6 gb=%v kr=%d sim=%s\n", gb, kr, g(res.Metrics.Sim.Total))
		}
	}
	for _, gb := range []float64{0.1, 10, 500} {
		best, err := cost.BestReducers(r, fig7Profile(s.Cfg, gb), 512)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "fig7b gb=%v p=%s q=%s\n", gb, g(r.P(int64(gb*1e9))), g(r.Q(best.N)))
	}
	for _, gb := range []float64{0.5, 10, 100} {
		res, err := mr.Run(s.ctx(), s.Cfg, selfJoinJob(sampleJoinInput("mob-self", 2048, 256, gb), 16))
		if err != nil {
			t.Fatal(err)
		}
		est, err := cost.Evaluate(r, cost.ProfileFromMetrics(res.Metrics, s.Cfg), 16)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "fig8 gb=%v sim=%s est=%s\n", gb, g(res.Metrics.Sim.Total), g(est.T))
	}
	checkGolden(t, "model.golden", got.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update after checking the change is intended)\n--- got ---\n%s", path, got)
	}
}
