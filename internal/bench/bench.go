// Package bench regenerates every table and figure of the paper's
// evaluation section (§6) on the simulated cluster: model-calibration
// plots (Fig. 6–8), data loading (Fig. 11), the mobile benchmark
// (Table 2, Fig. 9–10), the TPC-H benchmark (Table 3, Fig. 12–13) and
// the ablation studies of the design choices DESIGN.md calls out.
//
// Each experiment returns a Table whose rows mirror the series the
// paper plots; EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			pad := widths[i] - len(cell)
			fmt.Fprint(w, cell, strings.Repeat(" ", pad+2))
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Suite configures experiment execution. Quick mode trims sweeps for
// unit tests and testing.B iterations; full mode reproduces complete
// figure series.
type Suite struct {
	Cfg   mr.Config
	Quick bool
	// Seed offsets every experiment's data-generation and statistics-
	// sampling seed, so a whole suite run is reproducible from one
	// number. The default 1 reproduces the historical series exactly;
	// other values regenerate every experiment on fresh (but still
	// deterministic) data.
	Seed int64
	// Obs, when set, threads execution tracing and metrics through
	// every experiment's engine runs (see internal/obs). Nil disables
	// observability at zero cost.
	Obs *obs.Obs
}

// ctx returns the context experiments run under, carrying the suite's
// Obs when one is set.
func (s *Suite) ctx() context.Context {
	return obs.NewContext(context.Background(), s.Obs)
}

// NewSuite builds a suite around the paper's cluster configuration.
func NewSuite(quick bool) *Suite {
	cfg := mr.DefaultConfig()
	cfg.TuplesPerMapTask = 256
	return &Suite{Cfg: cfg, Quick: quick, Seed: 1}
}

// seedFor derives one experiment's seed from the suite seed: the
// default suite seed 1 maps x to itself (the pre-Seed behaviour), any
// other suite seed shifts every experiment deterministically.
func (s *Suite) seedFor(x int64) int64 { return x + (s.Seed-1)*1_000_003 }

// fmtSec formats seconds the way the paper's axes read.
func fmtSec(v float64) string { return fmt.Sprintf("%.1f", v) }

func fmtGB(v float64) string {
	if v >= 1 {
		return fmt.Sprintf("%.0fGB", v)
	}
	return fmt.Sprintf("%.1fGB", v)
}

// Table1 prints the Hadoop parameter configuration (Table 1).
func (s *Suite) Table1() *Table {
	t := &Table{
		Title:   "Table 1: Hadoop parameter configuration",
		Columns: []string{"Parameter Name", "Default", "Set"},
	}
	r := mr.PaperRates()
	t.AddRow("fs.blocksize", "64MB", fmt.Sprintf("%dMB", mr.BlockSize/1e6))
	t.AddRow("io.sort.mb", "100M", fmt.Sprintf("%dMB", r.SortBuf/1e6))
	// The two percentages shape Hadoop's in-memory sort buffer, which
	// the price list folds into SortBuf; nothing else reads them.
	t.AddRow("io.sort.record.percentage", "0.05", "0.1")
	t.AddRow("io.sort.spill.percentage", "0.8", "0.9")
	t.AddRow("io.sort.factor", "100", fmt.Sprintf("%d", r.SortFactor))
	t.AddRow("dfs.replication", "3", fmt.Sprintf("%d", mr.Replication))
	return t
}

// sampleJoinInput builds the self-join sample input used by the
// Fig. 6/8 calibration jobs: an integer-keyed table whose modeled size
// is the given nominal volume.
func sampleJoinInput(name string, tuples int, keys int, gb float64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "rid", Kind: relation.KindInt},
	))
	for i := 0; i < tuples; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(i % keys)),
			relation.Int(int64(i)),
		})
	}
	if gb > 0 && r.EncodedSize() > 0 {
		r.VolumeMultiplier = gb * 1e9 / float64(r.EncodedSize())
	}
	return r
}

// selfJoinJob groups the sample input by key — the "sample Join task
// included in Hadoop's standard release" of §6.2.
func selfJoinJob(in *relation.Relation, kr int) *mr.Job {
	out := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "pairs", Kind: relation.KindInt},
	)
	return &mr.Job{
		Name:   "sample-join",
		Inputs: []mr.Input{{Rel: in, Map: func(t relation.Tuple, emit mr.Emitter) { emit(uint64(t[0].Int64())) }}},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			n := int64(len(groups[0]))
			ctx.AddWork(n * n)
			ctx.EmitConcat(relation.Tuple{groups[0][0][0], relation.Int(n * n)})
		},
		NumReducers:  kr,
		OutputName:   "sample-out",
		OutputSchema: out,
	}
}

// Fig6 sweeps the reducer count for the sample join at four input
// volumes (500/100/10/1 GB), reporting simulated execution time.
func (s *Suite) Fig6() (*Table, error) {
	t := &Table{
		Title:   "Fig 6: sample join execution time vs reduce tasks",
		Columns: []string{"input", "kR", "time(s)"},
	}
	volumes := []float64{500, 100, 10, 1}
	krs := []int{2, 4, 8, 16, 24, 32, 48, 64}
	if s.Quick {
		volumes = []float64{100, 1}
		krs = []int{2, 8, 32, 64}
	}
	for _, gb := range volumes {
		in := sampleJoinInput("sample", 2048, 512, gb)
		for _, kr := range krs {
			res, err := mr.Run(s.ctx(), s.Cfg, selfJoinJob(in, kr))
			if err != nil {
				return nil, err
			}
			t.AddRow(fmtGB(gb), fmt.Sprintf("%d", kr), fmtSec(res.Metrics.Sim.Total))
		}
	}
	return t, nil
}

// Fig7a reports the model's best reducer count for map output volumes
// 1–200 GB plus the paper's fitting-curve form kR ∝ sqrt(volume).
func (s *Suite) Fig7a() (*Table, error) {
	t := &Table{
		Title:   "Fig 7a: best kR vs map output volume",
		Columns: []string{"mapOutput", "best kR", "fit kR"},
	}
	r := mr.PaperRates()
	volumes := []float64{1, 5, 10, 25, 50, 100, 150, 200}
	if s.Quick {
		volumes = []float64{1, 25, 200}
	}
	// Calibrate the fit constant on the largest volume.
	largest := volumes[len(volumes)-1]
	bigBest, err := cost.BestReducers(r, fig7Profile(s.Cfg, largest), 512)
	if err != nil {
		return nil, err
	}
	fitC := float64(bigBest.N) / sqrt(largest)
	for _, gb := range volumes {
		best, err := cost.BestReducers(r, fig7Profile(s.Cfg, gb), 512)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtGB(gb), fmt.Sprintf("%d", best.N), fmt.Sprintf("%.0f", fitC*sqrt(gb)))
	}
	return t, nil
}

func fig7Profile(cfg mr.Config, outGB float64) cost.JobProfile {
	inBytes := int64(outGB * 1e9) // alpha=1 sample join: output ≈ input
	mt := int(inBytes / mr.BlockSize)
	if mt < 1 {
		mt = 1
	}
	return cost.JobProfile{
		InputBytes: inBytes,
		MapTasks:   mt,
		MapSlots:   cfg.MapSlots,
		Alpha:      1,
		Beta:       0.05,
	}
}

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Fig7b reports the calibrated p (spill) and q (connection) variables
// across map output volumes, as the paper plots on log-log axes.
func (s *Suite) Fig7b() (*Table, error) {
	t := &Table{
		Title:   "Fig 7b: p and q vs map output volume",
		Columns: []string{"mapOutput", "p (s/MB)", "q (s/conn)"},
	}
	r := mr.PaperRates()
	volumes := []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500}
	if s.Quick {
		volumes = []float64{0.1, 10, 500}
	}
	for _, gb := range volumes {
		bytes := int64(gb * 1e9)
		best, err := cost.BestReducers(r, fig7Profile(s.Cfg, gb), 512)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtGB(gb),
			fmt.Sprintf("%.4f", r.P(bytes)*1e6),
			fmt.Sprintf("%.4f", r.Q(best.N)))
	}
	return t, nil
}

// Fig8 validates the cost model: the analytic Eq. 1–6 estimate against
// the event-driven simulated execution time of a real self-join job,
// across map output sizes.
func (s *Suite) Fig8() (*Table, error) {
	t := &Table{
		Title:   "Fig 8: cost model validation (self-join)",
		Columns: []string{"mapOutput", "simulated(s)", "estimated(s)", "ratio"},
	}
	r := mr.PaperRates()
	volumes := []float64{0.1, 0.5, 1, 5, 10, 50, 100}
	if s.Quick {
		volumes = []float64{0.5, 10, 100}
	}
	for _, gb := range volumes {
		in := sampleJoinInput("mob-self", 2048, 256, gb)
		kr := 16
		res, err := mr.Run(s.ctx(), s.Cfg, selfJoinJob(in, kr))
		if err != nil {
			return nil, err
		}
		prof := cost.ProfileFromMetrics(res.Metrics, s.Cfg)
		est, err := cost.Evaluate(r, prof, kr)
		if err != nil {
			return nil, err
		}
		sim := res.Metrics.Sim.Total
		t.AddRow(fmtGB(gb), fmtSec(sim), fmtSec(est.T), fmt.Sprintf("%.2f", est.T/sim))
	}
	return t, nil
}
