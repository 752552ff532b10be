package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// benchmarkJSON is BENCHMARK.json as the tables in this package define
// it; the file at the repository root is its golden copy.
func benchmarkJSON() []byte {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eDoc struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []e2eDoc      `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
	}
	for _, w := range suite {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.name, w.why})
	}
	for _, d := range endToEnd {
		if d.driver {
			doc.EndToEnd = append(doc.EndToEnd, e2eDoc{d.name, d.unit, d.better, d.bound})
		}
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables the program
// reports from in step, and holds both to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON()
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of step with the tables in this package; run `go test -run TestBenchmarkJSON -update`", path)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range suite {
		check(w.name, "")
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		check(d.name, d.unit)
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		check(d.name, d.unit)
	}
}

// TestInteractions checks that the machine-readable interaction table
// names only metrics and workloads that exist, and every per-layer
// metric.
func TestInteractions(t *testing.T) {
	data, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Layer       []string `json:"layer_metrics"`
		EndToEnd    []string `json:"should_move"`
		On          []string `json:"on"`
		MustNotMove []string `json:"must_not_move_on"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	layers, e2e := map[string]bool{}, map[string]bool{}
	for _, d := range perLayer {
		layers[d.name] = true
	}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	covered := map[string]bool{}
	for i, r := range rows {
		for _, n := range r.Layer {
			if !layers[n] {
				t.Errorf("row %d: no per-layer metric %q", i, n)
			}
			covered[n] = true
		}
		for _, n := range r.EndToEnd {
			if !e2e[n] {
				t.Errorf("row %d: no end-to-end metric %q", i, n)
			}
		}
		for _, n := range append(append([]string(nil), r.On...), r.MustNotMove...) {
			if findWorkload(n) == nil {
				t.Errorf("row %d: no workload %q", i, n)
			}
		}
	}
	for _, d := range perLayer {
		if !covered[d.name] {
			t.Errorf("interactions.json does not say what %s should move", d.name)
		}
	}
}

// TestSmoke runs every workload at a tiny scale — one warm-up, one timed
// and one traced round — and checks what the full run promises: no
// failed operation or self-check, every BENCHMARK.json metric emitted
// under its name, boundary spans covering the query, and a trace that
// cmd/tracecheck accepts.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	sc := schedule{seed: 1, maxCalls: 200, setups: 1, warm: 1, timed: 1, traced: 1}
	results, tracer, err := runWorkloads(suite, sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(suite) {
		t.Fatalf("%d results for %d workloads", len(results), len(suite))
	}
	for _, r := range results {
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed, errors %v", r.Name, r.Failed, r.Attempted, r.Errors)
		}
		if c := r.layer("bench.span_coverage"); c < 0.98 {
			t.Errorf("%s: bench.span_coverage %.4f < 0.98", r.Name, c)
		}
		if r.layer("obs.trace_events") == 0 {
			t.Errorf("%s: the traced round recorded no events", r.Name)
		}
		// Both driver lines carry exactly BENCHMARK.json's names.
		for mode, names := range [][]string{driverE2ENames(), layerNames()} {
			var buf bytes.Buffer
			if err := printDriverLine(&buf, r, mode); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatalf("%s: -trace %d line is not JSON: %v", r.Name, mode, err)
			}
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("%s: -trace %d line reports correct=%v attempted=%d", r.Name, mode, line.Correct, line.Attempted)
			}
			if len(line.Metrics) != len(names) {
				t.Errorf("%s: -trace %d line has %d metrics, want %d", r.Name, mode, len(line.Metrics), len(names))
			}
			for _, n := range names {
				if m, ok := line.Metrics[n]; !ok || m.Value == nil || m.Unit == "" {
					t.Errorf("%s: -trace %d line lacks %s", r.Name, mode, n)
				}
			}
		}
	}

	tracePath := filepath.Join(dir, "trace.json")
	if err := writeFileWith(tracePath, tracer.WriteJSON); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "run", "repro/cmd/tracecheck", tracePath).CombinedOutput(); err != nil {
		t.Errorf("cmd/tracecheck rejects the trace: %v\n%s", err, out)
	}
}

func driverE2ENames() []string {
	var names []string
	for _, d := range endToEnd {
		if d.driver {
			names = append(names, d.name)
		}
	}
	return names
}

func layerNames() []string {
	var names []string
	for _, d := range perLayer {
		names = append(names, d.name)
	}
	return names
}

func TestWorsening(t *testing.T) {
	lowerM := e2eDef{name: "query_s_p50", better: lower, bound: 0.25}
	higherM := e2eDef{name: "queries_per_s", better: higher, bound: 0.25}
	setupM := e2eDef{name: "setup_s", better: lower, bound: 0.25}
	exact := e2eDef{name: "failed_share", better: lower}
	for _, c := range []struct {
		d    e2eDef
		a, b float64
		want float64
	}{
		{lowerM, 1, 1.3, 0.3},
		{lowerM, 1, 0.5, -0.5},
		{higherM, 10, 7, 0.3},
		{higherM, 10, 12, -0.2},
		{setupM, 0.02, 0.06, 0}, // both under the floor
		{setupM, 0.1, 0.2, 1},
		{exact, 0, 0, 0},
		{exact, 0, 0.01, 1},
	} {
		if got := worsening(c.d, c.a, c.b); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

func TestTraceStats(t *testing.T) {
	x := func(name string, ts, dur int64, args map[string]any) obs.TraceEvent {
		return obs.TraceEvent{Name: name, Ph: "X", Ts: ts, Dur: dur, Args: args}
	}
	events := []obs.TraceEvent{
		x("bench.query", 0, 1000, map[string]any{"workload": "w"}),
		x("execute", 100, 800, nil),
		x("job", 150, 300, nil),
		x("job", 300, 300, nil), // overlaps the first: union is [150, 600)
		x("map", 160, 50, nil),
		x("map", 170, 70, nil),
		x("plan-merge", 700, 100, nil),
		x("map", 5000, 99, nil), // outside every window
	}
	st := traceStats(events)["w"]
	if st.ops != 1 {
		t.Fatalf("ops = %d, want 1", st.ops)
	}
	if got, want := st.perOp["mr.map_busy_s"], 120e-6; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("mr.map_busy_s = %v, want %v", got, want)
	}
	if got, want := st.perOp["core.execute_self_s"], 250e-6; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("core.execute_self_s = %v, want %v", got, want)
	}
	if got := st.perOp["obs.trace_events"]; got != 7 {
		t.Errorf("obs.trace_events = %v, want 7", got)
	}
}
