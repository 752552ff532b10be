// Command benchmark is the repository's benchmark: seven workloads
// driven through the same public calls cmd/thetajoin and cmd/thetad
// make, each call timed from outside. See README.md.
//
// Usage (from this directory, or with `go run -C benchmark .` from the
// repository root):
//
//	go run . [-seed N] [-json out.json] [-trace-out trace.json]
//	go run . -workload NAME -seed N -seconds S -trace 0|1
//	go run . -compare a.json b.json
//
// Without -workload the whole suite runs in interleaved rounds (2 warm-up,
// 11 timed, 2 traced) and prints every end-to-end and per-layer metric.
// With -workload one workload runs for -seconds and the last line of
// standard output is the one-object summary BENCHMARK.json's contract
// asks for: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// report is the -json document and a ledger entry.
type report struct {
	Issue     int               `json:"issue"`
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
	// Claim is the performance claim the run supports. The benchmark
	// itself never makes one.
	Claim *string `json:"claim"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run only this workload and print the one-line summary (default: the whole suite in interleaved rounds)")
	seed := flag.Int64("seed", 1, "data generator seed (workloads.MobileConfig.Seed); results are pinned for 1")
	seconds := flag.Int("seconds", 0, "with -workload: measure for this many seconds instead of 11 timed rounds")
	traceMode := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics (tracer off), 1 adds traced rounds and prints the per-layer metrics")
	jsonOut := flag.String("json", "", "write the full report as JSON to `file`")
	traceOut := flag.String("trace-out", "", "write the traced rounds' Chrome trace-event JSON to `file`")
	compare := flag.Bool("compare", false, "compare two -json reports given as arguments against each end-to-end metric's bound")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	sc := schedule{seed: *seed, setups: 3, warm: 2, timed: 11, traced: 2}
	ws := suite
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("no workload %q", *name)
		}
		ws = []*workload{w}
		d := time.Duration(*seconds) * time.Second
		if *traceMode == 0 {
			sc.traced, sc.timedFor = 0, d
		} else {
			sc.timedFor, sc.tracedFor = d/2, d/2
		}
	}

	// Everything the run writes — inputs, results, spill files — stays
	// under one directory here, removed on the way out. TMPDIR points
	// there so the program's own temp files (dfs.NewBlockStore("")) do
	// too.
	dir, err := os.MkdirTemp(".", ".work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return err
	}

	results, tracer, err := runWorkloads(ws, sc, dir)
	if err != nil {
		return err
	}
	rep := &report{
		Issue: 11,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), CPU: cpuModel(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Seed:      *seed,
		Workloads: results,
	}
	if *jsonOut != "" {
		if err := writeFileWith(*jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(rep)
		}); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
	}
	if *traceOut != "" {
		if tracer == nil {
			return fmt.Errorf("-trace-out: this run has no traced rounds (use -trace 1)")
		}
		if err := writeFileWith(*traceOut, tracer.WriteJSON); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
	}

	correct := true
	for _, r := range results {
		correct = correct && r.Correct && r.Failed == 0
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", r.Name, e)
		}
	}
	if *name != "" {
		if err := printDriverLine(os.Stdout, results[0], *traceMode); err != nil {
			return err
		}
	} else {
		printReport(os.Stdout, rep)
	}
	if !correct {
		return fmt.Errorf("failed operations or self-check errors (see above)")
	}
	return nil
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printDriverLine prints the one JSON object the driver reads: every
// BENCHMARK.json end_to_end metric with -trace 0, every per_layer
// metric with -trace 1.
func printDriverLine(w io.Writer, r *workloadResult, traceMode int) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct && r.Failed == 0, r.Attempted, r.Failed, map[string]metric{}}
	if traceMode == 0 {
		for _, d := range endToEnd {
			if d.driver {
				line.Metrics[d.name] = metric{r.EndToEnd[d.name].Value, d.unit}
			}
		}
	} else {
		for _, d := range perLayer {
			line.Metrics[d.name] = metric{r.PerLayer[d.name].Value, d.unit}
		}
	}
	return json.NewEncoder(w).Encode(line)
}

// printReport renders the suite run: per workload, every end-to-end and
// per-layer metric by name with unit, sample count and quartiles.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "benchmark: seed %d, %s, nproc %d, GOMAXPROCS %d, %s\n",
		rep.Seed, rep.Env.Go, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.CPU)
	row := func(name string, s stat) {
		fmt.Fprintf(w, "  %-28s %16.6g %-6s n=%-5d [q1 %.6g, q3 %.6g]\n", name, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
	for _, r := range rep.Workloads {
		fmt.Fprintf(w, "\n%s — %d rows, hash %s, %d attempted, %d failed, correct %v\n",
			r.Name, r.Rows, r.ResultHash, r.Attempted, r.Failed, r.Correct)
		for _, d := range endToEnd {
			if s, ok := r.EndToEnd[d.name]; ok {
				row(d.name, s)
			}
		}
		fmt.Fprintln(w, "  --")
		for _, d := range perLayer {
			row(d.name, r.PerLayer[d.name])
		}
	}
	fmt.Fprintln(w, "\n\"claim\": null")
}
