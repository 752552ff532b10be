// Command thetabench regenerates the paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	thetabench [-quick] [-cpuprofile f] [-memprofile f] \
//	           [-trace f] [-metrics f] [-pprof addr] [experiment ...]
//
// With no arguments every experiment runs in paper order. Experiment
// ids: table1 fig6 fig7a fig7b fig8 table2 fig9 fig10 fig11 table3
// fig12 fig13 ablation.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// selected experiments (inspect with `go tool pprof`), so performance
// PRs can show where the wall-clock goes. -trace records execution
// spans (map tasks, shuffle merges, reducers, plan waves, merges) as
// Chrome trace-event JSON — load the file at ui.perfetto.dev.
// -metrics exports the structured counters/histograms as JSON, and
// -pprof serves the live net/http/pprof endpoints while the run lasts.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	seed := flag.Int64("seed", 1, "suite seed: offsets every experiment's data and sampling seeds (1 = the paper series)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to `file`")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the selected experiments to `file` (open in Perfetto)")
	metricsOut := flag.String("metrics", "", "write the structured metrics registry as JSON to `file`")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060) for the duration of the run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: thetabench [-quick] [-list] [-seed N] [-cpuprofile f] [-memprofile f] [-trace f] [-metrics f] [-pprof addr] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(bench.Experiments(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	// stopCPU finishes the CPU profile; called on the error path too,
	// because os.Exit skips defers and a profile without its footer is
	// unreadable — and a failing run is exactly the one worth profiling.
	stopCPU := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "thetabench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "thetabench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopped := false
		stopCPU = func() {
			if stopped {
				return
			}
			stopped = true
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopCPU()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "thetabench: -pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "[pprof listening on http://%s/debug/pprof/]\n", *pprofAddr)
	}
	suite := bench.NewSuite(*quick)
	suite.Seed = *seed
	// Observability sinks: one tracer and one metrics registry for the
	// whole run, so the export totals every selected experiment.
	if *traceOut != "" || *metricsOut != "" {
		suite.Obs = &obs.Obs{Metrics: obs.NewRegistry()}
		if *traceOut != "" {
			suite.Obs.Tracer = obs.NewTracer()
		}
	}
	// writeObs flushes the trace/metrics files; like stopCPU it runs on
	// the error path too — a failing experiment is worth inspecting.
	writeObs := func() {
		if suite.Obs == nil {
			return
		}
		if *traceOut != "" {
			if err := writeFileWith(*traceOut, suite.Obs.Tracer.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "thetabench: -trace: %v\n", err)
			}
		}
		if *metricsOut != "" {
			if err := writeFileWith(*metricsOut, suite.Obs.Metrics.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "thetabench: -metrics: %v\n", err)
			}
		}
		suite.Obs = nil
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = bench.Experiments()
	}
	for _, id := range ids {
		start := time.Now()
		if err := suite.Run(id, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "thetabench: %s: %v\n", id, err)
			stopCPU()
			writeObs()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
	writeObs()
	if *memprofile != "" {
		// Finalize the CPU profile first: CPU profiling should not
		// overlap the heap snapshot, and the os.Exit error paths below
		// would otherwise skip the deferred stop and truncate it.
		stopCPU()
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "thetabench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // materialize retained allocations before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "thetabench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeFileWith creates path and streams write into it, returning the
// first error from create, write or close.
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
