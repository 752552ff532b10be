package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
)

// instance is a set-up workload, ready to run operation blocks.
type instance interface {
	// run executes one block: one query (batch) or servedBlock requests.
	run(round int) *sample
	// trace switches the instance to traced rounds: the program gets o
	// through its context (or its service), and the benchmark's
	// boundary spans go to shards of o's tracer.
	trace(o *obs.Obs) error
	close()
}

// schedule says how much of each phase a run does. Work is issued in
// rounds — one block of every workload per round — so that each
// workload's samples span the whole run and the host's slow speed drift
// lands on all of them alike.
type schedule struct {
	seed int64
	// maxCalls caps the generated calls rows (the smoke test's tiny
	// scale); 0 runs the workloads at full scale, where pinned results
	// and planner shapes are asserted.
	maxCalls int
	setups   int
	warm     int
	// Timed (tracer off) and traced rounds run to a count, or, when the
	// duration is set, until it has elapsed.
	timed, traced       int
	timedFor, tracedFor time.Duration
}

func (sc schedule) fullScale() bool { return sc.maxCalls == 0 }

// workloadRun collects one workload's samples.
type workloadRun struct {
	w                   *workload
	inst                instance
	setupS              []float64
	liveHeapMB          []float64
	warm, timed, traced []*sample
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measure runs one block from a collected heap and reads the process's
// CPU time and allocation counters around it.
func measure(inst instance, round int) *sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	s := inst.run(round)
	s.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.mallocs = float64(m1.Mallocs - m0.Mallocs)
	return s
}

// liveHeap reads the heap that survives a collection while the block's
// database and result (or the resident service) are still referenced.
func liveHeap(s *sample) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(s.keep)
	return float64(m.HeapAlloc) / 1e6
}

// setup prepares one workload: generate, write CSV, oracle cross-check
// and, for the served workload, start the service and warm its cache.
func setup(w *workload, sc schedule, dir string) (instance, error) {
	calls := w.calls
	if sc.maxCalls > 0 {
		calls = min(calls, sc.maxCalls)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.served {
		return setupServed(w, sc.seed, calls, dir)
	}
	return setupBatch(w, sc.seed, calls, dir)
}

// runWorkloads sets up the workloads and drives them through warm-up,
// timed and traced rounds. Files go under dir. The tracer is nil when
// the schedule has no traced rounds.
func runWorkloads(ws []*workload, sc schedule, dir string) ([]*workloadResult, *obs.Tracer, error) {
	runs := make([]*workloadRun, len(ws))
	defer func() {
		for _, r := range runs {
			if r != nil && r.inst != nil {
				r.inst.close()
			}
		}
	}()
	for i, w := range ws {
		r := &workloadRun{w: w}
		runs[i] = r
		// Set-up repeats so that setup_s is a median; the last one stays.
		for k := 0; k < sc.setups; k++ {
			if r.inst != nil {
				r.inst.close()
				r.inst = nil
			}
			sub := filepath.Join(dir, fmt.Sprintf("%s-%d", w.name, k))
			runtime.GC()
			t0 := time.Now()
			inst, err := setup(w, sc, sub)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			r.setupS = append(r.setupS, time.Since(t0).Seconds())
			r.inst = inst
		}
	}

	round := 0
	// phase runs rounds to a count or, when d is set, until d has elapsed.
	phase := func(count int, d time.Duration, add func(*workloadRun, *sample)) {
		start := time.Now()
		for k := 0; ; k++ {
			if d > 0 {
				if time.Since(start) >= d {
					return
				}
			} else if k >= count {
				return
			}
			for _, r := range runs {
				s := measure(r.inst, round)
				add(r, s)
				s.keep = nil
			}
			round++
		}
	}

	phase(sc.warm, 0, func(r *workloadRun, s *sample) {
		r.liveHeapMB = append(r.liveHeapMB, liveHeap(s))
		r.warm = append(r.warm, s)
	})
	phase(sc.timed, sc.timedFor, func(r *workloadRun, s *sample) { r.timed = append(r.timed, s) })

	var tracer *obs.Tracer
	if sc.traced > 0 || sc.tracedFor > 0 {
		tracer = obs.NewTracer()
		o := &obs.Obs{Tracer: tracer, Metrics: obs.NewRegistry()}
		for _, r := range runs {
			if err := r.inst.trace(o); err != nil {
				return nil, nil, fmt.Errorf("%s: start tracing: %w", r.w.name, err)
			}
		}
		phase(sc.traced, sc.tracedFor, func(r *workloadRun, s *sample) { r.traced = append(r.traced, s) })
	}
	// The services drain here, so every shard's owner has finished
	// before the tracer is read.
	for _, r := range runs {
		r.inst.close()
		r.inst = nil
	}

	spans := traceStats(tracer.Events())
	results := make([]*workloadResult, len(runs))
	for i, r := range runs {
		results[i] = aggregate(r, spans[r.w.name], sc)
	}
	return results, tracer, nil
}
