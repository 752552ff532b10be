package mr

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/relation"
)

// FaultKind enumerates the injectable fault types of a FaultPlan.
type FaultKind int

const (
	// FaultKillMap fails one map task attempt midway through its
	// input, after partial output (including partial spill runs) has
	// been produced — the partial state must be discarded, never
	// merged.
	FaultKillMap FaultKind = iota
	// FaultKillReduce fails one reduce task attempt after its shuffle
	// gather, before the merge commits anything.
	FaultKillReduce
	// FaultDelayMap stalls a map task attempt (a straggler) for Delay,
	// long enough to trip speculative execution when armed.
	FaultDelayMap
	// FaultDelayReduce stalls a reduce task attempt for Delay.
	FaultDelayReduce
	// FaultCorruptSpill flips a byte in the first spill-run frame read
	// from the chosen map task, once. The frame checksum catches it
	// and the reader fails over to a replica re-read, so a single
	// corruption is absorbed without failing the attempt.
	FaultCorruptSpill
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultKillMap:
		return "kill-map"
	case FaultKillReduce:
		return "kill-reduce"
	case FaultDelayMap:
		return "delay-map"
	case FaultDelayReduce:
		return "delay-reduce"
	case FaultCorruptSpill:
		return "corrupt-spill"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one injected event. The zero Task/Attempt target the first
// task's first attempt; negative values widen the target: Task < 0
// picks a task pseudo-randomly from the plan's seed (stable for a
// given seed, job name and task count), Attempt < 0 strikes every
// attempt of the task — the way to exhaust retries deliberately.
type Fault struct {
	Kind    FaultKind
	Job     string        // restrict to this job name ("" = every job)
	Task    int           // task ordinal; < 0 = seeded pseudo-random pick
	Attempt int           // attempt ordinal; < 0 = every attempt
	Delay   time.Duration // stall for delay faults (0 = 200ms)
}

// FaultPlan is a seeded, deterministic fault-injection schedule
// (Config.Faults). The same plan against the same job produces the
// same injected faults at any worker count: kill and delay targets are
// a pure function of (Seed, job name, task counts), and a corruption
// is consumed exactly once regardless of which reader reaches the
// frame first. Every fault except an Attempt < 0 kill is retryable,
// and the engine's contract is that results remain bit-identical under
// any plan whose faults are all retryable.
type FaultPlan struct {
	Seed   int64
	Faults []Fault
}

const defaultFaultDelay = 200 * time.Millisecond

// ParseFaultPlan parses the CLI fault-plan syntax: comma-separated
// key=value pairs, e.g.
//
//	seed=7,map-kills=2,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=300ms
//
// map-kills/reduce-kills add that many first-attempt kills of seeded
// pseudo-random tasks; stragglers add seeded map-task delays of the
// `delay` duration; corrupt-frames add one-shot spill-frame
// corruptions on seeded map tasks. Every generated fault is retryable,
// so a parsed plan never changes a result.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	var mapKills, reduceKills, stragglers, corrupt int
	delay := defaultFaultDelay
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mr: fault plan: %q is not key=value", part)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mr: fault plan: seed: %w", err)
			}
			plan.Seed = n
		case "map-kills", "reduce-kills", "stragglers", "corrupt-frames":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("mr: fault plan: %s must be a non-negative integer, got %q", k, v)
			}
			switch k {
			case "map-kills":
				mapKills = n
			case "reduce-kills":
				reduceKills = n
			case "stragglers":
				stragglers = n
			case "corrupt-frames":
				corrupt = n
			}
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("mr: fault plan: delay: %w", err)
			}
			delay = d
		default:
			return nil, fmt.Errorf("mr: fault plan: unknown key %q", k)
		}
	}
	for i := 0; i < mapKills; i++ {
		plan.Faults = append(plan.Faults, Fault{Kind: FaultKillMap, Task: -1})
	}
	for i := 0; i < reduceKills; i++ {
		plan.Faults = append(plan.Faults, Fault{Kind: FaultKillReduce, Task: -1})
	}
	for i := 0; i < stragglers; i++ {
		plan.Faults = append(plan.Faults, Fault{Kind: FaultDelayMap, Task: -1, Delay: delay})
	}
	for i := 0; i < corrupt; i++ {
		plan.Faults = append(plan.Faults, Fault{Kind: FaultCorruptSpill, Task: -1})
	}
	return plan, nil
}

// String renders the plan in the ParseFaultPlan syntax, so that for
// every plan ParseFaultPlan returns, ParseFaultPlan(p.String()) returns
// an equal one. A hand-built plan renders by the count of each kind
// (a reduce delay as a straggler); a fixed task or attempt target and a
// per-job restriction have no spelling there and are dropped.
func (p *FaultPlan) String() string {
	if p == nil {
		return "<none>"
	}
	var mapKills, reduceKills, stragglers, corrupt int
	var delay time.Duration
	for _, f := range p.Faults {
		switch f.Kind {
		case FaultKillMap:
			mapKills++
		case FaultKillReduce:
			reduceKills++
		case FaultDelayMap, FaultDelayReduce:
			stragglers++
			delay = f.Delay
		case FaultCorruptSpill:
			corrupt++
		}
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	count := func(key string, n int) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", key, n))
		}
	}
	count("map-kills", mapKills)
	count("reduce-kills", reduceKills)
	count("stragglers", stragglers)
	count("corrupt-frames", corrupt)
	if stragglers > 0 {
		parts = append(parts, "delay="+delay.String())
	}
	return strings.Join(parts, ",")
}

// ---- Per-run injector -------------------------------------------------

// Phases of task execution; injector and attempt bookkeeping index by
// these.
const (
	phaseMap = iota
	phaseReduce
	numPhases
)

func phaseName(ph int) string {
	if ph == phaseReduce {
		return "reduce"
	}
	return "map"
}

// faultTarget addresses one (phase, task, attempt) triple.
type faultTarget struct{ ph, task, attempt int }

// injector is a FaultPlan resolved against one concrete Run: seeded
// pseudo-random task picks are fixed up front (mixing the job name
// into the seed so every job of a cascade draws its own targets), so
// whether a fault fires is a pure function of (task, attempt) — the
// anchor of the fault-determinism contract. Only corruption carries
// runtime state: it is consumed exactly once, atomically, no matter
// which reader reaches the frame first.
type injector struct {
	kills    map[faultTarget]bool
	killAll  map[[2]int]bool // kill every attempt of [phase, task]
	delays   map[faultTarget]time.Duration
	delayAll map[[2]int]time.Duration
	corrupt  map[int]*atomic.Int64 // map task -> corruptions remaining
}

// newInjector resolves plan against a job with nMap map tasks and nRed
// reduce tasks. Returns nil when the plan has nothing for this job.
func newInjector(plan *FaultPlan, jobName string, nMap, nRed int) *injector {
	if plan == nil || len(plan.Faults) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(plan.Seed ^ int64(relation.NewFNV().String(jobName))))
	in := &injector{
		kills:    map[faultTarget]bool{},
		killAll:  map[[2]int]bool{},
		delays:   map[faultTarget]time.Duration{},
		delayAll: map[[2]int]time.Duration{},
		corrupt:  map[int]*atomic.Int64{},
	}
	any := false
	for _, f := range plan.Faults {
		ph, n := phaseMap, nMap
		if f.Kind == FaultKillReduce || f.Kind == FaultDelayReduce {
			ph, n = phaseReduce, nRed
		}
		task := f.Task
		if task < 0 {
			// Draw even for other jobs' faults so the stream of picks
			// stays aligned across jobs that share one plan.
			task = rng.Intn(n)
		}
		if f.Job != "" && f.Job != jobName {
			continue
		}
		if task >= n {
			continue
		}
		any = true
		switch f.Kind {
		case FaultKillMap, FaultKillReduce:
			if f.Attempt < 0 {
				in.killAll[[2]int{ph, task}] = true
			} else {
				in.kills[faultTarget{ph, task, f.Attempt}] = true
			}
		case FaultDelayMap, FaultDelayReduce:
			d := f.Delay
			if d <= 0 {
				d = defaultFaultDelay
			}
			if f.Attempt < 0 {
				in.delayAll[[2]int{ph, task}] += d
			} else {
				in.delays[faultTarget{ph, task, f.Attempt}] += d
			}
		case FaultCorruptSpill:
			c := in.corrupt[task]
			if c == nil {
				c = &atomic.Int64{}
				in.corrupt[task] = c
			}
			c.Add(1)
		}
	}
	if !any {
		return nil
	}
	return in
}

// kill reports whether the (phase, task, attempt) attempt is scheduled
// to fail. Nil-safe.
func (in *injector) kill(ph, task, attempt int) bool {
	if in == nil {
		return false
	}
	return in.killAll[[2]int{ph, task}] || in.kills[faultTarget{ph, task, attempt}]
}

// delay returns the injected straggler stall for the attempt (0 =
// none). Nil-safe.
func (in *injector) delay(ph, task, attempt int) time.Duration {
	if in == nil {
		return 0
	}
	return in.delayAll[[2]int{ph, task}] + in.delays[faultTarget{ph, task, attempt}]
}

// corruptSpill consumes one scheduled corruption of the map task's
// spill runs; at most the scheduled count of calls return true, no
// matter how many readers ask concurrently. Nil-safe.
func (in *injector) corruptSpill(task int) bool {
	if in == nil {
		return false
	}
	c := in.corrupt[task]
	if c == nil {
		return false
	}
	for {
		v := c.Load()
		if v <= 0 {
			return false
		}
		if c.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// plannedKills counts the kill attempts the plan schedules for a task
// within the attempt budget — the deterministic quantity the simulated
// clock charges as task failures (capped backoff included), regardless
// of how real attempts interleave with speculation. A kill-every-
// attempt fault burns the whole budget; the run then fails, so the
// charge never surfaces.
func (in *injector) plannedKills(ph, task int) int {
	if in == nil {
		return 0
	}
	if in.killAll[[2]int{ph, task}] {
		return maxTaskAttempts - 1
	}
	n := 0
	for a := 0; a < maxTaskAttempts-1; a++ {
		if in.kills[faultTarget{ph, task, a}] {
			n++
		}
	}
	return n
}
