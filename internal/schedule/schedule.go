// Package schedule places a set of MapReduce jobs (malleable parallel
// tasks) onto k_P bounded processing units, minimising the makespan —
// the C(T) estimation of §4.2.
//
// Each task carries a time-vs-units profile derived from the cost
// model: T_j(k) is the job's estimated makespan when granted k reduce
// slots. The paper invokes Jansen's asymptotic FPTAS for malleable
// scheduling [19] as a black box; this package substitutes the classic
// practical two-phase scheme with the same structure: (1) binary-search
// a target deadline, allotting each task the fewest units that meet
// it, then (2) dependency-aware list scheduling of the allotted tasks
// over the k_P units. On small instances tests verify proximity to the
// brute-force optimum.
package schedule

import (
	"fmt"
	"math"
	"sort"
)

// Task is one malleable job. Profile[k-1] is the estimated execution
// time when the task runs with k processing units; profiles must be
// non-increasing in k (more units never hurt, the planner clamps any
// upturn — within a job the engine simply would not use the extra
// slots). DependsOn lists task IDs that must finish first (merge steps
// depend on the jobs whose outputs they combine).
type Task struct {
	ID        string
	Profile   []float64
	DependsOn []string
}

// Validate reports task specification errors.
func (t Task) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("schedule: task with empty ID")
	}
	if len(t.Profile) == 0 {
		return fmt.Errorf("schedule: task %s has empty profile", t.ID)
	}
	for k, v := range t.Profile {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("schedule: task %s profile[%d] = %v", t.ID, k, v)
		}
	}
	return nil
}

// bestTime returns the minimum time over allotments ≤ maxUnits, and
// the smallest allotment achieving it.
func (t Task) bestTime(maxUnits int) (float64, int) {
	best, units := math.Inf(1), 1
	for k := 1; k <= len(t.Profile) && k <= maxUnits; k++ {
		if t.Profile[k-1] < best {
			best = t.Profile[k-1]
			units = k
		}
	}
	return best, units
}

// minUnitsFor returns the smallest allotment whose time ≤ deadline,
// or 0 when none exists within maxUnits.
func (t Task) minUnitsFor(deadline float64, maxUnits int) int {
	for k := 1; k <= len(t.Profile) && k <= maxUnits; k++ {
		if t.Profile[k-1] <= deadline {
			return k
		}
	}
	return 0
}

// Placement records one scheduled task. Beyond the report fields
// (start, finish, units) it carries what an executor needs to drive
// the task for real: the IDs that must complete first and the wave
// ordinal the task starts in.
type Placement struct {
	TaskID string
	Start  float64
	Finish float64
	Units  int

	// DependsOn lists the task IDs that must finish before this task
	// may start (copied from the task specification).
	DependsOn []string
	// Wave is the ordinal of this placement's start time among the
	// distinct start times of the plan: every task in wave 0 starts at
	// t=0, wave w+1 tasks start when some wave-≤w task frees units or
	// satisfies a dependency.
	Wave int
}

// Plan is a complete schedule. Placements are finalized in execution
// order — ascending start time, ties broken by task ID — so a driver
// can dispatch them front to back, gating each on free units and on
// its DependsOn set.
type Plan struct {
	Placements []Placement
	Makespan   float64
}

// Placement returns the placement for a task ID.
func (p *Plan) Placement(id string) (Placement, bool) {
	for _, pl := range p.Placements {
		if pl.TaskID == id {
			return pl, true
		}
	}
	return Placement{}, false
}

// ExecutionOrder returns the placements in dispatch order: ascending
// start time, ties broken by task ID. The slice is a copy; callers may
// reorder it.
func (p *Plan) ExecutionOrder() []Placement {
	out := append([]Placement(nil), p.Placements...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].TaskID < out[j].TaskID
	})
	return out
}

// finalize annotates a freshly computed plan with the executable
// structure: dependency lists from the task specs and wave ordinals
// from the distinct start times, then orders placements for dispatch.
func (p *Plan) finalize(byID map[string]*Task) {
	sort.Slice(p.Placements, func(i, j int) bool {
		if p.Placements[i].Start != p.Placements[j].Start {
			return p.Placements[i].Start < p.Placements[j].Start
		}
		return p.Placements[i].TaskID < p.Placements[j].TaskID
	})
	const eps = 1e-9
	wave := -1
	prevStart := math.Inf(-1)
	for i := range p.Placements {
		pl := &p.Placements[i]
		if t := byID[pl.TaskID]; t != nil {
			pl.DependsOn = append([]string(nil), t.DependsOn...)
		}
		if pl.Start > prevStart+eps {
			wave++
			prevStart = pl.Start
		}
		pl.Wave = wave
	}
}

// Schedule computes an execution plan for the tasks on kP units.
func Schedule(tasks []Task, kP int) (*Plan, error) {
	if kP < 1 {
		return nil, fmt.Errorf("schedule: kP must be >= 1, got %d", kP)
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("schedule: no tasks")
	}
	byID := make(map[string]*Task, len(tasks))
	for i := range tasks {
		if err := tasks[i].Validate(); err != nil {
			return nil, err
		}
		if _, dup := byID[tasks[i].ID]; dup {
			return nil, fmt.Errorf("schedule: duplicate task ID %q", tasks[i].ID)
		}
		byID[tasks[i].ID] = &tasks[i]
	}
	for _, t := range tasks {
		for _, d := range t.DependsOn {
			if _, ok := byID[d]; !ok {
				return nil, fmt.Errorf("schedule: task %s depends on unknown %q", t.ID, d)
			}
		}
	}
	if cyclic(tasks) {
		return nil, fmt.Errorf("schedule: dependency cycle")
	}

	// Candidate deadlines: every profile entry (the makespan is always
	// determined by some task's profile value composition; scanning
	// these plus a few scaled variants approximates the continuous
	// search well).
	deadlineSet := map[float64]bool{}
	for _, t := range tasks {
		for k := 1; k <= len(t.Profile) && k <= kP; k++ {
			deadlineSet[t.Profile[k-1]] = true
		}
	}
	var deadlines []float64
	for d := range deadlineSet {
		deadlines = append(deadlines, d)
	}
	sort.Float64s(deadlines)

	var best *Plan
	for _, d := range deadlines {
		plan, ok := tryDeadline(tasks, byID, kP, d)
		if !ok {
			continue
		}
		if best == nil || plan.Makespan < best.Makespan {
			best = plan
		}
	}
	// Fallback: fastest allotment per task regardless of deadline.
	plan, ok := tryDeadline(tasks, byID, kP, math.Inf(1))
	if ok && (best == nil || plan.Makespan < best.Makespan) {
		best = plan
	}
	if best == nil {
		return nil, fmt.Errorf("schedule: no feasible plan (is every profile within kP units?)")
	}
	best.finalize(byID)
	return best, nil
}

func cyclic(tasks []Task) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(tasks))
	adj := make(map[string][]string, len(tasks))
	for _, t := range tasks {
		adj[t.ID] = t.DependsOn
	}
	var visit func(string) bool
	visit = func(v string) bool {
		color[v] = grey
		for _, w := range adj[v] {
			switch color[w] {
			case grey:
				return true
			case white:
				if visit(w) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for _, t := range tasks {
		if color[t.ID] == white && visit(t.ID) {
			return true
		}
	}
	return false
}

// tryDeadline allots each task its minimal units meeting the deadline
// (or its overall best when the deadline is unreachable), then
// list-schedules respecting dependencies and the unit bound.
func tryDeadline(tasks []Task, byID map[string]*Task, kP int, deadline float64) (*Plan, bool) {
	type allotted struct {
		task  *Task
		units int
		time  float64
	}
	items := make([]allotted, 0, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		u := t.minUnitsFor(deadline, kP)
		if u == 0 {
			tm, bu := t.bestTime(kP)
			if math.IsInf(tm, 1) {
				return nil, false
			}
			u = bu
		}
		items = append(items, allotted{task: t, units: u, time: t.Profile[min(u, len(t.Profile))-1]})
	}
	done := make(map[string]float64, len(items)) // finish times
	scheduled := make(map[string]bool, len(items))
	var placements []Placement
	free := kP
	now := 0.0
	running := []Placement{}
	var makespan float64

	for len(done) < len(items) {
		// Start every ready task that fits, longest first.
		var ready []int
		for i, it := range items {
			if scheduled[it.task.ID] {
				continue
			}
			ok := true
			for _, d := range it.task.DependsOn {
				if _, fin := done[d]; !fin {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, i)
			}
		}
		sort.Slice(ready, func(a, b int) bool {
			if items[ready[a]].time != items[ready[b]].time {
				return items[ready[a]].time > items[ready[b]].time
			}
			return items[ready[a]].task.ID < items[ready[b]].task.ID
		})
		startedAny := false
		for _, i := range ready {
			it := items[i]
			if it.units <= free {
				// Dependencies may finish later than `now` was advanced
				// to; start at the max of now and dep finishes.
				start := now
				for _, d := range it.task.DependsOn {
					if done[d] > start {
						start = done[d]
					}
				}
				if start > now {
					continue // becomes ready later; wait for clock
				}
				p := Placement{TaskID: it.task.ID, Start: now, Finish: now + it.time, Units: it.units}
				placements = append(placements, p)
				running = append(running, p)
				scheduled[it.task.ID] = true
				free -= it.units
				startedAny = true
			}
		}
		if len(running) == 0 {
			if !startedAny {
				// Deadlock should be impossible (acyclic, validated).
				return nil, false
			}
			continue
		}
		// Advance to the earliest finish.
		next := math.Inf(1)
		for _, r := range running {
			if r.Finish < next {
				next = r.Finish
			}
		}
		now = next
		var still []Placement
		for _, r := range running {
			if r.Finish <= now+1e-12 {
				done[r.TaskID] = r.Finish
				free += r.Units
				if r.Finish > makespan {
					makespan = r.Finish
				}
			} else {
				still = append(still, r)
			}
		}
		running = still
	}
	return &Plan{Placements: placements, Makespan: makespan}, true
}
