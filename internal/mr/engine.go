package mr

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// SimTime is the simulated-clock breakdown of one job run, mirroring
// the J_M / J_CP / J_R decomposition of §4.1.
type SimTime struct {
	MapDone     float64 // last map task finishes (J_M)
	ShuffleDone float64 // last copy arrives
	Total       float64 // last reduce task finishes (the job makespan T)
}

// WallTime is the MEASURED wall-clock breakdown of one run on the
// real machine — laptop seconds, not the modeled cluster seconds of
// SimTime. The two are deliberately separate: SimTime prices the
// paper's 13-node cluster from byte volumes, WallTime reports where
// this process actually spent its time, so the cost model can be
// compared against reality phase by phase. Wall times naturally vary
// between runs and worker counts; determinism assertions must ignore
// them (every byte-level metric remains exactly reproducible).
type WallTime struct {
	Map      time.Duration // map phase: all tasks, end to end
	Reduce   time.Duration // shuffle gather + k-way merge + reduce, end to end
	Assemble time.Duration // output assembly from the per-reducer buffers
	Total    time.Duration // whole Run call
}

// Metrics aggregates the byte-accounting and work counters of one run.
// Byte quantities are "modeled": real encoded sizes multiplied by the
// input relations' VolumeMultiplier, so laptop-sized tuple counts
// reproduce the paper's hundreds-of-GB sweeps.
type Metrics struct {
	MapTasks    int
	ReduceTasks int

	InputBytes   int64 // S_I
	ShuffleBytes int64 // S_CP: total map output copied over the network
	OutputBytes  int64
	// OutputRawBytes is Output.EncodedSize(), summed as the rows were
	// emitted so that no consumer has to walk the output for it.
	OutputRawBytes int64

	PairsEmitted        int64
	CombinationsChecked int64

	ReducerInputBytes []int64
	// ReducerOutputBytes mirrors ReducerInputBytes on the output side:
	// modeled bytes each reduce task emitted. Together with
	// BalanceRatio these are the per-reducer observations the runtime
	// feedback loop (core re-planning) consumes after a job completes.
	ReducerOutputBytes []int64
	MaxReducerInput    int64
	// BalanceRatio is MaxReducerInput over the mean reducer input
	// (ShuffleBytes / ReduceTasks): 1.0 is perfect balance, k means
	// the straggler reducer carries k× its fair share. 0 when nothing
	// was shuffled.
	BalanceRatio float64

	// MapFailures / ReduceFailures count failed task attempts charged
	// to the simulated clock: the kills a Config.Faults plan schedules
	// within the attempt budget. Both are a pure function of the job
	// and plan — deterministic — and each failure extends the makespan
	// by a re-attempt plus capped backoff.
	MapFailures    int
	ReduceFailures int

	// SpillBytes is the real (unscaled) bytes of sorted runs written
	// to the spill store; 0 on a fully in-memory run. SpillRuns counts
	// the spill files written. Both are deterministic: flush boundaries
	// depend only on the job specification and SpillBudgetBytes.
	SpillBytes int64
	SpillRuns  int

	// PeakLiveBytes is the ACCOUNTED peak of resident shuffle-pair
	// bytes — a deterministic model of the engine's live memory, not a
	// heap measurement: the sum over map tasks of the pair bytes still
	// buffered when the map phase ends (all map output in-memory, zero
	// under a spill budget), plus the larger of the biggest transient
	// map-task buffer above that floor and the biggest per-reducer
	// merge residency (its in-memory source buckets plus its largest
	// single key run). Pair bytes are Tuple.EncodedSize + 8, the same
	// raw unit the modeled byte metrics scale. The quantity is exactly
	// reproducible across worker counts, so determinism tests may
	// compare it; the acceptance story — bounded budgets cut peak live
	// bytes — is asserted against it.
	PeakLiveBytes int64

	// MapAttempts / ReduceAttempts count every task attempt actually
	// launched — first attempts, retries and speculative backups.
	// SpeculativeLaunched / SpeculativeWins count backup attempts and
	// the backups that won their race. All four depend on real-time
	// scheduling (whether a backup launches at all is a wall-clock
	// race), so — like Wall — they are NOT deterministic and
	// determinism comparisons must strip them.
	MapAttempts         int
	ReduceAttempts      int
	SpeculativeLaunched int
	SpeculativeWins     int

	// ChecksumFailures counts spill-run frames that failed CRC
	// verification; FailoverReads counts the replica re-reads that
	// recovered them. An injected corruption is consumed exactly once
	// no matter which reader hits it first, so both are deterministic
	// for a fixed fault plan.
	ChecksumFailures int64
	FailoverReads    int64

	Sim SimTime

	// Wall is the measured wall-clock breakdown of this run — the
	// real-time counterpart of the modeled Sim. Populated on every
	// run (tracing need not be enabled).
	Wall WallTime
}

// Result is a completed job: the output relation plus metrics.
type Result struct {
	Output *relation.Relation
	// Rows counts every row the reducers emitted. Output holds all of
	// them unless the job is a query's result (Job.Result) with a Keep
	// below Rows; RowHashSum is then the wrapping sum of
	// relation.RowHash over all Rows of them, kept or not (0 for any
	// other job), so relation.ContentHashOf(Output.Schema, Rows,
	// RowHashSum) is the full output's ContentHash.
	Rows       int
	RowHashSum uint64
	Metrics    Metrics
}

// record is one shuffled pair, in a map attempt's collector and in a
// resident run alike: its key, its row as an ordinal in the producing map
// task's split, and that row's EncodedSize, measured once — when the row
// is mapped, or, in a spilling run, when the input is split, for the
// map task and the readers of its spilled records alike — and read by
// every byte count from there to the reducer. The pair's tuple is
// tasks[task].tuples[row] and its tag tasks[task].inputIdx, resolved
// where the reducer merges it.
type record struct {
	key  uint64
	row  uint32
	size uint32
}

// realBytes is the accounted in-memory size of the pair: its tuple plus
// 8 bytes of key framing — the raw quantity the modeled byte accounting
// multiplies, so budget and metrics speak one unit.
func (rec record) realBytes() int64 { return int64(rec.size) + 8 }

// modeledBytes is the pair's shuffle volume under its task's multiplier,
// converted to int64 pair by pair so that sums are order-independent.
func (rec record) modeledBytes(mult float64) int64 { return int64(float64(rec.realBytes()) * mult) }

// mapTask is one input split: a block of one input's tuples.
type mapTask struct {
	inputIdx   int
	tuples     []relation.Tuple
	multiplier float64
	inputBytes int64 // modeled
}

// run is the state of one Run call. The first group is fixed when Run
// builds it; each phase then fills the group named after it and reads
// only the groups above its own, so the phases can be read, timed and
// tested in order.
type run struct {
	cfg     Config
	rates   Rates
	job     *Job
	o       *obs.Obs
	shard   *obs.Shard // job-level spans
	workers int
	nRed    int

	// planTasks
	tasks      []mapTask
	inputBytes int64      // modeled S_I
	sizes      [][]uint32 // [task] each row's EncodedSize; kept only by a spilling run

	// mapPhase: what each map task's committed attempt left behind.
	ft         *faultRuntime
	spill      SpillStore // nil = every task's one run stays resident
	replicated *obs.Counter
	scratch    chan *mapScratch // idle collectors, handed from map attempt to map attempt
	mapped     []taskRuns       // [task] the committed attempt's runs and accounting

	// reducePhase: what each reducer's committed attempt produced.
	keyRunLen       *obs.Histogram
	reduceScratch   chan *reduceScratch // idle reduce-attempt buffers, handed from attempt to attempt
	reducerBytes    []int64             // modeled shuffle input
	reducerPairs    []int64
	reducerResident []int64          // accounted resident pair bytes during the merge
	reduced         []*ReduceContext // rows, row sizes and work of the committed attempt

	gate *keepGate // a result job's committed-prefix watermark

	// assemble
	output          *relation.Relation
	rows            int    // every emitted row, kept or not
	rowSum          uint64 // their RowHash sum (result job)
	outputRawBytes  int64  // the output's EncodedSize
	outputBytes     int64  // modeled
	reducerOutBytes []int64
	combinations    int64

	wall WallTime
}

// Run executes the job and returns its output and metrics. Execution
// is deterministic for a fixed job specification regardless of worker
// count or goroutine interleaving: map tasks partition their output
// into per-reducer buckets as they emit and sort each bucket by key at
// spill time (Hadoop's map-side sort), each reducer k-way merges its
// pre-sorted buckets in task order, and reduce keys are processed in
// sorted order (values within a key keep task emission order). A
// Job.Partitioner (e.g. the skew-resilient router of internal/skew)
// participates in this guarantee because routing is a pure function of
// pair content.
//
// Every task runs as retryable attempts (at most four) with
// speculative backups for stragglers; see the package documentation
// for the attempt-idempotency contract. The determinism guarantee
// extends to any Config.Faults plan whose faults are all retryable.
//
// Cancelling ctx aborts the run between tasks and mid-merge; the first
// error raised by any worker (or the context's error) is returned and
// stops the remaining workers.
func Run(ctx context.Context, cfg Config, job *Job) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()
	o := obs.FromContext(ctx)
	r := &run{cfg: cfg, rates: PaperRates(), job: job, o: o, shard: o.Shard("mr:" + job.Name),
		workers: cfg.MaxParallelWorkers, nRed: job.NumReducers}
	if r.workers <= 0 {
		r.workers = runtime.NumCPU()
	}
	jobSpan := r.shard.Start("job", obs.A("job", job.Name), obs.A("reducers", r.nRed))

	r.planTasks()
	if len(r.tasks) == 0 {
		// All inputs empty: an empty but well-formed result.
		jobSpan.End(obs.A("empty", true))
		return &Result{Output: relation.New(job.OutputName, job.OutputSchema), Metrics: Metrics{
			ReduceTasks: r.nRed,
			Wall:        WallTime{Total: time.Since(wallStart)},
		}}, nil
	}
	defer r.releaseSpill()
	if err := r.mapPhase(ctx); err != nil {
		return nil, err
	}
	if err := r.reducePhase(ctx); err != nil {
		return nil, err
	}
	if err := r.assemble(); err != nil {
		return nil, err
	}
	res := r.metrics()
	jobSpan.End(obs.A("shuffleBytes", res.Metrics.ShuffleBytes),
		obs.A("outTuples", res.Rows), obs.A("balance", res.Metrics.BalanceRatio))
	res.Metrics.Wall.Total = time.Since(wallStart)
	return res, nil
}

// planTasks splits the inputs into map tasks. Each task covers one DFS
// block of MODELED bytes (the paper's 64 MB splits), capped by tuple
// granularity: a relation modeling 10 GB from 2,000 physical tuples
// yields ~156 tasks of ~13 tuples each, so wave counts and per-task
// spill volumes match the modeled cluster. TuplesPerMapTask
// additionally bounds how many physical tuples one task may hold (the
// binding constraint for unscaled relations). The rows are measured
// here; a spilling run keeps their sizes, all in one array, for its map
// tasks and for the readers of their spilled records.
func (r *run) planTasks() {
	var sizes []uint32 // every task's, in one array
	if r.cfg.SpillBudgetBytes > 0 {
		rows := 0
		for _, in := range r.job.Inputs {
			rows += in.Rel.Cardinality()
		}
		sizes = make([]uint32, 0, rows)
	}
	for idx, in := range r.job.Inputs {
		card := in.Rel.Cardinality()
		if card == 0 {
			continue
		}
		mult := in.Rel.VolumeMultiplier
		if mult <= 0 {
			mult = 1
		}
		modeled := int64(float64(in.Rel.EncodedSize()) * mult)
		nTasks := int((modeled + BlockSize - 1) / BlockSize)
		if byTuples := (card + r.cfg.TuplesPerMapTask - 1) / r.cfg.TuplesPerMapTask; byTuples > nTasks {
			nTasks = byTuples
		}
		if nTasks < 1 {
			nTasks = 1
		}
		if nTasks > card {
			nTasks = card
		}
		for _, blk := range in.Rel.Blocks((card + nTasks - 1) / nTasks) {
			var raw int64
			at := len(sizes)
			for _, t := range blk {
				n := t.EncodedSize()
				raw += int64(n)
				if sizes != nil {
					sizes = append(sizes, uint32(n))
				}
			}
			mb := int64(float64(raw) * mult)
			r.tasks = append(r.tasks, mapTask{inputIdx: idx, tuples: blk, multiplier: mult, inputBytes: mb})
			if sizes != nil {
				r.sizes = append(r.sizes, sizes[at:len(sizes):len(sizes)])
			}
			r.inputBytes += mb
		}
	}
}

// mapPhase really executes the map tasks, each as retryable attempts.
// An attempt's pairs take the one path §4.1 prices: a collector the run
// lends it, then key-sorted runs partitioned locally by reducer — a
// Hadoop mapper's "spill partitioning" — so the shuffle never funnels
// all pairs through one goroutine. With a spill budget a run is cut
// whenever the budget fills, and every run goes to the spill store, so
// no pairs survive the map phase in memory; without one a task's one
// run stays resident.
func (r *run) mapPhase(ctx context.Context) error {
	start := time.Now()
	if r.cfg.SpillBudgetBytes > 0 {
		r.spill = r.cfg.Spill
	}
	n := len(r.tasks)
	r.ft = newFaultRuntime(r.cfg.Faults, r.job, n, r.nRed, r.o)
	r.replicated = r.o.Counter("mr.replicated_pairs")
	// A worker runs at most two attempts at a time, one a speculative
	// backup, so this many collectors are ever in use.
	r.scratch = make(chan *mapScratch, 2*r.workers)
	r.mapped = make([]taskRuns, n)
	// Tracing shards are per worker goroutine: each worker owns its
	// shard exclusively (forEach hands every index to exactly one
	// worker), so span recording takes no lock and cannot race.
	shards := workerShards(r.o, r.job.Name+"/map", r.workers)
	err := forEach(ctx, r.workers, n, func(w, ti int) error {
		return r.ft.runTask(ctx, phaseMap, ti, shards.get(r.o, w), func(actx context.Context, attempt int, sh *obs.Shard) (attemptOutcome, error) {
			return r.mapAttempt(actx, ti, attempt, sh)
		})
	})
	r.scratch = nil // the map phase's collectors are not needed past it
	r.wall.Map = time.Since(start)
	return err
}

// releaseSpill frees every committed spill run; Run defers it so a
// failed or cancelled run leaks no spill file.
func (r *run) releaseSpill() {
	for _, m := range r.mapped {
		m.release()
	}
}

// mapAttempt runs one attempt of map task ti into a collector of its
// own — its own buckets or its own spill namespace — and publishes
// nothing until the returned outcome commits.
func (r *run) mapAttempt(actx context.Context, ti, attempt int, sh *obs.Shard) (attemptOutcome, error) {
	task := &r.tasks[ti]
	sp := sh.Start("map", obs.A("task", ti), obs.A("attempt", attempt), obs.A("tuples", len(task.tuples)))
	mapFn := r.job.Inputs[task.inputIdx].Map
	idle := r.scratch
	var sc *mapScratch
	select {
	case sc = <-idle:
	default:
		sc = &mapScratch{job: r.job, nRed: r.nRed, store: r.spill, budget: r.cfg.SpillBudgetBytes}
		sc.emitFn = sc.emit
	}
	sc.task = task
	// Back on every path. An attempt that ends any other way than by
	// handing back its outcome — an error below, or a panic in the Map
	// function — discards its partial runs there; they are never merged.
	defer sc.park(idle)
	fail := func(err error) (attemptOutcome, error) {
		sp.End(obs.A("error", err.Error()))
		return attemptOutcome{}, err
	}
	// Injected faults fire at the halfway point of the task's input, so
	// a killed attempt leaves real partial state (buffered pairs,
	// partial spill runs) for discard to reclaim.
	faultAt := -1
	if r.ft.inj != nil {
		faultAt = len(task.tuples) / 2
	}
	for i, t := range task.tuples {
		if i == faultAt {
			if err := r.ft.maybeFault(actx, phaseMap, ti, attempt); err != nil {
				return fail(err)
			}
		}
		// The row is measured once, however many pairs it makes: here,
		// or by planTasks in a spilling run.
		sc.cur, sc.rec = t, record{row: uint32(i)}
		if r.sizes != nil {
			sc.rec.size = r.sizes[ti][i]
		} else {
			sc.rec.size = uint32(t.EncodedSize())
		}
		mapFn(t, sc.emitFn)
		if sc.err != nil {
			return fail(sc.err)
		}
	}
	// Map-side sort: the last run is cut and each of its buckets ordered
	// by key before it is handed to the shuffle, so reducers merge
	// pre-sorted runs instead of re-sorting their whole input.
	spillSp := sh.Start("spill", obs.A("task", ti))
	out, err := sc.finish()
	if err != nil {
		spillSp.End(obs.A("error", err.Error()))
		return fail(err)
	}
	spillSp.End(obs.A("runs", len(out.flushes)), obs.A("spilledBytes", out.spilled))
	sp.End(obs.A("outBytes", out.outBytes))
	return attemptOutcome{
		commit: func() {
			r.mapped[ti] = out
			r.replicated.Add(out.replicated)
		},
		discard: out.release,
	}, nil
}

// reducePhase is shuffle + reduce as one sort-free parallel streaming
// merge. Each reducer k-way merges its pre-sorted runs in (task, flush)
// order (the determinism anchor): the merged stream is key-ordered with
// task emission order within a key — the exact ordering a global stable
// sort would produce. Runs come from in-memory buckets or spilled
// segments interchangeably; key-runs are accumulated into a per-reducer
// buffer reused across keys and handed to Reduce as capacity-capped
// views, so a reducer's residency is its in-memory source buckets (none
// under a spill budget) plus one key run — never a materialized copy of
// its whole input.
func (r *run) reducePhase(ctx context.Context) error {
	start := time.Now()
	r.keyRunLen = r.o.Histogram("mr.key_run_len")
	r.reducerBytes = make([]int64, r.nRed)
	r.reducerPairs = make([]int64, r.nRed)
	r.reducerResident = make([]int64, r.nRed)
	r.reduced = make([]*ReduceContext, r.nRed)
	// A reducer with no input commits nothing; its entry stays empty.
	empty := &ReduceContext{}
	for red := range r.reduced {
		r.reduced[red] = empty
	}
	if r.job.Result && r.job.Keep >= 0 {
		r.gate = newKeepGate(r.job.Keep, r.nRed)
	}
	// As on the map side, at most two attempts per worker hold a buffer.
	r.reduceScratch = make(chan *reduceScratch, 2*r.workers)
	shards := workerShards(r.o, r.job.Name+"/reduce", r.workers)
	err := forEach(ctx, r.workers, r.nRed, func(w, red int) error {
		err := r.ft.runTask(ctx, phaseReduce, red, shards.get(r.o, w), func(actx context.Context, attempt int, sh *obs.Shard) (attemptOutcome, error) {
			return r.reduceAttempt(actx, red, attempt, sh)
		})
		if err != nil {
			return err
		}
		r.gate.commit(red, len(r.reduced[red].out))
		// A retried or speculative attempt re-reads the same buckets,
		// so the reducer's share of each is only released here, once
		// runTask has joined every attempt — no late speculative loser
		// can still be reading it.
		for _, m := range r.mapped {
			if m.buckets != nil {
				m.buckets[red] = nil
			}
		}
		return nil
	})
	r.reduceScratch = nil // the buffers die with the phase
	r.wall.Reduce = time.Since(start)
	return err
}

// gather collects reducer red's key-sorted runs from every committed
// map task, in (task, run) order, into sc.srcs, with their pair count,
// the accounted bytes of the resident ones and, in sc.tags, how many
// pairs each input contributes: a run's pairs all have its task's input
// as their tag.
func (r *run) gather(red int, sc *reduceScratch) (n int, memReal int64) {
	srcs := sc.srcs[:0]
	tags := slices.Grow(sc.tags[:0], len(r.job.Inputs))[:len(r.job.Inputs)]
	clear(tags)
	for ti, m := range r.mapped {
		in := r.tasks[ti].inputIdx
		for _, fl := range m.flushes {
			if seg := fl.segs[red]; seg.count > 0 {
				srcs = append(srcs, diskSource(fl.file, seg, ti, r.ft))
				n += seg.count
				tags[in] += seg.count
			}
		}
		if m.buckets == nil {
			continue
		}
		if b := m.buckets[red]; len(b) > 0 {
			for _, rec := range b {
				memReal += rec.realBytes()
			}
			srcs = append(srcs, memSource(b, ti))
			n += len(b)
			tags[in] += len(b)
		}
	}
	sc.srcs, sc.tags = srcs, tags
	return n, memReal
}

// reduceScratch is a reduce attempt's working memory: gather's sources
// and per-input pair counts, the merge's frame buffers and heap, the
// per-input tuple buffers a key run is split into, the views of them
// Reduce is handed, and the hasher a result attempt's EmitConcat hashes
// its rows through. The run hands these from attempt to attempt, so a
// reducer starts with the capacity its predecessors grew; an attempt
// holds its scratch alone, from its start until it returns.
type reduceScratch struct {
	srcs         []pairSource
	tags         []int
	merge        merger
	bufs, groups [][]relation.Tuple
	hasher       relation.RowHasher // reset before every Reduce call
}

// reduceAttempt runs one attempt of reducer red: gather its runs, merge
// them, and feed each key run to Reduce split by input. The split is
// the one copy a pair's tuple header makes on the reduce side: its
// record is resolved to its task's row, whose header goes into the
// attempt's buffer for the task's input, which every key run reuses.
// Output stays private to the attempt until the returned outcome
// commits.
func (r *run) reduceAttempt(actx context.Context, red, attempt int, sh *obs.Shard) (attemptOutcome, error) {
	gatherSp := sh.Start("shuffle-copy", obs.A("reducer", red), obs.A("attempt", attempt))
	idle := r.reduceScratch
	var sc *reduceScratch
	select {
	case sc = <-idle:
	default:
		sc = &reduceScratch{}
	}
	// Back on every path — error, cancellation, a panic in Reduce — once
	// nothing of this attempt reads it. The sources drop their buckets
	// and files, and the hasher the rows it remembers, so a parked
	// scratch holds none of them.
	defer func() {
		clear(sc.srcs)
		sc.hasher = relation.RowHasher{}
		idle <- sc
	}()
	n, memReal := r.gather(red, sc)
	srcs, tags := sc.srcs, sc.tags
	gatherSp.End(obs.A("pairs", n), obs.A("runs", len(srcs)))
	// Fault point: after the gather (partial state exists to discard),
	// before the empty-reducer return — kills target empty reducers too.
	if err := r.ft.maybeFault(actx, phaseReduce, red, attempt); err != nil {
		return attemptOutcome{}, err
	}
	if n == 0 {
		return attemptOutcome{}, nil
	}
	reduceSp := sh.Start("reduce", obs.A("reducer", red), obs.A("pairs", n), obs.A("runs", len(srcs)))
	reduce, keyRunLen := r.job.Reduce, r.keyRunLen
	rctx := &ReduceContext{project: r.job.Project}
	if r.job.Result {
		*rctx = ReduceContext{project: r.job.Project, hasher: &sc.hasher, keep: r.job.Keep, red: red, arity: r.job.OutputSchema.Len(), gate: r.gate}
	}
	// bufs[tag] collects the current key run's tuples; groups are the
	// views of them Reduce is handed. When every run holds the same single
	// key — any Hilbert component — the input is one key run and the
	// gathered tag counts size the buffers exactly; otherwise a buffer
	// doubles until it fits the reducer's longest run. Either way a
	// buffer keeps the capacity an earlier attempt left it.
	nTags := len(tags)
	bufs := slices.Grow(sc.bufs[:0], nTags)[:nTags]
	groups := slices.Grow(sc.groups[:0], nTags)[:nTags]
	sc.bufs, sc.groups = bufs, groups
	for tag := range bufs {
		bufs[tag] = bufs[tag][:0] // an attempt that failed mid-merge left part of a run
	}
	key := srcs[0].firstKey()
	if !slices.ContainsFunc(srcs, func(s pairSource) bool { return s.firstKey() != key || s.lastKey() != key }) {
		for tag, c := range tags {
			bufs[tag] = slices.Grow(bufs[tag], c)
		}
	}
	runs := 0
	var bytes int64
	var curKey uint64
	var runLen int
	var runReal, maxRunReal int64
	flushRun := func() {
		if runLen == 0 {
			return
		}
		keyRunLen.Observe(int64(runLen))
		runs++
		for tag, b := range bufs {
			// Capacity-capped views: an append inside Reduce allocates
			// instead of writing into the reused buffer.
			groups[tag] = b[:len(b):len(b)]
			bufs[tag] = b[:0]
		}
		sc.hasher.Reset()
		reduce(curKey, groups, rctx)
		runLen, runReal = 0, 0
	}
	var merged int
	err := sc.merge.merge(srcs, r.sizes, func(rec record, ti int) error {
		// Cancellation check mid-merge: a cancelled run must not
		// finish a large merge before noticing.
		if merged++; merged&1023 == 0 {
			if err := actx.Err(); err != nil {
				return err
			}
		}
		task := &r.tasks[ti]
		bytes += rec.modeledBytes(task.multiplier)
		if runLen > 0 && rec.key != curKey {
			flushRun()
		}
		curKey = rec.key
		bufs[task.inputIdx] = appendDoubling(bufs[task.inputIdx], task.tuples[rec.row])
		runLen++
		if runReal += rec.realBytes(); runReal > maxRunReal {
			maxRunReal = runReal
		}
		return nil
	})
	if err != nil {
		reduceSp.End(obs.A("error", err.Error()))
		return attemptOutcome{}, err
	}
	flushRun()
	rctx.trim()
	reduceSp.End(obs.A("keys", runs),
		obs.A("combinations", rctx.combinations), obs.A("outTuples", len(rctx.out)))
	return attemptOutcome{
		commit: func() {
			r.reducerPairs[red] = int64(n)
			r.reducerBytes[red] = bytes
			r.reducerResident[red] = memReal + maxRunReal
			r.reduced[red] = rctx
		},
	}, nil
}

// outputMultiplier is the VolumeMultiplier of the output relation: the
// largest input multiplier, which keeps modeled intermediate-result I/O
// proportional to modeled inputs, shrunk so the modeled output stays
// within OutputCapRatio × modeled input.
func (r *run) outputMultiplier() float64 {
	outMult := 0.0
	for _, in := range r.job.Inputs {
		if in.Rel.VolumeMultiplier > outMult {
			outMult = in.Rel.VolumeMultiplier
		}
	}
	if outMult <= 0 {
		outMult = 1
	}
	if rawOut := r.outputRawBytes; rawOut > 0 {
		maxOut := OutputCapRatio * float64(r.inputBytes)
		if float64(rawOut)*outMult > maxOut {
			outMult = maxOut / float64(rawOut)
			if outMult < 1 {
				outMult = 1
			}
		}
	}
	return outMult
}

// assemble concatenates the per-reducer outputs, in reducer order, into
// the output relation and prices its modeled bytes from the reducers'
// per-size row counts: the rows are checked for arity and handed over,
// not measured again. A result job's output stops at Keep rows; the
// reducers have priced, counted and hashed the rest.
func (r *run) assemble() error {
	job := r.job
	start := time.Now()
	sp := r.shard.Start("assemble", obs.A("reducers", r.nRed))
	var totalOut int
	for _, rc := range r.reduced {
		totalOut += len(rc.out)
		r.rowSum += rc.rowSum
		for size, rows := range rc.sizes {
			r.outputRawBytes += int64(size) * rows
			r.rows += int(rows)
		}
	}
	if job.Result && job.Keep >= 0 {
		totalOut = min(totalOut, job.Keep)
	}
	outMult := r.outputMultiplier()
	output := relation.New(job.OutputName, job.OutputSchema)
	output.VolumeMultiplier = outMult
	output.Dicts = append([]*relation.Dict(nil), job.OutputDicts...)
	if totalOut > 0 {
		output.Tuples = make([]relation.Tuple, 0, totalOut)
	}
	r.reducerOutBytes = make([]int64, r.nRed)
	for red, rc := range r.reduced {
		for _, t := range rc.out {
			if len(t) != job.OutputSchema.Len() {
				return fmt.Errorf("mr: job %s: reducer %d emitted arity %d, schema wants %d",
					job.Name, red, len(t), job.OutputSchema.Len())
			}
		}
		output.Tuples = append(output.Tuples, rc.out[:min(len(rc.out), totalOut-len(output.Tuples))]...)
		for size, rows := range rc.sizes {
			r.reducerOutBytes[red] += int64(float64(size)*outMult) * rows
		}
		r.outputBytes += r.reducerOutBytes[red]
		r.combinations += rc.combinations
		r.reduced[red] = nil // release the reducer's buffers
	}
	r.output = output
	sp.End(obs.A("tuples", r.rows))
	r.wall.Assemble = time.Since(start)
	return nil
}

// chargeClock prices the run on the simulated cluster clock and
// returns the charged map and reduce failures. Injected kills charge
// the clock from the PLAN, not from observed attempts: speculation
// makes the observed count nondeterministic (a backup may land before a
// targeted attempt ever runs), while the planned count is a pure
// function of the fault plan. Retry backoff is folded into the
// per-attempt duration so slot time = dur*(fails+1) + total backoff.
func (r *run) chargeClock() (sim SimTime, mapFailures, reduceFailures int) {
	charge := func(ph, task int, dur float64) (float64, int) {
		f := r.ft.inj.plannedKills(ph, task)
		if f > 0 {
			dur += backoffSeconds(f) / float64(f+1)
		}
		return dur, f
	}
	mapDur := make([]float64, len(r.tasks))
	copyDur := make([]float64, len(r.tasks))
	mapFail := make([]int, len(r.tasks))
	for ti, m := range r.mapped {
		copyDur[ti] = r.rates.CopyTime(m.outBytes, r.nRed)
		mapDur[ti], mapFail[ti] = charge(phaseMap, ti, r.rates.MapTaskTime(r.tasks[ti].inputBytes, m.outBytes))
		mapFailures += mapFail[ti]
	}
	reduceDur := make([]float64, r.nRed)
	reduceFail := make([]int, r.nRed)
	for red := range reduceDur {
		reduceDur[red], reduceFail[red] = charge(phaseReduce, red, r.rates.ReduceTime(r.reducerBytes[red], r.reducerOutBytes[red]))
		reduceFailures += reduceFail[red]
	}
	sim = simulate(r.cfg.MapSlots, r.cfg.ReduceSlots, mapDur, copyDur, mapFail, reduceDur, reduceFail)
	return sim, mapFailures, reduceFailures
}

// metrics runs the simulated clock and rolls the phases' per-task
// observations up into the Result (Wall.Total is Run's to fill).
func (r *run) metrics() *Result {
	sim, mapFailures, reduceFailures := r.chargeClock()
	var pairsEmitted, shuffleBytes, maxRed int64
	for red, b := range r.reducerBytes {
		pairsEmitted += r.reducerPairs[red]
		shuffleBytes += b
		if b > maxRed {
			maxRed = b
		}
	}
	balance := 0.0
	if shuffleBytes > 0 {
		balance = float64(maxRed) * float64(r.nRed) / float64(shuffleBytes)
	}
	// Spill metrics and the accounted live-byte peak: the pair bytes
	// resident at the end of the map phase (zero under a budget), plus
	// the larger of the biggest transient task buffer above that floor
	// and the biggest reducer merge residency. See Metrics.
	var spillBytes int64
	var spillRuns int
	var residentFloor, peakExtra int64
	for _, m := range r.mapped {
		residentFloor += m.final
		peakExtra = max(peakExtra, m.peak-m.final)
		spillBytes += m.spilled
		spillRuns += len(m.flushes)
	}
	for _, resident := range r.reducerResident {
		if resident > peakExtra {
			peakExtra = resident
		}
	}
	res := &Result{
		Output:     r.output,
		Rows:       r.rows,
		RowHashSum: r.rowSum,
		Metrics: Metrics{
			MapTasks:            len(r.tasks),
			ReduceTasks:         r.nRed,
			InputBytes:          r.inputBytes,
			ShuffleBytes:        shuffleBytes,
			OutputBytes:         r.outputBytes,
			OutputRawBytes:      r.outputRawBytes,
			PairsEmitted:        pairsEmitted,
			CombinationsChecked: r.combinations,
			ReducerInputBytes:   r.reducerBytes,
			ReducerOutputBytes:  r.reducerOutBytes,
			MaxReducerInput:     maxRed,
			BalanceRatio:        balance,
			MapFailures:         mapFailures,
			ReduceFailures:      reduceFailures,
			SpillBytes:          spillBytes,
			SpillRuns:           spillRuns,
			PeakLiveBytes:       residentFloor + peakExtra,
			Sim:                 sim,
			Wall:                r.wall,
		},
	}
	r.ft.metricsInto(&res.Metrics)
	r.export(&res.Metrics)
	return res
}

// export feeds the registry rollups behind the -metrics export,
// batched once per job (no per-tuple cost).
func (r *run) export(m *Metrics) {
	o := r.o
	if inHist := o.Histogram("mr.reducer_input_bytes"); inHist != nil {
		outHist := o.Histogram("mr.reducer_output_bytes")
		for red := range m.ReducerInputBytes {
			inHist.Observe(m.ReducerInputBytes[red])
			outHist.Observe(m.ReducerOutputBytes[red])
		}
	}
	o.Counter("mr.pairs_emitted").Add(m.PairsEmitted)
	o.Counter("mr.shuffle_bytes").Add(m.ShuffleBytes)
	o.Counter("mr.combinations_checked").Add(m.CombinationsChecked)
	o.Counter("mr.output_tuples").Add(int64(r.rows))
	o.Counter("mr.spill_bytes").Add(m.SpillBytes)
	o.Counter("mr.spill_runs").Add(int64(m.SpillRuns))
	if h := o.Histogram("mr.peak_live_bytes"); h != nil {
		h.Observe(m.PeakLiveBytes)
	}
	if n := m.MapFailures + m.ReduceFailures; n > 0 {
		o.Counter("mr.task_retries").Add(int64(n))
	}
}

// keepGate is a result job's committed-prefix watermark. Once reducers
// 0 … p−1 have all committed and together keep at least keep rows, the
// output's first keep rows are all theirs, so reducers p and above need
// keep none: their attempts stop keeping rows from then on. Which rows an
// attempt keeps may depend on when it reads the gate, but the output's
// first keep rows cannot. forEach hands reducers out in ascending order,
// which is what lets the prefix grow while later reducers still run.
type keepGate struct {
	keep int
	from atomic.Int64 // the first reducer that keeps nothing; nRed while open

	mu     sync.Mutex
	kept   []int // by reducer: the rows its committed attempt kept, −1 before
	prefix int   // reducers [0, prefix) have committed
	sum    int   // and together keep this many rows
}

func newKeepGate(keep, nRed int) *keepGate {
	g := &keepGate{keep: keep, kept: make([]int, nRed)}
	for i := range g.kept {
		g.kept[i] = -1
	}
	g.from.Store(int64(nRed))
	return g
}

// closed reports whether reducer red may keep no more rows. Nil-safe:
// a job with no gate keeps every row.
func (g *keepGate) closed(red int) bool { return g != nil && int64(red) >= g.from.Load() }

// commit records that reducer red's committed attempt kept kept rows and
// moves the watermark past the committed prefix once it keeps enough.
func (g *keepGate) commit(red, kept int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.kept[red] = kept
	for g.sum < g.keep && g.prefix < len(g.kept) && g.kept[g.prefix] >= 0 {
		g.sum += g.kept[g.prefix]
		g.prefix++
	}
	if g.sum >= g.keep {
		g.from.Store(int64(g.prefix))
	}
}

// taskRuns is what a map task's committed attempt leaves the run: its
// key-sorted runs — the one resident run as per-reducer buckets, or the
// spill files of its flushes — and what it accounted while mapping.
type taskRuns struct {
	buckets    [][]record     // [reducer] the resident run; nil under a spill budget
	flushes    []spillFlush   // the spilled runs, in flush order
	segs       []spillSegment // every flush's segments, nRed each; a flush's are a window of it
	outBytes   int64          // modeled map output
	final      int64          // accounted pair bytes resident after the task
	peak       int64          // accounted high-water mark while mapping
	spilled    int64          // bytes written to the spill store
	replicated int64          // pairs routed to more than one reducer, past the first copy
}

// release frees the task's spill files.
func (m taskRuns) release() {
	for _, fl := range m.flushes {
		fl.file.Release()
	}
}

// mapScratch is the collector a map attempt routes its pairs into. It
// holds the attempt's state, so emit, the Emitter every Map call is
// handed, is a method value bound once per collector, and the run lends
// collectors from attempt to attempt: after the first few tasks an
// attempt allocates only what it commits. Every pair goes through add,
// and every run is cut by flush — when the budget fills, and at task
// end — which deals the pairs out by reducer and sorts each bucket.
type mapScratch struct {
	// Fixed for the run.
	job    *Job
	nRed   int
	store  SpillStore // nil: the task's one run stays resident
	budget int64      // 0: no flush before task end
	emitFn Emitter    // emit, bound to this collector

	// The attempt: its task, the row being mapped, emit's route buffer
	// and first error, the collected bytes and what it will hand over.
	task     *mapTask
	cur      relation.Tuple
	rec      record
	route    []int
	err      error
	buffered int64
	out      taskRuns

	recs  []record
	dest  []int32
	count []int // pairs per reducer

	// A spilled run's block, the per-reducer views of it and the frame
	// buffer they are written through.
	block   []record
	buckets [][]record
	frame   []byte
}

// park hands the collector back once its attempt is over. Runs the
// attempt did not hand over are released, and the attempt's rows and
// pairs forgotten.
func (sc *mapScratch) park(idle chan *mapScratch) {
	sc.out.release()
	sc.task, sc.cur, sc.err, sc.buffered, sc.out = nil, nil, nil, 0, taskRuns{}
	sc.recs, sc.dest = sc.recs[:0], sc.dest[:0]
	idle <- sc
}

// emit routes the row being mapped under key and collects one pair per
// destination: a replicated pair is copied, and charged, once per
// destination.
func (sc *mapScratch) emit(key uint64) {
	job, nRed := sc.job, sc.nRed
	if job.Partitioner != nil {
		sc.route = job.Partitioner.Route(sc.route[:0], key, uint8(sc.task.inputIdx), sc.cur, nRed)
	} else {
		sc.route = append(sc.route[:0], int(key%uint64(nRed)))
	}
	if len(sc.route) > 1 {
		sc.out.replicated += int64(len(sc.route) - 1)
	}
	sc.rec.key = key
	modeled := sc.rec.modeledBytes(sc.task.multiplier)
	for _, red := range sc.route {
		if red < 0 || red >= nRed {
			sc.err = cmp.Or(sc.err, fmt.Errorf("mr: job %s: partition returned %d for %d reducers", job.Name, red, nRed))
			return
		}
		if err := sc.add(red, sc.rec); err != nil {
			sc.err = cmp.Or(sc.err, err)
			return
		}
		sc.out.outBytes += modeled
	}
}

// add collects one routed pair, cutting a run first when the budget is
// exhausted. Flushing before (not after) collecting keeps the
// collection at most one pair over budget.
func (sc *mapScratch) add(red int, rec record) error {
	b := rec.realBytes()
	if sc.budget > 0 && sc.buffered > 0 && sc.buffered+b > sc.budget {
		if err := sc.flush(); err != nil {
			return err
		}
	}
	sc.recs = appendDoubling(sc.recs, rec)
	sc.dest = appendDoubling(sc.dest, int32(red))
	sc.buffered += b
	return nil
}

// flush cuts the collected pairs into one run — dealt out by reducer,
// each reducer's bucket sorted — and empties the collection. The run
// stays resident, or goes to the store.
func (sc *mapScratch) flush() error {
	if sc.buffered == 0 {
		return nil
	}
	// The collection only grows between flushes: its high-water mark is
	// what each flush finds.
	sc.out.peak = max(sc.out.peak, sc.buffered)
	n := len(sc.recs)
	if sc.store == nil {
		sc.out.buckets = sortRun(sc.deal(make([]record, n), make([][]record, sc.nRed)))
		sc.out.final = sc.buffered
	} else {
		sc.block = slices.Grow(sc.block[:0], n)[:n]
		sc.buckets = slices.Grow(sc.buckets[:0], sc.nRed)[:sc.nRed]
		if err := sc.spill(sortRun(sc.deal(sc.block, sc.buckets))); err != nil {
			return err
		}
	}
	sc.buffered = 0
	sc.recs, sc.dest = sc.recs[:0], sc.dest[:0]
	return nil
}

// finish cuts the attempt's last run and hands over its runs and
// accounting; the collector keeps none of them.
func (sc *mapScratch) finish() (taskRuns, error) {
	if err := sc.flush(); err != nil {
		return taskRuns{}, err
	}
	out := sc.out
	sc.out = taskRuns{}
	return out, nil
}

// deal stable-partitions the collected pairs by destination into block,
// of len(sc.recs) records, and returns buckets, one header per reducer
// that the caller provides, each set to a capacity-limited subslice of
// block holding that reducer's pairs in emission order.
func (sc *mapScratch) deal(block []record, buckets [][]record) [][]record {
	nRed := len(buckets)
	sc.count = slices.Grow(sc.count[:0], nRed)[:nRed]
	clear(sc.count)
	for _, d := range sc.dest {
		sc.count[d]++
	}
	off := 0
	for red, n := range sc.count {
		buckets[red] = block[off : off : off+n]
		off += n
	}
	for i, rec := range sc.recs {
		buckets[sc.dest[i]] = append(buckets[sc.dest[i]], rec) // within its capacity
	}
	return buckets
}

// appendDoubling is append that at least doubles a full slice at every
// size: a large buffer is copied log₂ n times, not through append's 1.25×
// steps.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 16))
	}
	return append(s, v)
}

// sortBucket stable-sorts one bucket by key, preserving emission order
// within a key. Buckets that are already ordered — every job whose keys
// are reducer ordinals — are detected in one linear pass and left
// untouched.
func sortBucket(b []record) {
	if !slices.IsSortedFunc(b, recByKey) {
		slices.SortStableFunc(b, recByKey)
	}
}

func recByKey(a, b record) int { return cmp.Compare(a.key, b.key) }

// sortRun sorts every bucket of a run and returns the run.
func sortRun(buckets [][]record) [][]record {
	for _, b := range buckets {
		sortBucket(b)
	}
	return buckets
}

// simulate advances the discrete-event clock: map tasks run in waves
// over mapSlots (a task with f injected failures occupies its slot for
// f+1 attempts), each finished map task's output copies to the
// reducers (overlapping later map waves, as in Fig. 3, but serialised
// per slot — one node uplink serves one task's n reducer connections
// at a time, which realises Eq. 6's J_CP branch when t_CP > t_M), and
// reduce tasks start once the last copy lands, running in waves over
// reduceSlots.
func simulate(mapSlots, reduceSlots int, mapDur, copyDur []float64, mapFail []int, reduceDur []float64, reduceFail []int) SimTime {
	slotFree := make([]float64, mapSlots)
	copyFree := make([]float64, mapSlots)
	var mapDone, shuffleDone float64
	for ti := range mapDur {
		s := argminFloat(slotFree)
		start := slotFree[s]
		end := start + mapDur[ti]*float64(mapFail[ti]+1)
		slotFree[s] = end
		if end > mapDone {
			mapDone = end
		}
		cpStart := end
		if copyFree[s] > cpStart {
			cpStart = copyFree[s]
		}
		cp := cpStart + copyDur[ti]
		copyFree[s] = cp
		if cp > shuffleDone {
			shuffleDone = cp
		}
	}
	rSlot := make([]float64, reduceSlots)
	for i := range rSlot {
		rSlot[i] = shuffleDone
	}
	total := shuffleDone
	// Longest-processing-time order mirrors Hadoop's scheduling of the
	// largest shuffled partitions first and tightens the makespan.
	order := make([]int, len(reduceDur))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reduceDur[order[a]] > reduceDur[order[b]] })
	for _, r := range order {
		s := argminFloat(rSlot)
		end := rSlot[s] + reduceDur[r]*float64(reduceFail[r]+1)
		rSlot[s] = end
		if end > total {
			total = end
		}
	}
	return SimTime{MapDone: mapDone, ShuffleDone: shuffleDone, Total: total}
}

// forEach runs fn(w, i) for i in [0, n) on up to `workers` goroutines,
// stopping early on context cancellation or the first error, which is
// propagated to the caller (worker errors take precedence over the
// context's own error). w is the ordinal of the goroutine running the
// call — every i is handed to exactly one worker, so per-worker state
// indexed by w (e.g. tracing shards) needs no synchronisation.
func forEach(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	var once sync.Once
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(w, i); err != nil {
					once.Do(func() { firstErr = err })
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return context.Cause(ctx)
}

// shardSet lazily hands out one tracing shard per forEach worker
// ordinal. Slot w is only ever touched by worker w (forEach gives
// every index to exactly one goroutine), so no lock is needed; a nil
// set (tracing disabled) hands out nil shards.
type shardSet struct {
	name   string
	shards []*obs.Shard
}

// workerShards sizes a shard set for `workers` forEach goroutines.
// Returns nil (inert) when tracing is off.
func workerShards(o *obs.Obs, name string, workers int) *shardSet {
	if !o.Tracing() {
		return nil
	}
	return &shardSet{name: name, shards: make([]*obs.Shard, workers)}
}

// get returns worker w's shard, creating it on first use. Nil-safe.
func (ss *shardSet) get(o *obs.Obs, w int) *obs.Shard {
	if ss == nil {
		return nil
	}
	if ss.shards[w] == nil {
		ss.shards[w] = o.Shard(fmt.Sprintf("%s w%d", ss.name, w))
	}
	return ss.shards[w]
}

func argminFloat(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}
