package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
)

// kp is the processing-unit count both commands default to (-kp 96).
const kp = 96

// sample is what one operation block yields: one query for a batch
// workload, servedBlock requests for the served one.
type sample struct {
	ops    int
	failed int
	errs   []string

	wall float64 // seconds of the timed section
	// What the process spent on the block (set by measure).
	cpu, allocMB, mallocs float64
	// dist holds per-operation distributions: "query_s" always, the
	// server.* per-request readings on the served workload.
	dist map[string][]float64
	// layer holds the per-layer wall and count readings of this block.
	layer map[string]float64

	makespan float64 // modeled cluster seconds
	rows     int
	hash     string

	cacheHits, rejected int // served only

	// keep pins what must stay resident while live_heap_mb is read.
	keep any
}

func newSample() *sample {
	return &sample{dist: map[string][]float64{}, layer: map[string]float64{}}
}

func (s *sample) fail(err error) {
	s.failed++
	s.errs = append(s.errs, err.Error())
}

// span times one boundary call with the benchmark's own clock and, in
// traced rounds (sh non-nil), records it as a span on the workload's
// shard.
func span(sh *obs.Shard, name string, f func() error) (float64, error) {
	sp := sh.Start(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.End()
	return d.Seconds(), err
}

// csvInput is one relation as the program receives it: a CSV file, plus
// the VolumeMultiplier the CSV format cannot carry.
type csvInput struct {
	name  string
	path  string
	bytes int64
	mult  float64
}

// writeInputs writes the generated relations as typed-header CSV files
// under dir.
func writeInputs(dir string, rels []*relation.Relation) ([]csvInput, error) {
	var ins []csvInput
	for _, r := range rels {
		in := csvInput{name: r.Name, path: filepath.Join(dir, r.Name+".csv"), mult: r.VolumeMultiplier}
		n, err := writeCSVFile(in.path, r)
		if err != nil {
			return nil, err
		}
		in.bytes = n
		ins = append(ins, in)
	}
	return ins, nil
}

// writeCSVFile is cmd/thetajoin's -out: os.Create + relation.WriteCSV.
func writeCSVFile(path string, r *relation.Relation) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := relation.WriteCSV(f, r); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// loadInputs is the commands' -rel loop: os.Open + relation.ReadCSV,
// then the nominal volume re-applied.
func loadInputs(ins []csvInput) ([]*relation.Relation, error) {
	rels := make([]*relation.Relation, 0, len(ins))
	for _, in := range ins {
		f, err := os.Open(in.path)
		if err != nil {
			return nil, err
		}
		r, err := relation.ReadCSV(f, in.name)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.path, err)
		}
		r.VolumeMultiplier = in.mult
		rels = append(rels, r)
	}
	return rels, nil
}

// parseInto is cmd/thetajoin's -query handling: parse, then register
// every self-join alias on the database.
func parseInto(db *core.DB, spec string) (*query.Query, error) {
	q, aliases, err := query.Parse("query", spec)
	if err != nil {
		return nil, err
	}
	for alias, table := range aliases {
		if alias == table {
			continue
		}
		if err := db.Alias(alias, table); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// engineConfig is the commands' engine configuration: the defaults with
// the slots clamped to kp.
func engineConfig() mr.Config {
	cfg := mr.DefaultConfig()
	if cfg.MapSlots > kp {
		cfg.MapSlots = kp
	}
	cfg.ReduceSlots = kp
	return cfg
}

// oracle cross-checks one query on a small instance: the planned,
// executed result must equal core.Naive's as a multiset.
func oracle(spec string, rels []*relation.Relation) error {
	db, err := core.NewDB(1000, 1, rels...)
	if err != nil {
		return err
	}
	q, err := parseInto(db, spec)
	if err != nil {
		return err
	}
	pl := core.NewPlanner(engineConfig(), kp)
	plan, err := pl.Plan(q, db)
	if err != nil {
		return err
	}
	res, err := pl.ExecuteContext(context.Background(), plan, db)
	if err != nil {
		return err
	}
	want, err := core.Naive(q, db)
	if err != nil {
		return err
	}
	got, exp := relation.NewResultSet(), relation.NewResultSet()
	got.AddAll(core.CanonicalizeResult(res.Output).Tuples)
	exp.AddAll(core.CanonicalizeResult(want).Tuples)
	if !got.Equal(exp) {
		return fmt.Errorf("oracle mismatch on %q: %d rows, core.Naive has %d: %v", spec, got.Len(), exp.Len(), got.Diff(exp, 3))
	}
	return nil
}

// oracleCalls is the size of the instance the oracle runs on.
const oracleCalls = 150

// batch is a set-up batch workload: its inputs are on disk as CSV.
type batch struct {
	w   *workload
	dir string
	ins []csvInput
	sh  *obs.Shard // non-nil in traced rounds
	o   *obs.Obs
}

func setupBatch(w *workload, seed int64, calls int, dir string) (*batch, error) {
	ins, err := writeInputs(dir, w.generate(seed, calls))
	if err != nil {
		return nil, err
	}
	if err := oracle(w.specs[0], w.generate(seed, min(calls, oracleCalls))); err != nil {
		return nil, err
	}
	return &batch{w: w, dir: dir, ins: ins}, nil
}

func (b *batch) trace(o *obs.Obs) error {
	b.o = o
	b.sh = o.Shard("bench:" + b.w.name)
	return nil
}

func (b *batch) close() {}

// run executes one query the way cmd/thetajoin does — load, NewDB,
// parse, plan, execute, hash, write — timing each call from outside.
func (b *batch) run(round int) *sample {
	s := newSample()
	s.ops = 1
	out := filepath.Join(b.dir, "result.csv")
	root := b.sh.Start("bench.query", obs.A("workload", b.w.name), obs.A("round", round))
	t0 := time.Now()
	covered, err := b.query(s, out)
	s.wall = time.Since(t0).Seconds()
	root.End()
	_ = os.Remove(out) // best effort: the work directory goes on exit anyway
	if err != nil {
		s.fail(err)
	}
	s.dist["query_s"] = []float64{s.wall}
	s.layer["bench.span_coverage"] = covered / s.wall
	return s
}

// query runs the seven boundary calls and returns the seconds they
// cover together.
func (b *batch) query(s *sample, out string) (covered float64, err error) {
	l := s.layer
	// step runs one boundary call, unless an earlier one failed.
	step := func(metric, spanName string, f func() error) {
		if err != nil {
			return
		}
		var d float64
		d, err = span(b.sh, spanName, f)
		l[metric] = d
		covered += d
	}
	var (
		rels  []*relation.Relation
		db    *core.DB
		q     *query.Query
		pl    *core.Planner
		plan  *core.Plan
		store *dfs.BlockStore
		res   *core.ExecResult
	)
	defer func() {
		if store != nil { // planning failed before the execute step could close it
			store.Close()
		}
	}()

	step("relation.read_csv_s", "bench.load", func() (err error) {
		rels, err = loadInputs(b.ins)
		return err
	})
	step("core.newdb_s", "bench.newdb", func() (err error) {
		db, err = core.NewDB(1000, 1, rels...)
		return err
	})
	step("query.parse_s", "bench.parse", func() (err error) {
		q, err = parseInto(db, b.w.specs[0])
		return err
	})
	step("core.plan_s", "bench.plan", func() (err error) {
		cfg := engineConfig()
		if b.w.spillBudget > 0 {
			// cmd/thetajoin -spill-budget-mb, at a budget small enough
			// that every pair leaves memory.
			cfg.SpillBudgetBytes = b.w.spillBudget
			if store, err = dfs.NewBlockStore("", b.w.spillBudget); err != nil {
				return err
			}
			cfg.Spill = store
		}
		pl = core.NewPlanner(cfg, kp)
		plan, err = pl.Plan(q, db)
		return err
	})
	step("core.execute_s", "bench.execute", func() (err error) {
		res, err = pl.ExecuteContext(obs.NewContext(context.Background(), b.o), plan, db)
		if store != nil {
			hits, misses, _ := store.CacheStats()
			crc, _ := store.IntegrityStats()
			l["dfs.cache_hits"], l["dfs.cache_misses"] = float64(hits), float64(misses)
			l["dfs.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
			l["dfs.checksum_failures"] = float64(crc)
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			store = nil
		}
		return err
	})
	step("relation.content_hash_s", "bench.hash", func() error {
		s.hash = server.ResultHash(res)
		return nil
	})
	step("relation.write_csv_s", "bench.write", func() error {
		n, err := writeCSVFile(out, res.Output)
		l["relation.write_csv_bytes"] = float64(n)
		return err
	})
	if err != nil {
		return covered, err
	}

	for i, r := range rels {
		l["relation.input_rows"] += float64(r.Cardinality())
		l["relation.input_bytes"] += float64(b.ins[i].bytes)
	}
	// The boundary clock covers the spill store's teardown too;
	// core.execute_s is the program's own reading of the call.
	l["core.execute_s"] = res.Wall.Seconds()
	readExec(l, plan, res, db)
	s.rows = res.Output.Cardinality()
	s.makespan = res.Makespan
	s.keep = []any{db, res}
	return covered, nil
}

// readExec copies the counts and measured walls the executor returns.
func readExec(l map[string]float64, plan *core.Plan, res *core.ExecResult, db *core.DB) {
	l["relation.result_rows"] = float64(res.Output.Cardinality())
	l["core.plan_jobs"] = float64(len(plan.Jobs))
	l["core.plan_candidates"] = float64(plan.CandidateEdges)
	l["core.merge_s"] = res.MergeWall.Seconds()
	l["core.merge_steps"] = float64(res.MergeCount)
	l["core.max_concurrent_jobs"] = float64(res.MaxConcurrentJobs)
	l["core.replanned_jobs"] = float64(len(res.Replanned))
	l["mr.task_attempts"] = float64(res.TaskAttempts)
	l["mr.task_failures"] = float64(res.TaskFailures)
	l["mr.shuffle_bytes"] = float64(res.ShuffleBytes)
	l["mr.spill_bytes"] = float64(res.SpillBytes)
	l["mr.spill_runs"] = float64(res.SpillRuns)
	l["mr.peak_live_bytes"] = float64(res.PeakLiveBytes)
	var mappedRows float64
	for _, pj := range plan.Jobs {
		if pj.Skew != nil {
			l["skew.jobs_with_plan"]++
		}
		for _, name := range pj.RelOrder {
			if r, err := db.Relation(name); err == nil {
				mappedRows += float64(r.Cardinality())
			}
		}
		m := res.JobMetrics[pj.Name]
		l["mr.job_s"] += m.Wall.Total.Seconds()
		l["mr.map_s"] += m.Wall.Map.Seconds()
		l["mr.reduce_s"] += m.Wall.Reduce.Seconds()
		l["mr.assemble_s"] += m.Wall.Assemble.Seconds()
		l["mr.map_tasks"] += float64(m.MapTasks)
		l["mr.reduce_tasks"] += float64(m.ReduceTasks)
		l["mr.pairs_emitted"] += float64(m.PairsEmitted)
		l["mr.output_bytes"] += float64(m.OutputBytes)
		l["mr.combinations_checked"] += float64(m.CombinationsChecked)
		l["skew.balance_ratio_max"] = max(l["skew.balance_ratio_max"], m.BalanceRatio)
	}
	l["mr.match_ratio"] = ratio(l["relation.result_rows"], l["mr.combinations_checked"])
	l["skew.replication_ratio"] = ratio(l["mr.pairs_emitted"], mappedRows)
}
