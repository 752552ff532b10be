package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/schedule"
)

// Admission rejections, distinguishable so the HTTP layer can map them
// to 429 (back off and retry) versus 503 (unavailable).
var (
	ErrQueueFull = errors.New("server: admission queue full")
	ErrTimedOut  = errors.New("server: timed out waiting for admission")
	ErrClosed    = errors.New("server: shutting down")
)

// execError marks an error raised by plan execution, after the query
// was accepted and planned. Unless it is one of the classified
// degradations (mr.TaskError, deadline, cancellation) it is the
// service's failure — HTTP 500 — not a bad query.
type execError struct{ err error }

func (e *execError) Error() string { return e.err.Error() }
func (e *execError) Unwrap() error { return e.err }

// Config tunes a Service. Zero values take the stated defaults.
type Config struct {
	// KP is the machine-wide processing-unit count every concurrent
	// plan shares. Default 96.
	KP int
	// MaxConcurrent bounds the queries executing at once; further
	// admitted queries wait in the queue. Default 4.
	MaxConcurrent int
	// MaxQueue bounds the queries waiting for an execution slot beyond
	// MaxConcurrent; submissions past it are rejected with
	// ErrQueueFull. Default 16; negative means no queue at all.
	MaxQueue int
	// QueueTimeout bounds how long a queued query waits before
	// rejection with ErrTimedOut. Default 10s.
	QueueTimeout time.Duration
	// QueryTimeout bounds one admitted query's EXECUTION (planning and
	// queueing excluded): past the deadline the plan's context cancels,
	// every in-flight job aborts promptly (between tasks and mid-merge)
	// and the submission fails with context.DeadlineExceeded — graceful
	// degradation, mapped to 503 + Retry-After by the HTTP layer.
	// 0 (the default) means no per-query deadline.
	QueryTimeout time.Duration
	// MinBudget floors the per-query unit budget the arbiter assigns
	// under load. Default 1.
	MinBudget int
	// MR overrides the MapReduce engine configuration; nil uses
	// mr.DefaultConfig() with slots clamped to KP (matching
	// cmd/thetajoin).
	MR *mr.Config
	// Obs receives the service's counters, histograms and spans (and
	// the shared pool's in-use histogram). Nil allocates a private
	// metrics registry — Service.Obs exposes it.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.KP <= 0 {
		c.KP = 96
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 10 * time.Second
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 1
	}
	if c.MR == nil {
		cfg := mr.DefaultConfig()
		if cfg.MapSlots > c.KP {
			cfg.MapSlots = c.KP
		}
		cfg.ReduceSlots = c.KP
		c.MR = &cfg
	}
	if c.Obs == nil {
		c.Obs = &obs.Obs{Metrics: obs.NewRegistry()}
	}
	return c
}

// Request is one query submission: a Spec in the internal/query.Parse
// grammar.
type Request struct {
	// Name labels the query in spans and reports; empty derives one.
	Name string `json:"name,omitempty"`
	// Spec is the query text, e.g.
	// "FROM calls t1, calls t2 WHERE t1.bt <= t2.bt".
	Spec string `json:"spec,omitempty"`
	// Limit bounds the result rows returned inline: 0 returns none, a
	// negative value every row — thetajoin's "-limit -1". It also bounds
	// the rows the execution materialises: the result job's reducers (or
	// the rid-merge) hash and count every row but keep only the first
	// Limit, in reducer order, so Rows and ResultHash always describe
	// the full result and the returned rows are the same ones at any
	// worker count or fault plan.
	Limit int `json:"limit,omitempty"`
}

// Response reports one executed submission.
type Response struct {
	Name      string `json:"name"`
	Canonical string `json:"canonical,omitempty"`
	// CacheHit is true when the plan came out of the plan cache; PlanNs
	// is the time spent obtaining the plan (≈0 on a hit).
	CacheHit bool  `json:"cacheHit"`
	PlanNs   int64 `json:"planNs"`
	ExecNs   int64 `json:"execNs"`
	// Budget is the unit budget the arbiter granted this execution.
	Budget int `json:"budget"`
	// Rows counts the full result, however few rows Tuples holds.
	Rows int `json:"rows"`
	// ResultHash is relation.ContentHash of the full result, printed
	// %016x — order-insensitive, so any client can compare against a
	// one-shot run.
	ResultHash        string   `json:"resultHash"`
	Makespan          float64  `json:"makespan"`
	ShuffleBytes      int64    `json:"shuffleBytes"`
	MaxConcurrentJobs int      `json:"maxConcurrentJobs"`
	Replanned         []string `json:"replanned,omitempty"`
	// JobBalance maps job name → measured reducer balance ratio.
	JobBalance map[string]float64 `json:"jobBalance,omitempty"`
	// Tuples renders up to Request.Limit result rows.
	Tuples []string `json:"tuples,omitempty"`
}

// Service is the resident multi-query join engine. Construct with New,
// submit with Submit (or the HTTP handler), stop with Close.
type Service struct {
	cfg     Config
	db      *core.DB
	pool    *core.SharedUnitPool
	arbiter *schedule.Arbiter
	o       *obs.Obs

	// sem holds one token per executing query; queued counts waiters.
	sem    chan struct{}
	mu     sync.Mutex
	queued int
	closed bool
	wg     sync.WaitGroup

	cache   *planCache
	submits int64 // monotone label for unnamed submissions (under mu)
}

// New builds a Service over the database. The db's relations and
// catalog are shared read-only across queries; self-join aliases go
// through per-query views, never the shared DB.
func New(db *core.DB, cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:     cfg,
		db:      db,
		pool:    core.NewSharedUnitPool(cfg.KP, cfg.Obs),
		arbiter: schedule.NewArbiter(cfg.KP, cfg.MinBudget),
		o:       cfg.Obs,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		cache:   newPlanCache(cfg.Obs),
	}
}

// Obs exposes the service's observability sinks (metrics registry,
// tracer) for export endpoints and tests.
func (s *Service) Obs() *obs.Obs { return s.o }

// Close stops admission and drains: it returns once every in-flight
// query has finished. Subsequent Submits fail with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}

// admit takes an execution slot, respecting the queue bound and
// timeout. On success the caller owns one sem token and one wg count.
func (s *Service) admit(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.o.Counter("server.rejected.closed").Add(1)
		return ErrClosed
	}
	// Fast path: a free slot skips the queue entirely.
	select {
	case s.sem <- struct{}{}:
		s.wg.Add(1)
		s.mu.Unlock()
		return nil
	default:
	}
	if s.queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.o.Counter("server.rejected.queue").Add(1)
		return ErrQueueFull
	}
	s.queued++
	s.wg.Add(1)
	s.mu.Unlock()

	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	var err error
	select {
	case s.sem <- struct{}{}:
	case <-timer.C:
		s.o.Counter("server.rejected.timeout").Add(1)
		err = ErrTimedOut
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	if err != nil {
		s.wg.Done()
		return err
	}
	return nil
}

// Submit runs one query to completion: admission, plan (cached),
// execution on the shared pool under the arbiter's budget. Safe for
// concurrent use.
func (s *Service) Submit(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Spec == "" {
		return nil, fmt.Errorf("server: spec required")
	}
	name := req.Name
	if name == "" {
		s.mu.Lock()
		s.submits++
		name = fmt.Sprintf("q%d", s.submits)
		s.mu.Unlock()
	}
	shard := s.o.Shard("server:" + name)

	if err := s.admit(ctx); err != nil {
		shard.Instant("reject", obs.A("err", err.Error()))
		return nil, err
	}
	defer func() {
		<-s.sem
		s.wg.Done()
	}()
	s.o.Counter("server.queries").Add(1)

	version := s.db.CatalogVersion()
	resp := &Response{Name: name}

	// Resolve the plan: parse + plan cache.
	planStart := time.Now()
	q, aliases, err := query.Parse(name, req.Spec)
	if err != nil {
		return nil, err
	}
	canonical := query.Canonical(q, aliases)
	resp.Canonical = canonical
	plan, execDB, hit, err := s.cache.get(canonical, version, func() (*core.Plan, *core.DB, error) {
		// Compile from the canonical form, so every spec mapping to
		// this key gets the identical plan.
		cq, caliases, err := query.Parse(name, canonical)
		if err != nil {
			return nil, nil, fmt.Errorf("server: canonical re-parse: %w", err)
		}
		view, err := s.db.View(caliases)
		if err != nil {
			return nil, nil, err
		}
		p, err := s.newPlanner().Plan(cq, view)
		if err != nil {
			return nil, nil, err
		}
		return p, view, nil
	})
	if err != nil {
		return nil, err
	}
	resp.CacheHit = hit
	resp.PlanNs = time.Since(planStart).Nanoseconds()
	s.o.Histogram("server.plan.ns").Observe(resp.PlanNs)

	// Execute under the shared pool, budget-capped by the arbiter.
	budget := s.arbiter.Admit()
	defer s.arbiter.Done()
	resp.Budget = budget
	pl := s.newPlanner()
	pl.Pool = core.WithBudget(s.pool, budget)
	shard.Instant("execute", obs.A("budget", budget), obs.A("cacheHit", resp.CacheHit))
	execStart := time.Now()
	execCtx := obs.NewContext(ctx, s.o)
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		execCtx, cancel = context.WithTimeout(execCtx, s.cfg.QueryTimeout)
		defer cancel()
	}
	res, err := pl.ExecuteLimit(execCtx, plan, execDB, req.Limit)
	if err != nil {
		s.o.Counter("server.exec.errors").Add(1)
		// Classify for telemetry: retry exhaustion (a task burned its
		// whole attempt budget) and deadline expiry are the two
		// degraded-service classes the HTTP layer maps to 503.
		var te *mr.TaskError
		switch {
		case errors.As(err, &te):
			s.o.Counter("server.exec.retry_exhausted").Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			s.o.Counter("server.exec.deadline").Add(1)
		}
		return nil, &execError{err}
	}
	resp.ExecNs = time.Since(execStart).Nanoseconds()
	s.o.Histogram("server.exec.ns").Observe(resp.ExecNs)

	fillResult(resp, res)
	shard.Instant("complete", obs.A("rows", resp.Rows), obs.A("hash", resp.ResultHash))
	return resp, nil
}

// newPlanner builds the per-submission planner over the shared engine
// configuration. Plans are always compiled at the full KP — budgets
// cap execution-time concurrency, not the plan shape — so the plan
// cache never needs a budget component in its key.
func (s *Service) newPlanner() *core.Planner {
	return core.NewPlanner(*s.cfg.MR, s.cfg.KP)
}

// fillResult renders the execution outcome into the response: every
// row the execution kept, which is what Request.Limit asked for.
func fillResult(resp *Response, res *core.ExecResult) {
	resp.Rows = res.Rows
	resp.ResultHash = ResultHash(res)
	resp.Makespan = res.Makespan
	resp.ShuffleBytes = res.ShuffleBytes
	resp.MaxConcurrentJobs = res.MaxConcurrentJobs
	resp.Replanned = res.Replanned
	if len(res.JobMetrics) > 0 {
		resp.JobBalance = make(map[string]float64, len(res.JobMetrics))
		for n, m := range res.JobMetrics {
			resp.JobBalance[n] = m.BalanceRatio
		}
	}
	if n := len(res.Output.Tuples); n > 0 {
		resp.Tuples = make([]string, n)
		for i, t := range res.Output.Tuples {
			resp.Tuples[i] = t.String()
		}
	}
}
