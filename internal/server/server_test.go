package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/query"
	"repro/internal/relation"
)

func randRel(name string, n, domain int, seed int64) *relation.Relation {
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
	))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(rng.Intn(domain))),
			relation.Int(int64(rng.Intn(domain))),
		})
	}
	return r
}

func testDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.NewDB(500, 1,
		randRel("A", 60, 15, 3), randRel("B", 50, 15, 4), randRel("C", 40, 15, 5))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testMRConfig() *mr.Config {
	cfg := mr.DefaultConfig()
	cfg.TuplesPerMapTask = 32
	cfg.MapSlots = 8
	cfg.ReduceSlots = 8
	return &cfg
}

func newTestService(t *testing.T, db *core.DB, cfg Config) *Service {
	t.Helper()
	if cfg.KP == 0 {
		cfg.KP = 8
	}
	if cfg.MR == nil {
		cfg.MR = testMRConfig()
	}
	s := New(db, cfg)
	t.Cleanup(s.Close)
	return s
}

const testSpec = "FROM A, B WHERE A.a < B.a"

// oneShotHash runs the same query through the batch path (its own
// unit pool, fresh planner) and returns the result hash.
func oneShotHash(t *testing.T, db *core.DB, spec string) string {
	t.Helper()
	q, aliases, err := query.Parse("oneshot", spec)
	if err != nil {
		t.Fatal(err)
	}
	view, err := db.View(aliases)
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPlanner(*testMRConfig(), 8)
	plan, err := pl.Plan(q, view)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Execute(plan, view)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", relation.ContentHash(res.Output))
}

// TestSubmitMatchesOneShot: a served query returns the same result
// (by content hash) as the one-shot batch path, including self-joins
// through per-query alias views.
func TestSubmitMatchesOneShot(t *testing.T) {
	db := testDB(t)
	s := newTestService(t, db, Config{})
	for _, spec := range []string{
		testSpec,
		"FROM A t1, A t2 WHERE t1.a < t2.b",
		"FROM A, B, C WHERE A.a = B.a AND B.b >= C.b",
	} {
		resp, err := s.Submit(context.Background(), Request{Spec: spec, Limit: 3})
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if want := oneShotHash(t, db, spec); resp.ResultHash != want {
			t.Errorf("%q: served hash %s != one-shot %s", spec, resp.ResultHash, want)
		}
		if resp.Rows > 0 && len(resp.Tuples) == 0 {
			t.Errorf("%q: limit 3 returned no tuples for %d rows", spec, resp.Rows)
		}
	}
	// The self-join aliases must not have leaked into the shared DB.
	if _, err := db.Relation("t1"); err == nil {
		t.Error("alias t1 leaked into the shared DB")
	}
}

// TestResultRowLimit: through the HTTP handler, "limit" 0 renders no
// rows, a positive limit that many, and a negative one — thetajoin's
// "-limit -1" — every row.
func TestResultRowLimit(t *testing.T) {
	h := newTestService(t, testDB(t), Config{}).Handler()
	post := func(limit int) Response {
		t.Helper()
		rec := postQuery(t, h, fmt.Sprintf(`{"spec": %q, "limit": %d}`, testSpec, limit))
		if rec.Code != http.StatusOK {
			t.Fatalf("limit %d: status %d, body %q", limit, rec.Code, rec.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	rows := post(0).Rows
	if rows <= 2 {
		t.Fatalf("test query returns %d rows, want more than 2", rows)
	}
	for _, tc := range []struct{ limit, want int }{{0, 0}, {2, 2}, {-1, rows}} {
		if got := len(post(tc.limit).Tuples); got != tc.want {
			t.Errorf("limit %d rendered %d of %d rows, want %d", tc.limit, got, rows, tc.want)
		}
	}
}

// TestLimitCapsTheExecution: over a result of more than 100 k rows, a
// Limit 10 request returns 10 rows, and its row count and hash are those
// of a Limit −1 request, whose hash is the ContentHash of a one-shot
// run's result; Limit 0 returns the same count and hash and no rows. The
// returned rows are the full result's first ten.
func TestLimitCapsTheExecution(t *testing.T) {
	db, err := core.NewDB(500, 1, randRel("A", 500, 1_000_000, 6), randRel("B", 500, 1_000_000, 7))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, db, Config{})
	run := func(limit int) *Response {
		t.Helper()
		resp, err := s.Submit(context.Background(), Request{Spec: testSpec, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	full := run(-1)
	if full.Rows < 100_000 || len(full.Tuples) != full.Rows {
		t.Fatalf("Limit -1: %d rows, %d returned; the test wants over 100 k, all returned", full.Rows, len(full.Tuples))
	}
	if want := oneShotHash(t, db, testSpec); full.ResultHash != want {
		t.Errorf("Limit -1: ResultHash %s, ContentHash of the one-shot result %s", full.ResultHash, want)
	}
	for _, limit := range []int{10, 0} {
		resp := run(limit)
		if len(resp.Tuples) != limit {
			t.Errorf("Limit %d: %d rows returned", limit, len(resp.Tuples))
		}
		if resp.Rows != full.Rows || resp.ResultHash != full.ResultHash {
			t.Errorf("Limit %d: %d rows, hash %s; Limit -1: %d, %s", limit, resp.Rows, resp.ResultHash, full.Rows, full.ResultHash)
		}
		for i, row := range resp.Tuples {
			if row != full.Tuples[i] {
				t.Errorf("Limit %d: row %d is %s, the full result's %s", limit, i, row, full.Tuples[i])
			}
		}
	}
}

// TestPlanCacheSemantics: identical re-submission hits, a catalog
// version bump (re-analyze) misses and recompiles.
func TestPlanCacheSemantics(t *testing.T) {
	db := testDB(t)
	s := newTestService(t, db, Config{})
	reg := s.Obs().Metrics

	r1, err := s.Submit(context.Background(), Request{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first submission hit the cache")
	}
	// Textually different, semantically identical: same canonical key.
	r2, err := s.Submit(context.Background(), Request{Spec: "from B, A where B.a > A.a"})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("identical re-submission missed the cache")
	}
	if r1.Canonical != r2.Canonical {
		t.Errorf("canonical forms differ: %q vs %q", r1.Canonical, r2.Canonical)
	}
	if r1.ResultHash != r2.ResultHash {
		t.Error("cached plan produced a different result")
	}
	if hits, misses := reg.Counter("server.plancache.hit").Value(), reg.Counter("server.plancache.miss").Value(); hits != 1 || misses != 1 {
		t.Errorf("hit/miss = %d/%d, want 1/1", hits, misses)
	}
	t.Logf("plan time: miss %dns → hit %dns", r1.PlanNs, r2.PlanNs)

	// Re-analyze: same statistics content, but the catalog version bumps
	// and the cached plan must not be reused.
	if err := db.Analyze(500, 1); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Submit(context.Background(), Request{Spec: testSpec})
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("catalog version bump did not invalidate the cache")
	}
	if misses := reg.Counter("server.plancache.miss").Value(); misses != 2 {
		t.Errorf("misses = %d after version bump, want 2", misses)
	}
	if s.cache.Len() != 1 {
		t.Errorf("stale cache generation not dropped: %d entries", s.cache.Len())
	}
}

// TestPlanCacheSingleflight: N concurrent identical submissions
// compile exactly once; everyone gets the same plan and result.
func TestPlanCacheSingleflight(t *testing.T) {
	db := testDB(t)
	s := newTestService(t, db, Config{MaxConcurrent: 8})
	const n = 8
	var wg sync.WaitGroup
	hashes := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), Request{Spec: testSpec})
			if err != nil {
				errs[i] = err
				return
			}
			hashes[i] = resp.ResultHash
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if hashes[i] != hashes[0] {
			t.Errorf("submit %d: hash %s != %s", i, hashes[i], hashes[0])
		}
	}
	reg := s.Obs().Metrics
	if misses := reg.Counter("server.plancache.miss").Value(); misses != 1 {
		t.Errorf("%d concurrent identical submissions compiled %d times, want 1", n, misses)
	}
	if hits := reg.Counter("server.plancache.hit").Value(); hits != n-1 {
		t.Errorf("hits = %d, want %d", hits, n-1)
	}
}

// TestConcurrentQueriesSharedKP is the tentpole acceptance assertion:
// concurrent queries on a K_P-unit server never hold more than K_P
// units combined, verified through the shared pool's obs histogram
// high-water mark.
func TestConcurrentQueriesSharedKP(t *testing.T) {
	db := testDB(t)
	const kp = 6
	s := newTestService(t, db, Config{KP: kp, MaxConcurrent: 4})
	specs := []string{
		testSpec,
		"FROM A t1, A t2 WHERE t1.a < t2.b",
		"FROM B, C WHERE B.b >= C.a",
		"FROM A, C WHERE A.b = C.b",
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), Request{Spec: spec})
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	snap := s.Obs().Metrics.Histogram("core.pool.inuse").Snapshot()
	if snap.Count == 0 {
		t.Fatal("shared pool recorded no acquisitions")
	}
	if snap.Max > int64(kp) {
		t.Errorf("combined unit holdings peaked at %d > K_P=%d", snap.Max, kp)
	}
	t.Logf("pool acquisitions %d, in-use high-water %d/%d", snap.Count, snap.Max, kp)
}

// TestAdmissionControl: a full queue rejects immediately, a queued
// submission times out, and draining restores admission.
func TestAdmissionControl(t *testing.T) {
	db := testDB(t)
	s := newTestService(t, db, Config{
		MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 30 * time.Millisecond,
	})
	// Occupy the single execution slot and the single queue seat.
	s.sem <- struct{}{}
	s.mu.Lock()
	s.queued = 1
	s.mu.Unlock()

	if _, err := s.Submit(context.Background(), Request{Spec: testSpec}); err != ErrQueueFull {
		t.Errorf("full queue: err = %v, want ErrQueueFull", err)
	}
	s.mu.Lock()
	s.queued = 0
	s.mu.Unlock()
	if _, err := s.Submit(context.Background(), Request{Spec: testSpec}); err != ErrTimedOut {
		t.Errorf("held slot: err = %v, want ErrTimedOut", err)
	}
	// A caller-cancelled context surfaces as its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, Request{Spec: testSpec}); err != context.Canceled {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	<-s.sem // release the held slot
	if _, err := s.Submit(context.Background(), Request{Spec: testSpec}); err != nil {
		t.Errorf("after drain: %v", err)
	}
	reg := s.Obs().Metrics
	if v := reg.Counter("server.rejected.queue").Value(); v != 1 {
		t.Errorf("rejected.queue = %d, want 1", v)
	}
	if v := reg.Counter("server.rejected.timeout").Value(); v != 1 {
		t.Errorf("rejected.timeout = %d, want 1", v)
	}
}

// TestNoQueue: a negative MaxQueue switches the queue off — with the
// only slot busy the next submission is turned away at once (429 over
// HTTP), not parked until QueueTimeout.
func TestNoQueue(t *testing.T) {
	s := newTestService(t, testDB(t), Config{
		MaxConcurrent: 1, MaxQueue: -1, QueueTimeout: 30 * time.Millisecond,
	})
	s.sem <- struct{}{} // one submission held in flight
	if _, err := s.Submit(context.Background(), Request{Spec: testSpec}); err != ErrQueueFull {
		t.Errorf("busy slot, no queue: err = %v, want ErrQueueFull", err)
	}
	if rec := postQuery(t, s.Handler(), `{"spec": "`+testSpec+`"}`); rec.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	<-s.sem
	if _, err := s.Submit(context.Background(), Request{Spec: testSpec}); err != nil {
		t.Errorf("free slot: %v", err)
	}
}

// TestCloseDrains: Close waits for in-flight queries and rejects new
// ones. What Close guarantees is that no query still holds an execution
// slot when it returns — Submit itself returns to its caller a moment
// later, so the test does not ask whether that has happened yet.
func TestCloseDrains(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{KP: 8, MR: testMRConfig()})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := s.Submit(context.Background(), Request{Spec: testSpec})
		done <- err
	}()
	<-started
	// Give the submission a moment to pass admission before closing.
	time.Sleep(5 * time.Millisecond)
	s.Close()
	if n := len(s.sem); n != 0 {
		t.Errorf("Close returned with %d queries still executing", n)
	}
	if err := <-done; err != nil && err != ErrClosed {
		t.Errorf("in-flight query failed: %v", err)
	}
	if _, err := s.Submit(context.Background(), Request{Spec: testSpec}); err != ErrClosed {
		t.Errorf("post-Close submit: err = %v, want ErrClosed", err)
	}
}

// BenchmarkConcurrentQueries drives the full serving path — admission,
// plan cache, shared-pool execution — with parallel submissions of a
// small mixed workload.
func BenchmarkConcurrentQueries(b *testing.B) {
	db, err := core.NewDB(500, 1,
		randRel("A", 60, 15, 3), randRel("B", 50, 15, 4), randRel("C", 40, 15, 5))
	if err != nil {
		b.Fatal(err)
	}
	s := New(db, Config{KP: 8, MaxConcurrent: 4, MR: testMRConfig()})
	defer s.Close()
	specs := []string{
		testSpec,
		"FROM B, C WHERE B.b >= C.a",
		"FROM A, C WHERE A.b = C.b",
	}
	var i atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			spec := specs[int(i.Add(1))%len(specs)]
			if _, err := s.Submit(context.Background(), Request{Spec: spec}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
