package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mr"
)

// postQuery drives the HTTP handler with one request body and returns
// the recorded response.
func postQuery(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRetryExhaustedMapsTo503: a query whose task retries are
// exhausted is degraded service (503 + Retry-After and the
// retry_exhausted counter), not a client error — and a fault-free
// resubmission of the same query succeeds.
func TestRetryExhaustedMapsTo503(t *testing.T) {
	db := testDB(t)
	cfg := testMRConfig()
	cfg.MaxTaskAttempts = 2
	cfg.Faults = &mr.FaultPlan{Faults: []mr.Fault{
		{Kind: mr.FaultKillMap, Task: 0, Attempt: -1}, // every attempt: exhausts the budget
	}}
	s := newTestService(t, db, Config{MR: cfg})
	h := s.Handler()

	rec := postQuery(t, h, `{"spec": "FROM A, B WHERE A.a < B.a"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 for retry exhaustion must carry Retry-After")
	}
	if n := s.Obs().Counter("server.exec.retry_exhausted").Value(); n != 1 {
		t.Errorf("retry_exhausted counter = %d", n)
	}

	// The same service without faults keeps serving.
	s2 := newTestService(t, db, Config{})
	rec = postQuery(t, s2.Handler(), `{"spec": "FROM A, B WHERE A.a < B.a"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("fault-free resubmission: status %d, body %q", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultHash == "" {
		t.Error("response missing result hash")
	}
}

// TestQueryTimeoutMapsTo503: Config.QueryTimeout cancels an admitted
// execution at its deadline; the submission fails with
// context.DeadlineExceeded (503 + Retry-After over HTTP) and the
// service keeps serving subsequent queries.
func TestQueryTimeoutMapsTo503(t *testing.T) {
	db := testDB(t)
	cfg := testMRConfig()
	// A straggler far beyond the deadline on every map attempt keeps
	// the execution alive until the deadline fires.
	cfg.Faults = &mr.FaultPlan{Faults: []mr.Fault{
		{Kind: mr.FaultDelayMap, Task: -1, Attempt: -1, Delay: 30 * time.Second},
	}}
	s := newTestService(t, db, Config{MR: cfg, QueryTimeout: 50 * time.Millisecond})

	start := time.Now()
	_, err := s.Submit(context.Background(), Request{Spec: testSpec})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit error = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("deadline did not cancel promptly: took %v", took)
	}
	if n := s.Obs().Counter("server.exec.deadline").Value(); n != 1 {
		t.Errorf("deadline counter = %d", n)
	}

	rec := postQuery(t, s.Handler(), `{"spec": "FROM A, B WHERE A.a < B.a"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 for deadline expiry must carry Retry-After")
	}

	// Degradation is per query: a fault-free service still serves.
	s2 := newTestService(t, db, Config{QueryTimeout: 10 * time.Second})
	if _, err := s2.Submit(context.Background(), Request{Spec: testSpec}); err != nil {
		t.Fatalf("healthy query after timeouts: %v", err)
	}
}

// failingSpillStore is a spill store whose disk is gone: every
// CreateSpillFile fails, which no retry can cure.
type failingSpillStore struct{ mr.SpillStore }

func (failingSpillStore) CreateSpillFile() (mr.SpillFile, error) {
	return nil, errors.New("spill disk unavailable")
}

// TestExecutionErrorMapsTo500: an error out of the executor that is
// not a classified degradation is the service's failure (500), while a
// request that never reaches execution stays a client error (400).
func TestExecutionErrorMapsTo500(t *testing.T) {
	cfg := testMRConfig()
	cfg.SpillBudgetBytes = 1 << 10
	cfg.Spill = failingSpillStore{}
	s := newTestService(t, testDB(t), Config{MR: cfg})
	h := s.Handler()
	// The query parses and plans; its first map task to spill fails.
	if rec := postQuery(t, h, `{"spec": "FROM A, B WHERE A.a < B.a"}`); rec.Code != http.StatusInternalServerError ||
		!strings.Contains(rec.Body.String(), "spill disk unavailable") {
		t.Errorf("executor failure: status %d, want 500 naming the error; body %q", rec.Code, rec.Body.String())
	}
	if n := s.pool.InUse(); n != 0 {
		t.Errorf("%d units still held after the failed query", n)
	}
	for _, body := range []string{
		`{"spec": "FROM A, B WHERE"}`,                   // malformed spec
		`{"spec": "FROM A, ghost WHERE A.a < ghost.a"}`, // unknown relation
		`{"name": "no spec"}`,
		`{"spec": `,
	} {
		if rec := postQuery(t, h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %q", body, rec.Code, rec.Body.String())
		}
	}
}

// TestRequestBodyLimit: a body past maxRequestBytes is refused with 413
// however well-formed it is, and the service keeps serving.
func TestRequestBodyLimit(t *testing.T) {
	h := newTestService(t, testDB(t), Config{}).Handler()
	huge := `{"spec": "FROM A, B WHERE A.a < B.a", "name": "` + strings.Repeat("x", 2*maxRequestBytes) + `"}`
	if rec := postQuery(t, h, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: status %d, want 413; body %q", rec.Code, rec.Body.String())
	}
	if rec := postQuery(t, h, `{"spec": "FROM A, B WHERE A.a < B.a"}`); rec.Code != http.StatusOK {
		t.Fatalf("well-formed request after it: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// panicOnceStore is a spill store with a bug: its first CreateSpillFile
// panics, inside whichever map attempt spills first.
type panicOnceStore struct {
	mr.SpillStore
	fired atomic.Bool
}

func (p *panicOnceStore) CreateSpillFile() (mr.SpillFile, error) {
	if p.fired.CompareAndSwap(false, true) {
		panic("spill store bug")
	}
	return p.SpillStore.CreateSpillFile()
}

// TestTaskPanicMapsTo500: a panic inside a task attempt fails that
// query (500, the panic named in the body) and nothing else — the
// daemon survives it, the shared pool gets its units back, and the next
// request is served.
func TestTaskPanicMapsTo500(t *testing.T) {
	files, err := mr.NewTempSpillStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	cfg := testMRConfig()
	cfg.SpillBudgetBytes = 1 << 10
	cfg.Spill = &panicOnceStore{SpillStore: files}
	s := newTestService(t, testDB(t), Config{MR: cfg})
	h := s.Handler()

	rec := postQuery(t, h, `{"spec": "FROM A, B WHERE A.a < B.a"}`)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panicked: spill store bug") {
		t.Fatalf("panicking attempt: status %d, want 500 naming the panic; body %q", rec.Code, rec.Body.String())
	}
	if n := s.pool.InUse(); n != 0 {
		t.Errorf("%d units still held after the failed query", n)
	}
	if live := files.Live(); live != 0 {
		t.Errorf("%d spill files left by the failed query", live)
	}
	if rec := postQuery(t, h, `{"spec": "FROM A, B WHERE A.a < B.a"}`); rec.Code != http.StatusOK {
		t.Fatalf("request after the panic: status %d, body %q", rec.Code, rec.Body.String())
	}
	if n := s.pool.InUse(); n != 0 {
		t.Errorf("%d units still held after the served query", n)
	}
}
