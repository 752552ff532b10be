package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives the whole disabled chain: every call on nil
// receivers must be a no-op, never a panic — the contract that lets
// instrumented code skip "is tracing on" branches.
func TestNilSafety(t *testing.T) {
	var o *Obs
	sh := o.Shard("x")
	if sh != nil {
		t.Fatal("nil Obs produced a live shard")
	}
	sp := sh.Start("span", A("k", 1))
	sp.End(A("k2", 2))
	sh.Instant("i")
	o.Counter("c").Add(5)
	if got := o.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	o.Histogram("h").Observe(3)
	if s := o.Histogram("h").Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram count = %d", s.Count)
	}
	if o.Tracing() {
		t.Error("nil Obs reports tracing enabled")
	}
	// Obs with nil members is equally inert.
	o = &Obs{}
	if o.Shard("x") != nil || o.Counter("c") != nil || o.Tracing() {
		t.Error("Obs{nil,nil} is not fully disabled")
	}
	var tr *Tracer
	if err := tr.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Errorf("nil tracer WriteJSON: %v", err)
	}
	var reg *Registry
	if err := reg.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry WriteJSON: %v", err)
	}
}

// TestTracerEventsMonotonic records spans from several goroutines on
// separate shards and asserts the exported stream is well-formed and
// sorted by timestamp.
func TestTracerEventsMonotonic(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := tr.Shard("worker")
			for i := 0; i < 5; i++ {
				sp := sh.Start("step", A("i", i))
				sp.End(A("w", w))
				sh.Instant("tick")
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if want := 4 * 5 * 2; len(evs) != want {
		t.Fatalf("got %d events, want %d", len(evs), want)
	}
	for i, e := range evs {
		if e.Name == "" || (e.Ph != "X" && e.Ph != "i") {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("event %d has negative time: %+v", i, e)
		}
		if i > 0 && e.Ts < evs[i-1].Ts {
			t.Fatalf("event %d breaks monotonicity: ts %d after %d", i, e.Ts, evs[i-1].Ts)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	// 4 thread_name metadata events + the spans/instants.
	if want := 4 + len(evs); len(doc.TraceEvents) != want {
		t.Errorf("JSON has %d events, want %d", len(doc.TraceEvents), want)
	}
}

// TestNilShardAllocatesNothing: with tracing off, a span's arguments
// cost nothing — Start copies them only for a live shard, so the
// caller's argument slice stays on its stack — and a live span keeps
// its own copy of them.
func TestNilShardAllocatesNothing(t *testing.T) {
	var sh *Shard
	if n := testing.AllocsPerRun(100, func() {
		sp := sh.Start("reduce", A("reducer", 300), A("pairs", 1<<20))
		sp.End(A("keys", 7))
	}); n != 0 {
		t.Errorf("a nil shard's span allocates %v times, want 0", n)
	}

	tr := NewTracer()
	args := []Arg{A("in", 10)}
	sp := tr.Shard("s").Start("work", args...)
	args[0] = A("in", 11)
	sp.End()
	if evs := tr.Events(); len(evs) != 1 || evs[0].Args["in"] != 10 {
		t.Errorf("events %v, want one with in=10 as Start was given", evs)
	}
}

func TestSpanArgsAndDuration(t *testing.T) {
	tr := NewTracer()
	sh := tr.Shard("s")
	sp := sh.Start("work", A("in", 10))
	time.Sleep(2 * time.Millisecond)
	sp.End(A("out", 20))
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	e := evs[0]
	if e.Dur <= 0 {
		t.Errorf("span duration %d, want > 0", e.Dur)
	}
	if e.Args["in"] != 10 || e.Args["out"] != 20 {
		t.Errorf("args = %v", e.Args)
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("pairs").Add(10)
			for _, v := range []int64{1, 2, 7, 1024} {
				r.Histogram("bytes").Observe(v)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("pairs").Value(); got != 80 {
		t.Errorf("counter = %d, want 80", got)
	}
	s := r.Histogram("bytes").Snapshot()
	if s.Count != 32 || s.Min != 1 || s.Max != 1024 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Sum != 8*(1+2+7+1024) {
		t.Errorf("sum = %d", s.Sum)
	}
	if math.Abs(s.Mean-float64(s.Sum)/32) > 1e-9 {
		t.Errorf("mean = %f", s.Mean)
	}
	// 1 → bucket 1, 2 → bucket 2, 7 → bucket 3, 1024 → bucket 11.
	if len(s.Buckets) != 12 || s.Buckets[1] != 8 || s.Buckets[2] != 8 || s.Buckets[3] != 8 || s.Buckets[11] != 8 {
		t.Errorf("buckets = %v", s.Buckets)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc registrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported metrics are not valid JSON: %v", err)
	}
	if doc.Counters["pairs"] != 80 || doc.Histograms["bytes"].Count != 32 {
		t.Errorf("exported doc = %+v", doc)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Errorf("empty context yields %v", got)
	}
	o := &Obs{Tracer: NewTracer(), Metrics: NewRegistry()}
	ctx := NewContext(context.Background(), o)
	if got := FromContext(ctx); got != o {
		t.Errorf("round trip lost the Obs: %v", got)
	}
	if ctx2 := NewContext(context.Background(), nil); FromContext(ctx2) != nil {
		t.Error("nil Obs attached to context")
	}
}
