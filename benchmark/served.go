package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// served is the set-up served workload: a resident server.Service
// behind httptest with every spec of the mix already in its plan cache.
type served struct {
	w       *workload
	db      *core.DB
	clients int
	bodies  [][]byte  // per spec, the POST /query request body
	pins    []specPin // per spec, from the warm-up submission

	svc *server.Service
	srv *httptest.Server

	// Traced rounds run against a second service built the way
	// `thetad -trace` builds one, since a Service's sinks are fixed at
	// construction.
	sh       *obs.Shard
	clientSh []*obs.Shard
}

// specPin is the identity every response for one spec must repeat.
type specPin struct {
	rows     int
	hash     string
	makespan float64
}

func setupServed(w *workload, seed int64, calls int, dir string) (*served, error) {
	ins, err := writeInputs(dir, w.generate(seed, calls))
	if err != nil {
		return nil, err
	}
	for _, spec := range w.specs {
		if err := oracle(spec, w.generate(seed, min(calls, oracleCalls))); err != nil {
			return nil, err
		}
	}
	// cmd/thetad's start-up: load, NewDB, server.New, Handler.
	rels, err := loadInputs(ins)
	if err != nil {
		return nil, err
	}
	db, err := core.NewDB(1000, 1, rels...)
	if err != nil {
		return nil, err
	}
	sv := &served{w: w, db: db, clients: min(2, runtime.NumCPU())}
	for _, spec := range w.specs {
		body, err := json.Marshal(server.Request{Spec: spec, Limit: 10})
		if err != nil {
			return nil, err
		}
		sv.bodies = append(sv.bodies, body)
	}
	if err := sv.start(&obs.Obs{Metrics: obs.NewRegistry()}); err != nil {
		sv.close()
		return nil, err
	}
	return sv, nil
}

// start builds the service with the given sinks and warms its plan
// cache by submitting every spec once.
func (sv *served) start(o *obs.Obs) error {
	sv.close()
	sv.svc = server.New(sv.db, server.Config{KP: kp, Obs: o})
	sv.srv = httptest.NewServer(sv.svc.Handler())
	pins := make([]specPin, len(sv.w.specs))
	for i := range sv.w.specs {
		r := sv.request(nil, i)
		if r.err != nil {
			return fmt.Errorf("warm-up of spec %d: %w", i, r.err)
		}
		pins[i] = specPin{rows: r.resp.Rows, hash: r.resp.ResultHash, makespan: r.resp.Makespan}
	}
	if sv.pins == nil {
		sv.pins = pins
	}
	return nil
}

func (sv *served) trace(o *obs.Obs) error {
	if err := sv.start(o); err != nil {
		return err
	}
	sv.sh = o.Shard("bench:" + sv.w.name)
	sv.clientSh = make([]*obs.Shard, sv.clients)
	for c := range sv.clientSh {
		sv.clientSh[c] = o.Shard(fmt.Sprintf("bench:%s c%d", sv.w.name, c))
	}
	return nil
}

func (sv *served) close() {
	if sv.srv != nil {
		sv.srv.Close()
		sv.svc.Close()
	}
}

type reqResult struct {
	spec    int
	latency float64
	status  int
	resp    server.Response
	err     error
}

// request posts one spec as cmd/thetajoin -server does and decodes the
// response; latency is request → decoded response.
func (sv *served) request(sh *obs.Shard, spec int) reqResult {
	r := reqResult{spec: spec}
	r.latency, r.err = span(sh, "bench.request", func() error {
		httpResp, err := sv.srv.Client().Post(sv.srv.URL+"/query", "application/json", bytes.NewReader(sv.bodies[spec]))
		if err != nil {
			return err
		}
		defer httpResp.Body.Close()
		r.status = httpResp.StatusCode
		if r.status != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
			return fmt.Errorf("status %d: %s", r.status, strings.TrimSpace(string(msg)))
		}
		return json.NewDecoder(httpResp.Body).Decode(&r.resp)
	})
	return r
}

// run issues one block of servedBlock requests from the closed-loop
// clients, which draw the next spec of the round-robin from a shared
// counter so both stay busy until the block ends.
func (sv *served) run(round int) *sample {
	s := newSample()
	s.ops = servedBlock
	results := make([]reqResult, servedBlock)
	coverage := make([]float64, sv.clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	root := sv.sh.Start("bench.query", obs.A("workload", sv.w.name), obs.A("round", round))
	t0 := time.Now()
	for c := 0; c < sv.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sh *obs.Shard
			if sv.clientSh != nil {
				sh = sv.clientSh[c]
			}
			// Each client's requests run back to back, so their spans
			// should cover its loop.
			var busy float64
			c0 := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= servedBlock {
					break
				}
				results[i] = sv.request(sh, i%len(sv.w.specs))
				busy += results[i].latency
			}
			coverage[c] = ratio(busy, time.Since(c0).Seconds())
		}(c)
	}
	wg.Wait()
	s.wall = time.Since(t0).Seconds()
	root.End()

	l := s.layer
	for _, r := range results {
		s.dist["query_s"] = append(s.dist["query_s"], r.latency)
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			s.rejected++
		}
		if r.err != nil {
			s.fail(fmt.Errorf("spec %d: %w", r.spec, r.err))
			continue
		}
		if pin := sv.pins[r.spec]; r.resp.Rows != pin.rows || r.resp.ResultHash != pin.hash || r.resp.Makespan != pin.makespan {
			s.fail(fmt.Errorf("spec %d: %d rows, hash %s, makespan %v differ from warm-up's %d, %s, %v",
				r.spec, r.resp.Rows, r.resp.ResultHash, r.resp.Makespan, pin.rows, pin.hash, pin.makespan))
		}
		if r.resp.CacheHit {
			s.cacheHits++
		}
		planS, execS := float64(r.resp.PlanNs)/1e9, float64(r.resp.ExecNs)/1e9
		s.dist["server.plan_s_p50"] = append(s.dist["server.plan_s_p50"], planS)
		s.dist["server.exec_s_p50"] = append(s.dist["server.exec_s_p50"], execS)
		s.dist["server.overhead_s_p50"] = append(s.dist["server.overhead_s_p50"], r.latency-planS-execS)
		s.dist["server.budget_units_p50"] = append(s.dist["server.budget_units_p50"], float64(r.resp.Budget))
		l["relation.result_rows"] += float64(r.resp.Rows)
		l["mr.shuffle_bytes"] += float64(r.resp.ShuffleBytes)
		l["core.max_concurrent_jobs"] = max(l["core.max_concurrent_jobs"], float64(r.resp.MaxConcurrentJobs))
		l["core.replanned_jobs"] += float64(len(r.resp.Replanned))
		for _, b := range r.resp.JobBalance {
			l["skew.balance_ratio_max"] = max(l["skew.balance_ratio_max"], b)
		}
	}
	l["bench.span_coverage"] = sum(coverage) / float64(sv.clients)

	// The block's identity is the mix's: every response already matched
	// its spec's pin above.
	h := fnv.New64a()
	for _, pin := range sv.pins {
		s.rows += pin.rows
		s.makespan += pin.makespan
		fmt.Fprintf(h, "%s,", pin.hash)
	}
	s.hash = fmt.Sprintf("%016x", h.Sum64())
	s.keep = sv
	return s
}
