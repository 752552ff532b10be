// Command thetad serves multi-way theta-joins as a long-lived HTTP
// daemon: relations load once, then concurrent clients submit queries
// that share one K_P-unit processing pool and one plan cache.
//
// Usage:
//
//	thetad -rel A=a.csv -rel B=b.csv [-addr :7077] [-kp 96] \
//	       [-max-concurrent 4] [-max-queue 16] [-queue-timeout 10s] \
//	       [-query-timeout 0] [-min-budget 1] [-trace f] [-metrics f]
//
// Endpoints (see internal/server):
//
//	POST /query    {"spec": "FROM A, B WHERE A.x < B.y", "limit": 20}
//	GET  /healthz  liveness
//	GET  /metrics  live metrics registry JSON
//
// SIGINT/SIGTERM drain gracefully: in-flight queries finish, new ones
// are rejected with 503, and the -trace/-metrics artifacts are written
// on the way out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/server"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ", ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thetad:", err)
		os.Exit(1)
	}
}

func run() error {
	var rels multiFlag
	flag.Var(&rels, "rel", "relation as NAME=path.csv (repeatable)")
	addr := flag.String("addr", ":7077", "listen address")
	kp := flag.Int("kp", 96, "shared processing units across all queries")
	maxConcurrent := flag.Int("max-concurrent", 4, "queries admitted to execution at once")
	maxQueue := flag.Int("max-queue", 16, "queued admissions before rejecting with 429 (-1 = no queue)")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second, "max time a submission waits for admission")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query execution deadline after admission (0 = none); expiry degrades that query to 503 + Retry-After")
	minBudget := flag.Int("min-budget", 1, "floor for a query's unit budget")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of all executions to `file` on shutdown")
	metricsOut := flag.String("metrics", "", "write the metrics registry as JSON to `file` on shutdown")
	flag.Parse()

	if len(rels) == 0 {
		flag.Usage()
		return fmt.Errorf("need at least one -rel")
	}
	var relations []*relation.Relation
	for _, spec := range rels {
		eq := strings.IndexByte(spec, '=')
		if eq <= 0 {
			return fmt.Errorf("bad -rel %q (want NAME=path.csv)", spec)
		}
		name, path := spec[:eq], spec[eq+1:]
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		r, err := relation.ReadCSV(f, name)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		relations = append(relations, r)
	}
	db, err := core.NewDB(1000, 1, relations...)
	if err != nil {
		return err
	}

	o := &obs.Obs{Metrics: obs.NewRegistry()}
	if *traceOut != "" {
		o.Tracer = obs.NewTracer()
	}
	svc := server.New(db, server.Config{
		KP:            *kp,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		QueryTimeout:  *queryTimeout,
		MinBudget:     *minBudget,
		Obs:           o,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("thetad listening on %s (K_P=%d, %d relations, catalog version %016x)\n",
			*addr, *kp, len(relations), db.CatalogVersion())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting connections, let in-flight queries
	// finish, then flush observability artifacts.
	fmt.Println("thetad: draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "thetad: shutdown:", err)
	}
	svc.Close()
	if *traceOut != "" {
		if err := writeFileWith(*traceOut, o.Tracer.WriteJSON); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Println("trace written to", *traceOut)
	}
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, o.Metrics.WriteJSON); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		fmt.Println("metrics written to", *metricsOut)
	}
	fmt.Println("thetad: stopped")
	return nil
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
