// Command thetajoin plans and executes a multi-way theta-join over CSV
// relations using the paper's optimizer.
//
// Usage:
//
//	thetajoin -rel A=a.csv -rel B=b.csv -cond "A.x < B.y" [-cond ...] \
//	          [-kp 96] [-explain] [-limit 20] [-out result.csv] \
//	          [-trace f] [-metrics f] [-pprof addr] [-spill-budget-mb MB] \
//	          [-faults "seed=7,map-kills=2,..."]
//	thetajoin -server http://localhost:7077 -query "FROM A, B WHERE A.x < B.y"
//
// With -server the query is submitted to a running thetad daemon
// instead of executing locally; both modes print the same
// order-insensitive "result hash:" line, so outputs are directly
// comparable across entry points.
//
// Each -rel flag registers a relation from a CSV file written in the
// typed-header format (name:kind,...). Each -cond flag adds one theta
// condition "Rel.col OP Rel.col" with OP ∈ {<, <=, =, >=, >, <>}.
//
// -explain prints the chosen plan, executes it, and renders the
// per-job execution report: planned reducer counts and σ next to the
// measured reduce tasks, wall times, shuffle volume and balance
// ratios, with the modeled makespan and the measured wall time kept
// explicitly apart. -trace writes Chrome trace-event JSON (open at
// ui.perfetto.dev), -metrics the structured counters/histograms, and
// -pprof serves live net/http/pprof endpoints during execution.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ", ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thetajoin:", err)
		os.Exit(1)
	}
}

func run() error {
	var rels, conds multiFlag
	flag.Var(&rels, "rel", "relation as NAME=path.csv (repeatable)")
	flag.Var(&conds, "cond", `condition "A.x < B.y" (repeatable)`)
	queryStr := flag.String("query", "", `full query, e.g. "FROM a.csv t1, b.csv t2 WHERE t1.x < t2.y" (aliases resolve against -rel names)`)
	kp := flag.Int("kp", 96, "available processing units")
	explain := flag.Bool("explain", false, "print the plan, execute, and print the planned-vs-measured execution report")
	limit := flag.Int("limit", 20, "max result rows to print (-1 = all)")
	outPath := flag.String("out", "", "write full result CSV to this path")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the execution to `file` (open in Perfetto)")
	metricsOut := flag.String("metrics", "", "write the structured metrics registry as JSON to `file`")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060) during execution")
	serverURL := flag.String("server", "", "submit -query to a running thetad at `url` (e.g. http://localhost:7077) instead of executing locally")
	spillMB := flag.Int("spill-budget-mb", 0, "bound real shuffle memory per map task at `MB`, spilling sorted runs to a temp block store (0 = fully in-memory); results are bit-identical either way")
	faultSpec := flag.String("faults", "", `inject a seeded fault plan, e.g. "seed=7,map-kills=2,reduce-kills=1,corrupt-frames=1,stragglers=1,delay=300ms"; all faults are retried and the result hash stays identical to a fault-free run`)
	flag.Parse()

	if *serverURL != "" {
		if *queryStr == "" {
			return fmt.Errorf("-server needs a -query")
		}
		return submitRemote(*serverURL, *queryStr, *limit)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "thetajoin: -pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "[pprof listening on http://%s/debug/pprof/]\n", *pprofAddr)
	}

	// A -query can alias one table several times (self-joins), so a
	// single -rel suffices with it; -cond mode needs two relations.
	if *queryStr != "" {
		if len(rels) < 1 {
			flag.Usage()
			return fmt.Errorf("-query needs at least one -rel")
		}
	} else if len(rels) < 2 || len(conds) == 0 {
		flag.Usage()
		return fmt.Errorf("need at least two -rel and one -cond (or a -query)")
	}
	var relations []*relation.Relation
	var names []string
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
		names = append(names, name)
	}
	db, err := core.NewDB(1000, 1, relations...)
	if err != nil {
		return err
	}
	var q *query.Query
	if *queryStr != "" {
		var aliases map[string]string
		q, aliases, err = query.Parse("query", *queryStr)
		if err != nil {
			return err
		}
		// Register aliases against the loaded relations.
		loaded := map[string]bool{}
		for _, n := range names {
			loaded[n] = true
		}
		for alias, table := range aliases {
			if alias == table {
				if !loaded[table] {
					return fmt.Errorf("-query references unknown relation %q", table)
				}
				continue
			}
			if err := db.Alias(alias, table); err != nil {
				return err
			}
		}
	} else {
		var parsed []predicate.Condition
		for _, c := range conds {
			pc, err := parseCondition(c)
			if err != nil {
				return err
			}
			parsed = append(parsed, pc)
		}
		q, err = query.New("query", names, parsed)
		if err != nil {
			return err
		}
	}
	// Observability sinks, both scoped to this one execution.
	var o *obs.Obs
	if *traceOut != "" || *metricsOut != "" {
		o = &obs.Obs{Metrics: obs.NewRegistry()}
		if *traceOut != "" {
			o.Tracer = obs.NewTracer()
		}
	}
	cfg := mr.DefaultConfig()
	if cfg.MapSlots > *kp {
		cfg.MapSlots = *kp
	}
	cfg.ReduceSlots = *kp
	if *spillMB > 0 {
		cfg.SpillBudgetBytes = int64(*spillMB) << 20
		// Serve spilled runs back through a page cache bounded at the
		// same budget; the store lives in a temp dir removed on exit.
		store, err := dfs.NewBlockStore("", cfg.SpillBudgetBytes)
		if err != nil {
			return err
		}
		defer store.Close()
		store.AttachObs(o)
		cfg.Spill = store
	}
	if *faultSpec != "" {
		plan, err := mr.ParseFaultPlan(*faultSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		cfg.Faults = plan
	}
	pl := core.NewPlanner(cfg, *kp)
	plan, err := pl.Plan(q, db)
	if err != nil {
		return err
	}
	fmt.Println(plan)
	res, err := pl.ExecuteContext(obs.NewContext(context.Background(), o), plan, db)
	if werr := writeObs(o, *traceOut, *metricsOut); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	if *explain {
		fmt.Print(res.Report())
	}
	fmt.Printf("result: %d rows, simulated makespan %.1fs, %.2f GB shuffled\n",
		res.Output.Cardinality(), res.Makespan, float64(res.ShuffleBytes)/1e9)
	if res.SpillBytes > 0 {
		fmt.Printf("spill: %.2f MB in %d runs, peak live pair bytes %.2f MB\n",
			float64(res.SpillBytes)/1e6, res.SpillRuns, float64(res.PeakLiveBytes)/1e6)
	}
	fmt.Println("result hash:", server.ResultHash(res))
	shown := 0
	for _, t := range res.Output.Tuples {
		if *limit >= 0 && shown >= *limit {
			fmt.Printf("... (%d more rows)\n", res.Output.Cardinality()-shown)
			break
		}
		fmt.Println(t)
		shown++
	}
	if *outPath != "" {
		err := writeFileWith(*outPath, func(w io.Writer) error { return relation.WriteCSV(w, res.Output) })
		if err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		fmt.Println("full result written to", *outPath)
	}
	return nil
}

// submitRemote posts the query to a thetad daemon and prints the
// response in the same shape as a local run, so result hashes are
// directly comparable across the two entry points.
func submitRemote(base, spec string, limit int) error {
	body, err := json.Marshal(server.Request{Spec: spec, Limit: limit})
	if err != nil {
		return err
	}
	httpResp, err := http.Post(strings.TrimRight(base, "/")+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("server: %s: %s", httpResp.Status, strings.TrimSpace(string(msg)))
	}
	var resp server.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return err
	}
	fmt.Printf("query %s: canonical %q\n", resp.Name, resp.Canonical)
	fmt.Printf("plan: cache hit %v, planned in %.2fms, budget %d units\n", resp.CacheHit, float64(resp.PlanNs)/1e6, resp.Budget)
	fmt.Printf("result: %d rows, simulated makespan %.1fs, %.2f GB shuffled\n",
		resp.Rows, resp.Makespan, float64(resp.ShuffleBytes)/1e9)
	fmt.Println("result hash:", resp.ResultHash)
	for _, t := range resp.Tuples {
		fmt.Println(t)
	}
	if rest := resp.Rows - len(resp.Tuples); rest > 0 {
		fmt.Printf("... (%d more rows)\n", rest)
	}
	return nil
}

// writeObs flushes the trace and metrics exports when requested.
// Nil-safe: a nil Obs (no flags) writes nothing.
func writeObs(o *obs.Obs, tracePath, metricsPath string) error {
	if o == nil {
		return nil
	}
	if tracePath != "" {
		if err := writeFileWith(tracePath, o.Tracer.WriteJSON); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if metricsPath != "" {
		if err := writeFileWith(metricsPath, o.Metrics.WriteJSON); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
	}
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

// parseCondition parses "A.x < B.y" (whitespace-separated).
func parseCondition(s string) (predicate.Condition, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return predicate.Condition{}, fmt.Errorf("bad condition %q (want \"A.x OP B.y\")", s)
	}
	op, err := predicate.ParseOp(fields[1])
	if err != nil {
		return predicate.Condition{}, err
	}
	l := strings.SplitN(fields[0], ".", 2)
	r := strings.SplitN(fields[2], ".", 2)
	if len(l) != 2 || len(r) != 2 {
		return predicate.Condition{}, fmt.Errorf("bad condition %q: operands must be Rel.col", s)
	}
	return predicate.C(l[0], l[1], op, r[0], r[1]), nil
}
