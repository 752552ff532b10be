// Tpch runs the paper's four TPC-H benchmark queries (§6.3.2) — Q7,
// Q17, Q18 and Q21 with the added inequality join predicates — and
// prints the planner's chosen physical operators alongside the
// baseline comparison.
//
// The equi-connected TPC-H queries exercise the share-grid operator
// (the Afrati–Ullman one-job multiway join with theta residuals),
// while the mobile workload of examples/mobilecalls exercises the
// Hilbert cube; together they cover the planner's operator family.
//
// Run with: go run ./examples/tpch [-gb 200] [-kp 96]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/workloads"
)

func main() {
	gb := flag.Float64("gb", 200, "nominal data volume in GB")
	kp := flag.Int("kp", 96, "processing units")
	flag.Parse()

	cfg := mr.DefaultConfig()
	if cfg.MapSlots > *kp {
		cfg.MapSlots = *kp
	}
	fullReducers := cfg.ReduceSlots
	cfg.ReduceSlots = *kp

	fmt.Printf("TPC-H benchmark, %.0f GB nominal, kP <= %d\n\n", *gb, *kp)
	for _, qn := range []int{7, 17, 18, 21} {
		q, err := workloads.TPCHQuery(qn)
		if err != nil {
			log.Fatal(err)
		}
		tcfg := workloads.DefaultTPCHConfig()
		tcfg.Scale = workloads.TPCHRowsFor(qn, *gb)
		tcfg.NominalGB = *gb
		tcfg.Seed = int64(qn)
		db, err := workloads.TPCHDB(tcfg, 300)
		if err != nil {
			log.Fatal(err)
		}

		planner := core.NewPlanner(cfg, *kp)
		plan, err := planner.Plan(q, db)
		if err != nil {
			log.Fatal(err)
		}
		res, err := planner.Execute(plan, db)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d conditions over %d relations\n",
			q.Name, len(q.Conditions), len(q.Relations))
		for _, j := range plan.Jobs {
			fmt.Printf("  job %-10s [%s] conds=%v kR=%d\n", j.Name, j.Kind, j.EdgeIDs, j.Reducers)
		}
		fmt.Printf("  our method : %8.1fs (%d rows)\n", res.Makespan, res.Output.Cardinality())
		for _, st := range []baselines.Strategy{baselines.YSmart(), baselines.Hive(), baselines.Pig()} {
			bres, err := baselines.Run(context.Background(), st, cfg, q, db, fullReducers)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-11s: %8.1fs\n", st.Name, bres.TotalTime)
		}
		fmt.Println()
	}
}
