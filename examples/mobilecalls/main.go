// Mobilecalls runs the paper's four mobile CDR benchmark queries
// (§6.3.1) — concurrent calls at the same / different base stations,
// and users served by the same / different stations three days in a
// row — comparing the paper's planner against the YSmart-, Hive- and
// Pig-style baselines on the same simulated cluster.
//
// Run with: go run ./examples/mobilecalls [-gb 20] [-kp 96]
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
	gb := flag.Float64("gb", 20, "nominal data volume in GB")
	kp := flag.Int("kp", 96, "processing units")
	flag.Parse()

	cfg := mr.DefaultConfig()
	if cfg.MapSlots > *kp {
		cfg.MapSlots = *kp
	}
	fullReducers := cfg.ReduceSlots // baselines request this even when kp is lower
	cfg.ReduceSlots = *kp

	fmt.Printf("mobile CDR benchmark, %0.f GB nominal, kP <= %d\n\n", *gb, *kp)
	for qn := 1; qn <= 4; qn++ {
		q, err := workloads.MobileQuery(qn)
		if err != nil {
			log.Fatal(err)
		}
		mcfg := workloads.DefaultMobileConfig()
		mcfg.Tuples = workloads.MobileTuplesFor(qn, *gb)
		mcfg.NominalGB = *gb
		mcfg.Seed = int64(qn)
		db, err := workloads.MobileDB(mcfg, 300)
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
		fmt.Printf("%s (%s)\n", q.Name, q)
		fmt.Printf("  our method : %8.1fs  (%d jobs, %d rows)\n",
			res.Makespan, len(plan.Jobs), res.Output.Cardinality())

		for _, st := range []baselines.Strategy{baselines.YSmart(), baselines.Hive(), baselines.Pig()} {
			bres, err := baselines.Run(context.Background(), st, cfg, q, db, fullReducers)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-11s: %8.1fs  (%d stages)\n", st.Name, bres.TotalTime, len(bres.Steps))
		}
		fmt.Println()
	}
}
