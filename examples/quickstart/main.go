// Quickstart: plan and execute a three-way theta-join with the
// paper's optimizer in ~60 lines.
//
// The query joins three small integer tables on a chain of inequality
// conditions — the case where no equality key exists and the
// Hilbert-curve partitioning of the cross-product hyper-cube
// (Algorithm 1) is the only one-job option.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/relation"
)

func makeTable(name string, n int, rng *rand.Rand) *relation.Relation {
	schema := relation.MustSchema(
		relation.Column{Name: "v", Kind: relation.KindInt},
	)
	r := relation.New(name, schema)
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(100)))})
	}
	return r
}

func main() {
	rng := rand.New(rand.NewSource(42))

	// 1. Build three relations and register them; NewDB samples
	//    statistics and adds unique row IDs.
	db, err := core.NewDB(500, 1,
		makeTable("A", 80, rng),
		makeTable("B", 60, rng),
		makeTable("C", 40, rng),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Declare the N-join query: A.v < B.v AND B.v >= C.v.
	q, err := query.New("quickstart",
		[]string{"A", "B", "C"},
		[]predicate.Condition{
			predicate.C("A", "v", predicate.LT, "B", "v"),
			predicate.C("B", "v", predicate.GE, "C", "v"),
		})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Plan on a simulated cluster with 32 processing units.
	planner := core.NewPlanner(mr.DefaultConfig(), 32)
	plan, err := planner.Plan(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	// 4. Execute: the jobs really run (map, shuffle, reduce) and the
	//    simulated clock reports the cluster-scale makespan.
	res, err := planner.Execute(plan, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d result rows, %.1fs simulated makespan, %d merge steps\n",
		res.Output.Cardinality(), res.Makespan, res.MergeCount)

	// 5. Sanity-check against the in-memory nested-loop oracle.
	naive, err := core.Naive(q, db)
	if err != nil {
		log.Fatal(err)
	}
	agrees := naive.Cardinality() == res.Output.Cardinality()
	fmt.Printf("naive oracle agrees: %v (%d rows)\n", agrees, naive.Cardinality())
	if !agrees {
		os.Exit(1)
	}
}
