// Package repro is a from-scratch Go reproduction of
//
//	Xiaofei Zhang, Lei Chen, Min Wang.
//	"Efficient Multi-way Theta-Join Processing Using MapReduce."
//	PVLDB 5(11): 1184–1195, 2012.
//
// The system plans an N-way theta-join as a set of MapReduce jobs
// selected from the pruned join-path graph G'_JP, evaluates several
// theta conditions in one job by partitioning the cross-product
// hyper-cube with a Hilbert space-filling curve, and schedules the
// chosen jobs on k_P bounded processing units with an I/O- and
// network-aware cost model. Everything the paper depends on — the
// MapReduce runtime itself, a block-based DFS, the YSmart/Hive/Pig
// competitor planners, the mobile CDR and TPC-H workloads — is
// implemented in this module; see README.md for the package map and
// cmd/thetabench for the paper-vs-measured tables and figures.
//
// Entry points:
//
//   - internal/core: the planner/executor (Planner.Plan / Execute)
//   - cmd/thetabench: regenerate every evaluation table and figure
//   - cmd/thetajoin: plan and run a query over CSV relations
//   - examples/: quickstart, travelplan, mobilecalls, tpch
//
// The top-level bench_test.go exposes one testing.B benchmark per
// table/figure of the paper's evaluation section.
package repro
