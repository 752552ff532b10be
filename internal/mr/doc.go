// Package mr is a deterministic MapReduce runtime-and-simulator.
//
// Jobs really execute: map functions run over real tuples, a hash
// shuffle routes tagged (key,value) pairs to reduce partitions, and
// reduce functions emit real output tuples. What is simulated is time:
// a discrete-event clock advances by the same quantities the paper's
// cost model (§4.1) reasons about — sequential scan of input blocks,
// round-by-round map waves over a bounded slot pool, spill cost as a
// function of map output volume, copy cost over the network with
// per-connection overhead, and the straggler reduce task that
// dominates J_R. Every simulated second is priced by PaperRates, the
// one price list (Rates) that internal/cost's Eq. 1–6 estimate reads
// too.
//
// The paper's experiments ran on a 13-node Hadoop 0.20.205 cluster
// (104 cores, 10 GbE, measured 74.26 MB/s read and 14.69 MB/s write).
// That cluster is fixed, not configured: PaperRates, BlockSize,
// Replication and OutputCapRatio hold Table 1 and those measurements,
// so simulated times land in the paper's range, and Config carries
// only what differs between runs — slots, split granularity, workers,
// the spill budget and its store, and a fault plan.
//
// # One path through a job
//
// Run is five phases over one run-state struct, in the order §4.1
// prices them: plan tasks → map (J_M) → shuffle + reduce (J_CP, J_R) →
// assemble → simulate and roll up metrics. Each phase is a method that
// reads what the phases before it left and can be read, timed and
// tested on its own. There is one input layout (a relation's
// materialized rows, split into block-sized map tasks), one map-side
// path (a task's pairs are collected and cut into key-sorted runs), one
// residency knob (Config.SpillBudgetBytes: 0 keeps a task's one run in
// memory, > 0 cuts a run whenever the budget fills and writes every run
// to Config.Spill, to be stream-merged back)
// and one fault-injection mechanism (Config.Faults); output and every
// byte-level metric are bit-identical whichever way they are set.
//
// # Task attempts and the idempotency contract
//
// MapReduce's defining runtime property — a job survives task failure
// because tasks re-execute idempotently — is real here, not simulated.
// Every map and reduce task runs as a sequence of ATTEMPTS, at most
// four (Hadoop's mapred.map.max.attempts), and the engine relies on a
// strict idempotency contract:
//
//   - Attempt isolation. An attempt derives its output only from
//     attempt-scoped state it creates itself: its own per-reducer
//     buckets and its own spill files (the attempt-scoped namespace in
//     the SpillStore). Nothing an attempt produces is visible to the
//     rest of the run until the attempt COMMITS.
//   - Bit-identical re-execution. Map and reduce functions must be
//     deterministic, so any attempt of a task commits byte-for-byte
//     the output any other attempt would have committed. This is what
//     lets speculative execution take "first to finish wins" without
//     perturbing results.
//   - Discard, never merge. A failed or losing attempt's partial
//     state — spill runs included — is released without ever feeding
//     the shuffle. Reducers only merge runs of committed map attempts,
//     and reading a run never consumes it, so a retried or backup
//     reduce attempt re-reads exactly what the first one saw.
//
// Retries are charged to the simulated clock (failures occupy their
// slot for the extra attempts plus a capped doubling backoff), never
// to results: the headline contract is that results are bit-identical
// under any Config.Faults plan whose faults are all retryable, at any
// worker count.
//
// An attempt runs where its task was scheduled: on the goroutine of the
// phase's worker that drew the task, as a plain call under a recover
// that turns a panic in user code into the attempt's error. A job of a
// thousand one-tuple tasks therefore starts as many goroutines as it has
// workers, and a task costs the attempt layer no allocation.
//
// Speculative execution backs up stragglers: when a running attempt
// exceeds three times the phase's median completed attempt duration,
// one backup attempt launches — the only attempt that gets a goroutine
// of its own, started by the worker's straggler timer, which the
// worker re-arms for each task — the first to finish commits
// on the goroutine it ran on, and the loser is discarded atomically.
// The worker does not leave the task until the backup has exited too.
//
// # A pair from emit to Reduce
//
// A pair's value is always the row being mapped and its tag the input
// being mapped: an Emitter takes only a key, and the engine pairs it
// with the tuple its MapFunc was handed. A pair is one 16-byte record,
// in a map attempt's collector and in a resident run alike — the key, the row's
// ordinal in the producing task's split and the row's EncodedSize,
// measured once however many pairs the row makes and reducers they are
// routed to; the spill budget, the shuffle bytes and the residency
// accounting all read that number. A spilled record is the key and the
// ordinal; a spilling run measures every row once, when it splits the
// input, and its map tasks and the readers of their records take the
// size from there. A map attempt maps into a collector the run lends
// it, whose emit method is the Emitter every Map call gets, and appends
// routed records to its one flat buffer. Every run is cut the same way:
// the records are dealt, stably, into a block whose subslices are the
// per-reducer buckets, and each bucket is sorted. Only where the run
// lives differs. Without a budget a task's one run stays resident, in
// an exactly sized block of its own; with one, each run is dealt into a
// block of the collector's, reused from flush to flush, and written out
// at once. A reduce attempt carves the frame buffers of its spilled runs from its scratch
// too, so spilling a pair and reading it back allocate nothing once the
// run's buffers have grown. A reduce attempt merges its runs, resolves each
// record to its task's row, and copies the tuple header into the buffer
// of the task's input, and that is what a ReduceFunc receives:
// groups[i] holds the key's rows of input i, in task order and emission
// order within a task — the slices every join reducer used to build for
// itself. The buffers are sized from what the shuffle already knows and
// reused for the attempt's next key; when the attempt returns, on any
// path, they go back to the run, whose next reduce attempt starts on
// them with the capacity they grew, and they die with the run. So
// groups are valid only during the call and are capacity-limited;
// whatever a reducer does to them reaches neither the next key run nor
// another attempt, and an attempt and its speculative backup never hold
// the same buffers.
//
// # Output rows
//
// A reducer emits a row with EmitConcat, which copies the row's parts
// into the attempt's slab: chunks of values that grow with the output
// up to 96 KiB, each row a capacity-limited subslice of one. An attempt's
// slabs are its own until it commits; a failed or losing attempt's are
// garbage. The committed rows become the output relation's tuples as
// they are — assemble copies slice headers, not values — so a slab
// lives as long as any row carved from it, rows are valid for the life
// of the output relation, and nothing writes to them after commit.
//
// A job marked as its query's result (Job.Result) keeps only the first
// Job.Keep rows of its output, in reducer order. Its attempts add every
// row's relation.RowHash to a sum and count and price every row in the
// per-size counts, so Result.Rows, Result.RowHashSum and every byte
// metric are the same at any Keep; what they do not keep is not
// copied: EmitConcat takes such a row's size from its parts. An attempt
// keeps at most Keep rows, and none once the reducers before its own
// have all committed and together keep Keep or more — the run's
// committed-prefix watermark, advanced as each reducer's task ends. The
// first Keep rows are therefore those of the uncapped output whatever
// the timing: a reducer's kept rows are a prefix of its rows, and the
// watermark closes only on reducers none of whose rows come first. How
// many rows the reducers past it keep does depend on the timing, so an
// attempt capped at 16 rows or fewer allocates room for all of them
// with its first: how many it keeps does not change its allocations.
//
// A result attempt hashes its rows through a relation.RowHasher held in
// its reduce scratch, which the engine resets before every Reduce call.
// A row's hash resumes from the state after the leading parts it shares
// with the call's previous row — the same address and length at the
// same position — so a depth-first join hashes each shared prefix once.
// That is why a reducer must not rewrite the values of a part it has
// emitted until its Reduce call returns; the groups it is handed are
// read-only already.
//
// A projected job (Job.Project) keeps only some columns of each row:
// EmitConcat copies the projected columns of the parts' concatenation
// into the slab, in ascending order, and OutputSchema names those
// columns alone. The row is priced as the full row — its EncodedSize is
// taken from the parts, as for a row a result job does not keep — so
// the per-size counts, OutputBytes, the per-reducer output bytes and
// the simulated clock are those of the unprojected job. A job whose
// output feeds only its query's rid-merge is projected onto its rid
// columns, and the merge gathers the full rows from the base relations.
//
// # Spill integrity
//
// Spilled runs are written as checksummed frames (~32 KiB of records,
// each frame with a CRC32 header; a record never spans frames, so one
// read takes a whole frame, and a header promising more is corrupt).
// The frame CRC is the only check spilled bytes get, and its re-read
// the only retry: the store under them checks nothing itself.
// Readers verify every frame before decoding; a mismatch is counted
// (Metrics.ChecksumFailures, the mr.checksum_failures quarantine
// counter) and the frame is re-read — failover to a surviving replica,
// up to Replication reads in all — before the attempt fails with a
// retryable error. A transient corruption therefore costs a counter
// tick and a failover read; only persistent corruption of every
// replica can surface an error, and even that error is retried with a
// fresh attempt. A checksum vouches for bytes, not for their writer: a
// verified record whose row ordinal lies past its split is an error,
// never an index.
package mr
