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
// dominates J_R. Every simulated second is priced by Config.Rates, the
// one price list (Rates) that internal/cost's Eq. 1–6 estimate reads
// too.
//
// The paper's experiments ran on a 13-node Hadoop 0.20.205 cluster
// (104 cores, 10 GbE, measured 74.26 MB/s read and 14.69 MB/s write);
// the default configuration mirrors Table 1 and those measurements so
// simulated times land in the paper's range.
//
// # One path through a job
//
// Run is five phases over one run-state struct, in the order §4.1
// prices them: plan tasks → map (J_M) → shuffle + reduce (J_CP, J_R) →
// assemble → simulate and roll up metrics. Each phase is a method that
// reads what the phases before it left and can be read, timed and
// tested on its own. There is one input layout (a relation's
// materialized rows, split into block-sized map tasks), one residency
// knob (Config.SpillBudgetBytes: 0 keeps map output in memory, > 0
// spills it as sorted runs to Config.Spill and stream-merges it back)
// and one fault-injection mechanism (Config.Faults); output and every
// byte-level metric are bit-identical whichever way they are set.
//
// # Task attempts and the idempotency contract
//
// MapReduce's defining runtime property — a job survives task failure
// because tasks re-execute idempotently — is real here, not simulated.
// Every map and reduce task runs as a sequence of ATTEMPTS, bounded by
// Config.MaxTaskAttempts (a budget of 1 is one attempt through the
// same machinery, not a separate code path), and the engine relies on
// a strict idempotency contract:
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
// exceeds Config.SpeculativeFactor times the phase's median completed
// attempt duration, one backup attempt launches — the only attempt that
// gets a goroutine of its own, started by the worker's straggler timer,
// which the worker re-arms for each task — the first to finish commits
// on the goroutine it ran on, and the loser is discarded atomically.
// The worker does not leave the task until the backup has exited too.
//
// # A pair from emit to Reduce
//
// A pair is measured once: emit takes its tuple's EncodedSize, once
// however many reducers the pair is routed to (a spilled pair is
// measured again when it is decoded), and the spill budget, the shuffle
// bytes and the residency accounting all read that number. It is copied
// once on each side. A map attempt appends routed pairs to one flat
// buffer the run lends it, then deals them, stably, into a single
// exactly sized block whose subslices are the per-reducer buckets. A
// reduce attempt merges its runs and copies each tuple header into the
// buffer of its tag, and that is what a ReduceFunc receives:
// groups[tag] holds the key's values from input tag, in task order and
// emission order within a task — the slices every join reducer used to
// build for itself. The buffers are the attempt's, reused for its next
// key and sized from what the shuffle already knows, so groups are valid
// only during the call and are capacity-limited; whatever a reducer does
// to them reaches neither the next key run nor another attempt.
//
// # Output rows
//
// A reducer emits a row either with Emit, handing over a tuple it built
// and will not write to again, or with EmitConcat, which copies the
// parts into the attempt's slab: chunks of values that grow with the
// output up to 96 KiB, each row a capacity-limited subslice of one. An attempt's
// slabs are its own until it commits; a failed or losing attempt's are
// garbage. The committed rows become the output relation's tuples as
// they are — assemble copies slice headers, not values — so a slab
// lives as long as any row carved from it, rows are valid for the life
// of the output relation, and nothing writes to them after commit.
//
// # Spill integrity
//
// Spilled runs are written as checksummed frames (~32 KiB of pairs,
// each with a CRC32 header; a pair never spans frames). Readers verify
// every frame before decoding; a mismatch is counted
// (Metrics.ChecksumFailures, the mr.checksum_failures quarantine
// counter) and the frame is re-read — failover to a surviving replica,
// priced by Config.DFSReplication — before the attempt fails with a
// retryable error. A transient corruption therefore costs a counter
// tick and a failover read; only persistent corruption of every
// replica can surface an error, and even that error is retried with a
// fresh attempt.
package mr
