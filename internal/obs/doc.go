// Package obs is the execution-observability layer: wall-clock span
// tracing and a structured metrics registry, threaded through the mr
// engine, the core plan executor and the skew router via context.
//
// # Nil-tracer contract
//
// Every method in this package is nil-safe along the whole chain:
//
//	var o *Obs                       // nil: observability disabled
//	sh := o.Shard("job/map-w0")      // nil *Shard
//	sp := sh.Start("map")            // nil *Span
//	sp.End()                         // no-op
//	o.Counter("mr.pairs").Add(1)     // no-op
//	o.Histogram("mr.run").Observe(3) // no-op
//
// Instrumented code therefore never branches on "is tracing on": it
// unconditionally calls Start/End/Instant/Add/Observe, and a disabled
// run pays only a nil receiver check per call site. Call sites are
// placed at task granularity (per map task, per reduce partition, per
// merge step) — never per tuple — so enabled runs stay low-overhead
// and disabled runs are unmeasurable against the CI bench gate.
//
// # Determinism guarantee
//
// Tracing and metrics are write-only observers of the execution: no
// code path reads a span, counter or histogram to make a decision, so
// enabling observability cannot change any relation output, modeled
// metric, plan choice or replan decision. The engine's determinism
// contract (identical output for any worker count) holds bit-for-bit
// with tracing on; internal/core's TestTracedExecutionDeterminism
// asserts it under -race. Span timestamps and durations are wall
// clock and naturally vary between runs — the trace's *structure*
// (which spans exist, on which shards, with which args) is a pure
// function of the job specification.
//
// # Shards and races
//
// A Tracer hands out Shards; a Shard buffers events without locking
// and therefore must only be used by one goroutine at a time. Worker
// loops take one shard per worker goroutine (Tracer.Shard is itself
// safe for concurrent use), which keeps the hot path lock-free and
// the whole arrangement race-free. WriteJSON/Events must only be
// called after every shard user has finished.
//
// # Export
//
// Tracer.WriteJSON emits Chrome trace-event JSON ("traceEvents"
// array, "X" complete and "i" instant phases, microsecond timestamps
// relative to the tracer epoch) loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Events are sorted by
// timestamp, so the exported stream is monotonic. Registry.WriteJSON
// emits a {"counters": {...}, "histograms": {...}} document with
// count/sum/min/max/mean and power-of-two bucket counts.
package obs
