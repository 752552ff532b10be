// Package dfs is the storage layer under the MapReduce runtime: a real
// block store that holds bytes on disk so executions can run out of
// core. (The paper's Fig. 11 load-time model is pure arithmetic and
// lives beside the figure in internal/bench.)
//
// # Block store
//
// BlockStore is the out-of-core substrate: write-once, seal-then-read
// files kept in one backing file per store, allocated in 64 KiB slots:
// a file's bytes are buffered a slot at a time and written into the
// next free slot, so creating a file costs no system call and a
// released file's slots take the next files written — the backing file
// stays at the live files' high-water mark. A read takes exactly the
// bytes it asks for, with one disk read per slot they span, and keeps
// none of them: there is no cache. An attached obs registry counts the
// disk reads as dfs.disk_reads and their bytes as dfs.read_bytes.
//
// The store has one user, the shuffle spill: BlockStore implements
// mr.SpillStore, and a job run with mr.Config.SpillBudgetBytes > 0 and
// Config.Spill set to a BlockStore writes every map task's sorted
// shuffle runs here and the reducers k-way stream-merge them back, each
// reading its segment of a run with one read of exactly its bytes, so
// resident pair memory is bounded by the budget instead of proportional
// to the shuffle volume and the bytes read back are the bytes spilled.
//
// A spilled pair is a record of a few bytes — key and the ordinal of
// its row in the producing map task's split — not the row's bytes.
// Job inputs are always materialized relations: nothing is read from
// the store as a job's input.
//
// # Bounded-memory contract and knobs
//
// The contract: results are bit-identical whether execution is
// in-memory or out-of-core. A spilled record resolves to the very row
// the in-memory path would have shuffled, and a read returns the sealed
// bytes whichever slots concurrent writers happened to get.
// mr.Metrics reports the difference instead: SpillBytes/SpillRuns
// count what went to disk, PeakLiveBytes the accounted resident
// high-water mark.
//
// One knob forces or bounds out-of-core execution:
// mr.Config.SpillBudgetBytes, the real bytes a map task may buffer
// before spilling; set it tiny (a few KiB) in tests to force every pair
// through the store. It does not size the slots, which are fixed.
// NewBlockStore's cacheBudgetBytes bounds nothing, and CacheStats and
// IntegrityStats report what a store without a cache or checks has;
// the three stay for callers written against the page-cached store
// this one replaced.
//
// # Integrity and read failover
//
// The store checks no bytes. Spilled runs are written as frames that
// carry their own CRC32 (see internal/mr), and that is the one
// integrity layer over spilled bytes: a reducer verifies every frame it
// reads, re-reads a mismatched one — failover to a replica, up to
// mr.Replication reads in all (Table 1's dfs.replication, 3) — and
// fails its attempt with a retryable error only when every read
// mismatches, counting each in mr.Metrics.ChecksumFailures and
// FailoverReads. So a byte flipped in the backing file for one read
// costs a counter tick and a re-read, and one flipped for good fails
// the job with the checksum error, never with a row decoded from it.
//
// # Determinism
//
// Everything the package returns is a pure function of its inputs and
// configuration. BlockStore assigns file IDs in creation order and
// serves reads byte-identically whichever slots concurrent writers
// happened to get, so the engine's determinism guarantee (same results
// at any worker count, spill on or off) extends through this package.
package dfs
