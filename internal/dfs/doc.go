// Package dfs is the storage layer under the MapReduce runtime: a real
// block store that holds bytes on disk so executions can run out of
// core. (The paper's Fig. 11 load-time model is pure arithmetic and
// lives beside the figure in internal/bench.)
//
// # Block store
//
// BlockStore is the out-of-core substrate: write-once, seal-then-read
// files whose reads are served through an in-memory LRU page cache with
// a byte budget, in DefaultPageSize (4 KiB) pages. The files live in
// one backing file per store, allocated in 64 KiB slots: a file's bytes
// are buffered a slot at a time and written into the next free slot,
// so creating a file costs no system call and a released file's slots
// take the next files written — the backing file stays at the live
// files' high-water mark. A miss fills the run of missing pages it
// covers within one slot with a single read, so a segment read costs
// the pages it touches, not a whole slot, and any read at most one disk
// read per slot it spans. An attached obs registry counts the disk
// reads as dfs.disk_reads.
//
// The store has one user, the shuffle spill: BlockStore implements
// mr.SpillStore, and a job run with mr.Config.SpillBudgetBytes > 0 and
// Config.Spill set to a BlockStore writes every map task's sorted
// shuffle runs here and the reducers k-way stream-merge them back
// through the page cache, so resident pair memory is bounded by the
// budget instead of proportional to the shuffle volume.
//
// A spilled pair is a record of a few bytes — key, tag and the ordinal
// of its row in the producing map task's split — not the row's bytes.
// Job inputs are always materialized relations: nothing is read from
// the store as a job's input.
//
// # Bounded-memory contract and knobs
//
// The contract: results are bit-identical whether execution is
// in-memory or out-of-core. A spilled record resolves to the very row
// the in-memory path would have shuffled, and the page cache is
// transparent — budget, page size, eviction order, slot reuse and
// concurrency affect only CacheStats, never a returned byte.
// mr.Metrics reports the difference instead: SpillBytes/SpillRuns
// count what went to disk, PeakLiveBytes the accounted resident
// high-water mark.
//
// Two knobs force or bound out-of-core execution:
//
//   - mr.Config.SpillBudgetBytes — real bytes a map task may buffer
//     before spilling; set it tiny (a few KiB) in tests to force every
//     pair through the store.
//   - NewBlockStore's cacheBudgetBytes — resident page-cache bound;
//     0 (or anything under one page) disables caching so every read
//     hits disk.
//
// Neither sizes the slots or pages, which are fixed.
//
// # Integrity and read failover
//
// Every sealed 4 KiB page carries a CRC32 accumulated as the bytes are
// written (sealing costs nothing extra) and verified on every page
// fill — a read from disk, never a cache hit; a run fill verifies each
// of its pages before any is copied out or cached. A mismatch is
// counted (IntegrityStats, the dfs.checksum_failures quarantine counter
// of an attached obs registry) and that page falls back to a replica
// re-read, up to three total reads (the Table 1 dfs.replication),
// before the read fails. The failover contract mirrors the spill-frame
// checksums in internal/mr: transient corruption costs a counter tick
// and a dfs.failover_reads re-read and is otherwise invisible; only
// corruption of every replica surfaces an error, and a caller running
// under mr's attempt machinery retries even that with a fresh task
// attempt.
//
// # Determinism
//
// Everything the package returns is a pure function of its inputs and
// configuration. BlockStore assigns file IDs in creation order and
// serves reads byte-identically under any cache state and whichever
// slots concurrent writers happened to get, so the engine's
// determinism guarantee (same results at any worker count, spill on or
// off) extends through this package.
package dfs
