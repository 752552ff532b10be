package mr

// Config carries the Hadoop-style parameters of Table 1 plus the
// cluster geometry and device speeds of §6.1.
type Config struct {
	// Table 1 parameters (the "Set" column).
	BlockSizeMB      int     // fs.blocksize
	IoSortMB         int     // io.sort.mb
	IoSortRecordPct  float64 // io.sort.record.percentage
	IoSortSpillPct   float64 // io.sort.spill.percentage
	IoSortFactor     int     // io.sort.factor
	DFSReplication   int     // dfs.replication
	MapSlots         int     // concurrent map tasks cluster-wide (m')
	ReduceSlots      int     // concurrent reduce tasks (bounded by k_P)
	DiskReadMBps     float64 // measured sequential read rate
	DiskWriteMBps    float64 // measured write rate
	NetworkMBps      float64 // effective per-stream network rate
	TuplesPerMapTask int     // simulator granularity of an input split
	// MaxParallelWorkers bounds the real goroutines executing map
	// tasks and reduce partitions (0 = NumCPU). The concurrent plan
	// executor sets it per job to the job's share of the machine, so
	// overlapping jobs split the CPUs the way the schedule splits the
	// cluster's K_P units. Results never depend on it — only wall
	// clock does.
	MaxParallelWorkers int

	// OutputCapRatio bounds a job's modeled output volume at this
	// multiple of its modeled input (0 disables). The nominal-volume
	// scheme scales byte accounting linearly while generated tuple
	// counts grow sub-linearly, which would otherwise inflate
	// low-selectivity intermediate results quadratically — volumes the
	// paper's real 20 GB–1 TB runs (result selectivities 1e-4..1e-2)
	// never exhibit. The cap applies identically to every method.
	OutputCapRatio float64

	// SpillBudgetBytes bounds the REAL (unscaled, accounted — see
	// Metrics.PeakLiveBytes) bytes of emitted pairs one map task may
	// buffer before its sorted buckets spill to the SpillStore; with a
	// budget set, every map-output pair reaches the store and reducers
	// stream-merge the spilled runs from disk, so resident pair memory
	// is bounded instead of proportional to the shuffle volume. It is
	// the real-memory counterpart of the modeled IoSortMB knob: IoSortMB
	// prices spill passes in simulated time, SpillBudgetBytes makes this
	// process actually spill. 0 (the default) keeps the shuffle fully
	// in-memory. Output and byte-level metrics are bit-identical either
	// way.
	SpillBudgetBytes int64

	// Spill receives spill runs when SpillBudgetBytes > 0. nil makes
	// the engine manage plain temp files per run (NewTempSpillStore);
	// internal/dfs's BlockStore plugs in here to serve reads through
	// its page cache. Implementations must be concurrency-safe.
	Spill SpillStore

	// MaxTaskAttempts bounds how many times one map or reduce task may
	// run before its first error propagates (mapred.map.max.attempts).
	// 0 means the default (4, Hadoop's); 1 disables both retries and
	// speculative execution — every task is then one attempt through
	// the same machinery, with the same results.
	// Failed attempts charge the simulated clock — the slot is held for
	// the extra runs plus a capped doubling backoff in cluster seconds.
	MaxTaskAttempts int

	// SpeculativeFactor is the straggler threshold: a running attempt
	// that exceeds this multiple of the phase's median completed
	// attempt duration gets one speculative backup, first finisher
	// wins. 0 means the default (3); values below 1 are rejected — a
	// sub-median "straggler" cutoff would back up the fast half of the
	// phase. Speculation needs MaxTaskAttempts >= 2 and enough
	// completed attempts to establish a median; it never changes
	// results, only wall clock.
	SpeculativeFactor float64

	// Faults injects deterministic failures for testing and CI: seeded
	// task kills, stragglers and spill corruption (see FaultPlan). nil
	// (the default) injects nothing. Results are bit-identical under
	// any plan whose faults are all retryable.
	Faults *FaultPlan
}

// Defaults applied when the field is zero.
const (
	defaultSortFactor        = 300
	defaultTaskAttempts      = 4
	defaultSpeculativeFactor = 3.0
)

// DefaultConfig returns the Table 1 "Set" column plus the paper's
// cluster geometry: 13 nodes × 8 cores = 104 processing units, of
// which the experiments cap k_P at 96 or 64.
func DefaultConfig() Config {
	return Config{
		BlockSizeMB:      64,
		IoSortMB:         512,
		IoSortRecordPct:  0.1,
		IoSortSpillPct:   0.9,
		IoSortFactor:     defaultSortFactor,
		DFSReplication:   3,
		MapSlots:         104,
		ReduceSlots:      96,
		DiskReadMBps:     74.26,
		DiskWriteMBps:    14.69,
		NetworkMBps:      120, // 10 GbE switch, effective per-stream
		TuplesPerMapTask: 2048,
		OutputCapRatio:   2,

		MaxTaskAttempts:   defaultTaskAttempts,
		SpeculativeFactor: defaultSpeculativeFactor,
	}
}

// Validate reports configuration errors. Every field the engine or
// its Rates divide by (BlockSizeMB, TuplesPerMapTask, the device
// rates, IoSortMB) must be positive; fields where zero means "use the
// default" (MaxParallelWorkers, OutputCapRatio, IoSortFactor) reject
// only negative values.
func (c Config) Validate() error {
	switch {
	case c.MapSlots < 1:
		return errConfig("MapSlots must be >= 1")
	case c.ReduceSlots < 1:
		return errConfig("ReduceSlots must be >= 1")
	case c.DiskReadMBps <= 0 || c.DiskWriteMBps <= 0 || c.NetworkMBps <= 0:
		return errConfig("device rates must be positive")
	case c.TuplesPerMapTask < 1:
		return errConfig("TuplesPerMapTask must be >= 1")
	case c.BlockSizeMB < 1:
		return errConfig("BlockSizeMB must be >= 1")
	case c.IoSortMB < 1:
		return errConfig("IoSortMB must be >= 1")
	case c.IoSortFactor != 0 && c.IoSortFactor < 2:
		// Rates falls back to the default for any factor below 2
		// (a <2-way merge is meaningless); only an explicit 0 may ask
		// for that fallback.
		return errConfig("IoSortFactor must be 0 (default) or >= 2")
	case c.MaxParallelWorkers < 0:
		return errConfig("MaxParallelWorkers must be >= 0 (0 = NumCPU)")
	case c.OutputCapRatio < 0:
		return errConfig("OutputCapRatio must be >= 0 (0 disables the cap)")
	case c.SpillBudgetBytes < 0:
		return errConfig("SpillBudgetBytes must be >= 0 (0 = in-memory shuffle)")
	case c.MaxTaskAttempts < 0:
		return errConfig("MaxTaskAttempts must be >= 0 (0 = default)")
	case c.SpeculativeFactor != 0 && c.SpeculativeFactor < 1:
		// A sub-1 threshold would call faster-than-median attempts
		// stragglers; only an explicit 0 may ask for the default.
		return errConfig("SpeculativeFactor must be 0 (default) or >= 1")
	}
	return nil
}

type configError string

func errConfig(msg string) error    { return configError(msg) }
func (e configError) Error() string { return "mr: config: " + string(e) }
