package mr

// Config carries what differs between runs of the one cluster the
// paper measures: the slots a job may use, the split granularity, the
// real goroutines and memory this process gives it, and an optional
// fault plan. The cluster itself — Table 1 and the device speeds of
// §6.1 — is fixed: BlockSize, Replication, OutputCapRatio and
// PaperRates.
type Config struct {
	MapSlots         int // concurrent map tasks cluster-wide (m')
	ReduceSlots      int // concurrent reduce tasks (bounded by k_P)
	TuplesPerMapTask int // simulator granularity of an input split
	// MaxParallelWorkers bounds the real goroutines executing map
	// tasks and reduce partitions (0 = NumCPU). The concurrent plan
	// executor sets it per job to the job's share of the machine, so
	// overlapping jobs split the CPUs the way the schedule splits the
	// cluster's K_P units. Results never depend on it — only wall
	// clock does.
	MaxParallelWorkers int

	// SpillBudgetBytes bounds the REAL (unscaled, accounted — see
	// Metrics.PeakLiveBytes) bytes of emitted pairs one map task may
	// buffer before its sorted buckets spill to Spill; with a budget
	// set, every map-output pair reaches the store and reducers
	// stream-merge the spilled runs from disk, so resident pair memory
	// is bounded instead of proportional to the shuffle volume. It is
	// the real-memory counterpart of the modeled io.sort.mb
	// (Rates.SortBuf): that prices spill passes in simulated time,
	// SpillBudgetBytes makes this process actually spill. 0 keeps the
	// shuffle fully in-memory. Output and byte-level metrics are
	// bit-identical either way.
	SpillBudgetBytes int64

	// Spill receives spill runs; a budget needs one. internal/dfs's
	// BlockStore keeps them in the slots of one backing file.
	// Implementations must be concurrency-safe.
	Spill SpillStore

	// Faults injects deterministic failures for testing and CI: seeded
	// task kills, stragglers and spill corruption (see FaultPlan). nil
	// (the default) injects nothing. Results are bit-identical under
	// any plan whose faults are all retryable.
	Faults *FaultPlan
}

// The fixed Table 1 values that more than the price list reads.
const (
	// BlockSize is fs.blocksize in bytes: one map task per block of
	// modeled input.
	BlockSize int64 = 64e6
	// Replication is dfs.replication: the copies a loaded file is
	// written in, and so the reads a checksum-failed spill frame may
	// take before the read fails.
	Replication = 3
	// OutputCapRatio bounds a job's modeled output volume at this
	// multiple of its modeled input. The nominal-volume scheme scales
	// byte accounting linearly while generated tuple counts grow
	// sub-linearly, which would otherwise inflate low-selectivity
	// intermediate results quadratically — volumes the paper's real
	// 20 GB–1 TB runs (result selectivities 1e-4..1e-2) never exhibit.
	// The cap applies identically to every method.
	OutputCapRatio = 2.0
)

// DefaultConfig returns the paper's cluster geometry: 13 nodes × 8
// cores = 104 processing units, of which the experiments cap k_P at 96
// or 64.
func DefaultConfig() Config {
	return Config{
		MapSlots:         104,
		ReduceSlots:      96,
		TuplesPerMapTask: 2048,
	}
}

// Validate reports configuration errors: the slot counts and the split
// size must be positive, and a spill budget needs a store.
func (c Config) Validate() error {
	switch {
	case c.MapSlots < 1:
		return errConfig("MapSlots must be >= 1")
	case c.ReduceSlots < 1:
		return errConfig("ReduceSlots must be >= 1")
	case c.TuplesPerMapTask < 1:
		return errConfig("TuplesPerMapTask must be >= 1")
	case c.MaxParallelWorkers < 0:
		return errConfig("MaxParallelWorkers must be >= 0 (0 = NumCPU)")
	case c.SpillBudgetBytes < 0:
		return errConfig("SpillBudgetBytes must be >= 0 (0 = in-memory shuffle)")
	case c.SpillBudgetBytes > 0 && c.Spill == nil:
		return errConfig("SpillBudgetBytes needs a Spill store")
	}
	return nil
}

type configError string

func errConfig(msg string) error    { return configError(msg) }
func (e configError) Error() string { return "mr: config: " + string(e) }
