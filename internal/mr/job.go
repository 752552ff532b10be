package mr

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// Emitter receives map output: one call shuffles the tuple being mapped
// under key. tag is the ordinal of the input that produced it (below
// len(Job.Inputs)), so join reducers get their sides apart. A key goes
// to reducer key mod numReducers unless the job sets a Partitioner; jobs
// whose keys are reducer ordinals rely on that default.
type Emitter func(key uint64, tag uint8)

// MapFunc routes one input tuple: it emits it under zero or more (key,
// tag) pairs. The value a pair carries is always t itself, a row of the
// input relation, which is what lets a spilled pair name its row
// instead of carrying its bytes.
type MapFunc func(t relation.Tuple, emit Emitter)

// ReduceContext lets reducers report work (candidate combinations
// checked) for the Metrics and emit output tuples. It belongs to one
// reduce attempt; the package documentation says who owns the rows.
type ReduceContext struct {
	out          []relation.Tuple
	combinations int64
	// slab is the chunk EmitConcat carves rows from (len = values used);
	// the rows carved from it so far are among out[slabRow0:].
	slab     []relation.Value
	slabRow0 int
	// sizes counts the emitted rows by raw EncodedSize: the output is
	// priced as Σ int64(float64(size)·multiplier) over rows, with a
	// multiplier known only once every reducer is done, and the counts
	// let assemble form that exact sum without walking the rows again.
	sizes map[int]int64
}

// Emit appends an output tuple that the caller built and will not write
// to again.
func (rc *ReduceContext) Emit(t relation.Tuple) {
	rc.out = append(rc.out, t)
	if rc.sizes == nil {
		rc.sizes = make(map[int]int64)
	}
	rc.sizes[t.EncodedSize()]++
}

// EmitConcat emits the concatenation of parts, copied into the
// attempt's slab instead of an allocation of its own. A new chunk holds
// a sixteenth as many rows as the attempt has emitted so far (at least
// this one, at most 2¹² values, 96 KiB): a megabyte of output is about
// a hundred allocations, and the last chunk's unused tail and trim's copy
// of the rest of it stay at a few percent of the output however small
// that is.
// The row's capacity ends with the row: appending to it reallocates
// instead of running into its neighbour.
func (rc *ReduceContext) EmitConcat(parts ...relation.Tuple) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if cap(rc.slab)-len(rc.slab) < n {
		// slices.Grow rounds up to the allocator's size class, which
		// turns its padding into room for rows.
		rc.slab = slices.Grow([]relation.Value(nil), max(n, min(len(rc.out)/16*n, 1<<12)))
		rc.slabRow0 = len(rc.out)
	}
	a := len(rc.slab)
	for _, p := range parts {
		rc.slab = append(rc.slab, p...)
	}
	rc.Emit(rc.slab[a:len(rc.slab):len(rc.slab)])
}

// trim moves the rows of the last, partly filled chunk into an exactly
// sized one, so that a finished attempt holds no unused capacity beyond
// the sub-row remainder of each full chunk. The attempt calls it after
// its last Reduce call.
func (rc *ReduceContext) trim() {
	used := rc.slab
	if cap(used)-len(used) <= len(used)/64 {
		return
	}
	exact := slices.Clone(used)
	// The chunk's rows are in out[slabRow0:] in slab order, possibly with
	// caller-built rows between them.
	off := 0
	for i := rc.slabRow0; off < len(used); i++ {
		if row := rc.out[i]; len(row) > 0 && &row[0] == &used[off] {
			rc.out[i] = exact[off : off+len(row) : off+len(row)]
			off += len(row)
		}
	}
	rc.slab = exact
}

// AddWork records n candidate combinations examined; it feeds the
// CombinationsChecked metric (the Π|R_i|/k_R term of Eq. 10).
func (rc *ReduceContext) AddWork(n int64) { rc.combinations += n }

// ReduceFunc processes all values grouped under one key.
//
// groups has one entry per job input: groups[tag] holds the key's values
// emitted with that tag (empty when there are none), in task order and,
// within a task, map emission order — the engine's determinism contract.
// The engine splits the merged run by tag because every join reducer
// starts that way. The slices are views into buffers the attempt reuses
// for its next key: valid only for the duration of the call, not to be
// retained (copy what outlives it), and capacity-limited, so an append
// allocates instead of reaching the buffer.
type ReduceFunc func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext)

// Partitioner routes one map-emitted pair to one or more reducers. It
// replaces the default key mod numReducers for skew-resilient shuffles: a
// heavy key's pairs can be split across sub-reducers by tuple content
// while the matching other side replicates to all of them, so the
// imbalance a value-skewed key distribution forces on a plain hash
// partition disappears. Route appends the destination ordinals (each
// in [0, numReducers)) to dst and returns the extended slice; it must
// be a pure, deterministic function of its arguments — the engine's
// determinism guarantee rests on it.
type Partitioner interface {
	Route(dst []int, key uint64, tag uint8, t relation.Tuple, numReducers int) []int
}

// Input binds one relation to the map function applied to its tuples.
type Input struct {
	Rel *relation.Relation
	Map MapFunc
}

// Job is a single MapReduce job specification (one MRJ in the paper's
// terms). NumReducers is the user-specified RN(MRJ) of Definition 3.
type Job struct {
	Name        string
	Inputs      []Input
	Reduce      ReduceFunc
	NumReducers int

	// Partitioner, when set, routes pairs instead of key % NumReducers
	// (including one-to-many skew-resilient routing); see the
	// interface doc.
	Partitioner Partitioner

	// OutputName and OutputSchema describe the produced relation.
	OutputName   string
	OutputSchema *relation.Schema

	// OutputDicts optionally carries the per-column string
	// dictionaries of the output relation, aligned with OutputSchema
	// (nil entries for columns without one). Join jobs propagate their
	// inputs' column dictionaries here so interned string values keep
	// valid codes in the produced relation and downstream jobs retain
	// the dictionary key fast path.
	OutputDicts []*relation.Dict

	// OutputMultiplier sets the VolumeMultiplier of the output
	// relation; 0 defaults to the max input multiplier, which keeps
	// modeled intermediate-result I/O proportional to modeled inputs.
	OutputMultiplier float64
}

// Validate reports specification errors.
func (j *Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("mr: job has no name")
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("mr: job %s has no inputs", j.Name)
	}
	if len(j.Inputs) > 255 {
		return fmt.Errorf("mr: job %s has %d inputs; max 255 (tag is uint8)", j.Name, len(j.Inputs))
	}
	for i, in := range j.Inputs {
		if in.Rel == nil {
			return fmt.Errorf("mr: job %s input %d has nil relation", j.Name, i)
		}
		if in.Map == nil {
			return fmt.Errorf("mr: job %s input %d has nil map function", j.Name, i)
		}
	}
	if j.Reduce == nil {
		return fmt.Errorf("mr: job %s has nil reduce function", j.Name)
	}
	if j.NumReducers < 1 {
		return fmt.Errorf("mr: job %s has %d reducers; must be >= 1", j.Name, j.NumReducers)
	}
	if j.OutputSchema == nil {
		return fmt.Errorf("mr: job %s has nil output schema", j.Name)
	}
	return nil
}
