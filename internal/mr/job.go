package mr

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// Emitter receives map output: one call shuffles the tuple being mapped
// under key. The pair's tag is the ordinal of the input being mapped,
// so groups[i] of a Reduce call holds input i's rows. A key goes to
// reducer key mod numReducers unless the job sets a Partitioner; jobs
// whose keys are reducer ordinals rely on that default.
type Emitter func(key uint64)

// MapFunc routes one input tuple: it emits it under zero or more keys.
// The value a pair carries is always t itself, a row of the input
// relation, which is what lets a shuffled pair name its row instead of
// carrying it.
type MapFunc func(t relation.Tuple, emit Emitter)

// ReduceContext lets reducers report work (candidate combinations
// checked) for the Metrics and emit output tuples. It belongs to one
// reduce attempt; the package documentation says who owns the rows.
type ReduceContext struct {
	out          []relation.Tuple
	combinations int64
	// project is the job's Project: the columns of each emitted row
	// that EmitConcat copies (nil: all of them).
	project []int
	// slab is the chunk EmitConcat carves rows from (len = values used);
	// the rows carved from it so far are out[slabRow0:], in slab order.
	slab     []relation.Value
	slabRow0 int
	// sizes counts the emitted rows by raw EncodedSize: the output is
	// priced as Σ int64(float64(size)·multiplier) over rows, with a
	// multiplier known only once every reducer is done, and the counts
	// let assemble form that exact sum without walking the rows again.
	// They count every row, kept or not: their sum is the row count.
	sizes map[int]int64

	// A result job's attempt (Job.Result) has a hasher, its reduce
	// scratch's, through which it sums the RowHash of every row it
	// emits, and keeps a row only while it holds fewer than keep rows
	// (keep < 0: every row) and gate has not closed on its reducer red.
	// A row it does not keep is counted in sizes and nothing else of it
	// remains; a row whose arity is not the schema's is always kept, for
	// assemble to report.
	hasher *relation.RowHasher
	keep   int
	red    int
	arity  int
	gate   *keepGate
	rowSum uint64
}

// count books an emitted row, kept or not, by its EncodedSize.
func (rc *ReduceContext) count(size int) {
	if rc.sizes == nil {
		rc.sizes = make(map[int]int64)
	}
	rc.sizes[size]++
}

// fewKept reports whether the attempt keeps at most keepChunkRows rows:
// EmitConcat then allocates room for all of them at the first, so that
// how many it keeps, which depends on when the gate closes, does not
// change how often it allocates, and trim leaves that room alone.
func (rc *ReduceContext) fewKept() bool {
	return rc.hasher != nil && 0 <= rc.keep && rc.keep <= keepChunkRows
}

// keepChunkRows is the largest Keep whose rows a result attempt
// allocates in one go.
const keepChunkRows = 16

// keeps adds a result row's hash to the attempt's sum and reports
// whether the attempt keeps the row.
func (rc *ReduceContext) keeps(hash uint64, arity int) bool {
	rc.rowSum += hash
	return rc.keep < 0 || len(rc.out) < rc.keep && !rc.gate.closed(rc.red) || arity != rc.arity
}

// EmitConcat emits the concatenation of parts, copied into the
// attempt's slab instead of an allocation of its own. A new chunk holds
// a sixteenth as many rows as the attempt has emitted so far (at least
// this one, at most 2¹² values, 96 KiB): a megabyte of output is about
// a hundred allocations, and the last chunk's unused tail and trim's copy
// of the rest of it stay at a few percent of the output however small
// that is.
// The row's capacity ends with the row: appending to it reallocates
// instead of running into its neighbour. A result job's row that is
// not kept is not copied, and is priced from its parts; an attempt
// that keeps keepChunkRows rows or fewer allocates room for all of
// them with its first. A projected job (Job.Project) copies only the
// projected columns, and prices the row from its parts too.
//
// A result job hashes the row from where it stops sharing parts with
// the previous row of the same Reduce call (relation.RowHasher): a part
// is the same part when it starts at the same address with the same
// length. So within one Reduce call a caller must not rewrite the
// values of a part it has passed to EmitConcat: pass a group's tuples,
// which Reduce may only read, or rows of its own that it leaves as they
// are until the call returns.
func (rc *ReduceContext) EmitConcat(parts ...relation.Tuple) {
	n, size := len(rc.project), relation.EncodedSizeOf(parts...)
	if rc.project == nil {
		for _, p := range parts {
			n += len(p)
		}
	}
	if rc.hasher != nil && !rc.keeps(rc.hasher.Hash(parts...), n) {
		rc.count(size)
		return
	}
	if cap(rc.slab)-len(rc.slab) < n {
		rows := len(rc.out) / 16
		if rc.fewKept() && len(rc.out) == 0 {
			rows = rc.keep
			rc.out = make([]relation.Tuple, 0, rc.keep)
		}
		// slices.Grow rounds up to the allocator's size class, which
		// turns its padding into room for rows.
		rc.slab = slices.Grow([]relation.Value(nil), max(n, min(rows*n, 1<<12)))
		rc.slabRow0 = len(rc.out)
	}
	a := len(rc.slab)
	if rc.project == nil {
		for _, p := range parts {
			rc.slab = append(rc.slab, p...)
		}
	} else {
		rc.slab = appendProjected(rc.slab, rc.project, parts)
	}
	rc.out = append(rc.out, rc.slab[a:len(rc.slab):len(rc.slab)])
	rc.count(size)
}

// appendProjected appends to dst the columns cols, ascending, of the
// row that the concatenation of parts would make. Parts too short for
// cols leave the row short, which assemble reports as a wrong arity.
func appendProjected(dst []relation.Value, cols []int, parts []relation.Tuple) []relation.Value {
	off := 0
	for _, p := range parts {
		for len(cols) > 0 && cols[0] < off+len(p) {
			dst = append(dst, p[cols[0]-off])
			cols = cols[1:]
		}
		off += len(p)
	}
	return dst
}

// trim moves the rows of the last, partly filled chunk into an exactly
// sized one, so that a finished attempt holds no unused capacity beyond
// the sub-row remainder of each full chunk. The attempt calls it after
// its last Reduce call.
func (rc *ReduceContext) trim() {
	used := rc.slab
	if cap(used)-len(used) <= len(used)/64 || rc.fewKept() {
		return
	}
	exact := slices.Clone(used)
	rows, off := rc.out[rc.slabRow0:], 0
	for i, row := range rows {
		rows[i] = exact[off : off+len(row) : off+len(row)]
		off += len(row)
	}
	rc.slab = exact
}

// AddWork records n candidate combinations examined; it feeds the
// CombinationsChecked metric (the Π|R_i|/k_R term of Eq. 10).
func (rc *ReduceContext) AddWork(n int64) { rc.combinations += n }

// ReduceFunc processes all values grouped under one key.
//
// groups has one entry per job input: groups[i] holds the key's rows of
// input i (empty when there are none), in task order and, within a
// task, map emission order — the engine's determinism contract. The
// engine splits the merged run by input because every join reducer
// starts that way. The slices are views into buffers the attempt reuses
// for its next key, and the run's next reduce attempt after it: valid
// only for the duration of the call, not to be retained (copy what
// outlives it), and capacity-limited, so an append allocates instead of
// reaching the buffer.
type ReduceFunc func(key uint64, groups [][]relation.Tuple, ctx *ReduceContext)

// Partitioner routes one map-emitted pair to one or more reducers. It
// replaces the default key mod numReducers for skew-resilient shuffles: a
// heavy key's pairs can be split across sub-reducers by tuple content
// while the matching other side replicates to all of them, so the
// imbalance a value-skewed key distribution forces on a plain hash
// partition disappears. Route appends the destination ordinals (each
// in [0, numReducers)) to dst and returns the extended slice; it must
// be a pure, deterministic function of its arguments — the engine's
// determinism guarantee rests on it. tag is the ordinal of the input t
// is a row of.
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

	// Result marks the job's output as its query's result. Its
	// reducers hash and count every row they emit (Result.Rows,
	// Result.RowHashSum) and price it as any job prices its output,
	// but the output relation holds only the first Keep rows in
	// reducer order: none when Keep is 0, every row when it is
	// negative. Keep is read only when Result is set.
	Result bool
	Keep   int

	// Project, when set, lists in ascending order the columns of the
	// full row (the concatenation of EmitConcat's parts) that the
	// output keeps, and OutputSchema describes those columns only.
	// Every row is still priced as the full row, so every byte metric
	// is that of the unprojected job.
	Project []int
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
	if j.Project != nil {
		if len(j.Project) != j.OutputSchema.Len() {
			return fmt.Errorf("mr: job %s projects %d columns onto a %d-column schema", j.Name, len(j.Project), j.OutputSchema.Len())
		}
		for i, c := range j.Project {
			if c < 0 || i > 0 && c <= j.Project[i-1] {
				return fmt.Errorf("mr: job %s: projected columns %v are not ascending ordinals", j.Name, j.Project)
			}
		}
	}
	return nil
}
