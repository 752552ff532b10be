package skew

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/relation"
)

// DefaultThreshold is the load-imbalance trigger: a key is handled as
// hot when its estimated tuple fraction times the job's reducer count
// exceeds it — i.e. the key alone would load a reducer past 1.5× the
// mean.
const DefaultThreshold = 1.5

// JobPlan is the skew handling chosen for one planned job: the
// heavy-hitter reports of the job's join attributes plus the trigger
// threshold. Operators derive their concrete split layout from it at
// build time (hash-equi sub-grids, share-grid hot-row refinement).
type JobPlan struct {
	Threshold float64
	// Reports holds heavy hitters per relation per column set, keyed by
	// JointKey of the column names.
	Reports map[string]map[string][]relation.HotKey
}

// NewJobPlan builds an empty plan with the given threshold (<= 0 uses
// DefaultThreshold).
func NewJobPlan(threshold float64) *JobPlan {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &JobPlan{Threshold: threshold, Reports: make(map[string]map[string][]relation.HotKey)}
}

// JointKey canonicalises a column list for report lookups. Order
// matters: callers must pass the columns in join-condition order on
// both the planning and the operator side, so the stored value vectors
// align with the composite shuffle key.
func JointKey(cols []string) string { return strings.Join(cols, "\x1f") }

// Add registers the heavy hitters of rel over cols.
func (p *JobPlan) Add(rel string, cols []string, hot []relation.HotKey) {
	if len(hot) == 0 {
		return
	}
	m, ok := p.Reports[rel]
	if !ok {
		m = make(map[string][]relation.HotKey)
		p.Reports[rel] = m
	}
	m[JointKey(cols)] = hot
}

// Hot returns the heavy hitters of rel over cols (nil-safe).
func (p *JobPlan) Hot(rel string, cols []string) []relation.HotKey {
	if p == nil {
		return nil
	}
	return p.Reports[rel][JointKey(cols)]
}

// TupleHash is the deterministic content hash that spreads a hot key's
// tuples over its sub-reducers: identical in the map-side router and
// the reduce-side ownership check, and independent of task or
// goroutine interleaving.
func TupleHash(t relation.Tuple) uint64 {
	h := fnv.New64a()
	var kb [2]byte
	var cb [8]byte
	var scratch [32]byte
	kb[1] = 0x1e
	for _, v := range t {
		kb[0] = byte(v.Kind())
		h.Write(kb[:1])
		// Interned strings hash their fixed-width dictionary code
		// instead of the string bytes: within a column every value
		// shares one dictionary, so the code determines the string.
		if c, ok := v.DictCode(); ok {
			binary.LittleEndian.PutUint64(cb[:], uint64(c))
			h.Write(cb[:])
		} else {
			h.Write(v.AppendString(scratch[:0]))
		}
		h.Write(kb[1:])
	}
	return h.Sum64()
}

// SplitFactor returns the number of sub-reducers a key carrying
// fraction frac of one side's tuples warrants: 1 (no splitting) while
// its load stays within threshold × the mean reducer load, otherwise
// enough sub-reducers to bring each fragment back to roughly the mean.
func SplitFactor(frac float64, reducers int, threshold float64) int {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if frac <= 0 || reducers < 2 || frac*float64(reducers) <= threshold {
		return 1
	}
	f := int(math.Ceil(frac * float64(reducers)))
	if f > reducers {
		f = reducers
	}
	return f
}

// SigmaFrac estimates the reducer-input variation coefficient (stddev
// as a fraction of the mean) the cost model should charge, from the
// hottest join-key fraction pmax at the given parallelism. The
// straggler term of the model reads mean + 3σ, so a key holding
// fraction p implies σ ≈ (p·k − 1)/3 × mean; runtime hot-key splitting
// bounds the hot reducer near threshold × mean, capping the estimate.
// A distribution measured near-uniform (pmax ≈ 0) yields a small
// residual-hash-variance floor rather than the pessimistic constants
// used when no report exists.
func SigmaFrac(pmax float64, parallelism int, threshold float64) float64 {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	excess := pmax*float64(parallelism) - 1
	if excess > threshold {
		excess = threshold
	}
	cv := excess / 3
	if cv < 0.02 {
		cv = 0.02
	}
	return cv
}

// Split is the sub-reducer grid one hot join key is spread over:
// tuples of the row side land in one of Rows row-fragments by
// TupleHash and replicate across the Cols columns; the column side
// mirrors. Every joining pair meets in exactly one of the Rows×Cols
// cells.
type Split struct {
	Rows, Cols int
}

// Cells returns Rows×Cols.
func (s Split) Cells() int { return s.Rows * s.Cols }

// EquiPartitioner routes a repartition equi-join's shuffle with
// heavy-hitter splitting: non-hot keys go to hash(key) mod n exactly
// as the default partitioner would; a hot key's pairs spread over the
// Cells reducers of its sub-grid. It implements mr.Partitioner.
//
// Sub-grid placement is coordinated across hot keys: the historical
// layout placed every grid on the consecutive slots following the
// key's base, so two hot keys whose base slots were close aliased
// onto the same reducers and re-concentrated exactly the load the
// split was meant to spread. gridLayout instead assigns each key's
// cells to the reducers occupied by the fewest other hot grids
// (orbiting the key's own base slot for tie-breaks), which is fully
// disjoint whenever Σ Cells ≤ n and evens out grid occupancy beyond
// that.
type EquiPartitioner struct {
	// Splits maps the job's shuffle key (the composite join-key hash)
	// of each heavy hitter to its sub-grid.
	Splits map[uint64]Split

	// Obs, when set, records the hot-key routing layout as trace
	// events: one "skew-layout" span around the grid computation plus a
	// "hot-key" instant per split key. The layout is built exactly once
	// (under layoutOnce, whichever map worker gets there first), so the
	// shard has a single writer and recording stays race-free.
	Obs *obs.Shard

	layoutOnce sync.Once
	layoutN    int
	layout     map[uint64][]int
}

// layoutFor returns the slot assignment of every hot grid for n
// reducers, computing it on first use. A partitioner serves exactly
// one job (one n); the sync.Once makes the lazy build safe under the
// engine's concurrent map tasks, and the layout is a pure function of
// (Splits, n), preserving shuffle determinism.
func (p *EquiPartitioner) layoutFor(n int) map[uint64][]int {
	p.layoutOnce.Do(func() {
		sp := p.Obs.Start("skew-layout", obs.A("hotKeys", len(p.Splits)), obs.A("reducers", n))
		p.layoutN = n
		p.layout = gridLayout(p.Splits, n)
		for key, slots := range p.layout {
			p.Obs.Instant("hot-key",
				obs.A("key", fmt.Sprintf("%#x", key)),
				obs.A("rows", p.Splits[key].Rows), obs.A("cols", p.Splits[key].Cols),
				obs.A("slots", fmt.Sprint(slots)))
		}
		sp.End(obs.A("placed", len(p.layout)))
	})
	if p.layoutN != n {
		// Out-of-contract caller probing a second n: stay correct,
		// just without caching.
		return gridLayout(p.Splits, n)
	}
	return p.layout
}

// gridLayout assigns each hot key's Cells() sub-grid slots. Keys are
// processed in ascending key order (determinism); each picks the
// slots currently covered by the fewest already-placed grids,
// tie-breaking by ring distance from the key's own base slot so a
// lone hot key keeps its historical consecutive run.
func gridLayout(splits map[uint64]Split, n int) map[uint64][]int {
	keys := make([]uint64, 0, len(splits))
	for k := range splits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	occ := make([]int, n)
	order := make([]int, n)
	layout := make(map[uint64][]int, len(keys))
	for _, key := range keys {
		cells := splits[key].Cells()
		if cells < 1 || cells > n {
			continue // Route falls back to plain hashing for this key
		}
		base := int(key % uint64(n))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			sa, sb := order[a], order[b]
			if occ[sa] != occ[sb] {
				return occ[sa] < occ[sb]
			}
			return (sa-base+n)%n < (sb-base+n)%n
		})
		slots := append([]int(nil), order[:cells]...)
		for _, s := range slots {
			occ[s]++
		}
		layout[key] = slots
	}
	return layout
}

// Route implements the skew-resilient routing. Tag 0 is the row side
// (split), any other tag the column side (replicated); with both sides
// hot the Rows×Cols grid splits each and every pair still meets in
// exactly one cell — the grid-index → slot mapping is injective, so
// the single shared cell of a (row, column) tuple pair is a single
// shared reducer.
func (p *EquiPartitioner) Route(dst []int, key uint64, tag uint8, t relation.Tuple, n int) []int {
	base := int(key % uint64(n))
	sp, ok := p.Splits[key]
	if !ok || n < 2 || sp.Rows < 1 || sp.Cols < 1 || sp.Cells() > n {
		return append(dst, base)
	}
	slots := p.layoutFor(n)[key]
	if len(slots) != sp.Cells() {
		return append(dst, base)
	}
	th := TupleHash(t)
	if tag == 0 {
		row := int(th % uint64(sp.Rows))
		for c := 0; c < sp.Cols; c++ {
			dst = append(dst, slots[row*sp.Cols+c])
		}
		return dst
	}
	col := int(th % uint64(sp.Cols))
	for r := 0; r < sp.Rows; r++ {
		dst = append(dst, slots[r*sp.Cols+col])
	}
	return dst
}
