package skew

import (
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
)

// DefaultThreshold is the load-imbalance trigger: a key is handled as
// hot when its estimated tuple fraction times the job's reducer count
// exceeds it — i.e. the key alone would load a reducer past 1.5× the
// mean.
const DefaultThreshold = 1.5

// JobPlan is the skew handling chosen for one planned job: the
// heavy-hitter reports of the job's join attributes plus the trigger
// threshold. Operators derive their Layout from it when they build
// the job (Overlay for hash-equi, Carve for the share grid).
type JobPlan struct {
	Threshold float64
	// Reports holds heavy hitters per relation per column set, keyed by
	// JointKey of the column names.
	Reports map[string]map[string][]relation.HotKey
}

// NewJobPlan builds an empty plan with the given threshold.
func NewJobPlan(threshold float64) *JobPlan {
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
	h := relation.NewFNV()
	for _, v := range t {
		h = h.Byte(byte(v.Kind()))
		// Interned strings hash their fixed-width dictionary code
		// instead of the string bytes: within a column every value
		// shares one dictionary, so the code determines the string.
		if c, ok := v.DictCode(); ok {
			h = h.U64(uint64(c))
		} else {
			h = h.Text(v)
		}
		h = h.Byte(0x1e)
	}
	return uint64(h)
}

// SigmaFrac estimates the reducer-input variation coefficient (stddev
// as a fraction of the mean) the cost model should charge, from the
// hottest join-key fraction pmax at the given parallelism. The
// straggler term of the model reads mean + 3σ, so a key holding
// fraction p implies σ ≈ (p·k − 1)/3 × mean; runtime hot-key splitting
// bounds the hot reducer near threshold × mean, capping the estimate.
// A near-uniform distribution (pmax ≈ 0: nothing hot was reported)
// yields a small residual-hash-variance floor.
func SigmaFrac(pmax float64, parallelism int, threshold float64) float64 {
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

// Run is the slots one hot value owns, laid out as SharesSkew's
// residual join: a sub-grid with one axis per member relation of the
// job. A member's tuple pins its own axis by TupleHash and replicates
// along every other axis, so the tuples of all members that carry the
// value share exactly one slot.
type Run struct {
	shares  []int
	strides []int
	slots   []int // one per sub-grid cell, row-major over the members
	// pinned[m][i] lists the slots of the cells whose axis m is i: what
	// member m's tuple reaches, precomputed so routing allocates nothing.
	pinned [][][]int
}

func newRun(shares, slots []int) *Run {
	r := &Run{shares: shares, strides: make([]int, len(shares)), slots: slots, pinned: make([][][]int, len(shares))}
	stride := 1
	for m := len(shares) - 1; m >= 0; m-- {
		r.strides[m] = stride
		stride *= shares[m]
	}
	// Every cell lies on exactly one list per member, so one backing
	// array holds all of them.
	n := 0
	for _, s := range shares {
		n += s
	}
	lists := make([][]int, n)
	back := make([]int, 0, len(shares)*len(slots))
	for m, s := range shares {
		r.pinned[m], lists = lists[:s:s], lists[s:]
		for i := range s {
			start := len(back)
			for cell, slot := range slots {
				if cell/r.strides[m]%s == i {
					back = append(back, slot)
				}
			}
			r.pinned[m][i] = back[start:len(back):len(back)]
		}
	}
	return r
}

// Share is the number of slots along member's axis; a member with
// share 1 replicates over the whole run and needs no TupleHash.
func (r *Run) Share(member int) int { return r.shares[member] }

// Slots returns the slots a tuple of member with TupleHash hash is
// routed to. The slice is shared: callers must not modify it.
func (r *Run) Slots(member int, hash uint64) []int {
	return r.pinned[member][hash%uint64(r.shares[member])]
}

// Owner returns the one slot the member tuples with the given hashes
// (one per member) share: the slot whose reducer owns their
// combination.
func (r *Run) Owner(hashes []uint64) int {
	cell := 0
	for m, s := range r.shares {
		cell += int(hashes[m]%uint64(s)) * r.strides[m]
	}
	return r.slots[cell]
}

// Layout routes one operator's values by the 64-bit key the operator
// already routes them by: a hot value to its Run, any other value to
// one cold slot.
type Layout struct {
	runs          map[uint64]*Run
	coldLo, coldN int // cold values hash over [coldLo, coldLo+coldN)
}

// Hot returns the run of the value with this key, nil when it is cold.
func (l *Layout) Hot(key uint64) *Run { return l.runs[key] }

// Cold returns the slot of a cold value.
func (l *Layout) Cold(key uint64) int { return l.coldLo + int(key%uint64(l.coldN)) }

// Route implements mr.Partitioner for an operator whose shuffle key is
// the layout's key and whose input tag is the member ordinal.
func (l *Layout) Route(dst []int, key uint64, tag uint8, t relation.Tuple, _ int) []int {
	if run := l.runs[key]; run != nil {
		return append(dst, run.Slots(int(tag), TupleHash(t))...)
	}
	return append(dst, l.Cold(key))
}

// Hot is one reported heavy hitter as a router sees it: the key its
// operator routes the value by, the value's text and, per member
// relation, the fraction of that member's tuples carrying it. Reports
// of one key from several members may arrive as separate Hots: the
// placements merge them, keeping each member's largest fraction.
type Hot struct {
	Key   uint64
	Text  string
	Fracs []float64
}

// merged folds the reports of each key into one Hot, in ascending key
// order.
func merged(hots []Hot) []Hot {
	at := make(map[uint64]int, len(hots))
	var out []Hot
	for _, h := range hots {
		i, ok := at[h.Key]
		if !ok {
			at[h.Key] = len(out)
			out = append(out, Hot{Key: h.Key, Text: h.Text, Fracs: slices.Clone(h.Fracs)})
			continue
		}
		for m, f := range h.Fracs {
			out[i].Fracs[m] = max(out[i].Fracs[m], f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Overlay is the hash-equi placement over k reducers. A value whose
// member fraction f loads a reducer past threshold × the mean (f·k >
// threshold) gets ⌈f·k⌉ slots on that member's axis; the largest axis
// shrinks until the run fits in k. Runs overlay the cold slots: in
// ascending key order, each takes the slots the fewest placed runs
// cover, ties broken by ring distance from key mod k, so simultaneous
// hot values sit on disjoint reducers whenever they fit. Cold values
// hash over all k slots.
func Overlay(k int, hots []Hot, threshold float64) *Layout {
	lay := &Layout{runs: make(map[uint64]*Run), coldN: max(k, 1)}
	if k < 2 {
		return lay
	}
	occ := make([]int, k)
	order := make([]int, k)
	for _, h := range merged(hots) {
		shares := make([]int, len(h.Fracs))
		for m, f := range h.Fracs {
			shares[m] = 1
			if f > 0 && f*float64(k) > threshold {
				shares[m] = min(int(math.Ceil(f*float64(k))), k)
			}
		}
		cells := product(shares)
		for cells > k {
			big := 0
			for m := range shares {
				if shares[m] > shares[big] {
					big = m
				}
			}
			shares[big]--
			cells = product(shares)
		}
		if cells < 2 {
			continue
		}
		base := int(h.Key % uint64(k))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			sa, sb := order[a], order[b]
			if occ[sa] != occ[sb] {
				return occ[sa] < occ[sb]
			}
			return (sa-base+k)%k < (sb-base+k)%k
		})
		slots := slices.Clone(order[:cells])
		for _, s := range slots {
			occ[s]++
		}
		lay.runs[h.Key] = newRun(shares, slots)
	}
	return lay
}

// Carve is the share-grid placement along one grid dimension of share
// slots. A value whose largest member fraction f passes f·share >
// threshold gets ⌈f·share⌉ consecutive slots, carved from the front in
// order of f descending, then text; at least one slot stays cold. Only
// the split member pins within a run, every other member replicates
// across it. Cold values hash over the slots left after the runs.
func Carve(share int, hots []Hot, split int, threshold float64) *Layout {
	type carved struct {
		Hot
		frac float64
	}
	var hot []carved
	for _, h := range merged(hots) {
		if f := slices.Max(h.Fracs); f*float64(share) > threshold {
			hot = append(hot, carved{h, f})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].frac != hot[j].frac {
			return hot[i].frac > hot[j].frac
		}
		return hot[i].Text < hot[j].Text
	})
	lay := &Layout{runs: make(map[uint64]*Run, len(hot))}
	used := 0
	for _, h := range hot {
		w := min(int(math.Ceil(h.frac*float64(share))), share-1-used)
		if w < 1 {
			break
		}
		shares := make([]int, len(h.Fracs))
		for m := range shares {
			shares[m] = 1
		}
		shares[split] = w
		slots := make([]int, w)
		for i := range slots {
			slots[i] = used + i
		}
		lay.runs[h.Key] = newRun(shares, slots)
		used += w
	}
	lay.coldLo, lay.coldN = used, share-used
	return lay
}

func product(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}
