package baselines

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/predicate"
	"repro/internal/relation"
)

// OneBucketTheta is the pairwise theta-join of Okcan & Riedewald [25]:
// the |L|×|R| cross-product matrix is tiled by a near-square
// rows×cols = kR grid of rectangles, each rectangle one reducer. Every
// L tuple is assigned a random matrix row and replicated to the `cols`
// rectangles intersecting it; every R tuple a random column and the
// `rows` rectangles. Any theta condition is then verified reducer-side
// with guaranteed coverage. The paper observes this "does not have a
// straightforward extension" beyond two dimensions — which is exactly
// what the Hilbert method supplies — so this operator serves as the
// pairwise building block and an ablation reference.
func OneBucketTheta(name string, left, right *relation.Relation, conds predicate.Conjunction, kr int) (*mr.Job, error) {
	if kr < 1 {
		return nil, fmt.Errorf("baselines: 1-bucket needs kr >= 1")
	}
	rows, cols := squarish(kr)
	grid := rows * cols
	lCard, rCard := left.Cardinality(), right.Cardinality()
	bound, err := bindPairConds(left, right, conds)
	if err != nil {
		return nil, err
	}
	lRid, err := ridCol(left)
	if err != nil {
		return nil, err
	}
	rRid, err := ridCol(right)
	if err != nil {
		return nil, err
	}
	salt := uint64(0x9d2c5680)
	outSchema := concatBoth(left, right)
	return &mr.Job{
		Name: name,
		Inputs: []mr.Input{
			{Rel: left, Map: func(t relation.Tuple, emit mr.Emitter) {
				row := idHash(t[lRid], salt) % uint64(maxi(rows, 1))
				_ = lCard
				for c := 0; c < cols; c++ {
					emit(row*uint64(cols)+uint64(c), 0, t)
				}
			}},
			{Rel: right, Map: func(t relation.Tuple, emit mr.Emitter) {
				col := idHash(t[rRid], salt+1) % uint64(maxi(cols, 1))
				_ = rCard
				for r := 0; r < rows; r++ {
					emit(uint64(r)*uint64(cols)+col, 1, t)
				}
			}},
		},
		Reduce: func(key uint64, groups [][]relation.Tuple, ctx *mr.ReduceContext) {
			ls, rs := groups[0], groups[1]
			ctx.AddWork(int64(len(ls)) * int64(len(rs)))
			for _, l := range ls {
				for _, r := range rs {
					ok := true
					for _, bc := range bound {
						lv := l[bc.leftCol].Add(bc.leftOff)
						rv := r[bc.rightCol].Add(bc.rightOff)
						if !bc.op.Eval(relation.Compare(lv, rv)) {
							ok = false
							break
						}
					}
					if ok {
						ctx.EmitConcat(l, r)
					}
				}
			}
		},
		NumReducers:  grid,
		Partition:    mr.IdentityPartition,
		OutputName:   name,
		OutputSchema: outSchema,
	}, nil
}

// squarish factors kr into rows×cols with rows·cols ≤ kr and the
// shape as square as possible (maximising rectangle area balance,
// minimising total replication rows+cols).
func squarish(kr int) (rows, cols int) {
	best := 1
	for f := 1; f*f <= kr; f++ {
		if kr%f == 0 {
			best = f
		}
	}
	rows = best
	cols = kr / best
	// Highly non-square factorizations (primes) replicate badly; fall
	// back to floor(sqrt) grid that may waste a few reducers.
	if cols > 4*rows {
		s := int(math.Sqrt(float64(kr)))
		if s < 1 {
			s = 1
		}
		return s, s
	}
	return rows, cols
}

// bindPairConds resolves conditions between two base relations (bare
// or prefixed column names on either side).
func bindPairConds(left, right *relation.Relation, conds predicate.Conjunction) ([]stepCond, error) {
	var out []stepCond
	for _, c := range conds {
		oc := c
		if oc.Left != left.Name {
			oc = c.Reversed()
		}
		li, ok := lookupEither(left, oc.Left, oc.LeftColumn)
		if !ok {
			return nil, fmt.Errorf("baselines: %s lacks %s.%s", left.Name, oc.Left, oc.LeftColumn)
		}
		ri, ok := lookupEither(right, oc.Right, oc.RightColumn)
		if !ok {
			return nil, fmt.Errorf("baselines: %s lacks %s.%s", right.Name, oc.Right, oc.RightColumn)
		}
		out = append(out, stepCond{
			leftCol: li, rightCol: ri,
			leftOff: oc.LeftOffset, rightOff: oc.RightOffset,
			op: oc.Op,
		})
	}
	return out, nil
}

func lookupEither(r *relation.Relation, relName, col string) (int, bool) {
	if i, ok := r.Schema.Lookup(relName + "." + col); ok {
		return i, true
	}
	if r.Name == relName {
		if i, ok := r.Schema.Lookup(col); ok {
			return i, true
		}
	}
	return 0, false
}

func ridCol(r *relation.Relation) (int, error) {
	if i, ok := r.Schema.Lookup(core.RowIDColumn); ok {
		return i, nil
	}
	if i, ok := r.Schema.Lookup(r.Name + "." + core.RowIDColumn); ok {
		return i, nil
	}
	return 0, fmt.Errorf("baselines: relation %s lacks %s", r.Name, core.RowIDColumn)
}

func concatBoth(left, right *relation.Relation) *relation.Schema {
	var cols []relation.Column
	for i := 0; i < left.Schema.Len(); i++ {
		c := left.Schema.Column(i)
		cols = append(cols, relation.Column{Name: left.Name + "." + c.Name, Kind: c.Kind})
	}
	for i := 0; i < right.Schema.Len(); i++ {
		c := right.Schema.Column(i)
		cols = append(cols, relation.Column{Name: right.Name + "." + c.Name, Kind: c.Kind})
	}
	return relation.MustSchema(cols...)
}

func idHash(v relation.Value, salt uint64) uint64 {
	x := uint64(v.Int64()) ^ salt
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
