// Package predicate defines theta-join conditions — the binary
// functions θ ∈ {<, ≤, =, ≥, >, ≠} between attributes of two relations
// — along with evaluation and sampling-based selectivity estimation.
//
// A Condition models the paper's edge labels l(e)=θ in the join graph:
// "R_i.a θ R_j.b", optionally with an additive constant on either side
// so predicates such as "FI₁.at + L.l₁ < FI₂.dt" (the travel-planning
// example of §2.2) and "t1.d + 3 > t3.d" (mobile query Q3) are
// expressible.
package predicate

import (
	"fmt"

	"repro/internal/relation"
)

// Op is a theta comparison operator.
type Op uint8

// The six theta operators of the paper (§2.2).
const (
	LT Op = iota // <
	LE           // <=
	EQ           // =
	GE           // >=
	GT           // >
	NE           // <>
)

// String renders the operator in SQL notation.
func (o Op) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	case GT:
		return ">"
	case NE:
		return "<>"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ParseOp converts SQL notation to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return LT, nil
	case "<=":
		return LE, nil
	case "=", "==":
		return EQ, nil
	case ">=":
		return GE, nil
	case ">":
		return GT, nil
	case "<>", "!=":
		return NE, nil
	default:
		return EQ, fmt.Errorf("predicate: unknown operator %q", s)
	}
}

// IsEquality reports whether the operator is plain equality. Multi-way
// equi-joins admit the key-partitioning shortcut of Afrati–Ullman; any
// other operator forces result-space partitioning.
func (o Op) IsEquality() bool { return o == EQ }

// Flip returns the operator with its operand order reversed, so that
// "a θ b" ⇔ "b θ.Flip() a".
func (o Op) Flip() Op {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ and NE are symmetric
		return o
	}
}

// Eval applies the operator to a three-way comparison result as
// produced by relation.Compare.
func (o Op) Eval(cmp int) bool {
	switch o {
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case EQ:
		return cmp == 0
	case GE:
		return cmp >= 0
	case GT:
		return cmp > 0
	case NE:
		return cmp != 0
	default:
		return false
	}
}

// Condition is one theta-join condition between two relations:
//
//	Left.LeftColumn + LeftOffset  θ  Right.RightColumn + RightOffset
//
// Left and Right are relation names; the planner resolves columns
// against schemas at execution time.
type Condition struct {
	ID          int // ordinal within the query (θ_1 … θ_n); set by query construction
	Left        string
	LeftColumn  string
	LeftOffset  float64
	Op          Op
	Right       string
	RightColumn string
	RightOffset float64
}

// C builds a condition without offsets; the common case.
func C(left, leftCol string, op Op, right, rightCol string) Condition {
	return Condition{Left: left, LeftColumn: leftCol, Op: op, Right: right, RightColumn: rightCol}
}

// WithOffsets returns a copy with additive constants applied to each side.
func (c Condition) WithOffsets(l, r float64) Condition {
	c.LeftOffset = l
	c.RightOffset = r
	return c
}

// String renders the condition in SQL-like form.
func (c Condition) String() string {
	l := c.Left + "." + c.LeftColumn
	if c.LeftOffset != 0 {
		l = fmt.Sprintf("%s%+g", l, c.LeftOffset)
	}
	r := c.Right + "." + c.RightColumn
	if c.RightOffset != 0 {
		r = fmt.Sprintf("%s%+g", r, c.RightOffset)
	}
	return fmt.Sprintf("%s %s %s", l, c.Op, r)
}

// Reversed returns the condition with sides swapped (an equivalent
// predicate oriented Right-to-Left).
func (c Condition) Reversed() Condition {
	return Condition{
		ID:          c.ID,
		Left:        c.Right,
		LeftColumn:  c.RightColumn,
		LeftOffset:  c.RightOffset,
		Op:          c.Op.Flip(),
		Right:       c.Left,
		RightColumn: c.LeftColumn,
		RightOffset: c.LeftOffset,
	}
}

// Other returns the opposite relation of the condition given one
// endpoint, and whether rel is an endpoint at all.
func (c Condition) Other(rel string) (string, bool) {
	switch rel {
	case c.Left:
		return c.Right, true
	case c.Right:
		return c.Left, true
	default:
		return "", false
	}
}

// KeyMode classifies how a condition between two typed columns is
// evaluated on normalized sort keys (relation.SortKeyInt/SortKeyFloat,
// dictionary keys): the compilation step of the indexed reducer-side
// join evaluator.
type KeyMode uint8

const (
	// KeyInt: both sides stay integer-valued after their additive
	// offsets (int/time columns, integral offsets); both sides extract
	// with relation.SortKeyInt and compare as raw int64.
	KeyInt KeyMode = iota
	// KeyFloat: both sides numeric, at least one float-valued after
	// its offset (a float column, or an int column with a fractional
	// offset — relation.Value.Add's promotion rule); both sides
	// extract with relation.SortKeyFloat.
	KeyFloat
	// KeyDict: both sides string columns and at least one side carries
	// an order-preserving dictionary (relation.Dict) covering all of
	// its values. Both sides key against that reference dictionary —
	// member strings via their even code keys, absent probe strings
	// via the odd gap keys — so string equality, inequality and range
	// conditions ride the same int64 indexes as numeric ones.
	KeyDict
)

// shiftedKind is the value kind a column of kind k produces after
// Value.Add(off): the static half of Add's promotion rules. Time
// columns stay integer-valued for any offset (Add truncates), int
// columns promote to float on fractional offsets.
func shiftedKind(k relation.Kind, off float64) relation.Kind {
	switch k {
	case relation.KindInt:
		if off == float64(int64(off)) {
			return relation.KindInt
		}
		return relation.KindFloat
	case relation.KindTime:
		return relation.KindInt
	default:
		return k
	}
}

// CondKeyMode returns the key mode of a condition between a left column
// of kind l (shifted by lOff) and a right column of kind r (shifted by
// rOff), hasDict telling whether either column has a dictionary.
// Numeric modes reproduce relation.Compare's dispatch exactly; string
// pairs take dictionary keys (offsets are no-ops on strings). A
// null-kind column, all NULLs that every mode keys as NullSortKey,
// takes the other side's mode (KeyInt if both are null). A string
// compared with another kind, or a string pair with no dictionary, is
// refused.
func CondKeyMode(l relation.Kind, lOff float64, r relation.Kind, rOff float64, hasDict bool) (KeyMode, error) {
	lk, rk := shiftedKind(l, lOff), shiftedKind(r, rOff)
	if lk == relation.KindNull {
		lk = rk
	}
	if rk == relation.KindNull {
		rk = lk
	}
	switch {
	case lk == relation.KindString && rk == relation.KindString:
		if !hasDict {
			return 0, fmt.Errorf("neither string column has a dictionary")
		}
		return KeyDict, nil
	case lk == relation.KindString || rk == relation.KindString:
		return 0, fmt.Errorf("a string compares only with a string")
	case lk == relation.KindFloat || rk == relation.KindFloat:
		return KeyFloat, nil
	}
	return KeyInt, nil
}

// Conjunction is a set of conditions that must all hold; the predicate
// attached to one MapReduce job candidate.
type Conjunction []Condition

// String renders the conjunction joined by AND.
func (cj Conjunction) String() string {
	s := ""
	for i, c := range cj {
		if i > 0 {
			s += " AND "
		}
		s += c.String()
	}
	return s
}

// Relations returns the distinct relation names referenced, in first-
// appearance order.
func (cj Conjunction) Relations() []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range cj {
		if !seen[c.Left] {
			seen[c.Left] = true
			out = append(out, c.Left)
		}
		if !seen[c.Right] {
			seen[c.Right] = true
			out = append(out, c.Right)
		}
	}
	return out
}

// IDs returns the condition IDs in the conjunction.
func (cj Conjunction) IDs() []int {
	out := make([]int, len(cj))
	for i, c := range cj {
		out[i] = c.ID
	}
	return out
}
