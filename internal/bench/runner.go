package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment names accepted by Run, in paper order.
const (
	ExpTable1   = "table1"
	ExpFig6     = "fig6"
	ExpFig7a    = "fig7a"
	ExpFig7b    = "fig7b"
	ExpFig8     = "fig8"
	ExpTable2   = "table2"
	ExpFig9     = "fig9"
	ExpFig10    = "fig10"
	ExpFig11    = "fig11"
	ExpTable3   = "table3"
	ExpFig12    = "fig12"
	ExpFig13    = "fig13"
	ExpAblation = "ablation"
)

// Experiments lists every runnable experiment id in paper order.
func Experiments() []string {
	return []string{
		ExpTable1, ExpFig6, ExpFig7a, ExpFig7b, ExpFig8,
		ExpTable2, ExpFig9, ExpFig10, ExpFig11,
		ExpTable3, ExpFig12, ExpFig13, ExpAblation,
	}
}

// Run executes one experiment by id and prints its table(s) to w.
func (s *Suite) Run(id string, w io.Writer) error {
	tables, err := s.Tables(id)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}

// Tables produces the result tables of one experiment.
func (s *Suite) Tables(id string) ([]*Table, error) {
	one := func(t *Table, err error) ([]*Table, error) {
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
	switch id {
	case ExpTable1:
		return []*Table{s.Table1()}, nil
	case ExpFig6:
		return one(s.Fig6())
	case ExpFig7a:
		return one(s.Fig7a())
	case ExpFig7b:
		return one(s.Fig7b())
	case ExpFig8:
		return one(s.Fig8())
	case ExpTable2:
		return one(s.Table2())
	case ExpFig9:
		return one(s.MobileComparison(96))
	case ExpFig10:
		return one(s.MobileComparison(64))
	case ExpFig11:
		return one(s.Fig11())
	case ExpTable3:
		return one(s.Table3())
	case ExpFig12:
		return one(s.TPCHComparison(96))
	case ExpFig13:
		return one(s.TPCHComparison(64))
	case ExpAblation:
		var out []*Table
		for _, f := range []func() (*Table, error){
			s.AblationPartition, s.AblationSingleVsCascade, s.AblationKR, s.AblationScheduling,
			s.AblationFeedback,
		} {
			t, err := f()
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	default:
		known := Experiments()
		sort.Strings(known)
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, known)
	}
}
