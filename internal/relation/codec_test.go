package relation

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestReadCSVRowsAreIsolated: ReadCSV carves a block's rows from one
// slab, as mr's EmitConcat carves output rows from chunks, so the same
// must hold of them — a row's capacity ends with the row, and an append
// to one reallocates instead of overwriting the next.
func TestReadCSVRowsAreIsolated(t *testing.T) {
	for _, rows := range []int{1, 40, 5000} {
		var in strings.Builder
		in.WriteString("id:int,name:string,score:float\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&in, "%d,n%d,%d.5\n", i, i%97, i)
		}
		rel, err := ReadCSV(strings.NewReader(in.String()), "R")
		if err != nil || len(rel.Tuples) != rows {
			t.Fatalf("%d rows: read %d, %v", rows, len(rel.Tuples), err)
		}
		check := func(when string) {
			t.Helper()
			for i, row := range rel.Tuples {
				want := Tuple{Int(int64(i)), Str(fmt.Sprintf("n%d", i%97)), Float(float64(i) + 0.5)}
				if !slices.EqualFunc(row, want, Identical) {
					t.Fatalf("%d rows, %s: row %d is %v, want %v", rows, when, i, row, want)
				}
			}
		}
		check("as read")
		for i, row := range rel.Tuples {
			if cap(row) != len(row) {
				t.Fatalf("%d rows: row %d has cap %d, len %d", rows, i, cap(row), len(row))
			}
			grown := append(row, Str("clobber"))
			grown[len(grown)-1] = Str("clobber again")
		}
		check("after appending to every row")
	}
}
