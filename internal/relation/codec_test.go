package relation

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestReadCSVRowsAreIsolated: ReadCSV packs rows into chunks that many
// blocks share, so the contract of a row's capacity is what keeps them
// apart. Every row has exactly one spare Value, NULL (the slot
// core.EnsureRowIDs writes the rid into): one append stays in the row's
// own storage and changes no other row, and a second reallocates. It
// holds at every block size — from one byte, where each block is one
// record that grows its buffer, to the real one — and every number of
// workers.
func TestReadCSVRowsAreIsolated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, rows := range []int{1, 40, 5000} {
		var in strings.Builder
		in.WriteString("id:int,name:string,score:float\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&in, "%d,n%d,%d.5\n", i, i%97, i)
		}
		for _, block := range []int{1, 7, 100, 4 << 10, csvBlockSize} {
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				at := fmt.Sprintf("%d rows, %d B blocks, GOMAXPROCS %d", rows, block, procs)
				rel, err := readCSV(strings.NewReader(in.String()), "R", block, procs)
				if err != nil || len(rel.Tuples) != rows {
					t.Fatalf("%s: read %d, %v", at, len(rel.Tuples), err)
				}
				check := func(when string) {
					t.Helper()
					for i, row := range rel.Tuples {
						want := Tuple{Int(int64(i)), Str(fmt.Sprintf("n%d", i%97)), Float(float64(i) + 0.5)}
						if !slices.EqualFunc(row, want, Identical) {
							t.Fatalf("%s, %s: row %d is %v, want %v", at, when, i, row, want)
						}
					}
				}
				check("as read")
				for i, row := range rel.Tuples {
					if cap(row) != len(row)+1 {
						t.Fatalf("%s: row %d has cap %d, len %d", at, i, cap(row), len(row))
					}
					if spare := row[:len(row)+1][len(row)]; !spare.IsNull() {
						t.Fatalf("%s: row %d's spare slot holds %v", at, i, spare)
					}
				}
				for i, row := range rel.Tuples {
					grown := append(row, Str("clobber"))
					if &grown[0] != &row[0] {
						t.Fatalf("%s: appending one value to row %d reallocated it", at, i)
					}
					again := append(grown, Str("clobber again"))
					if &again[0] == &row[0] {
						t.Fatalf("%s: appending a second value to row %d did not reallocate it", at, i)
					}
					again[0] = Str("clobber the copy")
				}
				check("after appending twice to every row")
			}
		}
	}
}
