package relation_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/relation"
	"repro/internal/workloads"
)

// FuzzReadCSV covers the only decoder of user-supplied files
// (thetajoin -rel, thetad -rel): it never panics; it accepts exactly the
// inputs its encoding/csv predecessor (referenceReadCSV) accepts and
// returns bit-identical rows, whole and in blocks a few bytes long; and WriteCSV∘ReadCSV is a fixed point on every accepted
// input — what was written re-reads and re-writes to the same bytes, so
// no row or value is lost or reinterpreted by a round trip. On the way
// it holds WriteCSV to the bytes its encoding/csv predecessor
// (referenceWriteCSV) writes.
func FuzzReadCSV(f *testing.F) {
	mobile := workloads.DefaultMobileConfig()
	mobile.Tuples = 8
	var seed bytes.Buffer
	if err := relation.WriteCSV(&seed, workloads.MobileTable(mobile)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	for _, s := range []string{
		"a:int,b:string,c:float,d:time,e:null\n1,x,0.5,86400,\n,,,,\n-7,\"q,\"\"uo\nted\",NaN,0,zzz\n",
		"k:string\n\"\"\n\nlone\n",
		"n:null\n\"\"\n",
		"a:int\n+5\n-0\n",
		"f:float\n0x1p-2\n+Inf\n1e400\n",
		" a:int,\"b,c\":string\n1,\" pad \"\n",
		"a:int,a:int\n1,2\n",
		"a:bogus\n",
		"a\n1\n",
		"a:int,b:int\n1\n",
		"a:int\n\"1\n",
		"",
	} {
		f.Add(s)
	}
	for _, s := range csvTraps {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		r1 := checkAgainstReference(t, "ReadCSV", in, func(rd io.Reader) (*relation.Relation, error) { return relation.ReadCSV(rd, "fuzz") })
		// One worker: which of several takes a block is up to the scheduler,
		// and the fuzzer spends its time minimizing coverage it cannot
		// reproduce. TestReadCSVMatchesEncodingCSV runs the seeds with more.
		size := 1 + len(in)%13
		checkAgainstReference(t, fmt.Sprintf("blocks of %d", size), in, func(rd io.Reader) (*relation.Relation, error) {
			return relation.ReadCSVBlocks(rd, "fuzz", size, 1)
		})
		if r1 == nil {
			return
		}
		var once bytes.Buffer
		if err := relation.WriteCSV(&once, r1); err != nil {
			t.Fatalf("write: %v\ninput: %q", err, in)
		}
		var ref bytes.Buffer
		if err := referenceWriteCSV(&ref, r1); err != nil {
			t.Fatalf("reference write: %v\ninput: %q", err, in)
		}
		if !bytes.Equal(once.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteCSV differs from the encoding/csv writer:\ninput: %q\n  got: %q\n want: %q", in, once.String(), ref.String())
		}
		// WriteCSV ends records with a bare "\n", so a "\r\n" in its
		// output is inside a quoted name or value (read from "\r\r\n").
		// encoding/csv folds that to "\n" on every read: no CSV reader
		// can carry it through a second trip.
		if bytes.Contains(once.Bytes(), []byte("\r\n")) {
			t.Skip()
		}
		r2, err := relation.ReadCSV(bytes.NewReader(once.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("written form rejected: %v\ninput: %q\nonce:  %q", err, in, once.String())
		}
		if r2.Cardinality() != r1.Cardinality() {
			t.Fatalf("round trip changed %d rows to %d\ninput: %q\nonce:  %q",
				r1.Cardinality(), r2.Cardinality(), in, once.String())
		}
		var twice bytes.Buffer
		if err := relation.WriteCSV(&twice, r2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("written form not a fixed point:\ninput: %q\nonce:  %q\ntwice: %q", in, once.String(), twice.String())
		}
	})
}
