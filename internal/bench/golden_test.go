package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current tables")

// TestQuickTablesGolden renders every experiment of `thetabench -quick`
// and compares the text with testdata/quick.golden: the paper's tables
// keep their shape, to the printed digit. Every cell is a modeled
// quantity or a deterministic count, so the file does not depend on the
// machine or its worker count. Regenerate with
// `go test ./internal/bench -run TestQuickTablesGolden -update`.
func TestQuickTablesGolden(t *testing.T) {
	s := NewSuite(true)
	var got bytes.Buffer
	for _, id := range Experiments() {
		tables, err := s.Tables(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			tb.Fprint(&got)
		}
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from %s (run with -update after checking the change is intended)\n--- got ---\n%s", path, got.String())
	}
}
