package dfs

import (
	"testing"

	"repro/internal/mr"
	"repro/internal/relation"
)

func sampleRelation(n int, mult float64) *relation.Relation {
	r := relation.New("data", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Float(float64(i) / 3)})
	}
	r.VolumeMultiplier = mult
	return r
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(mr.DefaultConfig(), 12)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(mr.DefaultConfig(), 0); err == nil {
		t.Error("0 nodes accepted")
	}
	bad := mr.DefaultConfig()
	bad.MapSlots = 0
	if _, err := NewStore(bad, 4); err == nil {
		t.Error("bad config accepted")
	}
}

func TestUploadBasics(t *testing.T) {
	s := newStore(t)
	r := sampleRelation(1000, 1e6)
	rep, err := s.Upload(r, LoadPlain, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds <= 0 || rep.Bytes != r.ModeledSize() || rep.Blocks < 1 {
		t.Errorf("report = %+v", rep)
	}
	if s.Len() != 1 {
		t.Errorf("store has %d files", s.Len())
	}
	f, err := s.File("data")
	if err != nil {
		t.Fatal(err)
	}
	if f.Replicas != 3 {
		t.Errorf("replicas = %d", f.Replicas)
	}
	if s.TotalStoredBytes() != rep.Bytes*3 {
		t.Error("replicated bytes wrong")
	}
	if _, err := s.Upload(r, LoadPlain, 100, 1); err == nil {
		t.Error("duplicate upload accepted")
	}
	if _, err := s.File("missing"); err == nil {
		t.Error("missing file found")
	}
	if _, err := s.Upload(nil, LoadPlain, 100, 1); err == nil {
		t.Error("nil relation accepted")
	}
}

// Fig. 11's ordering: plain upload is cheapest; our method adds the
// sampling/index pass; Hive's full parse is the most expensive at
// scale. All three scale linearly with volume.
func TestLoadMethodOrdering(t *testing.T) {
	for _, mult := range []float64{1e6, 1e7, 5e7} {
		var secs [3]float64
		for i, m := range []LoadMethod{LoadPlain, LoadHive, LoadOurs} {
			s := newStore(t)
			rep, err := s.Upload(sampleRelation(2000, mult), m, 500, 1)
			if err != nil {
				t.Fatal(err)
			}
			secs[i] = rep.Seconds
		}
		plain, hive, ours := secs[0], secs[1], secs[2]
		if !(plain < ours) {
			t.Errorf("mult %g: plain (%v) not cheaper than ours (%v)", mult, plain, ours)
		}
		if !(ours < hive) {
			t.Errorf("mult %g: ours (%v) not cheaper than hive (%v)", mult, ours, hive)
		}
	}
}

func TestLoadScalesLinearly(t *testing.T) {
	s1 := newStore(t)
	small, err := s1.Upload(sampleRelation(2000, 1e6), LoadOurs, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newStore(t)
	big, err := s2.Upload(sampleRelation(2000, 1e7), LoadOurs, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.Seconds / small.Seconds
	if ratio < 5 || ratio > 15 {
		t.Errorf("10x volume gave %.1fx time", ratio)
	}
}

func TestOursBuildsStats(t *testing.T) {
	s := newStore(t)
	if _, err := s.Upload(sampleRelation(500, 1), LoadOurs, 200, 7); err != nil {
		t.Fatal(err)
	}
	f, err := s.File("data")
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats == nil {
		t.Fatal("no stats built")
	}
	if f.Stats.Cardinality != 500 || len(f.Stats.SampleRows) == 0 {
		t.Errorf("stats content wrong: cardinality %d, %d sample rows", f.Stats.Cardinality, len(f.Stats.SampleRows))
	}
	// Plain upload must not build stats.
	s2 := newStore(t)
	if _, err := s2.Upload(sampleRelation(10, 1), LoadPlain, 100, 1); err != nil {
		t.Fatal(err)
	}
	f2, _ := s2.File("data")
	if f2.Stats != nil {
		t.Error("plain upload built stats")
	}
}

func TestMethodString(t *testing.T) {
	if LoadPlain.String() == "" || LoadHive.String() != "Hive" || LoadOurs.String() != "Our Method" {
		t.Error("method names wrong")
	}
}
