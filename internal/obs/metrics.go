package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent-safe registry of named counters and
// histograms. A nil *Registry is disabled: it hands out nil
// counters/histograms whose Add/Observe are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating on first use) the named histogram.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically growing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the counter. Nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram accumulates int64 observations into power-of-two buckets:
// bucket i counts values whose bit length is i, i.e. v in
// [2^(i-1), 2^i), with bucket 0 counting v <= 0. Count, sum, min and
// max are tracked exactly; the buckets give the distribution shape
// (reducer byte balance, key-run lengths) without storing samples.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [65]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.buckets[b].Add(1)
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Mean is Sum/Count (0 when empty).
	Mean float64 `json:"mean"`
	// Buckets[i] counts observations with bit length i (values in
	// [2^(i-1), 2^i)); trailing zero buckets are trimmed.
	Buckets []int64 `json:"buckets"`
}

// Snapshot exports the histogram's current state. Nil-safe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	last := -1
	var buckets [65]int64
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		if buckets[i] != 0 {
			last = i
		}
	}
	s.Buckets = append([]int64(nil), buckets[:last+1]...)
	return s
}

// registrySnapshot is the exported JSON document shape.
type registrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// WriteJSON exports every counter and histogram as one JSON document
// with sorted, stable key order (encoding/json sorts map keys).
// Nil-safe (writes an empty document).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := registrySnapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r != nil {
		r.mu.Lock()
		names := make([]string, 0, len(r.counters))
		for n := range r.counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			snap.Counters[n] = r.counters[n].Value()
		}
		for n, h := range r.hists {
			snap.Histograms[n] = h.Snapshot()
		}
		r.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
