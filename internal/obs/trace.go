package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// Arg is one key/value annotation attached to a span or instant event;
// it lands in the trace event's "args" object.
type Arg struct {
	Key string
	Val any
}

// A builds an Arg.
func A(key string, val any) Arg { return Arg{Key: key, Val: val} }

// Tracer records wall-clock spans across many goroutines by handing
// out per-goroutine Shards. The zero value is not usable; a nil
// *Tracer is the disabled tracer (every derived Shard/Span is nil).
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	shards []*Shard
}

// NewTracer starts a tracer whose epoch (timestamp zero) is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Shard allocates a new event buffer owned by one goroutine. The name
// becomes the Perfetto track (thread) name; several shards may share a
// display name and still get distinct tracks. Safe for concurrent use;
// nil-safe (a nil tracer yields a nil shard).
func (t *Tracer) Shard(name string) *Shard {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Shard{tr: t, tid: len(t.shards) + 1, name: name}
	t.shards = append(t.shards, s)
	return s
}

// Shard is a single-goroutine event buffer: appends take no lock, so
// the owning goroutine traces without contention. Use one shard per
// worker goroutine.
type Shard struct {
	tr     *Tracer
	tid    int
	name   string
	events []event
}

type event struct {
	name  string
	ph    byte // 'X' complete, 'i' instant
	start time.Time
	dur   time.Duration
	args  []Arg
}

// Span is an open interval started on a shard; End closes it and
// records a complete ("X") trace event. A nil span (from a nil shard)
// ignores End.
type Span struct {
	sh    *Shard
	name  string
	start time.Time
	args  []Arg
}

// Start opens a span. Nil-safe. The span keeps a copy of args, so the
// caller's argument slice does not escape: a nil shard's Start
// allocates nothing.
func (s *Shard) Start(name string, args ...Arg) *Span {
	if s == nil {
		return nil
	}
	return s.start(name, args)
}

func (s *Shard) start(name string, args []Arg) *Span {
	return &Span{sh: s, name: name, start: time.Now(), args: slices.Clone(args)}
}

// End closes the span, appending extra args recorded during the work.
func (sp *Span) End(args ...Arg) {
	if sp == nil {
		return
	}
	a := sp.args
	if len(args) > 0 {
		a = append(append([]Arg(nil), a...), args...)
	}
	sp.sh.events = append(sp.sh.events, event{
		name: sp.name, ph: 'X', start: sp.start, dur: time.Since(sp.start), args: a,
	})
}

// Instant records a zero-duration event. Nil-safe; like Start, it keeps
// a copy of args.
func (s *Shard) Instant(name string, args ...Arg) {
	if s == nil {
		return
	}
	s.events = append(s.events, event{name: name, ph: 'i', start: time.Now(), args: slices.Clone(args)})
}

// TraceEvent is one exported Chrome trace-event JSON object.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds since the tracer epoch
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// Events returns every recorded span/instant event sorted by
// (timestamp, tid): a monotonic stream. Must only be called once all
// shard-owning goroutines have finished. Nil-safe (returns nil).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []TraceEvent
	for _, sh := range t.shards {
		for _, e := range sh.events {
			te := TraceEvent{
				Name: e.name,
				Ph:   string(e.ph),
				Ts:   e.start.Sub(t.epoch).Microseconds(),
				Dur:  e.dur.Microseconds(),
				Pid:  1,
				Tid:  sh.tid,
			}
			if te.Ts < 0 {
				te.Ts = 0
			}
			if e.ph == 'i' {
				te.S = "t"
			}
			if len(e.args) > 0 {
				te.Args = make(map[string]any, len(e.args))
				for _, a := range e.args {
					te.Args[a.Key] = a.Val
				}
			}
			out = append(out, te)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		return out[i].Tid < out[j].Tid
	})
	return out
}

// traceFile is the exported JSON document shape.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON writes the Chrome trace-event JSON document: thread-name
// metadata for every shard followed by the monotonic event stream.
// Load the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Must only be called once all shard users have finished. Nil-safe
// (writes an empty trace).
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := traceFile{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		for _, sh := range t.shards {
			doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: sh.tid,
				Args: map[string]any{"name": sh.name},
			})
		}
		t.mu.Unlock()
		doc.TraceEvents = append(doc.TraceEvents, t.Events()...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
