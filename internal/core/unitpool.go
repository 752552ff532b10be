package core

import (
	"sync"

	"repro/internal/obs"
)

// UnitPool arbitrates the K_P processing units job dispatches run
// under. The executor acquires a job's whole unit allotment before
// starting it and releases it on completion, so the units in flight
// never exceed the pool's capacity.
//
// Every pool is a SharedUnitPool, or a WithBudget view of one. With
// Planner.Pool nil each execution gets a pool of its own K_P units; a
// resident service hands the same pool to every concurrent query so
// their combined holdings respect one machine-wide K_P, and WithBudget
// further caps a single query's share.
//
// The executor's dispatch loop is all-or-nothing and non-blocking: it
// calls TryAcquire once per ready job and never holds a partial
// allotment while waiting, so pools cannot deadlock against each
// other. Freed exists because a pool's capacity can be returned by a
// *different* plan's completion: the executor fetches the channel
// before a dispatch scan and waits on it when nothing could start,
// guaranteeing a release between the fetch and the wait is never
// missed.
type UnitPool interface {
	// Capacity is the total unit count; dispatch clamps a job's
	// allotment to it so every job is eventually admissible.
	Capacity() int
	// TryAcquire takes n units if (and only if) they are all free.
	TryAcquire(n int) bool
	// Release returns n previously acquired units.
	Release(n int)
	// Freed returns a channel closed after the next Release.
	Freed() <-chan struct{}
}

// SharedUnitPool is a cross-plan K_P semaphore: every concurrent
// query's executor acquires from the same instance, so two plans on a
// K_P-unit server never hold more than K_P units combined. Safe for
// concurrent use.
type SharedUnitPool struct {
	mu       sync.Mutex
	capacity int
	free     int
	gen      chan struct{}

	// inuse observes the held-unit count after every acquire; its Max
	// is the high-water mark of combined holdings across all plans
	// (asserted ≤ capacity by the server tests).
	inuse    *obs.Histogram
	acquires *obs.Counter
}

// NewSharedUnitPool builds a pool of capacity units. The optional Obs
// records "core.pool.inuse" (histogram of held units after each
// acquire) and "core.pool.acquires" into its metrics registry.
func NewSharedUnitPool(capacity int, o *obs.Obs) *SharedUnitPool {
	if capacity < 1 {
		capacity = 1
	}
	return &SharedUnitPool{
		capacity: capacity,
		free:     capacity,
		gen:      make(chan struct{}),
		inuse:    o.Histogram("core.pool.inuse"),
		acquires: o.Counter("core.pool.acquires"),
	}
}

// Capacity returns the pool's total unit count.
func (p *SharedUnitPool) Capacity() int { return p.capacity }

// TryAcquire takes n units when all are free right now.
func (p *SharedUnitPool) TryAcquire(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.free {
		return false
	}
	p.free -= n
	p.acquires.Add(1)
	p.inuse.Observe(int64(p.capacity - p.free))
	return true
}

// Release returns n units and wakes every waiter (the generation
// channel closes; the next Freed call hands out a fresh one).
func (p *SharedUnitPool) Release(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free += n
	if p.free > p.capacity {
		p.free = p.capacity
	}
	close(p.gen)
	p.gen = make(chan struct{})
}

// Freed returns the current generation channel; it closes on the next
// Release by any holder.
func (p *SharedUnitPool) Freed() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// InUse reports the units currently held.
func (p *SharedUnitPool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity - p.free
}

// budgetPool caps one query's concurrent holdings of a parent pool:
// acquisitions draw from both the local budget and the parent, so the
// query never holds more than budget units while the parent still
// bounds the machine-wide total.
type budgetPool struct {
	parent UnitPool

	mu   sync.Mutex
	free int
	cap  int
}

// WithBudget wraps pool so at most budget units are held through the
// returned view at any moment. A budget ≥ the parent capacity (or
// < 1) returns the parent unchanged.
func WithBudget(pool UnitPool, budget int) UnitPool {
	if budget < 1 || budget >= pool.Capacity() {
		return pool
	}
	return &budgetPool{parent: pool, free: budget, cap: budget}
}

func (b *budgetPool) Capacity() int {
	if pc := b.parent.Capacity(); pc < b.cap {
		return pc
	}
	return b.cap
}

func (b *budgetPool) TryAcquire(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.free {
		return false
	}
	if !b.parent.TryAcquire(n) {
		return false
	}
	b.free -= n
	return true
}

func (b *budgetPool) Release(n int) {
	b.mu.Lock()
	b.free += n
	if b.free > b.cap {
		b.free = b.cap
	}
	b.mu.Unlock()
	b.parent.Release(n)
}

func (b *budgetPool) Freed() <-chan struct{} { return b.parent.Freed() }
