package sched

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by Arbiter.Acquire when admission control
// rejects a job because the wait queue is at capacity. Serving layers map
// it to a retryable "busy" answer (HTTP 429).
var ErrQueueFull = errors.New("sched: admission queue full")

// Arbiter promotes the per-run core Budget to a global, multi-tenant
// scheduler: many concurrent simulations draw their core grants from one
// machine-wide Budget, ordered by priority with FIFO fairness inside a
// priority class. It adds the three policies a shared machine needs on top
// of Budget's bare reservation arithmetic:
//
//   - Admission control: at most MaxQueued jobs may wait; further Acquire
//     calls fail fast with ErrQueueFull instead of building unbounded
//     backlog.
//   - Fair-share allocation: a starting job is granted
//     min(want, max(1, free/waiters)) cores, so a burst of arrivals splits
//     the machine instead of the first job hogging every core.
//   - Preemption: when the highest-priority waiter outranks a running
//     grant and no core is free, the lowest-priority running grant is
//     signalled to yield (its Preempted channel closes). The owner is
//     expected to checkpoint at the next accepted-step boundary and
//     Release; the waiter is dispatched as soon as the cores come back.
//
// The sum of all outstanding grants never exceeds the budget: grants are
// carved from a Budget with the same compare-and-swap reservation the
// engines use, so the invariant holds under any interleaving.
type Arbiter struct {
	budget    *Budget
	maxQueued int

	mu      sync.Mutex
	waiting []*waiter
	running map[*Grant]struct{}
	seq     uint64
	closed  bool

	preemptions atomic.Int64
	admitted    atomic.Int64
	rejected    atomic.Int64
}

// waiter is one blocked Acquire call.
type waiter struct {
	priority int
	want     int
	seq      uint64
	ready    chan *Grant // buffered(1); receives the grant when dispatched
}

// Grant is a live core allocation. The owner must call Release exactly once
// when the job stops running (completion, failure, cancellation, or after
// yielding to preemption).
type Grant struct {
	// Cores is the number of cores granted (>= 1). Pass it to the run as
	// its CoreBudget: the cap on the gangs of its coordinators.
	Cores int
	// Priority the grant was acquired with (informational).
	Priority int

	a         *Arbiter
	seq       uint64
	preempt   chan struct{}
	preempted bool // guarded by a.mu
	released  bool // guarded by a.mu
}

// Preempted returns a channel that is closed when the arbiter asks this
// grant to yield to a higher-priority job. The owner should stop at its
// next safe suspension point (for a simulation: checkpoint at an accepted
// step), Release the grant, and re-Acquire to resume.
func (g *Grant) Preempted() <-chan struct{} { return g.preempt }

// Release returns the grant's cores to the global budget and dispatches any
// waiters that now fit. Safe to call once; further calls are no-ops.
func (g *Grant) Release() {
	a := g.a
	a.mu.Lock()
	if g.released {
		a.mu.Unlock()
		return
	}
	g.released = true
	delete(a.running, g)
	a.budget.Release(g.Cores)
	a.dispatch()
	a.mu.Unlock()
}

// NewArbiter returns an arbiter over a budget of cores. maxQueued bounds
// the wait queue (<= 0 means a default of 64).
func NewArbiter(cores, maxQueued int) *Arbiter {
	if maxQueued <= 0 {
		maxQueued = 64
	}
	return &Arbiter{
		budget:    NewBudget(cores),
		maxQueued: maxQueued,
		running:   make(map[*Grant]struct{}),
	}
}

// Total returns the size of the global core budget.
func (a *Arbiter) Total() int { return a.budget.Total() }

// InUse returns the cores currently granted. It never exceeds Total.
func (a *Arbiter) InUse() int { return a.budget.InUse() }

// Running returns the number of live grants.
func (a *Arbiter) Running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.running)
}

// Queued returns the number of Acquire calls currently waiting.
func (a *Arbiter) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiting)
}

// Preemptions returns the cumulative count of preemption signals issued.
func (a *Arbiter) Preemptions() int64 { return a.preemptions.Load() }

// Admitted returns the cumulative count of grants issued.
func (a *Arbiter) Admitted() int64 { return a.admitted.Load() }

// Rejected returns the cumulative count of admission rejections.
func (a *Arbiter) Rejected() int64 { return a.rejected.Load() }

// Acquire blocks until the arbiter can grant at least one core, or until
// ctx is done. priority orders the wait queue (higher runs first; equal
// priorities are FIFO); want caps the grant (want <= 0 asks for one core).
// The returned grant's Cores is min(want, fair share of the free cores),
// never less than 1.
func (a *Arbiter) Acquire(ctx context.Context, priority, want int) (*Grant, error) {
	if want <= 0 {
		want = 1
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, errors.New("sched: arbiter closed")
	}
	if len(a.waiting) >= a.maxQueued {
		a.rejected.Add(1)
		a.mu.Unlock()
		return nil, ErrQueueFull
	}
	a.seq++
	w := &waiter{priority: priority, want: want, seq: a.seq, ready: make(chan *Grant, 1)}
	a.waiting = append(a.waiting, w)
	sort.SliceStable(a.waiting, func(i, j int) bool {
		if a.waiting[i].priority != a.waiting[j].priority {
			return a.waiting[i].priority > a.waiting[j].priority
		}
		return a.waiting[i].seq < a.waiting[j].seq
	})
	a.dispatch()
	a.mu.Unlock()

	select {
	case g := <-w.ready:
		if g == nil { // Close failed the wait
			return nil, errors.New("sched: arbiter closed")
		}
		return g, nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, q := range a.waiting {
			if q == w {
				a.waiting = append(a.waiting[:i], a.waiting[i+1:]...)
				break
			}
		}
		a.mu.Unlock()
		// A grant may have been dispatched concurrently with the
		// cancellation; it must not leak its reservation.
		select {
		case g := <-w.ready:
			if g != nil {
				g.Release()
			}
		default:
		}
		return nil, ctx.Err()
	}
}

// dispatch starts as many queued waiters as fit, in priority order, and
// signals one preemption when the head waiter outranks a running grant.
// Callers hold a.mu.
func (a *Arbiter) dispatch() {
	for len(a.waiting) > 0 {
		head := a.waiting[0]
		free := a.budget.Total() - a.budget.InUse()
		if free <= 0 {
			a.preemptFor(head)
			return
		}
		// Fair share: a burst of waiters splits the free cores instead of
		// the head taking them all; a lone waiter still gets everything it
		// asked for.
		share := free / len(a.waiting)
		if share < 1 {
			share = 1
		}
		if share > head.want {
			share = head.want
		}
		got := a.budget.Reserve(share)
		if got == 0 {
			a.preemptFor(head)
			return
		}
		g := &Grant{Cores: got, Priority: head.priority, a: a, seq: head.seq, preempt: make(chan struct{})}
		a.running[g] = struct{}{}
		a.waiting = a.waiting[1:]
		a.admitted.Add(1)
		head.ready <- g
	}
}

// preemptFor signals the lowest-priority running grant to yield when the
// waiter strictly outranks it. At most one un-signalled victim is chosen
// per call, so a single high-priority arrival evicts one job, not the whole
// machine. Callers hold a.mu.
func (a *Arbiter) preemptFor(w *waiter) {
	var victim *Grant
	for g := range a.running {
		if g.preempted || g.Priority >= w.priority {
			continue
		}
		// Prefer the lowest priority; among equals, the youngest grant (the
		// one that has made the least progress).
		if victim == nil || g.Priority < victim.Priority ||
			(g.Priority == victim.Priority && g.seq > victim.seq) {
			victim = g
		}
	}
	if victim != nil {
		victim.preempted = true
		a.preemptions.Add(1)
		close(victim.preempt)
	}
}

// Close rejects all future Acquire calls and fails the waiting ones. Live
// grants are left to their owners to Release.
func (a *Arbiter) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	for _, w := range a.waiting {
		close(w.ready) // receivers see a nil grant…
	}
	a.waiting = nil
}
