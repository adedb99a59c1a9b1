// Package sched provides the scheduling primitives of the coordinators — the
// pipeline, the ensemble, the window runner and the service; a time point
// itself is always solved by one goroutine. A Pool is a gang of persistent
// workers (one pipeline stage's tasks, or the members an ensemble deals its
// lanes to), a Budget is the core count every gang of a run draws from, so that
//
//	concurrent windows × pipeline threads ≤ CoreBudget
//
// never oversubscribes the machine, and an Arbiter shares a host's cores
// among the jobs of a service. Pools are cheap, long-lived objects: the
// workers are persistent goroutines that park on a channel between rounds, so
// the per-call cost of Run is two channel operations per worker instead of a
// goroutine spawn. The calling goroutine always participates as worker 0,
// which is what makes the budget arithmetic exact — a coordinator that leads
// a gang of width k costs k cores total, not k+1.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxGang caps a single pool's width; it only guards against absurd -cores
// values creating thousands of parked goroutines.
const maxGang = 64

// ForceGang is the package-wide analogue of Pool.Force: while true, every
// pool covers its full width regardless of GOMAXPROCS. Equivalence and race
// tests use it to drive the concurrent paths of an engine they cannot reach
// into, on hosts with fewer threads than the gang is wide. Not for production
// use: a forced gang on one CPU is strictly slower than the sequential sweep.
var ForceGang atomic.Bool

// Pool is a gang of persistent workers. Run(fn) executes fn(w) for
// w = 0..Workers()-1 concurrently, with the caller acting as worker 0, and
// returns when every worker has finished. A Pool has a single owner: Run must
// not be called concurrently with itself or with Close. The fn of one round
// must not wait on each other: when the gang cannot actually run
// concurrently, Run and Round call them one after another.
type Pool struct {
	n     int              // gang width including the caller
	tasks []chan func(int) // one per hired worker (n-1)
	wg    sync.WaitGroup   // the round in flight
	hired sync.WaitGroup   // the worker goroutines themselves; Close joins them

	// Force makes Gang() report true even on GOMAXPROCS=1 hosts, so race
	// tests can drive the concurrent paths on single-CPU machines.
	Force bool

	mu     sync.Mutex
	pv     any // first panic recovered from a gang member
	closed bool

	budget  *Budget // set when the pool was carved out of a Budget
	granted int     // extra cores reserved from budget (n-1 at creation)
}

// NewPool returns a pool of gang width n (caller included). Widths ≤ 1
// return nil: the nil *Pool is valid and means "serial" everywhere.
func NewPool(n int) *Pool {
	if n > maxGang {
		n = maxGang
	}
	if n <= 1 {
		return nil
	}
	p := &Pool{n: n, tasks: make([]chan func(int), n-1)}
	for i := range p.tasks {
		ch := make(chan func(int))
		p.tasks[i] = ch
		w := i + 1
		p.hired.Add(1)
		go func() {
			defer p.hired.Done()
			for fn := range ch {
				p.runGuarded(fn, w)
				p.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the gang width. The nil pool has width 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.n
}

// Gang reports whether Run will actually execute the gang concurrently. On a
// single-CPU host (GOMAXPROCS=1) gang members would only take turns with the
// caller, so Run degrades to a sequential sweep unless Force is set.
func (p *Pool) Gang() bool { return p.Covers(2) }

// Covers reports whether n independent tasks can each have a gang member and
// a core of their own: the pool is at least n wide — a pool carved from a
// Budget is only as wide as the budget granted — and the host schedules at
// least n threads (or the gang is forced). Tasks that time-share a core gain
// nothing and blur every per-task clock reading behind the critical-path
// model. GOMAXPROCS is read on every call: it can change mid-run.
func (p *Pool) Covers(n int) bool {
	return p != nil && n <= p.n && (p.Force || ForceGang.Load() || runtime.GOMAXPROCS(0) >= n)
}

// Run executes fn(w) for every worker w in [0, Workers()) and returns once
// all have completed. If any fn panics, the first recovered value is
// re-panicked on the caller after the gang has drained, so engine-level
// panic fences (wavepipe's runRound) see it exactly like a serial panic.
// With a nil pool, or when Gang() is false, fn is called sequentially.
func (p *Pool) Run(fn func(w int)) {
	if !p.Gang() {
		for w := 0; w < p.Workers(); w++ {
			fn(w)
		}
		return
	}
	p.dispatch(p.n, fn)
}

// Round executes the n independent tasks of one round, fn(0) … fn(n-1), and
// returns once all have completed: task i on gang member i (the caller takes
// task 0) when Covers(n), otherwise one after another on the caller — the
// results are the same either way. It reports whether the round ran as
// asked, i.e. false when more than one task had to be serialized. Panics
// surface as in Run.
func (p *Pool) Round(n int, fn func(i int)) bool {
	if n > 1 && p.Covers(n) {
		p.dispatch(n, fn)
		return true
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
	return n <= 1
}

// dispatch runs fn on the caller and the first n-1 hired workers.
func (p *Pool) dispatch(n int, fn func(int)) {
	p.mu.Lock()
	p.pv = nil
	p.mu.Unlock()
	p.wg.Add(n - 1)
	for _, ch := range p.tasks[:n-1] {
		ch <- fn
	}
	// A woken worker sits in this P's run-next slot, which other Ps steal
	// only as a last resort and after a timed sleep: the caller would be well
	// into its own share before the worker started. Yielding once lets this P
	// start a worker now; the P being woken picks the caller up.
	runtime.Gosched()
	p.runGuarded(fn, 0)
	p.wg.Wait()
	p.mu.Lock()
	pv := p.pv
	p.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

func (p *Pool) runGuarded(fn func(int), w int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.pv == nil {
				p.pv = r
			}
			p.mu.Unlock()
		}
	}()
	fn(w)
}

// Close stops the hired workers, waits for them to exit and only then
// releases the pool's reservation back to its Budget: a core handed on is
// free, and a caller counting goroutines after Close counts none of this
// pool's. Safe on nil and safe to call twice.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, ch := range p.tasks {
		close(ch)
	}
	p.hired.Wait()
	if p.budget != nil {
		p.budget.Release(p.granted)
	}
}

// Budget tracks the core budget shared by every gang of a run: each
// coordinator reserves a core for itself and carves its gang out of what is
// left, so the total reservation never exceeds Total.
type Budget struct {
	total int64
	used  atomic.Int64
}

// NewBudget returns a budget of total cores. total ≤ 0 yields a zero budget
// (every Reserve grants nothing).
func NewBudget(total int) *Budget {
	if total < 0 {
		total = 0
	}
	return &Budget{total: int64(total)}
}

// Total returns the budget's size.
func (b *Budget) Total() int {
	if b == nil {
		return 0
	}
	return int(b.total)
}

// InUse returns the number of cores currently reserved.
func (b *Budget) InUse() int {
	if b == nil {
		return 0
	}
	return int(b.used.Load())
}

// Reserve grants min(n, free) cores and records them as in use; it returns
// the granted count (possibly 0). Callers must Release what they were
// granted.
func (b *Budget) Reserve(n int) int {
	if b == nil || n <= 0 {
		return 0
	}
	for {
		used := b.used.Load()
		free := b.total - used
		if free <= 0 {
			return 0
		}
		g := int64(n)
		if g > free {
			g = free
		}
		if b.used.CompareAndSwap(used, used+g) {
			return int(g)
		}
	}
}

// Release returns n previously reserved cores to the budget.
func (b *Budget) Release(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(int64(-n))
}

// NewPool reserves up to gang-1 extra cores (the gang leader is the calling
// worker, assumed already accounted for by the caller's own reservation) and
// returns a pool of width 1+granted. When nothing extra is available it
// returns nil, i.e. serial. Closing the pool releases the reservation.
func (b *Budget) NewPool(gang int) *Pool {
	if gang > maxGang {
		gang = maxGang
	}
	if b == nil || gang <= 1 {
		return nil
	}
	g := b.Reserve(gang - 1)
	if g == 0 {
		return nil
	}
	p := NewPool(1 + g)
	if p == nil { // 1+g == 1 cannot happen (g ≥ 1), but stay safe
		b.Release(g)
		return nil
	}
	p.budget = b
	p.granted = g
	return p
}

// SplitBudget divides a global core budget among identical gangs of width
// gang, capped at maxUnits concurrent gangs. It returns how many gangs may
// run at once and the per-gang core budget, chosen so that
// units × perUnit ≤ total — the invariant the time-parallel window
// coordinator relies on so windows × pipeline parallelism never
// oversubscribes the machine. A non-positive total means the budget
// is unmanaged: every unit may run with an unmanaged (zero) inner budget.
func SplitBudget(total, gang, maxUnits int) (units, perUnit int) {
	if maxUnits < 1 {
		maxUnits = 1
	}
	if gang < 1 {
		gang = 1
	}
	if total <= 0 {
		return maxUnits, 0
	}
	units = total / gang
	if units < 1 {
		units = 1
	}
	if units > maxUnits {
		units = maxUnits
	}
	return units, total / units
}
