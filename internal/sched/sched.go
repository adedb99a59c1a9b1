// Package sched provides the scheduling primitives of the coordinators — the
// pipeline, the ensemble, the window runner and the service; a time point
// itself is always solved by one goroutine. A Pool is a gang of persistent
// workers (one pipeline stage's tasks, or the members an ensemble deals its
// lanes to), SplitBudget divides a run's core budget so that
//
//	concurrent windows × pipeline threads ≤ CoreBudget
//
// never oversubscribes the machine, and an Arbiter shares a host's cores
// among the jobs of a service. Pools are cheap, long-lived objects: the
// workers are persistent goroutines that spin, then park, between rounds
// (see parker), so a round that follows closely on the last costs an atomic
// add per worker and no thread wake-up. The calling goroutine always
// participates as worker 0, which is what makes the budget arithmetic exact
// — a coordinator that leads a gang of width k costs k cores total, not k+1.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxGang caps a single pool's width; it only guards against absurd -cores
// values creating thousands of parked goroutines.
const maxGang = 64

// spinFor bounds a spinning wait. A pipeline round is one point solve, tens
// of microseconds here, and the coordinator's turn between two rounds is
// shorter still; a gap longer than spinFor is long enough that a park's
// thread wake-up costs little beside it.
const spinFor = 100 * time.Microsecond

// ForceGang makes every pool cover its full width regardless of GOMAXPROCS
// while true. Equivalence and race tests use it to drive the concurrent paths
// on hosts with fewer threads than the gang is wide. Not for production use:
// a forced gang on one CPU is strictly slower than the sequential sweep.
var ForceGang atomic.Bool

// testHookSpin, nil outside tests, is called whenever a wait starts to spin.
var testHookSpin func()

// Pool is a gang of persistent workers. Run(fn) executes fn(w) for
// w = 0..Workers()-1 concurrently, with the caller acting as worker 0, and
// returns when every worker has finished. A Pool has a single owner: Run must
// not be called concurrently with itself or with Close. The fn of one round
// must not wait on each other: when the gang cannot actually run
// concurrently, Run and Round call them one after another.
type Pool struct {
	n       int            // gang width including the caller
	members []member       // workers 1..n-1
	fn      func(int)      // the round in flight
	pending atomic.Int32   // members still running it
	caller  parker         // where the caller waits for pending to reach 0
	hired   sync.WaitGroup // the worker goroutines themselves; Close joins them
	closed  bool

	mu sync.Mutex
	pv any // first panic recovered from a gang member
}

// member is a hired worker: the number of rounds released to it, and where it
// waits for the next.
type member struct {
	round atomic.Uint64
	parker
}

// parker is one side of a spin-then-park handshake: the waiter announces
// parked before it re-reads its condition, the waker makes the condition true
// before it reads parked, so at least one sees the other and no wake-up is
// lost. A token left over when both did ends a later park early; the waiter
// then parks again.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // buffer of one: wakeUp never blocks
}

// wait returns once ready() is true. It spins for up to spinFor first only
// while the host schedules a thread for each of the gang's width members: a
// spin then stays inside the cores the gang was granted and never holds a
// thread the waker needs — at GOMAXPROCS 1 nothing spins.
func (k *parker) wait(width int, ready func() bool) {
	if runtime.GOMAXPROCS(0) >= width {
		if testHookSpin != nil {
			testHookSpin()
		}
		for t0 := time.Now(); time.Since(t0) < spinFor; {
			if ready() {
				return
			}
		}
	}
	for !ready() {
		k.parked.Store(true)
		if !ready() {
			<-k.wake
		}
		k.parked.Store(false)
	}
}

// wakeUp releases the waiter if it parked, and reports whether it had.
func (k *parker) wakeUp() (parked bool) {
	if parked = k.parked.Load(); parked {
		select {
		case k.wake <- struct{}{}:
		default:
		}
	}
	return parked
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
	p := &Pool{n: n, members: make([]member, n-1), caller: parker{wake: make(chan struct{}, 1)}}
	p.hired.Add(n - 1)
	for i := range p.members {
		m := &p.members[i]
		m.wake = make(chan struct{}, 1)
		go func() {
			defer p.hired.Done()
			for seen := uint64(1); ; seen++ {
				m.wait(p.n, func() bool { return m.round.Load() == seen })
				if p.closed {
					return
				}
				p.runGuarded(p.fn, i+1)
				if p.pending.Add(-1) == 0 {
					p.caller.wakeUp()
				}
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

// Covers reports whether n independent tasks can each have a gang member and
// a core of their own: the pool is at least n wide — a pool sized under a
// core budget is only as wide as the budget — and the host schedules at
// least n threads (or ForceGang is set). Tasks that time-share a core gain
// nothing and blur every per-task clock reading behind the critical-path
// model. GOMAXPROCS is read on every call: it can change mid-run.
func (p *Pool) Covers(n int) bool {
	return p != nil && n <= p.n && (ForceGang.Load() || runtime.GOMAXPROCS(0) >= n)
}

// Run executes fn(w) for every worker w in [0, Workers()) and returns once
// all have completed. If any fn panics, the first recovered value is
// re-panicked on the caller after the gang has drained, so engine-level
// panic fences (wavepipe's runRound) see it exactly like a serial panic.
// With a nil pool, or on a host that cannot run two members at once, fn is
// called sequentially.
func (p *Pool) Run(fn func(w int)) {
	if !p.Covers(2) {
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
	p.fn, p.pv = fn, nil
	p.pending.Store(int32(n - 1))
	parked := false
	for i := range p.members[:n-1] {
		p.members[i].round.Add(1)
		parked = p.members[i].wakeUp() || parked
	}
	// A woken worker sits in this P's run-next slot, which other Ps steal
	// only as a last resort and after a timed sleep: the caller would be well
	// into its own share before the worker started. Yielding once lets this P
	// start a worker now; the P being woken picks the caller up. A spinning
	// worker needs no yield.
	if parked {
		runtime.Gosched()
	}
	p.runGuarded(fn, 0)
	p.caller.wait(p.n, func() bool { return p.pending.Load() == 0 })
	if p.pv != nil {
		panic(p.pv)
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

// Close stops the hired workers, spinning or parked, and waits for them to
// exit. Safe on nil and safe to call twice.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for i := range p.members {
		p.members[i].round.Add(1)
		p.members[i].wakeUp()
	}
	p.hired.Wait()
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
