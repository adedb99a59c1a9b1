package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// forceGang makes every pool cover its full width for the rest of the test,
// whatever the host, so the concurrent paths run even on a single-CPU host
// (and under -race).
func forceGang(t testing.TB) {
	t.Helper()
	ForceGang.Store(true)
	t.Cleanup(func() { ForceGang.Store(false) })
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// settled waits until the goroutine count is back at before, failing after
// a second. Close returns once every worker has called its last Done; the
// goroutine is counted until it has finished exiting, a few instructions
// later.
func settled(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
	}
}

// TestPoolRunCoversAllWorkers checks every worker index runs exactly once
// per gang, across many gangs, with the gang forced so the concurrent path is
// exercised even on a single-CPU host (and under -race).
func TestPoolRunCoversAllWorkers(t *testing.T) {
	forceGang(t)
	p := NewPool(4)
	if p == nil {
		t.Fatal("NewPool(4) returned nil")
	}
	defer p.Close()
	hits := make([]atomic.Int64, p.Workers())
	const gangs = 200
	for g := 0; g < gangs; g++ {
		p.Run(func(w int) { hits[w].Add(1) })
	}
	for w := range hits {
		if got := hits[w].Load(); got != gangs {
			t.Fatalf("worker %d ran %d times, want %d", w, got, gangs)
		}
	}
}

// TestPoolPanicPropagates checks a gang member's panic is re-raised on the
// caller after the gang drains, and that the pool is reusable afterwards.
func TestPoolPanicPropagates(t *testing.T) {
	forceGang(t)
	p := NewPool(3)
	defer p.Close()
	for _, bad := range []int{0, 1, 2} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("worker %d: recovered %v, want boom", bad, r)
				}
			}()
			p.Run(func(w int) {
				if w == bad {
					panic("boom")
				}
			})
			t.Fatalf("worker %d: Run returned without panicking", bad)
		}()
		// Pool must still work after a panicked gang.
		var ok atomic.Int64
		p.Run(func(w int) { ok.Add(1) })
		if ok.Load() != int64(p.Workers()) {
			t.Fatalf("pool unusable after panic: %d/%d workers ran", ok.Load(), p.Workers())
		}
	}
}

// TestPoolDegradesSequentially checks the nil pool and the uncovered path run
// the function serially, in worker order.
func TestPoolDegradesSequentially(t *testing.T) {
	var nilPool *Pool
	order := []int{}
	nilPool.Run(func(w int) { order = append(order, w) })
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("nil pool ran %v, want [0]", order)
	}
	if nilPool.Workers() != 1 || nilPool.Covers(2) {
		t.Fatalf("nil pool: Workers=%d Covers(2)=%v", nilPool.Workers(), nilPool.Covers(2))
	}
	if runtime.GOMAXPROCS(0) == 1 {
		p := NewPool(3) // not forced: degrades on a 1-CPU host
		defer p.Close()
		if p.Covers(2) {
			t.Skip("GOMAXPROCS changed concurrently")
		}
		order = order[:0]
		p.Run(func(w int) { order = append(order, w) })
		if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("degraded pool ran %v, want [0 1 2]", order)
		}
	}
}

// TestPoolNoGoroutineLeak runs gangs on several pools and closes them: Close
// joins its workers, so the goroutine count goes back to its baseline.
func TestPoolNoGoroutineLeak(t *testing.T) {
	forceGang(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		p := NewPool(4)
		var n atomic.Int64
		p.Run(func(w int) { n.Add(1) })
		p.Run(func(w int) { n.Add(1) })
		if n.Load() != 8 {
			t.Fatalf("pool %d: %d runs, want 8", i, n.Load())
		}
		p.Close()
		p.Close() // double close is safe
	}
	settled(t, before)
}

// TestCloseReleasesAfterWorkersExit: Close returns only once the hired
// goroutines have left their loops, so whoever is granted the cores next
// never shares them with a worker still spinning or running a round; the
// goroutine count follows as they finish exiting.
func TestCloseReleasesAfterWorkersExit(t *testing.T) {
	forceGang(t)
	before := runtime.NumGoroutine()
	p := NewPool(4)
	p.Run(func(int) {})
	if got := runtime.NumGoroutine(); got != before+3 {
		t.Fatalf("%d goroutines with a 4-wide pool open, want %d", got, before+3)
	}
	p.Close()
	settled(t, before)
}

// A round is covered when the pool is wide enough and the host schedules a
// thread per task; a round that is not covered runs on the caller, in order,
// and says so.
func TestRoundRunsCoveredRoundsOnTheGang(t *testing.T) {
	setProcs(t, 2)
	p := NewPool(3)
	defer p.Close()
	if !p.Covers(2) || p.Covers(3) || p.Covers(4) {
		t.Fatalf("3-wide pool at GOMAXPROCS 2 covers 2:%v 3:%v 4:%v", p.Covers(2), p.Covers(3), p.Covers(4))
	}
	var order []int
	if p.Round(3, func(i int) { order = append(order, i) }) {
		t.Fatal("an uncovered round reported as concurrent")
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("uncovered round ran %v, want 0 1 2 on the caller", order)
	}
	if !p.Round(1, func(int) {}) || !p.Round(0, func(int) {}) {
		t.Fatal("a round of at most one task has nothing to serialize")
	}

	forceGang(t)
	if !p.Covers(3) || p.Covers(4) {
		t.Fatal("forcing covers the pool's width and no more")
	}
	var hits [3]atomic.Int64
	for r := 0; r < 200; r++ {
		if !p.Round(2, func(i int) { hits[i].Add(1) }) {
			t.Fatal("a covered round reported as serialized")
		}
	}
	if hits[0].Load() != 200 || hits[1].Load() != 200 || hits[2].Load() != 0 {
		t.Fatalf("two-task rounds ran tasks %d/%d/%d times", hits[0].Load(), hits[1].Load(), hits[2].Load())
	}
	var nilPool *Pool
	if nilPool.Covers(1) || nilPool.Round(2, func(int) {}) {
		t.Fatal("the nil pool covers nothing and serializes every round")
	}
}

// A panic in a round task on a hired worker resurfaces on the caller once
// the round has drained, and the pool stays usable.
func TestRoundPanicOnHiredWorkerReachesCaller(t *testing.T) {
	forceGang(t)
	p := NewPool(2)
	defer p.Close()
	func() {
		defer func() {
			if r := recover(); r != "task 1" {
				t.Fatalf("recovered %v, want the hired worker's panic", r)
			}
		}()
		p.Round(2, func(i int) {
			if i == 1 {
				panic("task 1")
			}
		})
	}()
	ran := 0
	p.Round(2, func(i int) {
		if i == 0 {
			ran++
		}
	})
	if ran != 1 {
		t.Fatal("pool unusable after a panicked round")
	}
}

// TestPoolSpinThenPark drives the round handshake through every interleaving
// of spinning and parking: a two-wide gang at GOMAXPROCS 2, whose waiters
// spin, and a three-wide one, whose waiters park at once. Between rounds the
// gap is sometimes longer than spinFor, so members park and are woken; some
// rounds keep the caller waiting past spinFor on a slow member, so it parks
// too; some rounds are narrower than the gang; some have a panicking member.
// Every member must run exactly the tasks it was given, every panic must
// reach the caller, and Close must end the members whether they spin or
// park.
func TestPoolSpinThenPark(t *testing.T) {
	spun := countSpins(t)
	forceGang(t)
	setProcs(t, 2)
	for _, width := range []int{2, 3} {
		spun.Store(0)
		before := runtime.NumGoroutine()
		p := NewPool(width)
		hits := make([]atomic.Int64, width)
		want := make([]int64, width)
		const rounds = 10000
		panics := 0
		for r := 0; r < rounds; r++ {
			if r%64 == 0 {
				time.Sleep(2 * spinFor) // members park
			}
			n := width - r%2 // every other round leaves the last member idle
			bad, slow := -1, -1
			if r%101 == 0 {
				bad = r / 101 % n
			}
			if r%97 == 0 {
				slow = n - 1 // a hired member when n > 1: the caller parks
			}
			func() {
				defer func() {
					if v := recover(); v != nil {
						if v != r || bad < 0 {
							t.Fatalf("round %d: recovered %v, want %d from worker %d", r, v, r, bad)
						}
						panics++
					}
				}()
				p.Round(n, func(i int) {
					hits[i].Add(1)
					if i == slow {
						time.Sleep(2 * spinFor)
					}
					if i == bad {
						panic(r)
					}
				})
			}()
			for i := 0; i < n; i++ {
				want[i]++
			}
		}
		if wantPanics := (rounds + 100) / 101; panics != wantPanics {
			t.Fatalf("width %d: %d panics reached the caller, want %d", width, panics, wantPanics)
		}
		for w := range hits {
			if got := hits[w].Load(); got != want[w] {
				t.Fatalf("width %d: worker %d ran %d tasks, want %d", width, w, got, want[w])
			}
		}
		if width == 2 {
			p.Close() // the member is spinning on the round just finished
		} else {
			for i := range p.members {
				for !p.members[i].parked.Load() {
					runtime.Gosched()
				}
			}
			p.Close()
		}
		settled(t, before)
		if (spun.Load() > 0) != (width == 2) {
			t.Fatalf("width %d at GOMAXPROCS 2: %d spinning waits", width, spun.Load())
		}
	}
}

// countSpins counts, for the rest of the test, the waits that start to spin.
func countSpins(t *testing.T) *atomic.Int64 {
	var spun atomic.Int64
	testHookSpin = func() { spun.Add(1) }
	t.Cleanup(func() { testHookSpin = nil })
	return &spun
}

// A gang forced onto one thread never spins: the spin would hold the thread
// the member or caller it waits for needs. At two threads it does spin.
func TestPoolNeverSpinsOnOneCPU(t *testing.T) {
	spun := countSpins(t)
	forceGang(t)
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		spun.Store(0)
		p := NewPool(2)
		var ran atomic.Int64
		for r := 0; r < 1000; r++ {
			p.Round(2, func(int) { ran.Add(1) })
		}
		p.Close()
		if ran.Load() != 2000 {
			t.Fatalf("GOMAXPROCS %d: %d tasks ran, want 2000", procs, ran.Load())
		}
		if got := spun.Load(); (got > 0) != (procs == 2) {
			t.Fatalf("GOMAXPROCS %d: %d spins", procs, got)
		}
	}
}
