package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPoolRunCoversAllWorkers checks every worker index runs exactly once
// per gang, across many gangs, with Force so the concurrent path is
// exercised even on a single-CPU host (and under -race).
func TestPoolRunCoversAllWorkers(t *testing.T) {
	p := NewPool(4)
	if p == nil {
		t.Fatal("NewPool(4) returned nil")
	}
	p.Force = true
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
	p := NewPool(3)
	p.Force = true
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

// TestPoolDegradesSequentially checks the nil pool and the non-Gang path run
// the function serially, in worker order.
func TestPoolDegradesSequentially(t *testing.T) {
	var nilPool *Pool
	order := []int{}
	nilPool.Run(func(w int) { order = append(order, w) })
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("nil pool ran %v, want [0]", order)
	}
	if nilPool.Workers() != 1 || nilPool.Gang() {
		t.Fatalf("nil pool: Workers=%d Gang=%v", nilPool.Workers(), nilPool.Gang())
	}
	if runtime.GOMAXPROCS(0) == 1 {
		p := NewPool(3) // Force unset: degrades on a 1-CPU host
		defer p.Close()
		if p.Gang() {
			t.Skip("GOMAXPROCS changed concurrently")
		}
		order = order[:0]
		p.Run(func(w int) { order = append(order, w) })
		if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("degraded pool ran %v, want [0 1 2]", order)
		}
	}
}

// TestBudgetInvariant checks reservations never exceed the total and that
// pool close releases its grant.
func TestBudgetInvariant(t *testing.T) {
	b := NewBudget(8)
	if got := b.Reserve(4); got != 4 {
		t.Fatalf("Reserve(4) = %d", got)
	}
	// Four coordinators reserved; each carves a gang of two out of the
	// remainder, as four concurrent windows running two-thread pipelines do.
	pools := make([]*Pool, 0, 4)
	for i := 0; i < 4; i++ {
		p := b.NewPool(2)
		if p == nil {
			t.Fatalf("gang %d: NewPool(2) = nil with %d free", i, b.Total()-b.InUse())
		}
		pools = append(pools, p)
	}
	if b.InUse() != 8 {
		t.Fatalf("InUse = %d, want 8", b.InUse())
	}
	if p := b.NewPool(4); p != nil {
		t.Fatalf("over-budget NewPool succeeded with width %d", p.Workers())
	}
	for _, p := range pools {
		p.Close()
	}
	if b.InUse() != 4 {
		t.Fatalf("after close InUse = %d, want 4", b.InUse())
	}
	b.Release(4)
	if b.InUse() != 0 {
		t.Fatalf("final InUse = %d, want 0", b.InUse())
	}
	// Partial grant: only 3 free, asking for a gang of 8 → width 4.
	b2 := NewBudget(4)
	b2.Reserve(1)
	p := b2.NewPool(8)
	if p.Workers() != 4 {
		t.Fatalf("partial grant width = %d, want 4", p.Workers())
	}
	p.Close()
}

// TestPoolNoGoroutineLeak runs gangs on several pools and closes them: Close
// joins its workers, so the goroutine count is back at its baseline the
// moment the last Close returns.
func TestPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		p := NewPool(4)
		p.Force = true
		var n atomic.Int64
		p.Run(func(w int) { n.Add(1) })
		p.Run(func(w int) { n.Add(1) })
		if n.Load() != 8 {
			t.Fatalf("pool %d: %d runs, want 8", i, n.Load())
		}
		p.Close()
		p.Close() // double close is safe
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestCloseReleasesAfterWorkersExit: the reservation goes back to the budget
// only once the hired goroutines are gone, so whoever is granted the cores
// next never shares them with a worker still on its way out.
func TestCloseReleasesAfterWorkersExit(t *testing.T) {
	before := runtime.NumGoroutine()
	b := NewBudget(4)
	b.Reserve(1)
	p := b.NewPool(4)
	p.Force = true
	p.Run(func(int) {})
	if got := runtime.NumGoroutine(); got != before+3 {
		t.Fatalf("%d goroutines with a 4-wide pool open, want %d", got, before+3)
	}
	p.Close()
	if used, now := b.InUse(), runtime.NumGoroutine(); used != 1 || now != before {
		t.Fatalf("after Close: %d cores in use (want 1), %d goroutines (want %d)", used, now, before)
	}
}

// A round is covered when the pool is wide enough and the host schedules a
// thread per task; a round that is not covered runs on the caller, in order,
// and says so.
func TestRoundRunsCoveredRoundsOnTheGang(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
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

	p.Force = true
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
	p := NewPool(2)
	p.Force = true
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
