package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestArbiterNeverOversubscribes drives many concurrent acquire/release
// cycles and asserts the granted total never exceeds the budget.
func TestArbiterNeverOversubscribes(t *testing.T) {
	const cores, jobs = 4, 24
	a := NewArbiter(cores)
	var peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(pri int) {
			defer wg.Done()
			g, err := a.Acquire(context.Background(), pri%3, 1+pri%4)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			for k := 0; k < 50; k++ {
				inUse := int64(a.InUse())
				for {
					p := peak.Load()
					if inUse <= p || peak.CompareAndSwap(p, inUse) {
						break
					}
				}
				time.Sleep(time.Microsecond)
			}
			g.Release()
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > cores {
		t.Fatalf("peak cores in use %d exceeds budget %d", p, cores)
	}
	if a.InUse() != 0 {
		t.Fatalf("cores leaked: %d still in use", a.InUse())
	}
	if a.Running() != 0 || a.Queued() != 0 {
		t.Fatalf("jobs leaked: running=%d queued=%d", a.Running(), a.Queued())
	}
}

// TestArbiterPreemption verifies a higher-priority waiter signals the
// lowest-priority running grant, and is dispatched once it releases.
func TestArbiterPreemption(t *testing.T) {
	a := NewArbiter(1)
	low, err := a.Acquire(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	highReady := make(chan *Grant, 1)
	go func() {
		g, err := a.Acquire(context.Background(), 5, 1)
		if err != nil {
			t.Errorf("high acquire: %v", err)
		}
		highReady <- g
	}()
	select {
	case <-low.Preempted():
	case <-time.After(2 * time.Second):
		t.Fatal("low-priority grant was never asked to yield")
	}
	select {
	case <-highReady:
		t.Fatal("high-priority job dispatched before the victim released")
	case <-time.After(20 * time.Millisecond):
	}
	low.Release()
	select {
	case g := <-highReady:
		if g == nil {
			t.Fatal("nil grant")
		}
		g.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("high-priority job never dispatched after release")
	}
	if a.Preemptions() != 1 {
		t.Fatalf("preemptions = %d, want 1", a.Preemptions())
	}
	// Equal priority must NOT preempt.
	g1, _ := a.Acquire(context.Background(), 1, 1)
	done := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	go func() {
		if g, err := a.Acquire(ctx, 1, 1); err == nil {
			g.Release()
		}
		close(done)
	}()
	select {
	case <-g1.Preempted():
		t.Fatal("equal priority preempted a running grant")
	case <-done:
	}
	g1.Release()
}

// TestArbiterFairShare verifies a burst of waiters splits the free cores
// instead of the first taking everything.
func TestArbiterFairShare(t *testing.T) {
	a := NewArbiter(8)
	// Hold the whole budget, queue 4 greedy waiters, then release: each
	// should get 8/4 = 2 cores.
	hold, err := a.Acquire(context.Background(), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hold.Cores != 8 {
		t.Fatalf("lone job granted %d cores, want all 8", hold.Cores)
	}
	grants := make(chan *Grant, 4)
	for i := 0; i < 4; i++ {
		go func() {
			g, err := a.Acquire(context.Background(), 0, 8)
			if err != nil {
				t.Errorf("acquire: %v", err)
			}
			grants <- g
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Queued() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never queued (queued=%d)", a.Queued())
		}
		time.Sleep(time.Millisecond)
	}
	hold.Release()
	for i := 0; i < 4; i++ {
		select {
		case g := <-grants:
			if g.Cores != 2 {
				t.Fatalf("burst grant got %d cores, want fair share 2", g.Cores)
			}
			defer g.Release()
		case <-time.After(2 * time.Second):
			t.Fatal("waiter never dispatched")
		}
	}
}

// TestArbiterAcquireCancel verifies a canceled Acquire neither blocks nor
// keeps cores granted.
func TestArbiterAcquireCancel(t *testing.T) {
	a := NewArbiter(1)
	g, _ := a.Acquire(context.Background(), 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, 0, 1)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.Queued() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g.Release()
	if a.InUse() != 0 {
		t.Fatalf("cores leaked: %d in use", a.InUse())
	}
}
