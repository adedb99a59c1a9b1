package circuit

import (
	"runtime"
	"testing"
	"time"

	"wavepipe/internal/sched"
)

// LoadColoredForced runs the colored direct-stamp assembly regardless of
// the profitability estimate, so tests can check it against the serial
// load on every circuit — including colorings Load itself would decline.
func (ws *Workspace) LoadColoredForced(x []float64, p LoadParams) {
	ws.loadColored(x, p, time.Now())
}

// AttachTestPool gives ws a pool of the given width for the rest of the
// test. With gang set the pool is forced, so its workers really run
// concurrently whatever the host; without it the test runs at GOMAXPROCS 1,
// where the pool degrades and the colored load takes the class-order sweep.
func AttachTestPool(t testing.TB, ws *Workspace, workers int, gang bool) {
	t.Helper()
	pool := sched.NewPool(workers)
	pool.Force = gang
	t.Cleanup(pool.Close)
	if !gang {
		prev := runtime.GOMAXPROCS(1)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	ws.SetPool(pool)
}
