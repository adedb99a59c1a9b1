package circuit

import (
	"runtime"
	"sync"
	"time"

	"wavepipe/internal/sparse"
)

// This file implements colored direct-stamp parallel assembly: at Build time
// the devices are partitioned into classes whose members never write the
// same Jacobian row or F/Q/B row, so each class can be evaluated by several
// workers stamping directly into the shared Workspace buffers — no private
// matrix clones to zero, no O(nnz + 3·N)·workers reduction. Classes are
// separated by a barrier, which makes the per-row accumulation order a pure
// function of the coloring: results are bit-identical across worker counts
// (they can differ from the serial device-order load by float addition
// reassociation, on rows three or more devices share).
//
// The footprint of a device is the union of the rows it named in Reserve and
// the F/Q/B rows it wrote during a one-shot recording probe at x = 0. The
// contract this relies on: a device's row footprint must not depend on the
// iterate. Every in-tree device satisfies it (MOSFET drain/source swap
// permutes values among reserved slots, never outside them). A device that
// panics during the probe disables coloring for the whole system, and Load
// stays on the serial loop.

// SetLoadWorkers sets the width of the colored parallel load: with n > 1
// and a profitable Build-time coloring, Load evaluates each color class
// across n workers; otherwise it stays on the serial loop.
func (ws *Workspace) SetLoadWorkers(n int) {
	if n < 1 {
		n = 1
	}
	ws.loadWorkers = n
}

// coloredThreshold is the minimum estimated class-parallel speedup at which
// Load takes the colored path; below it the coloring is considered
// degenerate (for example a dense supply node forcing most devices into
// singleton classes) and the serial loop wins.
func coloredThreshold(nw int) float64 {
	if t := 0.65 * float64(nw); t > 1.3 {
		return t
	}
	return 1.3
}

// ColoredSpeedupEstimate returns the idealized speedup of evaluating the
// color classes with nw workers: total devices over the summed per-class
// chunk counts. It ignores zeroing and per-device cost variation; it exists
// to detect degenerate colorings, not to predict wall-clock.
func (s *System) ColoredSpeedupEstimate(nw int) float64 {
	if len(s.colorClasses) == 0 || nw < 1 {
		return 0
	}
	devs, chunks := 0, 0
	for _, class := range s.colorClasses {
		devs += len(class)
		chunks += (len(class) + nw - 1) / nw
	}
	if chunks == 0 {
		return 0
	}
	return float64(devs) / float64(chunks)
}

func (ws *Workspace) useColored() bool {
	return len(ws.Sys.colorClasses) > 0 &&
		ws.Sys.ColoredSpeedupEstimate(ws.loadWorkers) >= coloredThreshold(ws.loadWorkers)
}

// probeRecorder collects the rows a device writes during the Build-time
// recording probe. bRows separately tracks the rows written through AddB:
// a device that stamps the source vector is time-varying and can never be
// bypassed (its contribution changes even at a frozen iterate).
type probeRecorder struct {
	rows  []int
	bRows []int
}

func (r *probeRecorder) note(i int) { r.rows = append(r.rows, i) }

func (r *probeRecorder) noteB(i int) {
	r.rows = append(r.rows, i)
	r.bRows = append(r.bRows, i)
}

// buildColoring computes the conflict-free device classes for a compiled
// circuit. It returns nil — disabling the colored path — if any device
// panics during the recording probe.
func buildColoring(c *Circuit, pattern *sparse.Matrix, n, numStates int, devRows [][]int) (classes [][]int) {
	defer func() {
		if recover() != nil {
			classes = nil
		}
	}()
	devices := c.devices
	nd := len(devices)
	if nd == 0 {
		return nil
	}

	// Recording probe: evaluate every device once at x = 0 into throwaway
	// buffers, capturing its F/Q/B rows.
	rec := &probeRecorder{}
	ctx := EvalCtx{
		X:         make([]float64, n),
		SrcScale:  1,
		FirstIter: true,
		NoLimit:   true,
		SPrev:     make([]float64, numStates),
		SNext:     make([]float64, numStates),
		m:         pattern.Clone(),
		F:         make([]float64, n),
		Q:         make([]float64, n),
		B:         make([]float64, n),
		rec:       rec,
	}

	// footprint[d]: deduplicated union of Reserve rows and probe rows.
	footprint := make([][]int, nd)
	seen := make([]int, n) // row -> device index + 1 (dedup stamp)
	for di, d := range devices {
		rec.rows, rec.bRows = rec.rows[:0], rec.bRows[:0]
		d.Eval(&ctx)
		var rows []int
		for _, r := range devRows[di] {
			if seen[r] != di+1 {
				seen[r] = di + 1
				rows = append(rows, r)
			}
		}
		for _, r := range rec.rows {
			if seen[r] != di+1 {
				seen[r] = di + 1
				rows = append(rows, r)
			}
		}
		footprint[di] = rows
	}

	// Greedy coloring in device order: forbid the colors of every
	// already-colored device sharing a row, take the smallest free color.
	color := make([]int, nd)
	mark := make([]int, nd+1)   // color -> device index + 1 (forbidden stamp)
	rowDevs := make([][]int, n) // row -> colored devices writing it
	maxColor := 0
	for di := range devices {
		for _, r := range footprint[di] {
			for _, e := range rowDevs[r] {
				mark[color[e]] = di + 1
			}
		}
		cc := 0
		for mark[cc] == di+1 {
			cc++
		}
		color[di] = cc
		if cc > maxColor {
			maxColor = cc
		}
		for _, r := range footprint[di] {
			rowDevs[r] = append(rowDevs[r], di)
		}
	}
	classes = make([][]int, maxColor+1)
	for di, cc := range color {
		classes[cc] = append(classes[cc], di)
	}
	return classes
}

// zeroChunk zeroes worker w's contiguous share of v.
func zeroChunk(v []float64, w, nw int) {
	s := v[w*len(v)/nw : (w+1)*len(v)/nw]
	for i := range s {
		s[i] = 0
	}
}

// colorWorker is the per-gang-member body of the colored direct-stamp
// assembly: zero a share of the shared buffers, then stamp a chunk of every
// color class, with a barrier between phases. It is shared by the pooled
// path (persistent sched.Pool workers) and the legacy spawn path.
func (ws *Workspace) colorWorker(w, nw int, x []float64, p LoadParams) {
	var sense uint32
	ctx := &ws.wctx[w]
	*ctx = EvalCtx{
		X:         x,
		T:         p.Time,
		Alpha0:    p.Alpha0,
		Gmin:      p.Gmin,
		SrcScale:  p.SrcScale,
		FirstIter: p.FirstIter,
		NoLimit:   p.NoLimit,
		SPrev:     ws.SPrev,
		SNext:     ws.SNext,
		m:         ws.M,
		F:         ws.F,
		Q:         ws.Q,
		B:         ws.B,
	}
	classes := ws.Sys.colorClasses
	devices := ws.Sys.Circuit.devices
	// Phase 0: each worker zeroes its share of the shared buffers.
	zeroChunk(ws.M.Values, w, nw)
	zeroChunk(ws.F, w, nw)
	zeroChunk(ws.Q, w, nw)
	zeroChunk(ws.B, w, nw)
	ws.colorBar.Wait(&sense)
	// One phase per color class: rows are disjoint within the class, so
	// workers stamp into the shared buffers without synchronization.
	for _, class := range classes {
		lo := w * len(class) / nw
		hi := (w + 1) * len(class) / nw
		for _, di := range class[lo:hi] {
			devices[di].Eval(ctx)
		}
		ws.colorBar.Wait(&sense)
		if ws.colorBar.Poisoned() {
			return
		}
	}
}

// loadColored performs the colored direct-stamp assembly. With an attached
// gang pool the phases run on the pool's persistent workers; otherwise, on a
// single-CPU host it degrades to evaluating the classes serially (same
// accumulation order, so bit-identical results) unless ForceParallelLoad is
// set, in which case — and on genuinely multi-core hosts without a pool —
// it spawns transient worker goroutines per load.
func (ws *Workspace) loadColored(x []float64, p LoadParams) {
	if ws.pool.Gang() {
		ws.loadColoredPooled(x, p)
		return
	}
	if runtime.GOMAXPROCS(0) == 1 && !ws.ForceParallelLoad {
		ws.loadColoredSerial(x, p)
		return
	}
	start := time.Now()
	nw := ws.loadWorkers
	for len(ws.wctx) < nw {
		ws.wctx = append(ws.wctx, EvalCtx{})
	}
	ws.colorBar.Reset(int32(nw))
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws.colorWorker(w, nw, x, p)
		}(w)
	}
	ws.colorWorker(0, nw, x, p)
	wg.Wait()
	ws.finishColoredParallel(x, p, nw, start)
}

// loadColoredPooled runs the colored assembly on the attached gang pool's
// persistent workers: no goroutine spawn per load, and a panicking device
// poisons the barrier (freeing the gang) before the pool re-raises the panic
// on the caller, where the engine's panic fences handle it like any serial
// device panic.
func (ws *Workspace) loadColoredPooled(x []float64, p LoadParams) {
	start := time.Now()
	pool := ws.pool
	nw := pool.Workers()
	for len(ws.wctx) < nw {
		ws.wctx = append(ws.wctx, EvalCtx{})
	}
	ws.colorBar.Reset(int32(nw))
	pool.Run(func(w int) {
		defer func() {
			if r := recover(); r != nil {
				ws.colorBar.Poison()
				panic(r)
			}
		}()
		ws.colorWorker(w, nw, x, p)
	})
	ws.finishColoredParallel(x, p, nw, start)
}

// finishColoredParallel folds the per-worker limiting flags, applies the
// coordinator tail and books the timing for a genuinely parallel colored
// load (wall time is the critical path).
func (ws *Workspace) finishColoredParallel(x []float64, p LoadParams, nw int, start time.Time) {
	ws.Limited = false
	for w := 0; w < nw; w++ {
		ws.Limited = ws.Limited || ws.wctx[w].Limited
	}
	ws.finishColored(x, p)
	d := time.Since(start).Nanoseconds()
	ws.LoadWallNanos += d
	ws.LoadCritNanos += d
}

// loadColoredSerial evaluates the color classes in class order on the
// calling goroutine. The accumulation order matches the parallel path
// exactly (within a class every row has a single writer), so the stamps are
// bit-identical; the critical-path accounting models what nw workers would
// have achieved on a host that had them.
func (ws *Workspace) loadColoredSerial(x []float64, p LoadParams) {
	start := time.Now()
	classes := ws.Sys.colorClasses
	devices := ws.Sys.Circuit.devices
	nw := ws.loadWorkers
	ws.M.Zero()
	for i := range ws.F {
		ws.F[i] = 0
		ws.Q[i] = 0
		ws.B[i] = 0
	}
	zeroNanos := time.Since(start).Nanoseconds()
	ctx := &ws.evalCtx
	*ctx = EvalCtx{
		X:         x,
		T:         p.Time,
		Alpha0:    p.Alpha0,
		Gmin:      p.Gmin,
		SrcScale:  p.SrcScale,
		FirstIter: p.FirstIter,
		NoLimit:   p.NoLimit,
		SPrev:     ws.SPrev,
		SNext:     ws.SNext,
		m:         ws.M,
		F:         ws.F,
		Q:         ws.Q,
		B:         ws.B,
	}
	var modeledEval int64
	for _, class := range classes {
		cs := time.Now()
		for _, di := range class {
			devices[di].Eval(ctx)
		}
		cn := time.Since(cs).Nanoseconds()
		chunks := int64((len(class) + nw - 1) / nw)
		modeledEval += cn * chunks / int64(len(class))
	}
	ws.Limited = ctx.Limited
	tailStart := time.Now()
	ws.finishColored(x, p)
	tail := time.Since(tailStart).Nanoseconds()
	ws.LoadWallNanos += time.Since(start).Nanoseconds()
	ws.LoadCritNanos += zeroNanos/int64(nw) + modeledEval + tail
}

// finishColored applies the coordinator-side tail shared by both colored
// paths: gmin stepping, nodeset clamps and fault injection.
func (ws *Workspace) finishColored(x []float64, p LoadParams) {
	if p.NodeGmin > 0 {
		for i, slot := range ws.Sys.diagSlots {
			ws.M.Add(slot, p.NodeGmin)
			ws.F[i] += p.NodeGmin * x[i]
		}
	}
	ws.applyClamps(x, p)
	ws.injectLoadFault(p)
}
