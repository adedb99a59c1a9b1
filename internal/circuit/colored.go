package circuit

import (
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

// coloredThreshold is the minimum estimated class-parallel speedup at which
// SetPool puts Load on the colored path; below it the coloring is considered
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

// probeRecorder collects the rows a device writes during the Build-time
// recording probe.
type probeRecorder struct {
	rows []int
	// wroteQ reports a write through AddQ: the device stores charge and the
	// charge pass must visit it (see charge.go).
	wroteQ bool
}

func (r *probeRecorder) note(i int) { r.rows = append(r.rows, i) }

func (r *probeRecorder) noteQ(i int) {
	r.rows = append(r.rows, i)
	r.wroteQ = true
}

// buildColoring computes the conflict-free device classes for a compiled
// circuit and notes, per device, whether its probe wrote Q. It returns nil
// for both — disabling the colored path, and leaving the charge pass to
// sweep every device — if any device panics during the recording probe.
func buildColoring(c *Circuit, pattern *sparse.Matrix, n, numStates int, devRows [][]int) (classes [][]int, wroteQ []bool) {
	defer func() {
		if recover() != nil {
			classes, wroteQ = nil, nil
		}
	}()
	devices := c.devices
	nd := len(devices)
	if nd == 0 {
		return nil, nil
	}

	// Recording probe: evaluate every device once at x = 0 into throwaway
	// buffers, capturing its F/Q/B rows.
	rec := &probeRecorder{}
	ctx := EvalCtx{
		X:        make([]float64, n),
		SrcScale: 1,
		NoLimit:  true,
		SPrev:    make([]float64, numStates),
		SNext:    make([]float64, numStates),
		m:        pattern.Clone(),
		F:        make([]float64, n),
		Q:        make([]float64, n),
		B:        make([]float64, n),
		rec:      rec,
	}

	// footprint[d]: deduplicated union of Reserve rows and probe rows.
	footprint := make([][]int, nd)
	wroteQ = make([]bool, nd)
	seen := make([]int, n) // row -> device index + 1 (dedup stamp)
	for di, d := range devices {
		rec.rows, rec.wroteQ = rec.rows[:0], false
		d.Eval(&ctx)
		wroteQ[di] = rec.wroteQ
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
	return classes, wroteQ
}

// colorWorker is one gang member's share of the colored direct-stamp
// assembly: zero a share of the shared buffers, then stamp a chunk of every
// color class, with a barrier between phases.
func (ws *Workspace) colorWorker(w, nw int, x []float64, p LoadParams) {
	var sense uint32
	ctx := &ws.wctx[w]
	ws.beginLoad(ctx, x, p, w, nw, zeroAll)
	ws.colorBar.Wait(&sense)
	// One phase per color class: rows are disjoint within the class, so
	// workers stamp into the shared buffers without synchronization.
	devices := ws.Sys.Circuit.devices
	for _, class := range ws.Sys.colorClasses {
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

// loadColored performs the colored direct-stamp assembly on the attached
// pool's persistent workers. A panicking device poisons the barrier (freeing
// the gang) before the pool re-raises the panic on the caller, where the
// engine's panic fences handle it like any serial device panic. When the
// pool cannot run its gang concurrently (a single-CPU host) the classes are
// swept in class order instead.
func (ws *Workspace) loadColored(x []float64, p LoadParams, start time.Time) {
	pool := ws.pool
	nw := pool.Workers()
	if !pool.Gang() {
		ws.loadClassOrder(x, p, nw, start)
		return
	}
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
	limited := false
	for w := 0; w < nw; w++ {
		limited = limited || ws.wctx[w].Limited
	}
	ws.finishLoad(x, p, limited, start)
}

// loadClassOrder evaluates the color classes in class order on the calling
// goroutine. The accumulation order matches the gang's exactly (within a
// class every row has a single writer), so the stamps are bit-identical; the
// critical-path accounting models what nw workers would have achieved on a
// host that had them, by taking off the wall time the share of the zeroing
// and of each class that the other workers would have carried.
func (ws *Workspace) loadClassOrder(x []float64, p LoadParams, nw int, start time.Time) {
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, 0, 1, zeroAll)
	zero := time.Since(start).Nanoseconds()
	saved := zero - zero/int64(nw)
	devices := ws.Sys.Circuit.devices
	for _, class := range ws.Sys.colorClasses {
		cs := time.Now()
		for _, di := range class {
			devices[di].Eval(ctx)
		}
		cn := time.Since(cs).Nanoseconds()
		chunks := int64((len(class) + nw - 1) / nw)
		saved += cn - cn*chunks/int64(len(class))
	}
	ws.finishLoad(x, p, ctx.Limited, start)
	ws.LoadCritNanos -= saved
}
