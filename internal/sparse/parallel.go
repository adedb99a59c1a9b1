package sparse

import (
	"fmt"
	"sync/atomic"

	"wavepipe/internal/sched"
)

// This file adds the level-scheduled parallel execution of Refactor and the
// triangular solves on top of an existing symbolic factorization.
//
// Dependency structure. Refactoring column k reads exactly the L columns
// i ∈ U(:,k) (the stored elimination pattern) and writes only column k's own
// slices (ux, ud, lx), so columns form a DAG whose levels
//
//	level[k] = 1 + max{ level[i] : i ∈ pattern of U(:,k) }   (0 when empty)
//
// can run concurrently. The same idea applies to the triangular solves with
// the rows of L and U as DAG nodes.
//
// Determinism. Each column's arithmetic in refactorColumn is a self-contained
// instruction sequence identical to the serial sweep, so any level-respecting
// execution order is bit-identical to serial Refactor. The solves need more
// care: the serial column sweep scatters updates, so the parallel kernels
// switch to row-oriented (dot-product) forms whose per-row accumulation
// applies the same terms, in the same order (ascending columns forward,
// descending columns backward), with the same skip-on-zero conditions, onto
// the same starting value — reproducing the serial result bit for bit
// (including the sign of zeros). This is the deterministic-reduction rule:
// every parallel reduction in the simulator must fix its accumulation order
// structurally, never by arrival time.
//
// The schedule is computed once per symbolic pattern, cached on the LU next
// to the pattern itself, and reused by every Refactor/Solve of that pattern.
// (The fill ordering lives one layer up, shared per sparsity structure; the
// level schedule depends on the pivot sequence, which is per-LU.)

// luSchedule caches the level schedule and the row-oriented solve structures
// for one symbolic pattern at one gang width.
type luSchedule struct {
	nw int // gang width the chunk model was computed for

	// Refactor: columns grouped by elimination level.
	refOrder []int32 // columns, level by level
	refPtr   []int32 // level l -> refOrder[refPtr[l]:refPtr[l+1]]
	refChunk []int32 // per level, nw+1 cost-balanced boundaries into the level
	refFrac  float64 // modeled critical-path fraction at nw workers
	refPar   bool    // worth running across the gang

	// Forward solve: strict-lower L in row-major form. Entry p of row j is
	// the coefficient L[j, fwdCol[p]] stored at lx[fwdIdx[p]]; columns
	// ascend within a row, matching the serial update order.
	fwdRp    []int32
	fwdCol   []int32
	fwdIdx   []int32
	fwdOrder []int32
	fwdPtr   []int32
	fwdChunk []int32

	// Backward solve: strict-upper U in row-major form with columns
	// descending within a row, again matching serial update order.
	bwdRp    []int32
	bwdCol   []int32
	bwdIdx   []int32
	bwdOrder []int32
	bwdPtr   []int32
	bwdChunk []int32

	solveFrac float64
	solvePar  bool
}

// Profitability gates. The modeled critical path charges every level one
// barrier of barrierUnits on top of its most expensive chunk, so narrow
// levels (chains: one column per level) price themselves out naturally,
// while wide mesh levels amortize the barrier away. A kernel goes parallel
// only when the model predicts at least a ~1.18× win; on circuit-sized
// meshes the heavy, narrow levels near the elimination-tree root cap the
// win around 1.2–1.4× (refactor) and keep the cheaper triangular solves
// serial until the pattern is a few thousand unknowns — consistent with the
// known difficulty of parallel sparse triangular solves at small scale.
const (
	maxCritFraction = 0.85
	barrierUnits    = 48 // ≈100–200ns barrier in nnz-op cost units
)

// schedule returns the cached level schedule for gang width nw, building it
// on first use (or when the width changes, which only happens if a pool of a
// different size is attached mid-run — effectively never).
func (f *LU) schedule(nw int) *luSchedule {
	if f.lsched != nil && f.lsched.nw == nw {
		return f.lsched
	}
	n := f.n
	sc := &luSchedule{nw: nw}

	// --- Refactor levels over columns ---
	level := make([]int32, n)
	cost := make([]int64, n)
	nlev := int32(0)
	for k := 0; k < n; k++ {
		lv := int32(0)
		c := int64(2 + (f.up[k+1] - f.up[k]) + 2*(f.lp[k+1]-f.lp[k]))
		for p := f.up[k]; p < f.up[k+1]; p++ {
			i := f.ui[p]
			if level[i]+1 > lv {
				lv = level[i] + 1
			}
			c += int64(1 + f.lp[i+1] - f.lp[i])
		}
		level[k] = lv
		cost[k] = c
		if lv+1 > nlev {
			nlev = lv + 1
		}
	}
	sc.refOrder, sc.refPtr = groupByLevel(level, nlev)
	sc.refChunk, sc.refFrac = balanceChunks(sc.refOrder, sc.refPtr, cost, nw)
	sc.refPar = nw > 1 && sc.refFrac <= maxCritFraction

	// --- Row-major L (forward solve) ---
	sc.fwdRp = make([]int32, n+1)
	for _, j := range f.li {
		sc.fwdRp[j+1]++
	}
	for j := 0; j < n; j++ {
		sc.fwdRp[j+1] += sc.fwdRp[j]
	}
	sc.fwdCol = make([]int32, len(f.li))
	sc.fwdIdx = make([]int32, len(f.li))
	cur := make([]int32, n)
	copy(cur, sc.fwdRp[:n])
	for k := 0; k < n; k++ { // ascending k ⇒ ascending columns within each row
		for q := f.lp[k]; q < f.lp[k+1]; q++ {
			j := f.li[q]
			sc.fwdCol[cur[j]] = int32(k)
			sc.fwdIdx[cur[j]] = int32(q)
			cur[j]++
		}
	}
	fcost := cost[:0] // reuse; same length n
	flev := level     // reuse
	nlev = 0
	for j := 0; j < n; j++ {
		lv := int32(0)
		for p := sc.fwdRp[j]; p < sc.fwdRp[j+1]; p++ {
			if flev[sc.fwdCol[p]]+1 > lv {
				lv = flev[sc.fwdCol[p]] + 1
			}
		}
		flev[j] = lv
		fcost = append(fcost, int64(1+sc.fwdRp[j+1]-sc.fwdRp[j]))
		if lv+1 > nlev {
			nlev = lv + 1
		}
	}
	sc.fwdOrder, sc.fwdPtr = groupByLevel(flev, nlev)
	var fFrac float64
	sc.fwdChunk, fFrac = balanceChunks(sc.fwdOrder, sc.fwdPtr, fcost, nw)

	// --- Row-major U (backward solve) ---
	sc.bwdRp = make([]int32, n+1)
	for _, j := range f.ui {
		sc.bwdRp[j+1]++
	}
	for j := 0; j < n; j++ {
		sc.bwdRp[j+1] += sc.bwdRp[j]
	}
	sc.bwdCol = make([]int32, len(f.ui))
	sc.bwdIdx = make([]int32, len(f.ui))
	for i := range cur {
		cur[i] = sc.bwdRp[i]
	}
	for k := n - 1; k >= 0; k-- { // descending k ⇒ descending columns per row
		for p := f.up[k]; p < f.up[k+1]; p++ {
			j := f.ui[p]
			sc.bwdCol[cur[j]] = int32(k)
			sc.bwdIdx[cur[j]] = int32(p)
			cur[j]++
		}
	}
	bcost := make([]int64, n)
	blev := make([]int32, n)
	nlev = 0
	for j := n - 1; j >= 0; j-- {
		lv := int32(0)
		for p := sc.bwdRp[j]; p < sc.bwdRp[j+1]; p++ {
			if blev[sc.bwdCol[p]]+1 > lv {
				lv = blev[sc.bwdCol[p]] + 1
			}
		}
		blev[j] = lv
		bcost[j] = int64(2 + sc.bwdRp[j+1] - sc.bwdRp[j])
		if lv+1 > nlev {
			nlev = lv + 1
		}
	}
	sc.bwdOrder, sc.bwdPtr = groupByLevel(blev, nlev)
	var bFrac float64
	sc.bwdChunk, bFrac = balanceChunks(sc.bwdOrder, sc.bwdPtr, bcost, nw)

	sc.solveFrac = (fFrac + bFrac) / 2
	sc.solvePar = nw > 1 && fFrac <= maxCritFraction && bFrac <= maxCritFraction

	f.lsched = sc
	return sc
}

// groupByLevel buckets indices 0..len(level)-1 by level, ascending index
// within each level (stable counting sort).
func groupByLevel(level []int32, nlev int32) (order, ptr []int32) {
	if nlev == 0 {
		return nil, []int32{0}
	}
	ptr = make([]int32, nlev+1)
	for _, lv := range level {
		ptr[lv+1]++
	}
	for l := int32(0); l < nlev; l++ {
		ptr[l+1] += ptr[l]
	}
	order = make([]int32, len(level))
	cur := make([]int32, nlev)
	copy(cur, ptr[:nlev])
	for j, lv := range level {
		order[cur[lv]] = int32(j)
		cur[lv]++
	}
	return order, ptr
}

// balanceChunks precomputes, for every level, nw+1 contiguous cost-balanced
// chunk boundaries (greedy: each worker takes items until its cumulative
// share reaches the level's per-worker target). The boundaries are part of
// the schedule, so the work assignment — and therefore any execution trace —
// is a pure function of the pattern, never of runtime arrival order. It also
// returns the modeled critical-path fraction: per level, the most expensive
// chunk plus one barrier of barrierUnits, summed and divided by the serial
// cost.
func balanceChunks(order, ptr []int32, cost []int64, nw int) (chunks []int32, frac float64) {
	nlevels := len(ptr) - 1
	if nlevels <= 0 {
		return nil, 1
	}
	chunks = make([]int32, nlevels*(nw+1))
	var total, crit int64
	for l := 0; l < nlevels; l++ {
		seg := order[ptr[l]:ptr[l+1]]
		var levelCost int64
		for _, j := range seg {
			levelCost += cost[j]
		}
		total += levelCost
		base := l * (nw + 1)
		var lmax, acc int64
		pos := 0
		for w := 0; w < nw; w++ {
			chunks[base+w] = int32(pos)
			prev := acc
			if w < nw-1 {
				target := levelCost * int64(w+1) / int64(nw)
				for pos < len(seg) && acc < target {
					acc += cost[seg[pos]]
					pos++
				}
			} else { // last worker sweeps up whatever remains
				for pos < len(seg) {
					acc += cost[seg[pos]]
					pos++
				}
			}
			if c := acc - prev; c > lmax {
				lmax = c
			}
		}
		chunks[base+nw] = int32(len(seg))
		crit += lmax + barrierUnits
	}
	if total == 0 {
		return chunks, 1
	}
	return chunks, float64(crit) / float64(total)
}

// evenRange splits n uniform-cost items into nw even contiguous chunks and
// returns chunk w's half-open range (used by the permutation phases).
func evenRange(n, w, nw int) (lo, hi int) {
	return w * n / nw, (w + 1) * n / nw
}

// ScheduleInfo reports the level-schedule geometry of a factorization for a
// given gang width — used by benchmarks and the corescale figure metadata.
type ScheduleInfo struct {
	RefactorLevels   int
	RefactorCritFrac float64
	RefactorParallel bool
	SolveLevels      int
	SolveCritFrac    float64
	SolveParallel    bool
}

// Schedule returns the level-schedule geometry for gang width nw.
func (f *LU) Schedule(nw int) ScheduleInfo {
	sc := f.schedule(nw)
	return ScheduleInfo{
		RefactorLevels:   len(sc.refPtr) - 1,
		RefactorCritFrac: sc.refFrac,
		RefactorParallel: sc.refPar,
		SolveLevels:      (len(sc.fwdPtr) - 1) + (len(sc.bwdPtr) - 1),
		SolveCritFrac:    sc.solveFrac,
		SolveParallel:    sc.solvePar,
	}
}

// RefactorParallel is Refactor executed level-by-level across the pool's
// gang. It requires pool.Gang(); callers on a degraded pool use serial
// Refactor, which is bit-identical (per-column arithmetic is independent of
// execution order). Like Refactor, an ErrRefactorPivot return leaves the
// factorization content undefined.
func (f *LU) RefactorParallel(m *Matrix, pool *sched.Pool) error {
	if m.N() != f.n {
		return fmt.Errorf("sparse: Refactor dimension mismatch: %d vs %d", m.N(), f.n)
	}
	nw := pool.Workers()
	sc := f.schedule(nw)
	f.scatterMap(m) // before the gang: the workers only read it
	for len(f.parWork) < nw {
		f.parWork = append(f.parWork, make([]float64, f.n))
	}
	f.parBar.Reset(int32(nw))
	var bad atomic.Bool
	pool.Run(func(wk int) {
		defer func() {
			if r := recover(); r != nil {
				f.parBar.Poison()
				panic(r)
			}
		}()
		var sense uint32
		w := f.parWork[wk]
		for lv := 0; lv+1 < len(sc.refPtr); lv++ {
			// A failed pivot only skips the remaining work; every worker
			// still crosses every barrier. Returning on bad instead would
			// strand a gang member: the last arriver at a barrier passes
			// through instantly and can set bad in the NEXT level before
			// its peers have run their post-barrier check — those peers
			// would then leave without reaching the barrier it now waits
			// at. Only poison may exit early (a poisoned barrier releases
			// all current and future waiters).
			if !bad.Load() {
				cols := sc.refOrder[sc.refPtr[lv]:sc.refPtr[lv+1]]
				base := lv * (nw + 1)
				lo, hi := sc.refChunk[base+wk], sc.refChunk[base+wk+1]
				for _, k := range cols[lo:hi] {
					if !f.refactorColumn(m, int(k), w) {
						bad.Store(true)
						break
					}
				}
			}
			f.parBar.Wait(&sense)
			if f.parBar.Poisoned() {
				return
			}
		}
	})
	if bad.Load() {
		return ErrRefactorPivot
	}
	return nil
}

// SolveParallelWith runs the permutation scatter and both triangular solves
// level-by-level across the pool's gang, bit-identical to SolveWith (see the
// determinism note at the top of the file). Requires pool.Gang(); b and x
// may alias; scratch must have length N.
func (f *LU) SolveParallelWith(b, x, scratch []float64, pool *sched.Pool) {
	nw := pool.Workers()
	sc := f.schedule(nw)
	w := scratch
	f.parBar.Reset(int32(nw))
	pool.Run(func(wk int) {
		defer func() {
			if r := recover(); r != nil {
				f.parBar.Poison()
				panic(r)
			}
		}()
		var sense uint32
		lo, hi := evenRange(f.n, wk, nw)
		for k := lo; k < hi; k++ {
			w[k] = b[f.rowPerm[k]]
		}
		f.parBar.Wait(&sense)
		// Forward: row j of L dotted against finalized y values from strictly
		// lower levels; ascending columns + skip-on-zero match the serial
		// update sequence exactly.
		for lv := 0; lv+1 < len(sc.fwdPtr); lv++ {
			rows := sc.fwdOrder[sc.fwdPtr[lv]:sc.fwdPtr[lv+1]]
			base := lv * (nw + 1)
			rlo, rhi := sc.fwdChunk[base+wk], sc.fwdChunk[base+wk+1]
			for _, jj := range rows[rlo:rhi] {
				j := int(jj)
				acc := w[j]
				for p := sc.fwdRp[j]; p < sc.fwdRp[j+1]; p++ {
					yv := w[sc.fwdCol[p]]
					if yv == 0 {
						continue
					}
					acc -= f.lx[sc.fwdIdx[p]] * yv
				}
				w[j] = acc
			}
			f.parBar.Wait(&sense)
			if f.parBar.Poisoned() {
				return
			}
		}
		// Backward: row j of U with descending columns, then the diagonal
		// division — the same operation order as the serial backward sweep.
		for lv := 0; lv+1 < len(sc.bwdPtr); lv++ {
			rows := sc.bwdOrder[sc.bwdPtr[lv]:sc.bwdPtr[lv+1]]
			base := lv * (nw + 1)
			rlo, rhi := sc.bwdChunk[base+wk], sc.bwdChunk[base+wk+1]
			for _, jj := range rows[rlo:rhi] {
				j := int(jj)
				acc := w[j]
				for p := sc.bwdRp[j]; p < sc.bwdRp[j+1]; p++ {
					zv := w[sc.bwdCol[p]]
					if zv == 0 {
						continue
					}
					acc -= f.ux[sc.bwdIdx[p]] * zv
				}
				w[j] = acc / f.ud[j]
			}
			f.parBar.Wait(&sense)
			if f.parBar.Poisoned() {
				return
			}
		}
		for k := lo; k < hi; k++ {
			x[f.colPerm[k]] = w[k]
		}
	})
}
