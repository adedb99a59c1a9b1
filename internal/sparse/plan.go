package sparse

import (
	"errors"
	"slices"
)

// blockWidth is the widest block of supernode columns the kernels apply in
// one pass over their shared rows.
const blockWidth = 4

// blockPlan is the refactor and solve kernels' compiled plan, a function of
// the factor pattern alone. A supernode is a run of consecutive pivot
// columns c, c+1, … with L(:,c) = {c+1} ∪ L(:,c+1): up to blockWidth of its
// columns form a block, whose L part is a dense triangle over the block's
// own rows plus one set of shared rows every column of the block updates.
// Width-1 columns appear in no list. A kernel with no planned block runs
// a flat op program instead of its column sweep, the refactor only while
// the program stays small (see buildProgram).
type blockPlan struct {
	// lblk lists the forward solve's blocks as (first column, width) pairs,
	// ascending: a greedy split of every supernode.
	lblk []int32
	// ublk lists the refactor's blocks as (position in ui, width) pairs,
	// ascending: within each U(:,k), runs of consecutive rows whose columns
	// are one supernode, split greedily.
	ublk []int32

	// ops is the refactor's op program when ublk is empty and the program
	// is within maxOpsPerSlot (colOps is nil otherwise): column k's
	// multiply-subtracts are ops[colOps[k]:colOps[k+1]], in the order the
	// column sweep runs them.
	ops    []op
	colOps []int32
	// lcol[q] is the column of L entry q, the forward solve's op program
	// when lblk is empty.
	lcol []int32
}

// op is one multiply-subtract of the refactor program, fx[dst] -=
// fx[l]·fx[u] over the LU's factor slots (see LU.fx), skipped when fx[u] is
// an exact zero: l is an entry of L(:,i), u the U(:,k) slot of row i, dst
// the slot of column k the product lands in.
type op struct{ dst, l, u int32 }

// minShared is the fewest shared rows a block must update to be planned:
// below it the pass saves less than the block's set-up costs.
const minShared = 8

// buildPlan derives the block plan, and the op programs of the kernels that
// plan no block, from the factor pattern.
func (f *LU) buildPlan() error {
	n := f.n
	// chain[c]: columns c and c+1 are one supernode. The shared rows must
	// also ascend strictly past the triangle, so that a block's rows are
	// distinct; every factorization satisfies this, a restored snapshot need
	// not.
	chain := make([]bool, n)
	for c := 0; c+1 < n; c++ {
		a := f.li[f.lp[c]:f.lp[c+1]]
		b := f.li[f.lp[c+1]:f.lp[c+2]]
		if len(a) != len(b)+1 || a[0] != int32(c+1) || !slices.Equal(a[1:], b) {
			continue
		}
		prev := int32(c + 1)
		ok := true
		for _, r := range b {
			ok = ok && r > prev
			prev = r
		}
		chain[c] = ok
	}
	// width counts how many of the chained columns c, c+1, … (at most
	// blockWidth and limit) form one block: 1 when they would share fewer
	// than minShared rows.
	width := func(c, limit int) int {
		b := 1
		for b < blockWidth && b < limit && chain[c+b-1] {
			b++
		}
		if f.lp[c+b]-f.lp[c+b-1] < minShared {
			return 1
		}
		return b
	}
	p := &f.plan
	for c := 0; c < n; {
		b := width(c, n-c)
		if b > 1 {
			p.lblk = append(p.lblk, int32(c), int32(b))
		}
		c += b
	}
	for k := 0; k < n; k++ {
		ui := f.ui[f.up[k]:f.up[k+1]]
		for q := 0; q < len(ui); {
			run := 1
			for q+run < len(ui) && ui[q+run] == ui[q]+int32(run) {
				run++
			}
			for end := q + run; q < end; {
				b := width(int(ui[q]), end-q)
				if b > 1 {
					p.ublk = append(p.ublk, f.up[k]+int32(q), int32(b))
				}
				q += b
			}
		}
	}
	return f.buildProgram()
}

// lBlock applies the planned block of L columns c, …, c+b-1 (2 ≤ b ≤
// blockWidth consecutive supernode columns) to the rows below it in w and
// stores the block's multipliers — each column's entry of w once the columns
// before it are applied — in xs. It reads w[c:c+b] but leaves it as it was,
// so the solve, which needs the multipliers there, passes it as xs.
//
// lBlock is the mesh kernels' inner block, and where it falls in the binary
// moves the mesh workloads by a few per cent: with the op program builders
// placed ahead of it in this file, it left the 64-byte boundary it has
// without them and grid32 ran about 3 % slower on some sets, though no mesh
// kernel had changed. Keep new code of this file after lBlock.
//
// The dense triangle runs on registers; then one pass over the shared rows —
// the tail of every column of the block — loads and stores each w[r] once
// and subtracts its products in ascending column order, so every entry sees
// the products of the plain column loop, in its order. A column whose
// multiplier is an exact zero is skipped, as in the plain loop (an L entry
// times 0 is not always 0, and −0 − (−0) is +0); a block holding one such
// column runs its other columns one by one.
func (f *LU) lBlock(w []float64, c, b int, xs []float64) {
	xs = xs[:b]
	lp := f.lp[c : c+b+1]
	lx := f.lx
	xw := w[c : c+b]
	var x0, x1, x2, x3 float64
	switch len(xw) {
	case 4:
		x0, x1, x2, x3 = xw[0], xw[1], xw[2], xw[3]
		if x0 != 0 {
			t := lx[lp[0] : lp[0]+3]
			x1 -= t[0] * x0
			x2 -= t[1] * x0
			x3 -= t[2] * x0
		}
		if x1 != 0 {
			t := lx[lp[1] : lp[1]+2]
			x2 -= t[0] * x1
			x3 -= t[1] * x1
		}
		if x2 != 0 {
			x3 -= lx[lp[2]] * x2
		}
		xs[0], xs[1], xs[2], xs[3] = x0, x1, x2, x3
	case 3:
		x0, x1, x2 = xw[0], xw[1], xw[2]
		if x0 != 0 {
			t := lx[lp[0] : lp[0]+2]
			x1 -= t[0] * x0
			x2 -= t[1] * x0
		}
		if x1 != 0 {
			x2 -= lx[lp[1]] * x1
		}
		xs[0], xs[1], xs[2] = x0, x1, x2
	case 2:
		x0, x1 = xw[0], xw[1]
		if x0 != 0 {
			x1 -= lx[lp[0]] * x0
		}
		xs[0], xs[1] = x0, x1
	}
	// The shared rows: the tail of every column of the block.
	rows := f.li[lp[b-1]:lp[b]]
	n := int32(len(rows))
	l0, l1 := lx[lp[1]-n:lp[1]], lx[lp[2]-n:lp[2]]
	l0, l1 = l0[:len(rows)], l1[:len(rows)]
	switch {
	case b == 4 && x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0:
		l2, l3 := lx[lp[3]-n:lp[3]], lx[lp[4]-n:lp[4]]
		l2, l3 = l2[:len(rows)], l3[:len(rows)]
		for q, r := range rows {
			v := w[r]
			v -= l0[q] * x0
			v -= l1[q] * x1
			v -= l2[q] * x2
			v -= l3[q] * x3
			w[r] = v
		}
	case b == 3 && x0 != 0 && x1 != 0 && x2 != 0:
		l2 := lx[lp[3]-n : lp[3]]
		l2 = l2[:len(rows)]
		for q, r := range rows {
			v := w[r]
			v -= l0[q] * x0
			v -= l1[q] * x1
			v -= l2[q] * x2
			w[r] = v
		}
	case b == 2 && x0 != 0 && x1 != 0:
		for q, r := range rows {
			v := w[r]
			v -= l0[q] * x0
			v -= l1[q] * x1
			w[r] = v
		}
	default:
		x := [blockWidth]float64{x0, x1, x2, x3}
		for t, xt := range x[:b] {
			if xt == 0 {
				continue
			}
			l := lx[lp[t+1]-n : lp[t+1]]
			l = l[:len(rows)]
			for q, r := range rows {
				w[r] -= l[q] * xt
			}
		}
	}
}

// errPattern reports a factor pattern no left-looking elimination produces:
// only a restored snapshot can hold one.
var errPattern = errors.New("sparse: factor pattern is not that of an elimination")

// maxOpsPerSlot caps the refactor's op program at this many ops per factor
// slot. An op is 12 bytes and a product of the refactor, so the program grows
// with the flop count, which fill can lift far above the factor storage; a
// pattern over the cap refactors by the column sweep, whose working set is
// the factors. The evaluation circuits build 0.26–0.68 ops per slot.
const maxOpsPerSlot = 4

// buildProgram compiles the op programs of the kernels without a planned
// block (it sits after lBlock in this file; see there). The forward solve's
// is lcol: entry q of L subtracts lx[q] times w[lcol[q]] from w[li[q]], so
// the sweep is one loop over L, which needs every L row below its column.
// The refactor's, built when it stays within maxOpsPerSlot, replays the
// column sweep with every workspace entry of column k resolved to the factor
// slot that holds it, so the products accumulate in place and the sweep's
// scatter to, gather from and clearing of a workspace go. Each op needs its
// target in column k's pattern and, when that is a U row, not yet read as a
// multiplier. A pattern that breaks either is refused.
func (f *LU) buildProgram() error {
	n := f.n
	p := &f.plan
	if len(p.lblk) == 0 {
		p.lcol = make([]int32, len(f.li))
		for k := 0; k < n; k++ {
			for q := f.lp[k]; q < f.lp[k+1]; q++ {
				if f.li[q] <= int32(k) {
					return errPattern
				}
				p.lcol[q] = int32(k)
			}
		}
	}
	if len(p.ublk) > 0 {
		return nil
	}
	size := 0
	for _, i := range f.ui {
		size += int(f.lp[i+1] - f.lp[i])
	}
	if size > maxOpsPerSlot*len(f.fx) {
		return nil
	}
	nl := int32(len(f.li))
	slot, mark := f.slotMap()
	p.ops = make([]op, 0, size)
	p.colOps = make([]int32, n+1)
	for k := 0; k < n; k++ {
		if err := f.markSlots(k, slot, mark); err != nil {
			return err
		}
		for t := f.up[k]; t < f.up[k+1]; t++ {
			u := nl + t
			i := f.ui[t]
			for q := f.lp[i]; q < f.lp[i+1]; q++ {
				r := f.li[q]
				dst := slot[r]
				if mark[r] != int32(k) || (dst >= nl && dst <= u) {
					return errPattern
				}
				p.ops = append(p.ops, op{dst, q, u})
			}
		}
		p.colOps[k+1] = int32(len(p.ops))
	}
	return nil
}

// slotMap returns the scratch markSlots fills: a slot per pivot row, and a
// mark per row that no column has stamped yet.
func (f *LU) slotMap() (slot, mark []int32) {
	buf := make([]int32, 2*f.n)
	slot, mark = buf[:f.n], buf[f.n:]
	for r := range mark {
		mark[r] = -1
	}
	return slot, mark
}

// markSlots sets slot[r] to the factor slot of entry (r, k) and mark[r] to
// k for every row r of column k's pattern: the U rows, which must precede
// k, the diagonal, and the L rows, which must follow it, each once.
func (f *LU) markSlots(k int, slot, mark []int32) error {
	nl, nu := int32(len(f.li)), int32(len(f.ui))
	set := func(r, s int32) bool {
		if mark[r] == int32(k) {
			return false
		}
		slot[r], mark[r] = s, int32(k)
		return true
	}
	for t := f.up[k]; t < f.up[k+1]; t++ {
		if r := f.ui[t]; r >= int32(k) || !set(r, nl+t) {
			return errPattern
		}
	}
	set(int32(k), nl+nu+int32(k))
	for q := f.lp[k]; q < f.lp[k+1]; q++ {
		if r := f.li[q]; r <= int32(k) || !set(r, q) {
			return errPattern
		}
	}
	return nil
}
