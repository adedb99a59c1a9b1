package sparse

import "slices"

// blockWidth is the widest block of supernode columns the kernels apply in
// one pass over their shared rows.
const blockWidth = 4

// blockPlan is the refactor and solve kernels' compiled block plan, a
// function of the factor pattern alone. A supernode is a run of consecutive
// pivot columns c, c+1, … with L(:,c) = {c+1} ∪ L(:,c+1): up to blockWidth
// of its columns form a block, whose L part is a dense triangle over the
// block's own rows plus one set of shared rows every column of the block
// updates. Width-1 columns appear in no list.
type blockPlan struct {
	// lblk lists the forward solve's blocks as (first column, width) pairs,
	// ascending: a greedy split of every supernode.
	lblk []int32
	// ublk lists the refactor's blocks as (position in ui, width) pairs,
	// ascending: within each U(:,k), runs of consecutive rows whose columns
	// are one supernode, split greedily.
	ublk []int32
}

// minShared is the fewest shared rows a block must update to be planned:
// below it the pass saves less than the block's set-up costs.
const minShared = 8

// buildPlan derives the block plan from the factor pattern.
func (f *LU) buildPlan() {
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
}

// lBlock applies the planned block of L columns c, …, c+b-1 (2 ≤ b ≤
// blockWidth consecutive supernode columns) to the rows below it in w and
// stores the block's multipliers — each column's entry of w once the columns
// before it are applied — in xs. It reads w[c:c+b] but leaves it as it was,
// so the solve, which needs the multipliers there, passes it as xs.
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
