package sparse

import (
	"container/heap"
	"slices"
)

// ComputeOrdering returns the minimum-fill ordering of m's pattern, taken on
// the symmetrized pattern A + Aᵀ: a permutation perm where perm[k] is the
// original index eliminated at step k.
func ComputeOrdering(m *Matrix) []int {
	return minFill(m.SymmetrizedAdjacency())
}

// minFill performs greedy minimum-fill (minimum-deficiency) elimination on
// an undirected adjacency structure: repeatedly eliminate the node whose
// elimination adds the fewest edges — the pairs of its neighbours not yet
// adjacent — and turn its neighbourhood into a clique. Ties go to the smaller
// degree and then the smaller index, so where no choice adds fill (chains,
// trees) the order is minimum degree's.
//
// Eliminating v changes two kinds of deficiency and no other. A node x
// outside v's clique keeps its neighbours and loses one missing pair per new
// clique edge between two of them. A clique member u is rescored from its
// outside neighbours out(u) alone, since the clique is complete: its missing
// pairs are those among out(u), plus, for each x in out(u), the clique
// members other than u that x does not touch.
func minFill(adj [][]int) []int {
	n := len(adj)
	nbr := make([][]int, n)
	for i, a := range adj {
		nbr[i] = append([]int(nil), a...)
	}
	mark, stamp := make([]int, n), 0
	// missingAmong counts the pairs of nodes in set that are not adjacent.
	missingAmong := func(set []int) int {
		stamp++
		for _, a := range set {
			mark[a] = stamp
		}
		missing := 0
		for _, a := range set {
			missing += len(set) - 1
			for _, b := range nbr[a] {
				if mark[b] == stamp {
					missing--
				}
			}
		}
		return missing / 2
	}
	q := &fillQueue{heap: make([]int, n), pos: make([]int, n), fill: make([]int, n), deg: make([]int, n)}
	for u := range nbr {
		q.heap[u], q.pos[u] = u, u
		q.fill[u], q.deg[u] = missingAmong(nbr[u]), len(nbr[u])
	}
	heap.Init(q)
	perm := make([]int, 0, n)
	inClique := make([]int, n) // step at which the node was last in the eliminated node's clique
	touches := make([]int, n)  // an outside node's clique neighbours, at the current step
	var out []int              // out(u) of each clique member in turn
	outAt := []int{0}          // out(clique[a]) is out[outAt[a]:outAt[a+1]]
	for q.Len() > 0 {
		v := q.heap[0]
		heap.Pop(q)
		perm = append(perm, v)
		step := len(perm)
		clique := nbr[v]
		nbr[v] = nil
		for _, u := range clique {
			inClique[u] = step
		}
		out, outAt = out[:0], outAt[:1]
		for _, u := range clique {
			i := slices.Index(nbr[u], v)
			last := len(nbr[u]) - 1
			nbr[u][i] = nbr[u][last]
			nbr[u] = nbr[u][:last]
			for _, x := range nbr[u] {
				if inClique[x] != step {
					out = append(out, x)
					touches[x] = 0
				}
			}
			outAt = append(outAt, len(out))
		}
		for _, x := range out {
			touches[x]++
		}
		// Every key change is fixed in the queue at once: heap.Fix restores
		// the order around one changed node, not several.
		for a, u := range clique {
			stamp++
			for _, x := range nbr[u] {
				mark[x] = stamp
			}
			for b, w := range clique[a+1:] {
				if mark[w] == stamp {
					continue
				}
				for _, x := range out[outAt[a+1+b]:outAt[a+2+b]] {
					if mark[x] == stamp {
						q.fill[x]--
						heap.Fix(q, q.pos[x])
					}
				}
				nbr[u] = append(nbr[u], w)
				nbr[w] = append(nbr[w], u)
			}
		}
		for a, u := range clique {
			outU := out[outAt[a]:outAt[a+1]]
			fill := missingAmong(outU)
			for _, x := range outU {
				fill += len(clique) - touches[x]
			}
			q.fill[u], q.deg[u] = fill, len(nbr[u])
			heap.Fix(q, q.pos[u])
		}
	}
	return perm
}

// fillQueue is minFill's priority queue: the uneliminated nodes ordered by
// (deficiency, degree, index).
type fillQueue struct {
	heap      []int // nodes in heap order
	pos       []int // node -> its index in heap
	fill, deg []int // by node
}

func (q *fillQueue) Len() int { return len(q.heap) }
func (q *fillQueue) Less(i, j int) bool {
	u, v := q.heap[i], q.heap[j]
	if q.fill[u] != q.fill[v] {
		return q.fill[u] < q.fill[v]
	}
	if q.deg[u] != q.deg[v] {
		return q.deg[u] < q.deg[v]
	}
	return u < v
}
func (q *fillQueue) Swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]], q.pos[q.heap[j]] = i, j
}
func (q *fillQueue) Push(x any) {
	q.pos[x.(int)] = len(q.heap)
	q.heap = append(q.heap, x.(int))
}
func (q *fillQueue) Pop() any {
	v := q.heap[len(q.heap)-1]
	q.heap = q.heap[:len(q.heap)-1]
	return v
}

// SourcesFirst returns perm with each column a one-entry row pins (the node
// of a grounded voltage source, pinned by its branch row) moved to the front,
// right after the column of that row's index (the branch current), which
// takes the node's own row as pivot and so leaves the branch row to pivot the
// node. The fill ordering eliminates a supply node last (at the end of a gate
// chain's order, as minimum degree did), and its column then carries the gain
// product of everything it feeds.
func SourcesFirst(m *Matrix, perm []int) []int {
	n := m.N()
	count, col := make([]int, n), make([]int, n)
	for j := 0; j < n; j++ {
		for _, r := range m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]] {
			count[r]++
			col[r] = j
		}
	}
	out, placed := make([]int, 0, n), make([]bool, n)
	for r, c := range col {
		if count[r] == 1 && c != r && !placed[r] && !placed[c] {
			out = append(out, r, c)
			placed[r], placed[c] = true, true
		}
	}
	for _, j := range perm {
		if !placed[j] {
			out = append(out, j)
		}
	}
	return out
}
