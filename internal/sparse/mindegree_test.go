package sparse

import "container/heap"

type mdItem struct {
	node, degree, pos int
}

type mdHeap []*mdItem

func (h mdHeap) Len() int { return len(h) }
func (h mdHeap) Less(i, j int) bool {
	if h[i].degree != h[j].degree {
		return h[i].degree < h[j].degree
	}
	return h[i].node < h[j].node // deterministic tie-break
}
func (h mdHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *mdHeap) Push(x any) {
	it := x.(*mdItem)
	it.pos = len(*h)
	*h = append(*h, it)
}
func (h *mdHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// minDegree performs classic minimum-degree elimination on an undirected
// adjacency structure: repeatedly eliminate the node of smallest current
// degree (ties to the smaller index) and turn its neighbourhood into a
// clique. It was the production ordering before minimum fill replaced it and
// stays as the reference minimum fill is held to (fill_test.go).
func minDegree(adj [][]int) []int {
	n := len(adj)
	nbr := make([]map[int]bool, n)
	for i, a := range adj {
		nbr[i] = make(map[int]bool, len(a))
		for _, j := range a {
			nbr[i][j] = true
		}
	}
	items := make([]*mdItem, n)
	h := make(mdHeap, 0, n)
	for i := 0; i < n; i++ {
		items[i] = &mdItem{node: i, degree: len(nbr[i])}
		heap.Push(&h, items[i])
	}
	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	for h.Len() > 0 {
		it := heap.Pop(&h).(*mdItem)
		v := it.node
		if eliminated[v] {
			continue
		}
		eliminated[v] = true
		perm = append(perm, v)
		// Collect live neighbours and form the elimination clique.
		live := make([]int, 0, len(nbr[v]))
		for u := range nbr[v] {
			if !eliminated[u] {
				live = append(live, u)
			}
		}
		for _, u := range live {
			delete(nbr[u], v)
		}
		for a := 0; a < len(live); a++ {
			for b := a + 1; b < len(live); b++ {
				u, w := live[a], live[b]
				if !nbr[u][w] {
					nbr[u][w] = true
					nbr[w][u] = true
				}
			}
		}
		for _, u := range live {
			if d := len(nbr[u]); d != items[u].degree {
				items[u].degree = d
				heap.Fix(&h, items[u].pos)
			}
		}
		nbr[v] = nil
	}
	return perm
}
