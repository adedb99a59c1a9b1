package sparse

import "sync"

// The ordering cache answers repeat symbolic analyses: two Systems built
// from the same deck (a re-run of an identical netlist, or the K lanes of
// an ensemble) produce bit-identical CSC patterns, and a fill-reducing
// ordering depends only on that pattern. Recomputing minimum fill per run
// (tens of milliseconds on a 64×64 mesh) is pure waste, so
// ComputeOrdering-through-SharedOrdering keeps a small process-wide cache
// keyed by the exact pattern.
//
// An entry stores references to the pattern's ColPtr/RowIdx slices plus a
// cheap (n, nnz, fingerprint) prefilter, and a full O(nnz) comparison
// confirms a hit — there are no false positives. The cache is bounded and
// evicts least-recently-used; circuit patterns are immutable after Compile,
// so holding slice references is safe.

const orderingCacheSize = 8

type orderingEntry struct {
	n      int
	fp     uint64
	colPtr []int
	rowIdx []int
	perm   []int
	tick   uint64
}

var orderingCache struct {
	mu      sync.Mutex
	entries [orderingCacheSize]*orderingEntry
	tick    uint64
	hits    int64
	misses  int64
}

// patternFingerprint hashes the pattern (FNV-1a over ColPtr and RowIdx) as
// a prefilter so misses rarely pay the full comparison.
func patternFingerprint(m *Matrix) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v int) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	mix(m.n)
	for _, v := range m.ColPtr {
		mix(v)
	}
	for _, v := range m.RowIdx {
		mix(v)
	}
	return h
}

func samePattern(e *orderingEntry, m *Matrix) bool {
	if e.n != m.n || len(e.rowIdx) != len(m.RowIdx) {
		return false
	}
	// Identity fast path: clones share the pattern slices.
	if len(m.ColPtr) > 0 && len(e.colPtr) == len(m.ColPtr) && &e.colPtr[0] == &m.ColPtr[0] {
		return true
	}
	for i, v := range e.colPtr {
		if m.ColPtr[i] != v {
			return false
		}
	}
	for i, v := range e.rowIdx {
		if m.RowIdx[i] != v {
			return false
		}
	}
	return true
}

// SharedOrdering returns ComputeOrdering(m), serving repeat patterns
// from the process-wide cache. Callers must treat the returned permutation
// as immutable (FactorizeWithPerm copies it, so the solver layer already
// honors that). Safe for concurrent use.
func SharedOrdering(m *Matrix) []int {
	fp := patternFingerprint(m)
	c := &orderingCache
	c.mu.Lock()
	c.tick++
	for _, e := range c.entries {
		if e != nil && e.fp == fp && samePattern(e, m) {
			e.tick = c.tick
			c.hits++
			perm := e.perm
			c.mu.Unlock()
			return perm
		}
	}
	c.misses++
	c.mu.Unlock()

	perm := ComputeOrdering(m)

	c.mu.Lock()
	// Insert into the stalest slot (re-check for a racing insert is not
	// needed for correctness: duplicates just waste one slot until evicted).
	slot := 0
	for i, e := range c.entries {
		if e == nil {
			slot = i
			break
		}
		if e.tick < c.entries[slot].tick {
			slot = i
		}
	}
	c.tick++
	c.entries[slot] = &orderingEntry{
		n: m.n, fp: fp,
		colPtr: m.ColPtr, rowIdx: m.RowIdx,
		perm: perm, tick: c.tick,
	}
	c.mu.Unlock()
	return perm
}

// OrderingCacheCounters reports cumulative SharedOrdering hits and misses
// (tests use deltas; the counters are process-wide).
func OrderingCacheCounters() (hits, misses int64) {
	orderingCache.mu.Lock()
	defer orderingCache.mu.Unlock()
	return orderingCache.hits, orderingCache.misses
}
