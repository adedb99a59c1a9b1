package sparse

import "math"

// factors is one numeric factorization on a Solver's symbolic pattern: the
// factor slots (see LU.fx) and, once admitted to a keyed store, the matrix
// values they were refactored from. Pattern, pivot sequence, plan and
// scatter list stay on the LU and are shared by every set, so attaching a
// set to the LU is binding its one slice.
type factors struct {
	// values is nil until admit records that fx is Refactor's output
	// for it — the only state a request may be answered from exactly. A set
	// out of a full factorization holds the same matrix to rounding but was
	// summed in a different order, and the run the answer stands in for would
	// have refactored it; such a set answers nothing and is the next claimed.
	values []float64
	fx     []float64
	used   uint64 // store clock when the set last answered or was written
	// aliases lists the keys (see Solver.Defer) the set answers without its
	// values being looked at: each one was assembled into exactly values.
	aliases []uint64
}

func (f *factors) bytes() int {
	return 8 * (len(f.values) + len(f.fx))
}

// factorStore keeps the numeric factorizations a Solver may answer a request
// from: when the solver's StoreBytes is positive, as many earlier Refactor
// outputs as fit in that many bytes, found by the key of a deferred request
// (byAlias) or else by a hash of the matrix values and a bit-for-bit
// comparison, evicted least recently used. The set in hand (cur, attached to
// the LU) is one of them once admitted. With a zero bound nothing is ever
// admitted, hashed or copied. Every set was computed along the LU's current
// pivot sequence: anything that changes or voids the pivots (a full
// factorization, RestoreFactor, a failed refactorization) flushes it. An
// alias lives as long as its set stays findable.
type factorStore struct {
	cur  *factors
	sets []*factors // the refactored sets, cur among them when it is one
	// keys[i] is the hash of sets[i].values (zero in a store that is not
	// keyed), kept apart from the sets so that a lookup scans one contiguous
	// array instead of touching every set.
	keys []uint64
	// byAlias finds a findable set by the key of a deferred request.
	byAlias map[uint64]*factors
	clock   uint64
	// hash, when non-nil, replaces hashValues (tests force collisions with it).
	hash func([]float64) uint64
}

// key hashes a value vector for find and admit.
func (st *factorStore) key(values []float64) uint64 {
	if st.hash != nil {
		return st.hash(values)
	}
	return hashValues(values)
}

// flush forgets every set and leaves nothing in hand.
func (st *factorStore) flush() {
	st.sets, st.keys, st.cur = nil, nil, nil
	st.unalias()
}

// unalias forgets every alias; the sets stay findable by their values.
func (st *factorStore) unalias() {
	for _, f := range st.byAlias {
		f.aliases = f.aliases[:0]
	}
	clear(st.byAlias)
}

// alias makes f answer key from now on.
func (st *factorStore) alias(f *factors, key uint64) {
	if st.byAlias == nil {
		st.byAlias = make(map[uint64]*factors)
	}
	st.byAlias[key] = f
	f.aliases = append(f.aliases, key)
}

// find returns the stored set whose values are bit-for-bit the given ones, or
// nil. The hash only nominates candidates; the comparison decides.
func (st *factorStore) find(h uint64, values []float64) *factors {
	for i, k := range st.keys {
		if k == h && sameBits(st.sets[i].values, values) {
			return st.sets[i]
		}
	}
	return nil
}

// sameBits reports whether new is old bit for bit. Equality is on the IEEE
// bits, so +0 against −0 and any NaN count as a difference; the scan ends at
// the first differing entry.
func sameBits(old, new []float64) bool {
	old = old[:len(new)]
	for i, nv := range new {
		if math.Float64bits(nv) != math.Float64bits(old[i]) {
			return false
		}
	}
	return true
}

// attach puts f in hand: the LU's kernels read and write f's arrays from now
// on.
func (st *factorStore) attach(lu *LU, f *factors) {
	st.clock++
	f.used = st.clock
	st.cur = f
	lu.bind(f.fx)
}

// claim attaches the set the next refactorization writes into and takes it
// out of the findable sets, its content being about to go. In order of
// preference: the set in hand when no request can be answered from it (an
// unkeyed store's, or one out of a full factorization), the LU's own arrays
// when nothing is in hand, a new set while the bound of limit bytes has room
// (sets on one pivot sequence are all of one size), and the least recently
// used set otherwise.
func (st *factorStore) claim(lu *LU, limit int) {
	f := st.cur
	switch {
	case f != nil && f.values == nil:
	case f == nil:
		f = &factors{fx: lu.fx}
	case (len(st.sets)+1)*f.bytes() <= limit:
		f = &factors{fx: make([]float64, len(lu.fx))}
	default:
		for _, g := range st.sets {
			if g.used < f.used {
				f = g
			}
		}
	}
	for i, g := range st.sets {
		if g == f {
			last := len(st.sets) - 1
			st.sets[i], st.keys[i] = st.sets[last], st.keys[last]
			st.sets[last] = nil
			st.sets, st.keys = st.sets[:last], st.keys[:last]
			break
		}
	}
	for _, k := range f.aliases {
		delete(st.byAlias, k)
	}
	f.aliases = f.aliases[:0]
	st.attach(lu, f)
}

// admit records that the set in hand now holds Refactor's output for values
// and makes it findable under h.
func (st *factorStore) admit(h uint64, values []float64) {
	f := st.cur
	f.values = append(f.values[:0], values...)
	st.sets, st.keys = append(st.sets, f), append(st.keys, h)
}

// hashValues hashes the IEEE bits of v. Four independent multiply–xor lanes
// keep the loop off one multiplier's latency chain: hashing a mesh matrix
// costs about a hundredth of refactorizing it.
func hashValues(v []float64) uint64 {
	const prime = 0x9E3779B97F4A7C15
	h0, h1, h2, h3 := uint64(1), uint64(2), uint64(3), uint64(4)
	for len(v) >= 4 {
		h0 = (h0 ^ math.Float64bits(v[0])) * prime
		h1 = (h1 ^ math.Float64bits(v[1])) * prime
		h2 = (h2 ^ math.Float64bits(v[2])) * prime
		h3 = (h3 ^ math.Float64bits(v[3])) * prime
		v = v[4:]
	}
	for _, x := range v {
		h0 = (h0 ^ math.Float64bits(x)) * prime
	}
	h := (h0^h1>>29)*prime ^ (h2^h3>>31)*prime
	return h ^ h>>32
}
