package sparse

import "math"

// factors is one numeric factorization on a Solver's symbolic pattern: the
// values of L and U and the matrix values they were computed from. Pattern,
// pivot sequence and scatter map stay on the LU and are shared by every set,
// so attaching a set to the LU is three slice assignments.
type factors struct {
	values     []float64 // M.Values behind lx/ux/ud
	lx, ux, ud []float64
	// refactored reports that lx/ux/ud are Refactor's output for values — the
	// only state a request may be answered from exactly. A set out of a full
	// factorization holds the same matrix to rounding but was summed in a
	// different order, and the run the answer stands in for would have
	// refactored it; such a set answers nothing and is the next one claimed.
	refactored bool
	used       uint64 // store clock when the set last answered or was written
}

func (f *factors) bytes() int {
	return 8 * (len(f.values) + len(f.lx) + len(f.ux) + len(f.ud))
}

// factorStore keeps the numeric factorizations a Solver may answer a request
// from: always the set in hand (cur, attached to the LU), and — when the
// solver's StoreBytes is positive — as many earlier Refactor outputs as fit
// in that many bytes, found by a hash of the matrix values and admitted only
// after a bit-for-bit comparison, evicted least recently used. With a zero
// bound the store is the one set in hand and nothing is ever hashed. Every
// set was computed along the LU's current pivot sequence: anything that
// changes or voids the pivots (a full factorization, RestoreFactor, a failed
// refactorization) flushes it.
type factorStore struct {
	cur  *factors
	sets []*factors // the refactored sets, cur among them when it is one
	// keys[i] is the hash of sets[i].values (zero in a store that is not
	// keyed), kept apart from the sets so that a lookup scans one contiguous
	// array instead of touching every set.
	keys  []uint64
	clock uint64
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
}

// adopt makes the LU's own arrays — fresh out of a full factorization of
// values — the set in hand. It is not refactored, so it is not findable.
func (st *factorStore) adopt(lu *LU, values []float64) {
	st.flush()
	st.cur = &factors{values: append([]float64(nil), values...), lx: lu.lx, ux: lu.ux, ud: lu.ud}
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

// attach puts f in hand: the LU's kernels read and write f's arrays from now
// on.
func (st *factorStore) attach(lu *LU, f *factors) {
	st.clock++
	f.used = st.clock
	st.cur = f
	lu.lx, lu.ux, lu.ud = f.lx, f.ux, f.ud
}

// claim attaches the set the next refactorization writes into and takes it
// out of the findable sets, its content being about to go. In order of
// preference: the set in hand when it must not survive anyway (a one-set
// store, or factors no request can be answered from), the LU's own arrays
// when nothing is in hand, a new set while the bound of limit bytes has room
// (sets on one pivot sequence are all of one size), and the least recently
// used set otherwise.
func (st *factorStore) claim(lu *LU, nvalues, limit int) {
	f := st.cur
	switch {
	case f != nil && (limit <= 0 || !f.refactored):
	case f == nil:
		f = &factors{values: make([]float64, nvalues), lx: lu.lx, ux: lu.ux, ud: lu.ud}
	case (len(st.sets)+1)*f.bytes() <= limit:
		f = &factors{
			values: make([]float64, nvalues),
			lx:     make([]float64, len(lu.lx)),
			ux:     make([]float64, len(lu.ux)),
			ud:     make([]float64, len(lu.ud)),
		}
	default:
		for _, g := range st.sets {
			if g.used < f.used {
				f = g
			}
		}
	}
	if f.refactored {
		f.refactored = false
		for i, g := range st.sets {
			if g == f {
				last := len(st.sets) - 1
				st.sets[i], st.keys[i] = st.sets[last], st.keys[last]
				st.sets[last] = nil
				st.sets, st.keys = st.sets[:last], st.keys[:last]
				break
			}
		}
	}
	st.attach(lu, f)
}

// admit records that the set in hand now holds Refactor's output for values
// and makes it findable under h.
func (st *factorStore) admit(h uint64, values []float64) {
	f := st.cur
	copy(f.values, values)
	f.refactored = true
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
