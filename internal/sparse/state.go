package sparse

import (
	"errors"
	"fmt"
	"math"
)

// LUState is a serializable snapshot of a completed LU factorization: the
// pivot sequence (row/column permutations), the factor patterns, and the
// numeric values. Checkpoints carry it so that a resumed run's first
// factorization takes the same Refactor path — eliminating along the stored
// pattern in the stored pivot order — as the uninterrupted run would have,
// which is what makes serial resume bit-identical: a fresh Factorize could
// legally choose a different pivot sequence and therefore a different
// floating-point summation order.
type LUState struct {
	N       int
	PivTol  float64
	ColPerm []int // position k -> original column
	RowPerm []int // position k -> original row
	// L, strict lower triangle by pivot column (row indices in pivot space).
	Lp []int
	Li []int
	Lx []float64
	// U, strict upper triangle by pivot column, plus its diagonal.
	Up []int
	Ui []int
	Ux []float64
	Ud []float64
}

// widen and narrow convert between the factorization's int32 index arrays
// and the snapshot's []int ones: the checkpoint format predates the int32
// layout and stays as it was.
func widen(a []int32) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[i] = int(v)
	}
	return out
}

func narrow(a []int) []int32 {
	out := make([]int32, len(a))
	for i, v := range a {
		out[i] = int32(v)
	}
	return out
}

// State deep-copies the factorization into a serializable snapshot.
func (f *LU) State() *LUState {
	st := &LUState{
		N:       f.n,
		PivTol:  f.pivTol,
		ColPerm: append([]int(nil), f.colPerm...),
		RowPerm: append([]int(nil), f.rowPerm...),
		Lp:      widen(f.lp),
		Li:      widen(f.li),
		Lx:      append([]float64(nil), f.lx...),
		Up:      widen(f.up),
		Ui:      widen(f.ui),
		Ux:      append([]float64(nil), f.ux...),
		Ud:      append([]float64(nil), f.ud...),
	}
	return st
}

// Validate checks the snapshot's internal consistency — shapes, monotone
// column pointers, in-range indices, permutation bijectivity — so a corrupted
// checkpoint can never panic the solver with out-of-range accesses.
func (st *LUState) Validate() error {
	n := st.N
	if n <= 0 {
		return errors.New("lu state: non-positive dimension")
	}
	if n >= math.MaxInt32 || len(st.Li) > math.MaxInt32 || len(st.Ui) > math.MaxInt32 {
		return errors.New("lu state: factor too large for 32-bit indices")
	}
	if st.PivTol <= 0 || st.PivTol > 1 {
		return fmt.Errorf("lu state: pivot tolerance %g out of (0,1]", st.PivTol)
	}
	if len(st.ColPerm) != n || len(st.RowPerm) != n || len(st.Ud) != n {
		return errors.New("lu state: permutation/diagonal length mismatch")
	}
	if err := validatePerm(st.ColPerm, n); err != nil {
		return fmt.Errorf("lu state: column perm: %w", err)
	}
	if err := validatePerm(st.RowPerm, n); err != nil {
		return fmt.Errorf("lu state: row perm: %w", err)
	}
	if err := validateFactor(st.Lp, st.Li, len(st.Lx), n); err != nil {
		return fmt.Errorf("lu state: L: %w", err)
	}
	if err := validateFactor(st.Up, st.Ui, len(st.Ux), n); err != nil {
		return fmt.Errorf("lu state: U: %w", err)
	}
	return nil
}

func validatePerm(p []int, n int) error {
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return errors.New("not a permutation")
		}
		seen[v] = true
	}
	return nil
}

func validateFactor(cp, idx []int, nx, n int) error {
	if len(cp) != n+1 {
		return errors.New("column pointer length mismatch")
	}
	if cp[0] != 0 || cp[n] != len(idx) || len(idx) != nx {
		return errors.New("column pointer/value bounds mismatch")
	}
	for k := 0; k < n; k++ {
		if cp[k] > cp[k+1] {
			return errors.New("non-monotone column pointers")
		}
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			return errors.New("index out of range")
		}
	}
	return nil
}

// RestoreLU rebuilds a ready-to-use factorization from a snapshot. The
// returned LU refactorizes and solves exactly as the snapshotted one did;
// lazily-built scratch (the Refactor/Solve workspaces, the scatter map) is
// reconstructed on first use.
func RestoreLU(st *LUState) (*LU, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	f := &LU{
		n:       st.N,
		pivTol:  st.PivTol,
		colPerm: append([]int(nil), st.ColPerm...),
		rowPerm: append([]int(nil), st.RowPerm...),
		rowInv:  make([]int, st.N),
		lp:      narrow(st.Lp),
		li:      narrow(st.Li),
		lx:      append([]float64(nil), st.Lx...),
		up:      narrow(st.Up),
		ui:      narrow(st.Ui),
		ux:      append([]float64(nil), st.Ux...),
		ud:      append([]float64(nil), st.Ud...),
	}
	for k, r := range f.rowPerm {
		f.rowInv[r] = k
	}
	return f, nil
}

// FactorState snapshots the solver's current factorization, or nil when the
// solver has not factorized yet.
func (s *Solver) FactorState() *LUState {
	if s.lu == nil {
		return nil
	}
	return s.lu.State()
}

// RestoreFactor installs a snapshotted factorization so the next Factorize
// call takes the Refactor path against the restored pivot sequence. The
// snapshot must match the solver's matrix dimension. The factor store is
// flushed, not restored — its sets followed the old pivots — so the first
// post-restore Factorize always refactorizes.
func (s *Solver) RestoreFactor(st *LUState) error {
	if st == nil {
		return errors.New("lu state: nil snapshot")
	}
	if st.N != s.M.N() {
		return fmt.Errorf("lu state: dimension %d does not match matrix %d", st.N, s.M.N())
	}
	lu, err := RestoreLU(st)
	if err != nil {
		return err
	}
	s.lu = lu
	s.store.flush()
	s.LastReused = false
	return nil
}
