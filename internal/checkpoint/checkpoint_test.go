package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/sparse"
	"wavepipe/internal/trace"
)

// testLU factorizes a small nonsingular matrix so tests have a real,
// Validate-passing LUState to round-trip.
func testLU(t *testing.T) *sparse.LUState {
	t.Helper()
	b := sparse.NewBuilder(3)
	slots := [][3]int{ // row, col, value index into vals
		{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 3}, {2, 2, 4}, {1, 2, 5},
	}
	for _, s := range slots {
		b.Reserve(s[0], s[1])
	}
	m := b.Compile()
	vals := []float64{4, 1, 1, 3, 5, 0.5}
	for i, v := range vals {
		m.Add(m.SlotAt(slots[i][0], slots[i][1]), v)
	}
	s := sparse.NewSolver(m, sparse.OrderNatural)
	if err := s.Factorize(); err != nil {
		t.Fatalf("factorize: %v", err)
	}
	st := s.FactorState()
	if st == nil {
		t.Fatal("nil factor state after Factorize")
	}
	return st
}

// testState builds a fully populated snapshot (N=3, two signals, a real LU).
func testState(t *testing.T) *State {
	t.Helper()
	return &State{
		N: 3, NumStates: 2, NumDevices: 4, PatternNNZ: 6,
		TStop: 1e-6, Method: 2,
		T: 3e-7, H: 1e-8, HUsed: 0.8e-8, AfterBreak: true, Warmup: 2,
		Hist: []*integrate.Point{
			{T: 1e-7, X: []float64{1, 2, 3}, Q: []float64{0.1, 0.2, 0.3}, Qdot: []float64{-1, -2, -3}},
			{T: 2e-7, X: []float64{1.5, 2.5, 3.5}, Q: []float64{0.15, 0.25, 0.35}, Qdot: []float64{-1.5, -2.5, -3.5}},
			{T: 3e-7, X: []float64{1.7, 2.7, 3.7}, Q: []float64{0.17, 0.27, 0.37}, Qdot: []float64{-1.7, -2.7, -3.7}},
		},
		SPrev: []float64{0.6, 0.7},
		SNext: []float64{0.61, 0.71},
		LU:    testLU(t),
		Stats: testCounters(),
		Recovery: []RecoveryEvent{
			{T: 1.5e-7, Kind: "damping", Detail: "damping 0.05"},
		},
		WaveNames: []string{"out", "in"},
		WaveIndex: []int{2, 0},
		WaveTimes: []float64{1e-7, 2e-7, 3e-7},
		WaveData:  [][]float64{{3, 1}, {3.5, 1.5}, {3.7, 1.7}},
	}
}

// testCounters is a counter vector with a distinct value in every slot.
func testCounters() []int64 {
	v := make([]int64, Counters)
	for i := range v {
		v[i] = int64(3*i + 1)
	}
	return v
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testState(t)
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n have %+v\n want %+v", got, s)
	}
	// Deterministic: same state, same bytes.
	if string(Encode(s)) != string(data) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestEncodeDecodeNoLU(t *testing.T) {
	s := testState(t)
	s.LU = nil
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.LU != nil {
		t.Fatal("decoded LU should be nil")
	}
}

// wantBadCheckpoint asserts the full typed chain: a *faults.SimError in
// phase "checkpoint" wrapping faults.ErrBadCheckpoint.
func wantBadCheckpoint(t *testing.T, err error, ctxt string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected error, got nil", ctxt)
	}
	if !errors.Is(err, faults.ErrBadCheckpoint) {
		t.Fatalf("%s: error %v does not wrap ErrBadCheckpoint", ctxt, err)
	}
	var se *faults.SimError
	if !errors.As(err, &se) {
		t.Fatalf("%s: error %v is not a SimError", ctxt, err)
	}
	if se.Phase != "checkpoint" {
		t.Fatalf("%s: phase %q, want checkpoint", ctxt, se.Phase)
	}
}

func TestDecodeTruncated(t *testing.T) {
	data := Encode(testState(t))
	// Every truncation length must fail loudly, never panic.
	for _, n := range []int{0, 1, 4, 7, 8, 11, 12, 40, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else {
			wantBadCheckpoint(t, err, "truncated")
		}
	}
}

func TestDecodeCorrupted(t *testing.T) {
	data := Encode(testState(t))
	// Flip one bit in every region of the file: header, payload, CRC.
	for _, off := range []int{0, 5, 9, 20, 100, len(data) / 2, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("corruption at offset %d decoded successfully", off)
		} else {
			wantBadCheckpoint(t, err, "corrupted")
		}
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	data := Encode(testState(t))
	mut := append([]byte(nil), data...)
	mut[4] = 99
	_, err := Decode(mut)
	wantBadCheckpoint(t, err, "wrong version")
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %v does not mention the version", err)
	}
}

// encodeVersion1 lays s out as format Version 1 did: a scheme slot after the
// method, then the retired device-bypass generation, twenty stats slots and
// the pipeline-serialized flag where Version 2 has its counter vector; the
// rest of the payload is laid out as in Version 2.
func encodeVersion1(s *State) []byte {
	const head = 16 + 8 + 4 // fingerprint, TStop, method
	const position = 3*8 + 1 + 4
	v2 := Encode(s)
	e := &enc{b: append([]byte(nil), v2[:8+head]...)}
	binary.LittleEndian.PutUint32(e.b[4:], 1)
	e.u32(0) // scheme
	e.b = append(e.b, v2[8+head:8+head+position]...)
	for range 1 + 20 {
		e.u64(0)
	}
	e.boolByte(false)
	e.b = append(e.b, v2[8+head+position+4+8*Counters:len(v2)-4]...)
	e.u32(crc32.ChecksumIEEE(e.b[8:]))
	return e.b
}

// Version 2 drops Version 1's retired slots and its scheme slot, so a Version
// 1 file — intact, its CRC right — is refused, not read.
func TestDecodeRefusesVersion1(t *testing.T) {
	_, err := Decode(encodeVersion1(testState(t)))
	wantBadCheckpoint(t, err, "version 1")
	if !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("error %v does not name version 1", err)
	}
}

// The counter vector is Counters long; a file carrying one counter more or
// less than that describes a different Stats and is refused, and so is such
// a state in memory.
func TestWrongCounterCountRefused(t *testing.T) {
	for _, n := range []int{0, Counters - 1, Counters + 1} {
		s := testState(t)
		s.Stats = make([]int64, n)
		_, err := Decode(Encode(s))
		wantBadCheckpoint(t, err, "counter vector")
		wantBadCheckpoint(t, s.Matches(3, 2, 4, 6, 1e-6, 2), "counter vector in memory")
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	data := Encode(testState(t))
	_, err := Decode(append(append([]byte(nil), data...), 0, 0, 0))
	wantBadCheckpoint(t, err, "trailing bytes")
}

func TestMatches(t *testing.T) {
	s := testState(t)
	if err := s.Matches(3, 2, 4, 6, 1e-6, 2); err != nil {
		t.Fatalf("self-match failed: %v", err)
	}
	cases := []struct {
		name           string
		n, ns, nd, nnz int
		tstop          float64
		method         int
	}{
		{"unknowns", 4, 2, 4, 6, 1e-6, 2},
		{"states", 3, 3, 4, 6, 1e-6, 2},
		{"devices", 3, 2, 5, 6, 1e-6, 2},
		{"pattern", 3, 2, 4, 7, 1e-6, 2},
		{"tstop", 3, 2, 4, 6, 2e-6, 2},
		{"method", 3, 2, 4, 6, 1e-6, 1},
	}
	for _, c := range cases {
		err := s.Matches(c.n, c.ns, c.nd, c.nnz, c.tstop, c.method)
		wantBadCheckpoint(t, err, c.name)
	}
	empty := testState(t)
	empty.Hist = nil
	wantBadCheckpoint(t, empty.Matches(3, 2, 4, 6, 1e-6, 2), "empty history")
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wpcp")
	s := testState(t)
	if err := save(path, s, true); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("save/load round trip mismatch")
	}
	// Overwrite with a later snapshot; no temp litter may remain.
	s.T = 4e-7
	s.Hist[2].T = 4e-7 // keep internal consistency
	if err := save(path, s, false); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.wpcp" {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	got, err = Load(path)
	if err != nil || got.T != 4e-7 {
		t.Fatalf("reloaded T=%v err=%v", got.T, err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.wpcp")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// savedAgo stands in for a persisted save that took cost and ended ago
// before now: what save() records for the cadence.
func savedAgo(c *Controller, cost, ago time.Duration) {
	c.sinceSave, c.lastSave, c.saveCost = 0, time.Now().Add(-ago), cost
}

// acceptsUntilDue counts accepted points until a periodic save is due;
// limit+1 when none is within limit.
func acceptsUntilDue(c *Controller, limit int) int {
	for i := 1; i <= limit; i++ {
		if c.NoteAccept() {
			return i
		}
	}
	return limit + 1
}

// TestControllerNoteAcceptCadence: with saves that take no time the point
// floor alone sets the cadence, counted from each save.
func TestControllerNoteAcceptCadence(t *testing.T) {
	c := NewController(Config{Path: "x"})
	c.Start()
	defer c.Stop()
	for k := 0; k < 3; k++ {
		if n := acceptsUntilDue(c, 4*DefaultEvery); n != DefaultEvery {
			t.Fatalf("save %d due after %d points, want %d", k, n, DefaultEvery)
		}
		savedAgo(c, 0, 0)
	}
}

// TestControllerSaveCadenceScalesWithSaveCost: past the point floor a
// periodic save is due only once saveCostRatio times the last save's
// duration has passed since it ended, so slower saves space out further. A
// path-less guard never finds a save due and its saves read no clock for
// the cadence.
func TestControllerSaveCadenceScalesWithSaveCost(t *testing.T) {
	const limit = 10 * DefaultEvery
	c := NewController(Config{Path: filepath.Join(t.TempDir(), "c.wpcp")})
	savedAgo(c, time.Millisecond, time.Second)
	if n := acceptsUntilDue(c, limit); n != DefaultEvery {
		t.Fatalf("1 s after a 1 ms save: due after %d points, want %d", n, DefaultEvery)
	}
	savedAgo(c, time.Second, time.Second)
	if n := acceptsUntilDue(c, limit); n <= limit {
		t.Fatalf("1 s after a 1 s save: due after %d points, want none", n)
	}
	savedAgo(c, time.Second, 50*time.Second)
	if n := acceptsUntilDue(c, limit); n != DefaultEvery {
		t.Fatalf("50 s after a 1 s save: due after %d points, want %d", n, DefaultEvery)
	}
	if err := c.Save(testState(t)); err != nil {
		t.Fatal(err)
	}
	if c.sinceSave != 0 || c.saveCost <= 0 || time.Since(c.lastSave) > time.Minute {
		t.Fatalf("a persisted save recorded sinceSave=%d saveCost=%v lastSave=%v", c.sinceSave, c.saveCost, c.lastSave)
	}

	p := NewController(Config{})
	savedAgo(p, 0, time.Hour)
	if n := acceptsUntilDue(p, limit); n <= limit {
		t.Fatalf("path-less guard: due after %d points", n)
	}
	p.lastSave = time.Time{}
	if err := p.Save(testState(t)); err != nil {
		t.Fatal(err)
	}
	if p.saveCost != 0 || !p.lastSave.IsZero() {
		t.Fatalf("path-less save timed itself for the cadence: saveCost=%v lastSave=%v", p.saveCost, p.lastSave)
	}
}

// TestControllerDeadlineOnlyKeepsNoHeartbeat: a deadline-only run bounds its
// time through its context, so its controller has no StallFactor. Nothing
// then reads the heartbeat: NoteAccept keeps none and no watchdog starts,
// yet the periodic-save cadence is still reported.
func TestControllerDeadlineOnlyKeepsNoHeartbeat(t *testing.T) {
	c := NewController(Config{Path: "x"})
	c.Start()
	defer c.Stop()
	if n := acceptsUntilDue(c, 4*DefaultEvery); n != DefaultEvery {
		t.Fatalf("due after %d points, want %d", n, DefaultEvery)
	}
	if b, l, e := c.beats.Load(), c.lastBeat.Load(), c.emaBeat.Load(); b != 0 || l != 0 || e != 0 {
		t.Fatalf("heartbeat kept without a watchdog: beats=%d lastBeat=%d emaBeat=%d", b, l, e)
	}
	if c.quit != nil {
		t.Fatal("a watchdog started without StallFactor")
	}
}

func TestControllerNoPathNeverDue(t *testing.T) {
	c := NewController(Config{})
	c.Start()
	defer c.Stop()
	for i := 0; i < 600; i++ {
		if c.NoteAccept() {
			t.Fatal("pathless controller reported a periodic save due")
		}
	}
}

func TestControllerNilSafe(t *testing.T) {
	var c *Controller
	c.Start()
	c.Stop()
	if c.Active() || c.NoteAccept() || c.Err() != nil || c.AbortFlag() != nil {
		t.Fatal("nil controller not inert")
	}
	if err := c.Save(&State{}); err != nil {
		t.Fatalf("nil save: %v", err)
	}
	if c.Retained() != nil || c.LastSaveErr() != nil || c.Saves() != 0 {
		t.Fatal("nil controller reports state")
	}
}

func TestControllerStall(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewController(Config{
		StallFactor: 2, StallFloor: 20 * time.Millisecond, Poll: 2 * time.Millisecond,
	})
	c.Start()
	// Two quick accepts establish a tiny EWMA; then go silent.
	c.NoteAccept()
	time.Sleep(2 * time.Millisecond)
	c.NoteAccept()
	deadline := time.Now().Add(2 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stall watchdog never tripped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(c.Err(), faults.ErrStalled) {
		t.Fatalf("abort cause %v, want ErrStalled", c.Err())
	}
	c.Stop()
	c.Stop() // idempotent
	waitGoroutines(t, before)
}

func TestControllerStallNeedsTwoBeats(t *testing.T) {
	c := NewController(Config{
		StallFactor: 2, StallFloor: 5 * time.Millisecond, Poll: 2 * time.Millisecond,
	})
	c.Start()
	defer c.Stop()
	c.NoteAccept() // one beat only: no EWMA yet, watchdog must stay quiet
	time.Sleep(60 * time.Millisecond)
	if c.Err() != nil {
		t.Fatalf("watchdog tripped on a single beat: %v", c.Err())
	}
}

func TestControllerSaveRetainsAndPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wpcp")
	c := NewController(Config{Path: path})
	rec := trace.NewRecorder(0)
	c.SetTracer(trace.New(rec, 0))
	c.Start()
	defer c.Stop()
	s := testState(t)
	if err := c.Save(s); err != nil {
		t.Fatalf("save: %v", err)
	}
	if c.Retained() != s {
		t.Fatal("snapshot not retained")
	}
	if c.Saves() != 1 || c.LastSaveErr() != nil {
		t.Fatalf("saves=%d err=%v", c.Saves(), c.LastSaveErr())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	evs := rec.Events()
	found := false
	for _, e := range evs {
		if e.Kind == trace.KindCheckpoint {
			found = true
		}
	}
	if !found {
		t.Fatal("no KindCheckpoint trace event emitted")
	}
}

func TestControllerSaveErrorLatched(t *testing.T) {
	// An unwritable path: periodic saves fail but still retain the snapshot.
	c := NewController(Config{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "c.wpcp")})
	c.Start()
	defer c.Stop()
	s := testState(t)
	if err := c.Save(s); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if c.Retained() != s {
		t.Fatal("failed save dropped the retained snapshot")
	}
	if c.LastSaveErr() == nil || c.Saves() != 0 {
		t.Fatalf("latched err=%v saves=%d", c.LastSaveErr(), c.Saves())
	}
}

func TestControllerClampsStallFactor(t *testing.T) {
	c := NewController(Config{StallFactor: 0.1})
	if c.cfg.StallFactor != minStallFactor {
		t.Fatalf("StallFactor %g, want clamped to %g", c.cfg.StallFactor, minStallFactor)
	}
}

// waitGoroutines polls until the goroutine count returns to at most the
// baseline (other tests' leftovers can only make the baseline generous).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
