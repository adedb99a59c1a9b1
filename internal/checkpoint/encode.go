package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"wavepipe/internal/integrate"
	"wavepipe/internal/sparse"
)

// Binary layout (version 1), everything little-endian:
//
//	magic "WPCP" · u32 version · payload · u32 CRC32(IEEE, payload)
//
// The payload is a fixed field order (see Encode below) with u32 length
// prefixes on every variable-length run. Decode validates each length
// against the bytes actually remaining before allocating, so a corrupted
// length can neither over-allocate nor read out of bounds. No maps, no
// pointers, no platform-dependent widths: encoding the same State twice
// yields identical bytes.

// enc is an append-only little-endian writer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) boolByte(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) floats(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *enc) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}

// dec is a bounds-checked little-endian reader. The first failure latches
// err and turns every later read into a zero-value no-op, so decoding code
// reads straight through and checks once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = bad(format, args...)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.remaining() {
		d.fail("truncated: need %d bytes at offset %d, have %d", n, d.off, d.remaining())
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (d *dec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (d *dec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}
func (d *dec) i64() int64     { return int64(d.u64()) }
func (d *dec) f64() float64   { return math.Float64frombits(d.u64()) }
func (d *dec) boolByte() bool { return d.u8() != 0 }

// count reads a u32 length prefix and checks that `count × elemBytes` fits
// in the remaining payload before the caller allocates anything.
func (d *dec) count(elemBytes int, what string) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || elemBytes > 0 && n > d.remaining()/elemBytes {
		d.fail("%s: count %d exceeds remaining payload", what, n)
		return 0
	}
	return n
}

func (d *dec) str(what string) string {
	n := d.count(1, what)
	if d.err != nil {
		return ""
	}
	return string(d.take(n))
}

func (d *dec) floats(what string) []float64 {
	n := d.count(8, what)
	if d.err != nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

// floatsN reads exactly n floats with no length prefix (for runs whose
// length is implied by an earlier field).
func (d *dec) floatsN(n int, what string) []float64 {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.remaining()/8 {
		d.fail("%s: %d values exceed remaining payload", what, n)
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *dec) ints(what string) []int {
	n := d.count(4, what)
	if d.err != nil {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(d.u32())
	}
	return v
}

// Encode serializes the snapshot. The output is deterministic: the same
// State always encodes to the same bytes.
func Encode(s *State) []byte {
	e := &enc{b: make([]byte, 0, encodeSizeHint(s))}
	e.b = append(e.b, magic[:]...)
	e.u32(Version)

	payloadStart := len(e.b)

	// Fingerprint and run identity.
	e.u32(uint32(s.N))
	e.u32(uint32(s.NumStates))
	e.u32(uint32(s.NumDevices))
	e.u32(uint32(s.PatternNNZ))
	e.f64(s.TStop)
	e.u32(uint32(s.Method))
	e.u32(uint32(s.Scheme))

	// Engine position.
	e.f64(s.T)
	e.f64(s.H)
	e.f64(s.HUsed)
	e.boolByte(s.AfterBreak)
	e.u32(uint32(s.Warmup))
	e.u64(0) // retired: the device-bypass generation counter

	// Stats.
	for _, v := range s.Stats.fields() {
		e.i64(v)
	}
	e.boolByte(s.Stats.PipelineSerialized)

	// History window.
	e.u32(uint32(len(s.Hist)))
	for _, p := range s.Hist {
		e.f64(p.T)
		e.floats(p.X)
		e.floats(p.Q)
		e.floats(p.Qdot)
	}

	// Limiting state.
	e.floats(s.SPrev)
	e.floats(s.SNext)

	// Recovery log.
	e.u32(uint32(len(s.Recovery)))
	for _, ev := range s.Recovery {
		e.f64(ev.T)
		e.str(ev.Kind)
		e.str(ev.Detail)
	}

	// Waveform.
	e.u32(uint32(len(s.WaveNames)))
	for _, n := range s.WaveNames {
		e.str(n)
	}
	e.ints(s.WaveIndex)
	e.u32(uint32(len(s.WaveTimes)))
	for _, t := range s.WaveTimes {
		e.f64(t)
	}
	for _, row := range s.WaveData {
		for _, v := range row {
			e.f64(v)
		}
	}

	// LU factorization.
	if s.LU == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.u32(uint32(s.LU.N))
		e.f64(s.LU.PivTol)
		e.ints(s.LU.ColPerm)
		e.ints(s.LU.RowPerm)
		e.ints(s.LU.Lp)
		e.ints(s.LU.Li)
		e.floats(s.LU.Lx)
		e.ints(s.LU.Up)
		e.ints(s.LU.Ui)
		e.floats(s.LU.Ux)
		e.floats(s.LU.Ud)
	}

	e.u32(crc32.ChecksumIEEE(e.b[payloadStart:]))
	return e.b
}

func encodeSizeHint(s *State) int {
	n := 256
	n += len(s.Hist) * (32 + 24*s.N)
	n += 16 * (len(s.SPrev) + len(s.SNext))
	n += len(s.WaveTimes) * 8 * (1 + len(s.WaveNames))
	if s.LU != nil {
		n += 12 * (len(s.LU.Li) + len(s.LU.Ui) + 2*s.LU.N)
	}
	return n
}

// fields returns the int64 stats in their fixed wire order. Slots 11 and 14
// held the counters of the two retired bypass engines; format version 1 keeps
// their places, written as 0 and ignored on read, so files written before the
// retirement still decode.
func (st *Stats) fields() [20]int64 {
	return [20]int64{
		st.Points, st.Solves, st.NRIters, st.LTERejects, st.NRFailures,
		st.Discarded, st.OpIters, st.Stages, st.Recoveries, st.WorkerPanics,
		st.DegradedStages, 0, st.Refactorizations,
		st.FullFactorizations, 0, st.LinearStampHits,
		st.CriticalNanos, st.CoreBudget, st.PipelineWorkers, st.IntraWorkers,
	}
}

func (st *Stats) setFields(v [20]int64) {
	st.Points, st.Solves, st.NRIters, st.LTERejects, st.NRFailures = v[0], v[1], v[2], v[3], v[4]
	st.Discarded, st.OpIters, st.Stages, st.Recoveries, st.WorkerPanics = v[5], v[6], v[7], v[8], v[9]
	st.DegradedStages, st.Refactorizations = v[10], v[12]
	st.FullFactorizations, st.LinearStampHits = v[13], v[15]
	st.CriticalNanos, st.CoreBudget, st.PipelineWorkers, st.IntraWorkers = v[16], v[17], v[18], v[19]
}

// Decode parses and validates a checkpoint. Every failure — truncation,
// corruption, unsupported version, inconsistent internal structure — returns
// a typed faults.SimError wrapping faults.ErrBadCheckpoint; Decode never
// panics on hostile input.
func Decode(data []byte) (*State, error) {
	const headerLen = 8 // magic + version
	if len(data) < headerLen+4 {
		return nil, bad("file too short: %d bytes", len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, bad("bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != Version {
		return nil, bad("unsupported version %d (have %d)", version, Version)
	}
	payload := data[headerLen : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, bad("CRC mismatch: file %08x, computed %08x", wantCRC, got)
	}

	d := &dec{b: payload}
	s := &State{}

	s.N = int(d.u32())
	s.NumStates = int(d.u32())
	s.NumDevices = int(d.u32())
	s.PatternNNZ = int(d.u32())
	s.TStop = d.f64()
	s.Method = int(d.u32())
	s.Scheme = int(d.u32())

	s.T = d.f64()
	s.H = d.f64()
	s.HUsed = d.f64()
	s.AfterBreak = d.boolByte()
	s.Warmup = int(d.u32())
	d.u64() // retired slot, see Encode

	var sf [20]int64
	for i := range sf {
		sf[i] = d.i64()
	}
	s.Stats.setFields(sf)
	s.Stats.PipelineSerialized = d.boolByte()

	// History: every vector must match the fingerprint dimension, and the
	// window must be ascending — integrate.RestoreHistory re-checks, but
	// failing here attributes the error to the file, not the resume.
	nHist := d.count(8+3*12, "history")
	if d.err == nil && nHist > 4*integrate.HistoryDepth {
		d.fail("history: %d points exceeds window bound", nHist)
	}
	for i := 0; i < nHist && d.err == nil; i++ {
		p := &integrate.Point{T: d.f64()}
		p.X = d.floats("history X")
		p.Q = d.floats("history Q")
		p.Qdot = d.floats("history Qdot")
		if d.err == nil && (len(p.X) != s.N || len(p.Q) != s.N || len(p.Qdot) != s.N) {
			d.fail("history point %d: vector length does not match %d unknowns", i, s.N)
		}
		if d.err == nil && i > 0 && p.T <= s.Hist[i-1].T {
			d.fail("history point %d: times not ascending", i)
		}
		s.Hist = append(s.Hist, p)
	}

	s.SPrev = d.floats("limiting state SPrev")
	s.SNext = d.floats("limiting state SNext")
	if d.err == nil && (len(s.SPrev) != s.NumStates || len(s.SNext) != s.NumStates) {
		d.fail("limiting state length does not match %d slots", s.NumStates)
	}

	nRec := d.count(16, "recovery log")
	for i := 0; i < nRec && d.err == nil; i++ {
		ev := RecoveryEvent{T: d.f64()}
		ev.Kind = d.str("recovery kind")
		ev.Detail = d.str("recovery detail")
		s.Recovery = append(s.Recovery, ev)
	}

	nSig := d.count(4, "waveform signals")
	for i := 0; i < nSig && d.err == nil; i++ {
		s.WaveNames = append(s.WaveNames, d.str("signal name"))
	}
	s.WaveIndex = d.ints("waveform index")
	if d.err == nil && len(s.WaveIndex) != nSig {
		d.fail("waveform: %d indices for %d signals", len(s.WaveIndex), nSig)
	}
	if d.err == nil {
		for _, idx := range s.WaveIndex {
			if idx < 0 || idx >= s.N {
				d.fail("waveform: signal index %d out of range", idx)
				break
			}
		}
	}
	nSamp := d.count(8, "waveform samples")
	s.WaveTimes = d.floatsN(nSamp, "waveform times")
	if d.err == nil {
		for k := 1; k < nSamp; k++ {
			if s.WaveTimes[k] <= s.WaveTimes[k-1] {
				d.fail("waveform: times not ascending at sample %d", k)
				break
			}
		}
	}
	for k := 0; k < nSamp && d.err == nil; k++ {
		s.WaveData = append(s.WaveData, d.floatsN(nSig, "waveform row"))
	}

	if d.boolByte() {
		lu := &sparse.LUState{}
		lu.N = int(d.u32())
		lu.PivTol = d.f64()
		lu.ColPerm = d.ints("LU column perm")
		lu.RowPerm = d.ints("LU row perm")
		lu.Lp = d.ints("LU Lp")
		lu.Li = d.ints("LU Li")
		lu.Lx = d.floats("LU Lx")
		lu.Up = d.ints("LU Up")
		lu.Ui = d.ints("LU Ui")
		lu.Ux = d.floats("LU Ux")
		lu.Ud = d.floats("LU Ud")
		if d.err == nil {
			if lu.N != s.N {
				d.fail("LU dimension %d does not match %d unknowns", lu.N, s.N)
			} else if err := lu.Validate(); err != nil {
				d.fail("LU state: %v", err)
			}
		}
		s.LU = lu
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, bad("%d trailing bytes after payload", d.remaining())
	}
	return s, nil
}

// Save atomically and durably persists the snapshot: encode, write to a
// temporary file in the same directory, fsync, rename over path, fsync the
// directory. A crash — including kill -9 or power loss — at any moment
// leaves either the previous checkpoint or the new one, never a torn file.
func Save(path string, s *State) error {
	return save(path, s, true)
}

// save writes the snapshot via the write-temp-then-rename dance. With
// durable set it also fsyncs the file and directory, surviving a machine
// crash. Without it the write is still atomic and survives process death at
// any instant (the page cache outlives the process; only an OS crash can
// lose it) — the cheap mode periodic snapshots use on the hot path.
func save(path string, s *State, durable bool) error {
	data := Encode(s)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		cleanup()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			_ = tmp.Close()
			cleanup()
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if durable {
		// Best-effort directory sync so the rename itself is durable.
		if df, err := os.Open(dir); err == nil {
			_ = df.Sync()
			_ = df.Close()
		}
	}
	return nil
}

// Load reads and decodes a checkpoint file. Decode failures surface the
// typed faults.ErrBadCheckpoint chain.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
}
