package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"wavepipe/internal/codec"
	"wavepipe/internal/integrate"
	"wavepipe/internal/sparse"
)

// Binary layout (version 3), everything little-endian:
//
//	magic "WPCP" · u32 version · payload · u32 CRC32(IEEE, payload)
//
// The payload is a fixed field order (see Encode below) written and read
// through internal/codec: u32 length prefixes on every variable-length run,
// each validated against the bytes actually remaining before allocating, so
// a corrupted length can neither over-allocate nor read out of bounds.
// Encoding the same State twice yields identical bytes.

// Encode serializes the snapshot. The output is deterministic: the same
// State always encodes to the same bytes.
func Encode(s *State) []byte {
	e := &codec.Enc{B: make([]byte, 0, encodeSizeHint(s))}
	e.B = append(e.B, magic[:]...)
	e.U32(Version)

	payloadStart := len(e.B)

	// Fingerprint and run identity.
	e.U32(uint32(s.N))
	e.U32(uint32(s.NumStates))
	e.U32(uint32(s.NumDevices))
	e.U32(uint32(s.PatternNNZ))
	e.F64(s.TStop)
	e.U32(uint32(s.Method))

	// Engine position.
	e.F64(s.T)
	e.F64(s.H)
	e.F64(s.HUsed)
	e.Bool(s.AfterBreak)

	e.Int64s(s.Stats)

	// History window.
	e.U32(uint32(len(s.Hist)))
	for _, p := range s.Hist {
		e.F64(p.T)
		e.Floats(p.X)
		e.Floats(p.Q)
		e.Floats(p.Qdot)
	}

	// Limiting state.
	e.Floats(s.SPrev)
	e.Floats(s.SNext)

	// Recovery log.
	e.U32(uint32(len(s.Recovery)))
	for _, ev := range s.Recovery {
		e.F64(ev.T)
		e.Str(ev.Kind)
		e.Str(ev.Detail)
	}

	// Waveform.
	e.U32(uint32(len(s.WaveNames)))
	for _, n := range s.WaveNames {
		e.Str(n)
	}
	e.Ints(s.WaveIndex)
	e.U32(uint32(len(s.WaveTimes)))
	for _, t := range s.WaveTimes {
		e.F64(t)
	}
	for _, row := range s.WaveData {
		for _, v := range row {
			e.F64(v)
		}
	}

	// LU factorization.
	if s.LU == nil {
		e.U8(0)
	} else {
		e.U8(1)
		e.U32(uint32(s.LU.N))
		e.F64(s.LU.PivTol)
		e.Ints(s.LU.ColPerm)
		e.Ints(s.LU.RowPerm)
		e.Ints(s.LU.Lp)
		e.Ints(s.LU.Li)
		e.Floats(s.LU.Lx)
		e.Ints(s.LU.Up)
		e.Ints(s.LU.Ui)
		e.Floats(s.LU.Ux)
		e.Floats(s.LU.Ud)
	}

	e.U32(crc32.ChecksumIEEE(e.B[payloadStart:]))
	return e.B
}

func encodeSizeHint(s *State) int {
	n := 256 + 8*len(s.Stats)
	n += len(s.Hist) * (32 + 24*s.N)
	n += 16 * (len(s.SPrev) + len(s.SNext))
	n += len(s.WaveTimes) * 8 * (1 + len(s.WaveNames))
	if s.LU != nil {
		n += 12 * (len(s.LU.Li) + len(s.LU.Ui) + 2*s.LU.N)
	}
	return n
}

// Decode parses and validates a checkpoint. Every failure — truncation,
// corruption, a version other than Version, inconsistent internal structure —
// returns a typed faults.SimError wrapping faults.ErrBadCheckpoint; Decode
// never panics on hostile input.
func Decode(data []byte) (*State, error) {
	const headerLen = 8 // magic + version
	if len(data) < headerLen+4 {
		return nil, Bad("file too short: %d bytes", len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, Bad("bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != Version {
		return nil, Bad("unsupported version %d (have %d)", version, Version)
	}
	payload := data[headerLen : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, Bad("CRC mismatch: file %08x, computed %08x", wantCRC, got)
	}

	d := codec.NewDec(payload, Bad)
	s := &State{}

	s.N = int(d.U32())
	s.NumStates = int(d.U32())
	s.NumDevices = int(d.U32())
	s.PatternNNZ = int(d.U32())
	s.TStop = d.F64()
	s.Method = int(d.U32())

	s.T = d.F64()
	s.H = d.F64()
	s.HUsed = d.F64()
	s.AfterBreak = d.Bool()

	s.Stats = d.Int64s("counters")
	if d.Err == nil && len(s.Stats) != Counters {
		d.Fail("%d counters, want %d", len(s.Stats), Counters)
	}

	// History: every vector must match the fingerprint dimension, and the
	// window must be ascending — integrate.RestoreHistory re-checks, but
	// failing here attributes the error to the file, not the resume.
	nHist := d.Count(8+3*12, "history")
	if d.Err == nil && nHist > 4*integrate.HistoryDepth {
		d.Fail("history: %d points exceeds window bound", nHist)
	}
	for i := 0; i < nHist && d.Err == nil; i++ {
		p := &integrate.Point{T: d.F64()}
		p.X = d.Floats("history X")
		p.Q = d.Floats("history Q")
		p.Qdot = d.Floats("history Qdot")
		if d.Err == nil && (len(p.X) != s.N || len(p.Q) != s.N || len(p.Qdot) != s.N) {
			d.Fail("history point %d: vector length does not match %d unknowns", i, s.N)
		}
		if d.Err == nil && i > 0 && p.T <= s.Hist[i-1].T {
			d.Fail("history point %d: times not ascending", i)
		}
		s.Hist = append(s.Hist, p)
	}

	s.SPrev = d.Floats("limiting state SPrev")
	s.SNext = d.Floats("limiting state SNext")
	if d.Err == nil && (len(s.SPrev) != s.NumStates || len(s.SNext) != s.NumStates) {
		d.Fail("limiting state length does not match %d slots", s.NumStates)
	}

	nRec := d.Count(16, "recovery log")
	for i := 0; i < nRec && d.Err == nil; i++ {
		ev := RecoveryEvent{T: d.F64()}
		ev.Kind = d.Str("recovery kind")
		ev.Detail = d.Str("recovery detail")
		s.Recovery = append(s.Recovery, ev)
	}

	nSig := d.Count(4, "waveform signals")
	for i := 0; i < nSig && d.Err == nil; i++ {
		s.WaveNames = append(s.WaveNames, d.Str("signal name"))
	}
	s.WaveIndex = d.Ints("waveform index")
	if d.Err == nil && len(s.WaveIndex) != nSig {
		d.Fail("waveform: %d indices for %d signals", len(s.WaveIndex), nSig)
	}
	if d.Err == nil {
		for _, idx := range s.WaveIndex {
			if idx < 0 || idx >= s.N {
				d.Fail("waveform: signal index %d out of range", idx)
				break
			}
		}
	}
	nSamp := d.Count(8, "waveform samples")
	s.WaveTimes = d.FloatsN(nSamp, "waveform times")
	if d.Err == nil {
		for k := 1; k < nSamp; k++ {
			if s.WaveTimes[k] <= s.WaveTimes[k-1] {
				d.Fail("waveform: times not ascending at sample %d", k)
				break
			}
		}
	}
	for k := 0; k < nSamp && d.Err == nil; k++ {
		s.WaveData = append(s.WaveData, d.FloatsN(nSig, "waveform row"))
	}

	if d.Bool() {
		lu := &sparse.LUState{}
		lu.N = int(d.U32())
		lu.PivTol = d.F64()
		lu.ColPerm = d.Ints("LU column perm")
		lu.RowPerm = d.Ints("LU row perm")
		lu.Lp = d.Ints("LU Lp")
		lu.Li = d.Ints("LU Li")
		lu.Lx = d.Floats("LU Lx")
		lu.Up = d.Ints("LU Up")
		lu.Ui = d.Ints("LU Ui")
		lu.Ux = d.Floats("LU Ux")
		lu.Ud = d.Floats("LU Ud")
		if d.Err == nil {
			if lu.N != s.N {
				d.Fail("LU dimension %d does not match %d unknowns", lu.N, s.N)
			} else if err := lu.Validate(); err != nil {
				d.Fail("LU state: %v", err)
			}
		}
		s.LU = lu
	}

	if d.Err != nil {
		return nil, d.Err
	}
	if d.Remaining() != 0 {
		return nil, Bad("%d trailing bytes after payload", d.Remaining())
	}
	return s, nil
}

// save persists the snapshot atomically: encode, write to a temporary file
// in the same directory, rename over path. The write survives process death
// at any instant, kill -9 included (the page cache outlives the process), and
// leaves either the previous checkpoint or the new one, never a torn file —
// the cheap mode periodic snapshots use on the hot path. With durable set it
// also fsyncs the file and the directory, so the snapshot survives a machine
// crash or power loss as well.
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
