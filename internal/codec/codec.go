// Package codec is the little-endian byte codec of checkpoint files; wire
// row frames are written with its Enc. A decoder validates every length
// against the bytes remaining before it allocates, so a corrupted or hostile
// length can neither over-allocate nor read out of bounds.
package codec

import (
	"encoding/binary"
	"math"
)

// Enc is an append-only little-endian writer.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)    { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}
func (e *Enc) Floats(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}
func (e *Enc) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
	}
}
func (e *Enc) Int64s(v []int64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(uint64(x))
	}
}

// Dec is a bounds-checked little-endian reader. The first failure latches
// Err and turns every later read into a zero-value no-op, so decoding code
// reads straight through and checks once.
type Dec struct {
	b   []byte
	off int
	bad func(format string, args ...any) error
	Err error
}

// NewDec reads b; bad builds the error a failure latches, so each format
// keeps its own error chain.
func NewDec(b []byte, bad func(format string, args ...any) error) *Dec {
	return &Dec{b: b, bad: bad}
}

func (d *Dec) Fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = d.bad(format, args...)
	}
}

func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) Take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.Fail("truncated: need %d bytes at offset %d, have %d", n, d.off, d.Remaining())
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *Dec) U8() uint8 {
	s := d.Take(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (d *Dec) U32() uint32 {
	s := d.Take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (d *Dec) U64() uint64 {
	s := d.Take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Count reads a u32 length prefix and checks that `count × elemBytes` fits
// in the remaining bytes before the caller allocates anything.
func (d *Dec) Count(elemBytes int, what string) int {
	n := int(d.U32())
	if d.Err != nil {
		return 0
	}
	if n < 0 || elemBytes > 0 && n > d.Remaining()/elemBytes {
		d.Fail("%s: count %d exceeds remaining payload", what, n)
		return 0
	}
	return n
}

func (d *Dec) Str(what string) string {
	n := d.Count(1, what)
	if d.Err != nil {
		return ""
	}
	return string(d.Take(n))
}

func (d *Dec) Floats(what string) []float64 { return d.FloatsN(d.Count(8, what), what) }

// FloatsN reads exactly n floats with no length prefix (for runs whose
// length is implied by an earlier field).
func (d *Dec) FloatsN(n int, what string) []float64 {
	if d.Err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining()/8 {
		d.Fail("%s: %d values exceed remaining payload", what, n)
		return nil
	}
	v, s := make([]float64, n), d.Take(8*n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return v
}

func (d *Dec) Ints(what string) []int {
	n := d.Count(4, what)
	if d.Err != nil {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(d.U32())
	}
	return v
}

func (d *Dec) Int64s(what string) []int64 {
	n := d.Count(8, what)
	if d.Err != nil {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(d.U64())
	}
	return v
}
