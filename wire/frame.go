package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"wavepipe"
	"wavepipe/internal/codec"
)

// FrameContentType is the media type a request names in its Accept header to
// receive GET /result and /stream rows as little-endian float64 frames.
const FrameContentType = "application/x-wavepipe-frame"

// maxStreamFrame bounds one frame: the server's 64 MiB body bound.
const maxStreamFrame = 64 << 20

func badFrame(format string, args ...any) error {
	return fmt.Errorf("wire: frame: "+format, args...)
}

// AppendStreamFrame appends to b the frame u32 n · n × (t, values…) f64
// holding pts, each with the stream header's number of values.
func AppendStreamFrame(b []byte, pts []wavepipe.StreamPoint) []byte {
	e := &codec.Enc{B: b}
	e.U32(uint32(len(pts)))
	for _, p := range pts {
		e.F64(p.T)
		for _, v := range p.Values {
			e.F64(v)
		}
	}
	return e.B
}

// StreamFrameRows is the most rows of cols values one frame may hold.
func StreamFrameRows(cols int) int { return maxStreamFrame / (8 * (cols + 1)) }

// ReadStreamFrame reads the next frame of rows of cols values: io.EOF when
// br ends at a frame boundary, io.ErrUnexpectedEOF inside a frame, an error
// for a frame over 64 MiB before anything is allocated. The frame's rows
// slice one []float64, decoded straight out of br's buffer.
func ReadStreamFrame(br *bufio.Reader, cols int) ([]wavepipe.StreamPoint, error) {
	prefix, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n, width := int(binary.LittleEndian.Uint32(prefix)), cols+1
	if cols < 0 || n > StreamFrameRows(cols) {
		return nil, badFrame("%d rows of %d values exceed %d bytes", n, width, maxStreamFrame)
	}
	_, _ = br.Discard(4)
	vals := make([]float64, n*width)
	for i := 0; i < len(vals); {
		k := min(8*(len(vals)-i), br.Size()&^7)
		b, err := br.Peek(k)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		for j := 0; j < k; j += 8 {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[j:]))
			i++
		}
		_, _ = br.Discard(k)
	}
	pts := make([]wavepipe.StreamPoint, n)
	for i := range pts {
		row := vals[i*width : (i+1)*width : (i+1)*width]
		pts[i] = wavepipe.StreamPoint{T: row[0], Values: row[1:]}
	}
	return pts, nil
}

// WriteResultFrame writes r framed: its head, r with Times and Data nil, as
// one JSON line, then its rows as stream frames. The head keeps every other
// field's one JSON definition, unknown-field check and version check. r has
// the shape ToResult checks: a row of len(Signals) values per time.
func WriteResultFrame(w io.Writer, r *Result) error {
	head := *r
	head.Times, head.Data = nil, nil
	if err := Encode(w, &head); err != nil {
		return err
	}
	pts := make([]wavepipe.StreamPoint, len(r.Times))
	for k, t := range r.Times {
		pts[k] = wavepipe.StreamPoint{T: t, Values: r.Data[k]}
	}
	step := StreamFrameRows(len(r.Signals))
	var b []byte
	for len(pts) > 0 {
		n := min(step, len(pts))
		b = AppendStreamFrame(b[:0], pts[:n])
		if _, err := w.Write(b); err != nil {
			return err
		}
		pts = pts[n:]
	}
	return nil
}

// ReadResultFrame reads what WriteResultFrame wrote: the head line, checked
// as DecodeResult checks a document, then frames of len(Signals) values a
// row up to the end of br, which must fall on a frame boundary.
func ReadResultFrame(br *bufio.Reader) (*Result, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, badFrame("head: %v", err)
	}
	r, err := DecodeResult(bytes.NewReader(line))
	if err != nil {
		return nil, err
	}
	if r.Times != nil || r.Data != nil {
		return nil, badFrame("head carries rows")
	}
	for {
		pts, err := ReadStreamFrame(br, len(r.Signals))
		if err == io.EOF {
			return r, nil
		}
		if err != nil {
			return nil, err
		}
		r.Times, r.Data = slices.Grow(r.Times, len(pts)), slices.Grow(r.Data, len(pts))
		for _, p := range pts {
			r.Times, r.Data = append(r.Times, p.T), append(r.Data, p.Values)
		}
	}
}
