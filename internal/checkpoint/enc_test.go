package checkpoint

import "encoding/binary"

// enc is the bare little-endian writer encodeVersion1 lays a Version 1 file
// out with, independent of the codec Encode uses.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) boolByte(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
