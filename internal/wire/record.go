package wire

import (
	"encoding/binary"
	"errors"
)

// The record primitives disk and wire share. A state-log batch
// (persist.go) and a frame header (frame.go) are both hand-framed
// sequences of uvarints, zig-zag varints, length-prefixed byte strings
// and counter quadruples, written by the append helpers below and read
// back by one recReader, so both formats have one encoder and one
// hostile-input-safe decoder.

func appendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

func appendCounters(buf []byte, c counters) []byte {
	buf = binary.AppendVarint(buf, c.Created)
	buf = binary.AppendVarint(buf, c.Finished)
	buf = binary.AppendVarint(buf, c.Sent)
	return binary.AppendVarint(buf, c.Received)
}

// recReader decodes a record with a sticky error, so hostile or damaged
// bytes yield an error from its caller, never an index panic.
type recReader struct {
	b   []byte
	err error
}

var errShortRecord = errors.New("truncated record")

func (r *recReader) fail() { r.err, r.b = errShortRecord, nil }

func (r *recReader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes returns a length-prefixed byte string, aliasing the record.
func (r *recReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// count reads an element count and fails when the record cannot hold
// that many elements of at least min bytes each, so a hostile count
// cannot make its caller allocate.
func (r *recReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *recReader) counters() counters {
	return counters{Created: r.varint(), Finished: r.varint(), Sent: r.varint(), Received: r.varint()}
}
