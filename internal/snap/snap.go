// Package snap provides the deterministic binary codec behind engine
// snapshot/restore (DESIGN.md §14): a little-endian, fixed-width Writer
// and a sticky-error Reader, plus the Snapshotter interface stateful
// collaborators (controllers, sensors, demand processes, routers)
// implement to ride along in an engine snapshot.
//
// The encoding is deliberately primitive — no varints, no reflection,
// no field tags: every value is written at a fixed width in a fixed
// order, so the byte stream is a pure function of the serialized state
// and two snapshots of identical state compare equal with bytes.Equal.
// That property is load-bearing: the snapshot/restore equivalence tests
// (and the chaos harness) pin "restored run equals uninterrupted run"
// by comparing snapshot bytes, so the snapshot doubles as a state hash.
// The package sits at the bottom of the dependency graph and imports
// only the standard library.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshotter is implemented by stateful components that participate in
// an engine snapshot: SnapshotState appends the component's mutable
// state to the writer, and RestoreState rewinds the component to the
// state a prior SnapshotState captured. The two must be exact inverses
// — a restore followed by a snapshot must reproduce the original bytes
// — and RestoreState must consume exactly the bytes SnapshotState
// wrote (the engine hands each component a bounded sub-reader and
// rejects trailing bytes). Stateless components simply do not implement
// the interface; the engine records an empty section for them.
type Snapshotter interface {
	// SnapshotState appends the component's mutable state.
	SnapshotState(w *Writer)
	// RestoreState rewinds the component to a captured state.
	RestoreState(r *Reader) error
}

// Writer accumulates a snapshot byte stream. The zero value is ready to
// use; all integers are written little-endian at fixed width.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated stream. The slice aliases the writer's
// buffer; the caller owns it once the writer is discarded.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uint64 appends v little-endian.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Int appends v as a 64-bit little-endian two's-complement value.
func (w *Writer) Int(v int) { w.Uint64(uint64(int64(v))) }

// Int32 appends v as a 32-bit little-endian two's-complement value.
func (w *Writer) Int32(v int32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v))
}

// Float64 appends v's IEEE 754 bit pattern, preserving it exactly
// (including negative zero and NaN payloads).
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bool appends one byte, 1 for true.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// String appends the string length-prefixed.
func (w *Writer) String(s string) {
	w.Uint64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Section appends a length-prefixed sub-block: fill writes the block
// body, and the length is patched in afterwards. Sections bound a
// component's sub-snapshot so a restore can hand the component exactly
// its own bytes (and verify it consumed them all).
func (w *Writer) Section(fill func(*Writer)) {
	at := len(w.buf)
	w.Uint64(0) // length placeholder, patched below
	fill(w)
	binary.LittleEndian.PutUint64(w.buf[at:], uint64(len(w.buf)-at-8))
}

// Reader consumes a snapshot byte stream written by Writer. Decoding
// errors (truncation, bounds) stick: once Err is non-nil every
// subsequent read returns the zero value, so call sites decode whole
// structures and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over the stream.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, nil while the stream is good.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes, returning nil after truncation.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Len() < n {
		r.fail("snap: truncated stream: need %d bytes, have %d", n, r.Len())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint64 reads a little-endian 64-bit value.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a 64-bit two's-complement value as an int.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Count reads an element count written by Int. Every counted element
// takes at least one stream byte, so a count that is negative or
// exceeds the bytes left is corrupt: Count then fails the reader with
// its sticky error and returns 0. Restore paths read every count they
// loop over or size storage from through Count, so a corrupt stream
// cannot make them allocate more than the stream itself implies.
func (r *Reader) Count() int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Len() {
		r.fail("snap: corrupt count %d with %d bytes left", n, r.Len())
		return 0
	}
	return n
}

// Int32 reads a little-endian 32-bit two's-complement value.
func (r *Reader) Int32() int32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(b))
}

// Float64 reads an IEEE 754 bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bool reads one byte; any non-zero value is true.
func (r *Reader) Bool() bool {
	b := r.take(1)
	return b != nil && b[0] != 0
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uint64()
	if n > uint64(r.Len()) {
		r.fail("snap: truncated string: need %d bytes, have %d", n, r.Len())
		return ""
	}
	return string(r.take(int(n)))
}

// Section reads a length-prefixed sub-block and returns a bounded
// reader over it, advancing past the block. A truncated length poisons
// the parent and yields an empty sub-reader.
func (r *Reader) Section() *Reader {
	n := r.Uint64()
	if n > uint64(r.Len()) {
		r.fail("snap: truncated section: need %d bytes, have %d", n, r.Len())
		return &Reader{err: r.err}
	}
	return NewReader(r.take(int(n)))
}

// Close verifies the stream decoded cleanly and was fully consumed,
// the end-of-decode check restore paths call once per (sub-)reader.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Len() != 0 {
		return fmt.Errorf("snap: %d trailing bytes after decode", r.Len())
	}
	return nil
}
