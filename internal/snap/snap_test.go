package snap

import (
	"math"
	"strings"
	"testing"
)

// record is one value of every encodable type, written and read back in
// a fixed order by writeRecord/readRecord.
type record struct {
	u    uint64
	i    int
	i32  int32
	f    float64
	b    bool
	s    string
	tail bool
}

func writeRecord(w *Writer, r record) {
	w.Uint64(r.u)
	w.Int(r.i)
	w.Int32(r.i32)
	w.Float64(r.f)
	w.Bool(r.b)
	w.String(r.s)
	w.Bool(r.tail)
}

func readRecord(rd *Reader) record {
	return record{
		u:    rd.Uint64(),
		i:    rd.Int(),
		i32:  rd.Int32(),
		f:    rd.Float64(),
		b:    rd.Bool(),
		s:    rd.String(),
		tail: rd.Bool(),
	}
}

// same compares records with floats by bit pattern, so NaN payloads
// and negative zero count.
func same(a, b record) bool {
	fa, fb := a.f, b.f
	a.f, b.f = 0, 0
	return a == b && math.Float64bits(fa) == math.Float64bits(fb)
}

var records = []record{
	{},
	{u: math.MaxUint64, i: math.MaxInt64, i32: math.MaxInt32, f: math.Inf(1), b: true, s: "utilbp", tail: true},
	{u: 1, i: math.MinInt64, i32: math.MinInt32, f: math.Copysign(0, -1), s: "", tail: true},
	{u: 1 << 63, i: -1, i32: -1, f: math.Float64frombits(0x7ff8_0000_dead_beef), b: true, s: "Δt=µ·W*"},
	{u: 42, i: 1234567, i32: 7, f: -0.1, s: strings.Repeat("x", 300)},
}

// TestRoundTripTypes writes every type at its edge values and requires
// the reader to return them bit for bit and end exactly at the end.
func TestRoundTripTypes(t *testing.T) {
	w := NewWriter(0)
	for _, r := range records {
		writeRecord(w, r)
	}
	if w.Len() != len(w.Bytes()) {
		t.Fatalf("Len %d != len(Bytes) %d", w.Len(), len(w.Bytes()))
	}
	rd := NewReader(w.Bytes())
	for i, want := range records {
		if got := readRecord(rd); !same(got, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("Close after a full decode: %v", err)
	}
}

// TestFixedWidth pins the widths the format promises: the encoding is
// a pure function of the values, so equal states give equal bytes.
func TestFixedWidth(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(*Writer)
		n     int
	}{
		{"Uint64", func(w *Writer) { w.Uint64(1) }, 8},
		{"Int", func(w *Writer) { w.Int(-1) }, 8},
		{"Int32", func(w *Writer) { w.Int32(-1) }, 4},
		{"Float64", func(w *Writer) { w.Float64(0.5) }, 8},
		{"Bool", func(w *Writer) { w.Bool(true) }, 1},
		{"String", func(w *Writer) { w.String("abc") }, 8 + 3},
		{"Section", func(w *Writer) { w.Section(func(sw *Writer) { sw.Int32(5) }) }, 8 + 4},
	} {
		w := NewWriter(4)
		c.write(w)
		if w.Len() != c.n {
			t.Errorf("%s: %d bytes, want %d", c.name, w.Len(), c.n)
		}
	}
	w := NewWriter(0)
	w.Int(-2)
	if got, want := string(w.Bytes()), "\xfe\xff\xff\xff\xff\xff\xff\xff"; got != want {
		t.Fatalf("Int(-2) encodes as % x, want little-endian two's complement % x", got, want)
	}
}

// writeNested writes a value, a section holding a nested section and a
// trailing value: the layout engine snapshots use for collaborators.
func writeNested(w *Writer) {
	w.Int(7)
	w.Section(func(sw *Writer) {
		sw.String("outer")
		sw.Section(func(inner *Writer) {
			inner.Int32(-3)
			inner.Bool(true)
		})
		sw.Float64(2.5)
	})
	w.Section(func(*Writer) {}) // empty section, as for stateless parts
	w.Int(9)
}

// TestNestedSections decodes nested and empty sections through bounded
// sub-readers and requires each level to close cleanly and the parent
// to resume right after the block.
func TestNestedSections(t *testing.T) {
	w := NewWriter(0)
	writeNested(w)
	rd := NewReader(w.Bytes())
	if v := rd.Int(); v != 7 {
		t.Fatalf("leading value %d, want 7", v)
	}
	outer := rd.Section()
	if s := outer.String(); s != "outer" {
		t.Fatalf("outer string %q", s)
	}
	inner := outer.Section()
	if v, b := inner.Int32(), inner.Bool(); v != -3 || !b {
		t.Fatalf("inner section decoded %d, %v", v, b)
	}
	if err := inner.Close(); err != nil {
		t.Fatalf("inner Close: %v", err)
	}
	if f := outer.Float64(); f != 2.5 {
		t.Fatalf("outer float %v", f)
	}
	if err := outer.Close(); err != nil {
		t.Fatalf("outer Close: %v", err)
	}
	empty := rd.Section()
	if empty.Len() != 0 {
		t.Fatalf("empty section holds %d bytes", empty.Len())
	}
	if err := empty.Close(); err != nil {
		t.Fatalf("empty Close: %v", err)
	}
	if v := rd.Int(); v != 9 {
		t.Fatalf("trailing value %d, want 9", v)
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A sub-reader is bounded: reading past its block fails inside it
	// and leaves the parent untouched.
	rd = NewReader(w.Bytes())
	rd.Int()
	outer = rd.Section()
	_ = outer.String()
	outer.Section()
	outer.Float64()
	if outer.Uint64() != 0 || outer.Err() == nil {
		t.Fatal("reading past a section's end did not fail")
	}
	if rd.Err() != nil {
		t.Fatalf("a section overrun poisoned the parent: %v", rd.Err())
	}
}

// TestTruncatedInput cuts a valid stream at every length: decoding must
// never panic, must set Err, must return zero values once failed, and
// Close must report the error.
func TestTruncatedInput(t *testing.T) {
	w := NewWriter(0)
	for _, r := range records {
		writeRecord(w, r)
	}
	writeNested(w)
	full := w.Bytes()
	for n := 0; n < len(full); n++ {
		rd := NewReader(full[:n])
		for range records {
			readRecord(rd)
		}
		rd.Int()
		sec := rd.Section()
		_ = sec.String()
		sec.Section().Int32()
		rd.Section()
		rd.Int()
		if rd.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
		if err := rd.Close(); err == nil {
			t.Fatalf("prefix of %d bytes: Close reported no error", n)
		}
		if rd.Uint64() != 0 || rd.Int() != 0 || rd.Int32() != 0 || rd.Float64() != 0 || rd.Bool() || rd.String() != "" {
			t.Fatalf("prefix of %d bytes: a failed reader returned a non-zero value", n)
		}
	}
}

// TestBoundsErrors covers length prefixes that claim more bytes than the
// stream holds: the read fails instead of allocating or slicing past
// the end, and the error sticks.
func TestBoundsErrors(t *testing.T) {
	w := NewWriter(0)
	w.Uint64(math.MaxUint64) // as a string or section length
	w.Int(1)
	for _, c := range []struct {
		name string
		read func(*Reader)
	}{
		{"String", func(r *Reader) { _ = r.String() }},
		{"Section", func(r *Reader) { r.Section() }},
	} {
		rd := NewReader(w.Bytes())
		c.read(rd)
		if rd.Err() == nil {
			t.Fatalf("%s with an oversized length decoded without error", c.name)
		}
		if rd.Int() != 0 {
			t.Fatalf("%s: read after the error returned data", c.name)
		}
	}
	rd := NewReader(w.Bytes())
	sec := rd.Section()
	if sec.Err() == nil || sec.Len() != 0 || sec.Int() != 0 {
		t.Fatal("the sub-reader of a truncated section is not an empty failed reader")
	}
}

// TestCount pins the bounded count read every restore path sizes or
// loops from: a count fits when it is non-negative and no larger than
// the bytes left after it; anything else fails the reader with its
// sticky error and reads as 0.
func TestCount(t *testing.T) {
	for _, c := range []struct {
		name  string
		count int
		tail  int // bytes written after the count
		ok    bool
	}{
		{"zero", 0, 0, true},
		{"exact", 3, 3, true},
		{"below", 2, 5, true},
		{"one-over", 4, 3, false},
		{"negative", -1, 8, false},
		{"huge", 1 << 32, 407, false},
		{"min-int", math.MinInt64, 8, false},
	} {
		w := NewWriter(0)
		w.Int(c.count)
		for i := 0; i < c.tail; i++ {
			w.Bool(true)
		}
		r := NewReader(w.Bytes())
		n := r.Count()
		if c.ok {
			if r.Err() != nil || n != c.count {
				t.Errorf("%s: Count = %d, %v; want %d", c.name, n, r.Err(), c.count)
			}
			continue
		}
		if r.Err() == nil || n != 0 {
			t.Errorf("%s: Count = %d, %v; want 0 and an error", c.name, n, r.Err())
		}
		if r.Bool() {
			t.Errorf("%s: read after a failed Count returned data", c.name)
		}
	}
	r := NewReader(nil)
	if r.Count() != 0 || r.Err() == nil {
		t.Error("Count on an empty stream did not fail")
	}
}

// TestCloseRejectsTrailingBytes pins the end-of-decode check: a reader
// with unread bytes, at top level or in a section, fails Close.
func TestCloseRejectsTrailingBytes(t *testing.T) {
	w := NewWriter(0)
	w.Int(1)
	w.Bool(true)
	rd := NewReader(w.Bytes())
	rd.Int()
	if err := rd.Close(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Close with one unread byte returned %v", err)
	}

	w = NewWriter(0)
	w.Section(func(sw *Writer) {
		sw.Int32(1)
		sw.Int32(2)
	})
	rd = NewReader(w.Bytes())
	sec := rd.Section()
	sec.Int32()
	if err := sec.Close(); err == nil {
		t.Fatal("section Close accepted 4 unread bytes")
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("parent Close after skipping the whole section: %v", err)
	}
}
