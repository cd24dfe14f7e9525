package object

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz seed files from the sample objects")

// sampleObjects covers every value kind, a value long enough for a two-byte
// length prefix, and the empty object.
func sampleObjects() map[string]*Object {
	return map[string]*Object{
		"empty": New("x", "C", nil),
		"student": New("s1'", "Student", map[string]Value{
			"name":    Str("John"),
			"age":     Int(31),
			"gpa":     Float(3.5),
			"active":  Bool(true),
			"advisor": Ref("t1"),
			"global":  GRef("gt1"),
			"courses": List(Ref("c1"), Ref("c2")),
			"bio":     Str(strings.Repeat("x", 200)),
		}),
		"table2": New("e000017@DB2", "C1", map[string]Value{
			"key": Int(17), "p0": Int(412), "p1": Int(88), "next": Ref("e000933@DB2"), "pad0": Int(5),
		}),
	}
}

func encode(t testing.TB, o *Object) []byte {
	t.Helper()
	b, err := AppendObject(nil, o)
	if err != nil {
		t.Fatalf("AppendObject(%v): %v", o, err)
	}
	return b
}

func TestObjectRecordRoundTrip(t *testing.T) {
	var in Interner
	for name, o := range sampleObjects() {
		b := encode(t, o)
		// Trailing bytes belong to the caller and come back untouched.
		got, rest, err := DecodeObject(append(b, 0xAA, 0xBB), &in)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, o) {
			t.Errorf("%s: round trip\n got %v\nwant %v", name, got, o)
		}
		if !bytes.Equal(rest, []byte{0xAA, 0xBB}) {
			t.Errorf("%s: rest = %x", name, rest)
		}
	}
}

// TestDecodeObjectOwnsItsMemory: the decoded object must survive its input
// being overwritten — decoders hand DecodeObject pooled buffers.
func TestDecodeObjectOwnsItsMemory(t *testing.T) {
	want := sampleObjects()["student"]
	b := encode(t, want)
	got, _, err := DecodeObject(b, &Interner{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xFF
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("object changed with its input buffer: %v", got)
	}
}

func TestDecodeObjectNormalizesAndRejects(t *testing.T) {
	attr := func(dst []byte, name string, v Value) []byte {
		dst = appendString(dst, name)
		dst, _ = AppendValue(dst, v)
		return dst
	}
	record := func(n uint64, attrs ...[]byte) []byte {
		b := appendString(nil, "C")
		b = appendString(b, "x")
		b = binary.AppendUvarint(b, n)
		for _, a := range attrs {
			b = append(b, a...)
		}
		return b
	}

	// Null and zero-kind values are missing data: dropped, as New drops them.
	o, _, err := DecodeObject(record(3, attr(nil, "a", Null()), attr(nil, "b", Int(1)), attr(nil, "c", Value{})), nil)
	if err != nil {
		t.Fatalf("nulls: %v", err)
	}
	if o.Len() != 1 || !o.Attr("b").Equal(Int(1)) {
		t.Errorf("nulls survived decoding: %v", o)
	}

	bad := map[string][]byte{
		"out of order":     record(2, attr(nil, "b", Int(1)), attr(nil, "a", Int(2))),
		"repeated name":    record(2, attr(nil, "a", Int(1)), attr(nil, "a", Int(2))),
		"order after null": record(3, attr(nil, "b", Int(1)), attr(nil, "c", Null()), attr(nil, "a", Int(2))),
		"count over input": record(1 << 40),
		"missing entry":    record(2, attr(nil, "a", Int(1))),
		"truncated value":  record(1, attr(nil, "a", Int(1)))[:8],
		"empty":            nil,
	}
	for name, b := range bad {
		if o, _, err := DecodeObject(b, nil); err == nil {
			t.Errorf("%s: accepted as %v", name, o)
		}
	}
}

func TestAppendValueRoundTrip(t *testing.T) {
	values := []Value{
		{}, Null(), Int(-7), Float(3.25), Str(""), Bool(true), Ref("t1'"), GRef("gt4"),
		List(Int(1), Str("x"), List(Bool(true))),
		Str(strings.Repeat("y", 127)), Str(strings.Repeat("y", 128)), Str(strings.Repeat("z", 20000)),
	}
	var b []byte
	for _, v := range values {
		var err error
		if b, err = AppendValue(b, v); err != nil {
			t.Fatalf("append %v: %v", v, err)
		}
	}
	for _, want := range values {
		var got Value
		var err error
		if got, b, err = DecodeValue(b); err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) && !(want.Kind() == KindList && got.Equal(want)) {
			t.Errorf("round trip %v -> %v", want, got)
		}
	}
	if len(b) != 0 {
		t.Errorf("%d bytes left over", len(b))
	}
}

func TestUnmarshalBoundsListNesting(t *testing.T) {
	v := Int(1)
	for i := 0; i <= maxListDepth; i++ {
		v = List(v)
	}
	b, err := v.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Value
	if err := got.UnmarshalBinary(b); err == nil {
		t.Errorf("a list nested %d deep decoded", maxListDepth+1)
	}
}

func TestInterner(t *testing.T) {
	var in Interner
	a, b := in.Intern([]byte("name")), in.Intern([]byte("name"))
	if a != "name" || b != "name" {
		t.Fatalf("Intern = %q, %q", a, b)
	}
	if n := testing.AllocsPerRun(100, func() { in.Intern([]byte("name")) }); n != 0 {
		t.Errorf("interning a seen name allocates %v times", n)
	}
	// Past the cap the table stops growing but keeps answering.
	for i := 0; i < 2*maxInterned; i++ {
		s := fmt.Sprintf("n%d", i)
		if got := in.Intern([]byte(s)); got != s {
			t.Fatalf("Intern(%q) = %q", s, got)
		}
	}
	if len(in.seen) > maxInterned {
		t.Errorf("table grew to %d entries, cap is %d", len(in.seen), maxInterned)
	}
	var none *Interner
	if got := none.Intern([]byte("x")); got != "x" {
		t.Errorf("nil Interner: %q", got)
	}
}

// TestObjectSetKeepsOrder drives Set through every position: front, middle,
// back, overwrite, delete.
func TestObjectSetKeepsOrder(t *testing.T) {
	o := New("x", "C", nil)
	for _, name := range []string{"m", "a", "z", "f", "m"} {
		o.Set(name, Str(name))
	}
	o.Set("f", Null())
	o.Set("nope", Null())
	if got, want := o.AttrNames(), []string{"a", "m", "z"}; !reflect.DeepEqual(got, want) {
		t.Errorf("AttrNames = %v, want %v", got, want)
	}
	for i := 0; i < o.Len(); i++ {
		if name, v := o.At(i); !v.Equal(Str(name)) {
			t.Errorf("At(%d) = %s: %v", i, name, v)
		}
	}
	// Project ignores the order and repetition of its list.
	p := o.Project([]string{"z", "a", "z", "missing"})
	if got, want := p.AttrNames(), []string{"a", "z"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Project names = %v, want %v", got, want)
	}
	// Grow changes capacity, not content, and the next Sets fit.
	p.Grow(8)
	if n := testing.AllocsPerRun(1, func() { p.Set("b", Int(1)); p.Set("c", Int(2)) }); n != 0 {
		t.Errorf("Set after Grow allocates %v times", n)
	}
}

func corpusFile(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzDecodeObject", "seed-"+name)
}

func corpusEntry(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}

// TestFuzzCorpusIsCurrent pins the committed seed corpus to the encoder: a
// format change fails here until the seeds are regenerated on purpose
// (go test ./internal/object -run TestFuzzCorpusIsCurrent -update-corpus).
func TestFuzzCorpusIsCurrent(t *testing.T) {
	for name, o := range sampleObjects() {
		want := corpusEntry(encode(t, o))
		if *updateCorpus {
			if err := os.MkdirAll(filepath.Dir(corpusFile(name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(corpusFile(name), want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(corpusFile(name))
		if err != nil {
			t.Fatalf("%v (run with -update-corpus)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: seed no longer matches the encoder's output", corpusFile(name))
		}
	}
}

// FuzzDecodeObject: DecodeObject never panics, never allocates more than a
// constant multiple of its input, and whatever it accepts re-encodes to
// bytes that decode to the same object (and re-encode to the same bytes).
func FuzzDecodeObject(f *testing.F) {
	for _, o := range sampleObjects() {
		f.Add(encode(f, o))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, _, err := DecodeObject(data, &Interner{})
		runtime.ReadMemStats(&after)
		// An attribute entry is 80 bytes from at least 3 of input; a list
		// element 64 from 9.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+4096); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := AppendObject(nil, o)
		if err != nil {
			t.Fatalf("decoded object does not re-encode: %v", err)
		}
		o2, rest, err := DecodeObject(again, nil)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded bytes do not decode: %v (%d left)", err, len(rest))
		}
		if third := encode(t, o2); !bytes.Equal(again, third) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", again, third)
		}
	})
}

var (
	sinkValue  Value
	sinkObject *Object
)

func BenchmarkObject(b *testing.B) {
	attrs := map[string]Value{
		"key": Int(17), "p0": Int(412), "p1": Int(88), "next": Ref("e000933@DB2"), "pad0": Int(5), "pad1": Int(6),
	}
	o := New("e000017@DB2", "C1", attrs)
	proj := []string{"next", "p0", "p1"}
	b.Run("Attr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkValue = o.Attr("p1")
		}
	})
	b.Run("Set", func(b *testing.B) {
		// Materialize's pattern: a fresh object filled in name order.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := New("g17", "C1", nil)
			m.Grow(3)
			m.Set("next", Ref("g933"))
			m.Set("p0", Int(412))
			m.Set("p1", Int(88))
			sinkObject = m
		}
	})
	b.Run("Project", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkObject = o.Project(proj)
		}
	})
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkObject = New("e000017@DB2", "C1", attrs)
		}
	})
}

// TestObjectAllocationCeilings: the flat object allocates per object, not
// per attribute — Project and a grown New+Set run take two allocations (the
// object and its entries).
func TestObjectAllocationCeilings(t *testing.T) {
	o := sampleObjects()["table2"]
	proj := []string{"next", "p0", "p1"}
	if n := testing.AllocsPerRun(100, func() { sinkObject = o.Project(proj) }); n > 2 {
		t.Errorf("Project: %v allocs, want <= 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkValue = o.Attr("p1") }); n != 0 {
		t.Errorf("Attr: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = o.WireSize(nil) + o.WireSize(proj) }); n != 0 {
		t.Errorf("WireSize: %v allocs, want 0", n)
	}
}
