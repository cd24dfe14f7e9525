package object

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
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
}

// TestSlabObjectsAreIndependent: objects cut from one slab share chunks, not
// entries — filling one to its reserved room allocates nothing, and filling
// it past that room moves it out of the chunk instead of into its neighbour.
func TestSlabObjectsAreIndependent(t *testing.T) {
	slab := NewSlab(2, 4)
	a, b := slab.New("a", "C", 2), slab.New("b", "C", 2)
	if n := testing.AllocsPerRun(1, func() { a.Set("x", Int(1)); a.Set("y", Int(2)) }); n != 0 {
		t.Errorf("Set within the reserved room allocates %v times", n)
	}
	b.Set("x", Str("b's"))
	a.Set("z", Int(3)) // one more than a's room
	if got, want := a.AttrNames(), []string{"x", "y", "z"}; !reflect.DeepEqual(got, want) {
		t.Errorf("a = %v, want %v", got, want)
	}
	if !b.Attr("x").Equal(Str("b's")) || b.Len() != 1 {
		t.Errorf("b was written through a: %v", b)
	}
	// An exhausted slab, the zero slab and the nil slab all keep working.
	var zero Slab
	for _, s := range []*Slab{slab, &zero, nil} {
		o := s.New("o", "C", 1)
		o.Set("k", Int(7))
		if o.LOid != "o" || !o.Attr("k").Equal(Int(7)) {
			t.Errorf("New on %p: %v", s, o)
		}
	}
}

// restrictedCopy rebuilds o restricted to mask the slow way, attribute by
// attribute through New: the object a projection stands for.
func restrictedCopy(o *Object, mask []string) *Object {
	kept := make(map[string]Value, len(mask))
	for _, name := range mask {
		kept[name] = o.Attr(name)
	}
	return New(o.LOid, o.Class, kept)
}

// checkProjection holds the masked encoder, the projected size and the
// projection cursor to their contract: what they say of o through mask is
// what the restricted copy says of itself — the masked record decodes to the
// copy, and is the copy's own masked record byte for byte, so nothing outside
// the mask reaches it.
func checkProjection(t testing.TB, o *Object, mask []string) {
	t.Helper()
	cp := restrictedCopy(o, mask)
	got, err := AppendMasked(nil, o, mask)
	if err != nil {
		t.Fatalf("AppendMasked(%v, %v): %v", o, mask, err)
	}
	if want, err := AppendMasked(nil, cp, mask); err != nil || !bytes.Equal(got, want) {
		t.Errorf("%v through %v:\n got %x\nwant %x (%v)", o, mask, got, want, err)
	}
	// Compared by their named records, which spell out every field an
	// object has; DeepEqual would tell a nil entry slice from an empty one.
	if back, rest, err := new(Slab).DecodeMasked(got, o.Class, mask); err != nil || len(rest) != 0 ||
		!bytes.Equal(encode(t, back), encode(t, cp)) || back.WireSize(nil) != cp.WireSize(nil) {
		t.Errorf("%v through %v: decodes to %v (%d bytes left, %v), want %v", o, mask, back, len(rest), err, cp)
	}
	if mask != nil && o.WireSize(mask) != cp.WireSize(nil) {
		t.Errorf("%v through %v: modeled size %d, the copy's %d", o, mask, o.WireSize(mask), cp.WireSize(nil))
	}
	p := o.Projected(mask)
	for i := 0; ; i++ {
		j, v, ok := p.Next()
		if !ok {
			if i != cp.Len() {
				t.Errorf("%v through %v: %d attributes, the copy has %d", o, mask, i, cp.Len())
			}
			break
		}
		if wn, wv := cp.At(i); mask[j] != wn || !reflect.DeepEqual(v, wv) {
			t.Errorf("%v through %v: attribute %d is %s=%v, the copy's %s=%v", o, mask, i, mask[j], v, wn, wv)
		}
	}
}

// TestProjectedRecordMatchesCopy: a record written through a mask stands for
// the restricted copy nobody builds — for every subset of a six-attribute
// object that holds every kind of value, for masks that miss, overshoot or
// surround the object's names, for a bitmap of many bytes, and for seeded
// random objects and masks.
func TestProjectedRecordMatchesCopy(t *testing.T) {
	six := New("s1'", "Student", map[string]Value{
		"active": Bool(true), "advisor": Ref("t1"), "age": Int(31),
		"courses": List(Ref("c1"), Ref("c2")), "gpa": Float(3.5), "name": Str(strings.Repeat("x", 200)),
	})
	names := six.AttrNames()
	for bits := 0; bits < 1<<len(names); bits++ {
		mask := []string{}
		for i, name := range names {
			if bits&(1<<i) != 0 {
				mask = append(mask, name)
			}
		}
		checkProjection(t, six, mask)
	}
	for _, mask := range [][]string{
		nil,                             // selects nothing
		{"a", "b", "zz"},                // disjoint: before, between, after
		{"", "active", "ago", "zzz"},    // around the names, the empty name included
		append([]string{"a"}, names...), // superset
	} {
		checkProjection(t, six, mask)
		checkProjection(t, New("x", "C", nil), mask)
	}

	// 150 of 300 attributes through a mask of 150: a 19-byte bitmap.
	wide := map[string]Value{}
	var wideMask []string
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("a%03d", i)
		wide[name] = Int(int64(i))
		if i%2 == 0 {
			wideMask = append(wideMask, name)
		}
	}
	checkProjection(t, New("w", "Wide", wide), wideMask)

	rng := rand.New(rand.NewSource(17))
	pool := []string{"", "a", "aa", "ab", "b", "key", "next", "p0", "p1", "pad0", "pad1", "t0", "z"}
	value := func() Value {
		switch rng.Intn(7) {
		case 0:
			return Null()
		case 1:
			return Ref(LOid(fmt.Sprintf("e%06d@DB%d", rng.Intn(1000), rng.Intn(3))))
		case 2:
			return List(Ref("c1"), Int(int64(rng.Intn(9))), List(Str("in")))
		case 3:
			return Str(strings.Repeat("s", rng.Intn(300)))
		case 4:
			return Float(rng.NormFloat64())
		default:
			return Int(rng.Int63n(1000) - 500)
		}
	}
	for i := 0; i < 500; i++ {
		attrs := map[string]Value{}
		var mask []string
		for _, name := range pool {
			if rng.Intn(2) == 0 {
				attrs[name] = value()
			}
			if rng.Intn(3) == 0 {
				mask = append(mask, name)
			}
		}
		checkProjection(t, New(LOid(fmt.Sprintf("o%d", i)), "C", attrs), mask)
	}
}

// sampleMasked are the masked fuzz target's seeds: an empty mask, a mask
// whose bitmap takes two bytes, a mask that names an attribute the object
// lacks (a null), a list of references, and string values.
func sampleMasked() map[string][]byte {
	objs := sampleObjects()
	wide := map[string]Value{}
	var wideMask []string
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("a%d", i)
		wide[name] = Int(int64(i))
		wideMask = append(wideMask, name)
	}
	wideMask = append(wideMask, "b")
	seeds := map[string]struct {
		o    *Object
		mask []string
	}{
		"empty-mask": {objs["student"], nil},
		"two-byte":   {New("w", "Wide", wide), wideMask},
		"null":       {objs["table2"], []string{"key", "next", "p2"}},
		"refs":       {objs["student"], []string{"advisor", "courses"}},
		"strings":    {objs["student"], []string{"bio", "name"}},
	}
	out := make(map[string][]byte, len(seeds))
	for name, seed := range seeds {
		rec, err := AppendMasked(nil, seed.o, seed.mask)
		if err != nil {
			panic(err)
		}
		out[name] = maskedInput(seed.mask, rec)
	}
	return out
}

// maskedInput is a masked fuzz target's input: the mask as a counted list of
// names, then the record.
func maskedInput(mask []string, record []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(mask)))
	for _, name := range mask {
		b = appendString(b, name)
	}
	return append(b, record...)
}

// splitMasked takes a masked fuzz input apart, refusing a mask that is not
// strictly increasing as a retrieve list's decoder does.
func splitMasked(data []byte) (mask []string, record []byte, ok bool) {
	n, w := binary.Uvarint(data)
	if w <= 0 || n > uint64(len(data)) {
		return nil, nil, false
	}
	record = data[w:]
	for i := uint64(0); i < n; i++ {
		name, rest, err := readBytes(record)
		if err != nil || i > 0 && mask[len(mask)-1] >= string(name) {
			return nil, nil, false
		}
		mask, record = append(mask, string(name)), rest
	}
	return mask, record, true
}

func corpusFile(target, name string) string {
	return filepath.Join("testdata", "fuzz", target, "seed-"+name)
}

func corpusEntry(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}

// TestFuzzCorpusIsCurrent pins the committed seed corpora to the encoders: a
// format change fails here until the seeds are regenerated on purpose
// (go test ./internal/object -run TestFuzzCorpusIsCurrent -update-corpus).
func TestFuzzCorpusIsCurrent(t *testing.T) {
	seeds := map[string][]byte{}
	for name, o := range sampleObjects() {
		seeds[corpusFile("FuzzDecodeObject", name)] = encode(t, o)
	}
	for name, b := range sampleMasked() {
		seeds[corpusFile("FuzzDecodeMasked", name)] = b
	}
	for file, b := range seeds {
		want := corpusEntry(b)
		if *updateCorpus {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%v (run with -update-corpus)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: seed no longer matches the encoder's output", file)
		}
	}
}

// boundedDecode runs decode, which reads n input bytes, and fails t if it
// allocates more than perByte bytes for each of them, plus a few KiB. The
// counter is the process's, and a fuzz worker's own goroutines allocate a few
// KiB now and then: a reading over the limit is taken again, and decoding —
// which repeats exactly — is charged the least.
func boundedDecode(t *testing.T, n, perByte int, decode func()) {
	t.Helper()
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	got, limit := measure(), uint64(perByte*n+4096)
	for again := 0; got > limit && again < 3; again++ {
		got = min(got, measure())
	}
	if got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", n, got, limit)
	}
}

// FuzzDecodeObject: DecodeObject never panics, never allocates more than a
// constant multiple of its input, and whatever it accepts re-encodes to
// bytes that decode to the same object (and re-encode to the same bytes).
// Every value encoding accepted — the input read as one, and each of an
// accepted record's values, the dropped nulls included — is AppendBinary's
// own: it re-encodes to exactly the bytes it was read from.
func FuzzDecodeObject(f *testing.F) {
	for _, o := range sampleObjects() {
		f.Add(encode(f, o))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		canonicalValue(t, data)
		var (
			o   *Object
			err error
		)
		// An attribute entry is 56 bytes from at least 3 of input; a list
		// element 40 from 9.
		boundedDecode(t, len(data), 32, func() { o, _, err = DecodeObject(data, &Interner{}) })
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
		b := data
		_, b, _ = readBytes(b) // class
		_, b, _ = readBytes(b) // LOid
		n, w := binary.Uvarint(b)
		b = b[w:]
		for i := uint64(0); i < n; i++ {
			var raw []byte
			_, b, _ = readBytes(b) // name
			raw, b, _ = readBytes(b)
			canonicalValue(t, raw)
		}
		// Whatever decodes can be shipped through a mask: every other name it
		// holds, behind one it does not.
		mask := []string{}
		for i, name := range o.AttrNames() {
			if i == 0 && name != "" {
				mask = append(mask, "")
			}
			if i%2 == 0 {
				mask = append(mask, name)
			}
		}
		checkProjection(t, o, mask)
	})
}

// FuzzDecodeMasked: a masked record, read through its mask into a slab,
// never panics, never allocates more than a constant multiple of its input,
// and whatever decodes re-encodes to bytes that decode to the same object
// (and re-encode to the same bytes).
func FuzzDecodeMasked(f *testing.F) {
	for _, b := range sampleMasked() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mask, record, ok := splitMasked(data)
		if !ok {
			return
		}
		var (
			o   *Object
			err error
		)
		// The slab's chunks are sized from the bytes that remain: 76 per
		// Object (64 in a chunk the allocator rounds up by a sixth) from a
		// record of at least one byte, an empty LOid through an empty mask;
		// or 38 per Object from two and 28 per entry from its two-byte value.
		boundedDecode(t, len(data), 80, func() { o, _, err = new(Slab).DecodeMasked(record, "C", mask) })
		if err != nil {
			return
		}
		again, err := AppendMasked(nil, o, mask)
		if err != nil {
			t.Fatalf("decoded object does not re-encode: %v", err)
		}
		o2, rest, err := (*Slab)(nil).DecodeMasked(again, "C", mask)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(o, o2) {
			t.Fatalf("re-encoded bytes decode to %v (%v, %d left), want %v", o2, err, len(rest), o)
		}
		if third, _ := AppendMasked(nil, o2, mask); !bytes.Equal(again, third) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", again, third)
		}
	})
}

// canonicalValue fails t if raw decodes as a value whose encoding is not raw.
func canonicalValue(t *testing.T, raw []byte) {
	t.Helper()
	var v Value
	if v.UnmarshalBinary(raw) != nil {
		return
	}
	if enc, err := v.AppendBinary(nil); err != nil || !bytes.Equal(enc, raw) {
		t.Fatalf("value % x decodes as %v, which encodes as % x (%v)", raw, v, enc, err)
	}
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
		var slab Slab
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := slab.New("g17", "C1", 3)
			m.Set("next", Ref("g933"))
			m.Set("p0", Int(412))
			m.Set("p1", Int(88))
			sinkObject = m
		}
	})
	b.Run("AppendMasked", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendMasked(buf[:0], o, proj)
		}
	})
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkObject = New("e000017@DB2", "C1", attrs)
		}
	})
}

// TestObjectAllocationCeilings: reading an object — an attribute, its sizes,
// its masked record into a buffer that has the room — allocates nothing.
func TestObjectAllocationCeilings(t *testing.T) {
	o := sampleObjects()["table2"]
	proj := []string{"next", "p0", "p1"}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendMasked(buf[:0], o, proj) }); n != 0 {
		t.Errorf("AppendMasked: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkValue = o.Attr("p1") }); n != 0 {
		t.Errorf("Attr: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = o.WireSize(nil) + o.WireSize(proj) }); n != 0 {
		t.Errorf("WireSize: %v allocs, want 0", n)
	}
}
