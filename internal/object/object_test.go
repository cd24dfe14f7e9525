package object

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		KindBool:   "bool",
		KindRef:    "ref",
		KindGRef:   "gref",
		KindList:   "list",
		Kind(99):   "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.Int64() != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.Float64() != 2.5 {
		t.Errorf("Float(2.5) = %v", v)
	}
	if v := Str("abc"); v.Kind() != KindString || v.Text() != "abc" {
		t.Errorf("Str = %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.BoolVal() {
		t.Errorf("Bool(true) = %v", v)
	}
	if v := Bool(false); v.BoolVal() {
		t.Errorf("Bool(false) = %v", v)
	}
	if v := Ref("t1"); v.Kind() != KindRef || v.RefLOid() != "t1" || !v.IsRef() {
		t.Errorf("Ref = %v", v)
	}
	if v := GRef("gt1"); v.Kind() != KindGRef || !v.IsRef() {
		t.Errorf("GRef = %v", v)
	}
	if v := Null(); !v.IsNull() || v.IsRef() {
		t.Errorf("Null = %v", v)
	}
	l := List(Int(1), Str("x"))
	if l.Kind() != KindList || len(l.Elems()) != 2 {
		t.Errorf("List = %v", l)
	}
}

func TestListCopiesElements(t *testing.T) {
	src := []Value{Int(1), Int(2)}
	l := List(src...)
	src[0] = Int(99)
	if !l.Elems()[0].Equal(Int(1)) {
		t.Error("List aliases its input slice")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(3), Float(3.0), true},
		{Float(3.5), Int(3), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Str("1"), Int(1), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Bool(true), Int(1), false},
		{Ref("a"), Ref("a"), true},
		{Ref("a"), GRef("a"), false},
		{List(Int(1)), List(Int(1)), true},
		{List(Int(1)), List(Int(2)), false},
		{List(Int(1)), List(Int(1), Int(2)), false},
		// Floats compare as floats, not as the bits they are kept in.
		{Float(0), Float(math.Copysign(0, -1)), true},
		{Int(0), Float(math.Copysign(0, -1)), true},
		{Float(math.NaN()), Float(math.NaN()), false},
		{Float(math.Inf(1)), Float(math.Inf(1)), true},
		{Int(-1), Int(-1), true},
		{List(), List(), true},
		{List(), List(Int(1)), false},
		{List(List(Int(1), Str("x")), Ref("a")), List(List(Int(1), Str("x")), Ref("a")), true},
		{List(List(Int(1))), List(List(Int(2))), false},
		{List(List()), List(), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(1), 1, true},
		{Int(2), Int(2), 0, true},
		{Int(1), Float(1.5), -1, true},
		{Float(2.5), Int(2), 1, true},
		{Str("a"), Str("b"), -1, true},
		{Str("b"), Str("b"), 0, true},
		{Bool(false), Bool(true), -1, true},
		{Null(), Int(1), 0, false},
		{Int(1), Null(), 0, false},
		{Str("a"), Int(1), 0, false},
		{Ref("a"), Ref("b"), 0, false},
		{List(Int(1)), List(Int(1)), 0, false},
		{Float(math.Copysign(0, -1)), Float(0), 0, true},
		{Float(math.Copysign(0, -1)), Int(0), 0, true},
		{Int(-3), Int(2), -1, true},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1, true},
		{List(List(Int(1))), List(List(Int(1))), 0, false},
	}
	for _, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && sign(cmp) != c.cmp) {
			t.Errorf("%v.Compare(%v) = (%d,%v), want (%d,%v)", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

func TestValueWireSize(t *testing.T) {
	cases := []struct {
		v    Value
		want int
	}{
		{Int(1), AttrWireSize},
		{Str("hello"), AttrWireSize},
		{Null(), 0},
		{Ref("x"), LOidWireSize},
		{GRef("x"), GOidWireSize},
		{List(Int(1), Ref("x")), AttrWireSize + LOidWireSize},
	}
	for _, c := range cases {
		if got := c.v.WireSize(); got != c.want {
			t.Errorf("WireSize(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "-"},
		{Int(5), "5"},
		{Float(1.5), "1.5"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
		{Ref("t1"), "@t1"},
		{GRef("gt1"), "@@gt1"},
		{List(Int(1), Int(2)), "{1, 2}"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestNewNormalizesNulls(t *testing.T) {
	o := New("s1", "Student", map[string]Value{
		"name": Str("John"),
		"age":  Null(),
		"sex":  {},
	})
	if o.Len() != 1 {
		t.Errorf("null or zero Value attribute survived New: %v", o)
	}
	if !o.Attr("age").IsNull() {
		t.Error("Attr on missing attribute should be null")
	}
	if got := o.Attr("name"); !got.Equal(Str("John")) {
		t.Errorf("Attr(name) = %v", got)
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := map[string]Value{"a": Int(1)}
	o := New("x", "C", in)
	in["a"] = Int(2)
	if !o.Attr("a").Equal(Int(1)) {
		t.Error("New aliases its input map")
	}
}

func TestObjectSetAndClone(t *testing.T) {
	o := New("s1", "Student", nil)
	o.Set("age", Int(30))
	if !o.Attr("age").Equal(Int(30)) {
		t.Error("Set failed")
	}
	cl := o.Clone()
	cl.Set("age", Int(40))
	if !o.Attr("age").Equal(Int(30)) {
		t.Error("Clone shares attribute map")
	}
	o.Set("age", Null())
	if o.Len() != 0 {
		t.Error("Set(Null) should delete")
	}
	var empty Object
	empty.Set("a", Int(1))
	if !empty.Attr("a").Equal(Int(1)) {
		t.Error("Set on zero Object failed")
	}
}

func TestObjectProject(t *testing.T) {
	o := New("s1", "Student", map[string]Value{
		"name": Str("John"), "age": Int(31), "advisor": Ref("t1"),
	})
	// The projection is read in place, in name order, through a sorted mask.
	var got []string
	mask := []string{"advisor", "name", "nonexistent"}
	for p := o.Projected(mask); ; {
		j, v, ok := p.Next()
		if !ok {
			break
		}
		name := mask[j]
		if !v.Equal(o.Attr(name)) {
			t.Errorf("Projected yields %s = %v, the object holds %v", name, v, o.Attr(name))
		}
		got = append(got, name)
	}
	if want := []string{"advisor", "name"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Projected yields %v, want %v", got, want)
	}
	for _, none := range [][]string{nil, {}, {"a", "b"}, {"zzz"}} {
		p := o.Projected(none)
		if j, _, ok := p.Next(); ok {
			t.Errorf("Projected(%v) yields %s", none, none[j])
		}
	}
}

func TestObjectWireSize(t *testing.T) {
	o := New("s1", "Student", map[string]Value{
		"name": Str("John"), "age": Int(31), "advisor": Ref("t1"),
	})
	wantAll := LOidWireSize + 2*AttrWireSize + LOidWireSize
	if got := o.WireSize(nil); got != wantAll {
		t.Errorf("WireSize(nil) = %d, want %d", got, wantAll)
	}
	want := LOidWireSize + AttrWireSize
	if got := o.WireSize([]string{"name", "nope"}); got != want {
		t.Errorf("WireSize(name) = %d, want %d", got, want)
	}
}

// TestWholeObjectWireSizeIsKept: WireSize(nil) reads a figure that every
// way of building or changing an object maintains — it must equal the sum
// over the entries after any of them, the zero Object included.
func TestWholeObjectWireSizeIsKept(t *testing.T) {
	summed := func(o *Object) int {
		n := LOidWireSize
		for i := 0; i < o.Len(); i++ {
			_, v := o.At(i)
			n += v.WireSize()
		}
		return n
	}
	check := func(what string, o *Object) {
		t.Helper()
		if got, want := o.WireSize(nil), summed(o); got != want {
			t.Errorf("%s: WireSize(nil) = %d, the entries sum to %d", what, got, want)
		}
	}
	check("zero object", &Object{LOid: "z"})
	o := New("s1", "Student", map[string]Value{
		"name": Str("John"), "advisor": Ref("t1"), "gone": Null(),
		"courses": List(Ref("c1"), Ref("c2"), Int(3)),
	})
	check("New", o)
	o.Set("age", Int(31)) // insert
	check("Set insert", o)
	o.Set("advisor", Str("none")) // replace a reference by an attribute-sized value
	check("Set replace", o)
	o.Set("courses", Null()) // delete
	check("Set delete", o)
	o.Set("missing", Null()) // delete what is not there
	check("Set delete absent", o)
	check("Clone", o.Clone())
	var slab Slab
	built := slab.New("s2", "Student", 2)
	built.Set("name", Str("Jo"))
	built.Set("advisor", Ref("t2"))
	built.Set("courses", List(Ref("c1"))) // past the reserved room
	check("Slab.New + Set", built)
	rec, err := AppendObject(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := DecodeObject(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("DecodeObject", decoded)
	masked, err := AppendMasked(nil, o, o.AttrNames())
	if err != nil {
		t.Fatal(err)
	}
	cut, _, err := slab.DecodeMasked(masked, o.Class, o.AttrNames())
	if err != nil {
		t.Fatal(err)
	}
	check("Slab.DecodeMasked", cut)
	if decoded.WireSize(nil) != o.WireSize(nil) {
		t.Errorf("decoded WireSize = %d, encoded object's %d", decoded.WireSize(nil), o.WireSize(nil))
	}
}

func TestObjectAttrNamesSorted(t *testing.T) {
	o := New("x", "C", map[string]Value{"b": Int(1), "a": Int(2), "c": Int(3)})
	got := o.AttrNames()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AttrNames = %v, want %v", got, want)
	}
}

func TestObjectString(t *testing.T) {
	o := New("s1", "Student", map[string]Value{"name": Str("John"), "age": Int(31)})
	want := "Student[s1]{age: 31, name: John}"
	if got := o.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randomValue builds an arbitrary primitive value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Int(int64(r.Intn(100)))
	case 1:
		return Float(r.Float64() * 100)
	case 2:
		return Str(string(rune('a' + r.Intn(26))))
	case 3:
		return Bool(r.Intn(2) == 0)
	default:
		return Null()
	}
}

func TestEqualReflexiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		return v.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		c1, ok1 := a.Compare(b)
		c2, ok2 := b.Compare(a)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return sign(c1) == -sign(c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareConsistentWithEqualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		cmp, ok := a.Compare(b)
		if !ok || cmp != 0 {
			return true
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueBinaryRoundTrip(t *testing.T) {
	values := []Value{
		Null(),
		Int(42), Int(-7),
		Float(3.25), Float(-0.5),
		Str(""), Str("hello world"),
		Bool(true), Bool(false),
		Ref("t1'"), GRef("gt4"),
		List(Int(1), Str("x"), List(Bool(true))),
		List(), List(List(), List(List(Float(-2.5)))),
		Float(math.Copysign(0, -1)), Float(math.Inf(-1)), Int(math.MinInt64),
		{},
	}
	for _, v := range values {
		data, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Value
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", v, err)
		}
		if got.Kind() != v.Kind() || (v.Kind() != 0 && !got.Equal(v)) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// TestValueDecoderRejectsNonCanonical: a value has one encoding. A bool whose
// payload is 5 would print true and test BoolVal true yet not Equal
// Bool(true), so a corrupt record would make "= true" evaluate False; trailing
// bytes after a fixed-width payload, or any payload behind a null or a zero
// kind, are corruption too. None of them decodes.
func TestValueDecoderRejectsNonCanonical(t *testing.T) {
	payload := func(kind Kind, n uint64, extra ...byte) []byte {
		return append(appendInt64([]byte{byte(kind)}, int64(n)), extra...)
	}
	for name, data := range map[string][]byte{
		"bool 5":                    payload(KindBool, 5),
		"bool 2^63":                 payload(KindBool, 1<<63),
		"bool with a trailing byte": payload(KindBool, 1, 0),
		"int with a trailing byte":  payload(KindInt, 42, 7),
		"float with trailing bytes": payload(KindFloat, math.Float64bits(1.5), 0, 0, 0),
		"null with a payload":       {byte(KindNull), 0},
		"zero kind with a payload":  {0, 1, 2},
		"list element bool 5":       append(payload(KindList, 9), payload(KindBool, 5)...),
	} {
		var v Value
		if err := v.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: % x decoded as %v", name, data, v)
		}
	}
}

// TestFloatBitsSurviveEncoding: Equal cannot see a NaN or the sign of a zero,
// the encoding keeps both.
func TestFloatBitsSurviveEncoding(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64} {
		data, err := Float(f).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Value
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if got.Kind() != KindFloat || math.Float64bits(got.Float64()) != math.Float64bits(f) {
			t.Errorf("Float(%v) came back as %v (%x)", f, got, math.Float64bits(got.Float64()))
		}
	}
}

// TestValueSize pins the layout the slabs are sized by: every attribute
// entry, result-row target and navigation outcome carries one Value.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 40 {
		t.Errorf("Value is %d bytes, want <= 40", n)
	}
	if n := unsafe.Sizeof(attr{}); n > 56 {
		t.Errorf("an attribute entry is %d bytes, want <= 56", n)
	}
}

func TestValueUnmarshalErrors(t *testing.T) {
	var v Value
	if err := v.UnmarshalBinary(nil); err == nil {
		t.Error("empty encoding accepted")
	}
	if err := v.UnmarshalBinary([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("truncated int accepted")
	}
	if err := v.UnmarshalBinary([]byte{99}); err == nil {
		t.Error("invalid kind accepted")
	}
	if err := v.UnmarshalBinary([]byte{byte(KindList), 9, 0, 0, 0, 0, 0, 0, 0, 1}); err == nil {
		t.Error("corrupt list accepted")
	}
}
