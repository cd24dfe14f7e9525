// Package object defines the value and object model shared by every layer of
// hetfed: typed attribute values (including null and object references),
// local and global object identifiers, and the objects stored in component
// databases.
//
// The model follows the paper's object data model: an object is a set of
// attribute values identified by a local object identifier (LOid) that is
// unique within its component database. The same real-world entity may be
// stored in several component databases under incompatible LOids; such
// objects are called isomeric and share a global object identifier (GOid).
//
// Values are immutable. A stored Object is shared by pointer between its
// store and any number of concurrent readers, so everything a read needs —
// including the modeled size WireSize(nil) reports — is settled by the call
// that built or changed the object, never filled in lazily by a reader.
//
// Three choices keep the centralized approach, which moves every relevant
// object of a federation through this package three times per query, from
// paying for each object three times over:
//
//   - There is no Project. A reader that wants an object restricted to some
//     attributes reads it through a mask — Projected, WireSize(mask),
//     AppendMasked — a two-pointer walk over the object's name-sorted
//     entries and the sorted mask. A restricted copy was only ever built to be
//     encoded or merged and then dropped. AppendMasked's record is
//     positional: the mask, like the class, is its list's to name once.
//   - A batch of objects that live and die together — a decoded reply, a
//     materialized view — is cut from a Slab: Objects, attribute entries,
//     LOid text and string and reference payloads come from shared chunks, a
//     handful of allocations per thousand objects. One entry loop and one
//     value parser read every record: masked into a slab
//     (Slab.DecodeMasked), named with allocations of its own (DecodeObject).
//   - A Value is 40 bytes, an attribute entry 56: the scalar payloads share
//     one word and the rare list sits behind a pointer, so every slab, result
//     row and navigation outcome is a third smaller than with a field per
//     kind.
package object

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// LOid is a local object identifier, unique within one component database.
type LOid string

// GOid is a global object identifier. All isomeric objects (objects in
// different component databases representing the same real-world entity)
// share a single GOid.
type GOid string

// SiteID names a component database site (for example "DB1"). The global
// processing site is a SiteID as well.
type SiteID string

// Wire sizes in bytes, following Table 1 of the paper. They drive the byte
// accounting used by both the real and the simulated fabric, so that disk
// and network costs are comparable across execution strategies.
const (
	// AttrWireSize is the average size of one attribute value (S_a).
	AttrWireSize = 32
	// GOidWireSize is the size of a GOid (S_GOid).
	GOidWireSize = 16
	// LOidWireSize is the size of an LOid (S_LOid).
	LOidWireSize = 16
	// SignatureWireSize is the size of one object signature (S_s).
	SignatureWireSize = 32
)

// Kind enumerates the kinds of attribute values.
type Kind int

// Value kinds. KindNull marks missing data: either an original null value in
// a component database or the value of a missing attribute.
const (
	KindNull Kind = iota + 1
	KindInt
	KindFloat
	KindString
	KindBool
	KindRef  // reference to a local object (complex attribute, component view)
	KindGRef // reference to a global object (complex attribute, integrated view)
	KindList // multi-valued attribute
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindRef:
		return "ref"
	case KindGRef:
		return "gref"
	case KindList:
		return "list"
	default:
		return "invalid"
	}
}

// Value is an immutable attribute value. The zero Value is invalid; use the
// constructors (Null, Int, Float, Str, Bool, Ref, GRef, List).
//
// It is 40 bytes: an integer, a boolean and a float's bits share the word n,
// and a list — the rare kind — sits behind a pointer, so the scalar values
// that fill every entry slab, result row and navigation outcome do not carry
// a slice header they never use.
type Value struct {
	kind Kind
	n    uint64   // KindInt: the integer; KindBool: 0 or 1; KindFloat: math.Float64bits; KindRef: slot+1 or 0
	s    string   // KindString, KindRef, KindGRef
	list *[]Value // KindList with elements; nil for the empty list
}

// Null returns the null value, representing missing data.
func Null() Value { return Value{kind: KindNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Ref returns a reference to a local object, i.e. the value of a complex
// attribute in a component database.
func Ref(id LOid) Value { return Value{kind: KindRef, s: string(id)} }

// RefAt returns Ref(id) stamped with slot, its target's position in the view
// that holds it. Only RefSlot reads the stamp: Equal, Compare, WireSize,
// String and AppendBinary read it as Ref(id), so it reaches no answer or wire.
func RefAt(id LOid, slot int) Value { return Value{kind: KindRef, s: string(id), n: uint64(slot) + 1} }

// RefSlot returns the slot RefAt stamped on a reference; ok is false for an
// unstamped reference and for every other kind. It and RefLOid take a
// pointer: at 40 bytes a Value is not kept in registers, and a value
// receiver copies a reference just passed in (eval.Source.Fetch) whole,
// through a store-forwarding stall.
func (v *Value) RefSlot() (slot int, ok bool) { return int(v.n) - 1, v.kind == KindRef && v.n != 0 }

// GRef returns a reference to a global object, i.e. the value of a complex
// attribute after LOids have been transformed to GOids during integration.
func GRef(id GOid) Value { return Value{kind: KindGRef, s: string(id)} }

// List returns a multi-valued attribute value. The elements are copied.
func List(elems ...Value) Value {
	return listOf(append([]Value(nil), elems...))
}

// listOf wraps elems, which the caller gives up, as a list value.
func listOf(elems []Value) Value {
	if len(elems) == 0 {
		return Value{kind: KindList}
	}
	return Value{kind: KindList, list: &elems}
}

// Kind reports the kind of the value. The zero Value reports 0.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsRef reports whether the value is a local or global object reference.
func (v Value) IsRef() bool { return v.kind == KindRef || v.kind == KindGRef }

// Int64 returns the integer payload. It is valid only for KindInt.
func (v Value) Int64() int64 { return int64(v.n) }

// Float64 returns the float payload. It is valid only for KindFloat.
func (v Value) Float64() float64 { return math.Float64frombits(v.n) }

// Text returns the string payload. It is valid only for KindString.
func (v Value) Text() string { return v.s }

// BoolVal returns the boolean payload. It is valid only for KindBool.
func (v Value) BoolVal() bool { return v.n != 0 }

// RefLOid returns the referenced LOid. It is valid only for KindRef.
func (v *Value) RefLOid() LOid { return LOid(v.s) }

// Elems returns the elements of a list value. The returned slice must not be
// modified. It is valid only for KindList.
func (v Value) Elems() []Value {
	if v.list == nil {
		return nil
	}
	return *v.list
}

// Equal reports whether two values are identical (same kind and payload).
// Null equals null under this relation; three-valued comparison semantics
// belong to package eval, not here.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		// Numeric cross-kind equality: 3 == 3.0.
		if bothNumeric(v, w) {
			return v.asFloat() == w.asFloat()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt, KindBool:
		return v.n == w.n
	case KindFloat:
		// A comparison of floats, not of their bits: -0 equals 0 and NaN
		// equals nothing, itself included.
		return v.Float64() == w.Float64()
	case KindString, KindRef, KindGRef:
		return v.s == w.s
	case KindList:
		a, b := v.Elems(), w.Elems()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func bothNumeric(v, w Value) bool {
	return (v.kind == KindInt || v.kind == KindFloat) &&
		(w.kind == KindInt || w.kind == KindFloat)
}

func (v Value) asFloat() float64 {
	if v.kind == KindInt {
		return float64(int64(v.n))
	}
	return v.Float64()
}

// Compare orders two values. It returns a negative, zero, or positive integer
// when v sorts before, equal to, or after w, and ok=false when the values are
// not comparable (different non-numeric kinds, nulls, refs or lists).
func (v Value) Compare(w Value) (int, bool) {
	if v.kind == KindNull || w.kind == KindNull {
		return 0, false
	}
	if bothNumeric(v, w) {
		a, b := v.asFloat(), w.asFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind != w.kind {
		return 0, false
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, w.s), true
	case KindBool:
		return cmp.Compare(v.n, w.n), true
	default:
		return 0, false
	}
}

// WireSize returns the number of bytes this value contributes to a message
// or disk page under the paper's cost model: references cost an OID,
// everything else costs one average attribute.
func (v Value) WireSize() int {
	switch v.kind {
	case KindRef:
		return LOidWireSize
	case KindGRef:
		return GOidWireSize
	case KindList:
		n := 0
		for _, e := range v.Elems() {
			n += e.WireSize()
		}
		return n
	case KindNull:
		return 0
	default:
		return AttrWireSize
	}
}

// String renders the value for diagnostics and example output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "-"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindRef:
		return "@" + v.s
	case KindGRef:
		return "@@" + v.s
	case KindList:
		parts := make([]string, len(v.Elems()))
		for i, e := range v.Elems() {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "<invalid>"
	}
}

// Object is a stored object: an identifier plus named attribute values.
// Attributes that are missing for the object's class, or null in the source
// database, are simply absent (Attr returns Null for them).
//
// The attributes are a slice of (name, value) entries sorted by name, not a
// hash map: objects hold a handful of attributes, a federation moves
// thousands of them per query, and a map's fixed cost per object (hundreds
// of bytes, a hash per access) dominated the centralized approach. Every
// traversal — At, AttrNames, String, the record encoding — is therefore in
// name order for free.
//
// An Object is not safe for concurrent mutation. Stored objects are shared
// by pointer between a store, its concurrent readers and the retrieve replies
// that ship them, none of which copies: a store never edits an object after
// inserting it, and readers restrict what they see with Projected instead of
// building a restricted copy. Set is for the builder of an object nobody else
// holds yet; on a shared one it races with the readers as a map write would.
//
// The modeled size of the whole object — what every scan and fetch charges
// as a disk read — is kept beside the entries by whatever builds or changes
// them: New, Set, Append, Rewrite, Clone and the decoders.
type Object struct {
	LOid  LOid
	Class string
	attrs []attr // sorted by name, names unique, no null values
	wire  int    // the entries' Value.WireSize, summed
}

// attr is one attribute entry of an Object.
type attr struct {
	name string
	val  Value
}

// wireOf is v.WireSize() for keeping an object's size up to date: a plain
// primitive, which most attributes are, is answered inline, without the call
// and the copy of the value that three constructions of every object shipped
// (projected, decoded, merged into the view) would otherwise each pay.
func wireOf(v *Value) int {
	if v.kind >= KindInt && v.kind <= KindBool {
		return AttrWireSize
	}
	return v.WireSize()
}

// missing reports whether v represents missing data: null or the zero Value.
func missing(v Value) bool { return v.kind == 0 || v.kind == KindNull }

// New returns an object holding a copy of the supplied attributes. Null
// values are normalized away: a null attribute and an absent attribute are
// indistinguishable, both representing missing data.
func New(id LOid, class string, attrs map[string]Value) *Object {
	o := &Object{LOid: id, Class: class}
	if len(attrs) == 0 {
		return o
	}
	o.attrs = make([]attr, 0, len(attrs))
	for k, v := range attrs {
		if !missing(v) {
			o.attrs = append(o.attrs, attr{k, v})
			o.wire += wireOf(&v)
		}
	}
	slices.SortFunc(o.attrs, func(a, b attr) int { return strings.Compare(a.name, b.name) })
	return o
}

// find returns the position of the named attribute, or the position it
// would be inserted at and false.
func (o *Object) find(name string) (int, bool) {
	lo, hi := 0, len(o.attrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.attrs[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.attrs) && o.attrs[lo].name == name
}

// Attr returns the value of the named attribute, or Null when the attribute
// is missing (missing attribute of the class, or a null value).
//
// It scans rather than bisects: at the handful of attributes an object holds,
// equality tests (length first) beat both a hash and ordered comparisons (9
// ns against 13 for the map this replaced and 19 for find, at six
// attributes), and the loop is small enough to inline into the evaluator.
func (o *Object) Attr(name string) Value {
	for i := range o.attrs {
		if o.attrs[i].name == name {
			return o.attrs[i].val
		}
	}
	return Null()
}

// Len returns the number of (non-null) attributes the object holds.
func (o *Object) Len() int { return len(o.attrs) }

// At returns the i-th attribute in name order, 0 <= i < Len().
func (o *Object) At(i int) (name string, v Value) {
	return o.attrs[i].name, o.attrs[i].val
}

// Set stores an attribute value, or deletes the attribute when v is null.
func (o *Object) Set(name string, v Value) {
	i, ok := o.find(name)
	switch {
	case missing(v):
		if ok {
			o.wire -= wireOf(&o.attrs[i].val)
			o.attrs = append(o.attrs[:i], o.attrs[i+1:]...)
		}
	case ok:
		o.wire += wireOf(&v) - wireOf(&o.attrs[i].val)
		o.attrs[i].val = v
	default:
		o.wire += wireOf(&v)
		o.attrs = append(o.attrs, attr{})
		copy(o.attrs[i+1:], o.attrs[i:])
		o.attrs[i] = attr{name, v}
	}
}

// Append is Set for a builder that meets its attributes in name order: v is
// not null and name sorts after every name the object holds.
func (o *Object) Append(name string, v Value) {
	o.wire += wireOf(&v)
	o.attrs = append(o.attrs, attr{name, v})
}

// Rewrite is for the sole holder of o: fn is handed each entry mask selects
// (as for Projected) by its position in mask, and may replace its value in
// place. An entry fn rejects, and one outside mask, is dropped.
func (o *Object) Rewrite(mask []string, fn func(j int, v *Value) bool) {
	kept, j := 0, 0
	o.wire = 0
	for i := range o.attrs {
		e := &o.attrs[i]
		for j < len(mask) && mask[j] < e.name {
			j++
		}
		if j == len(mask) || mask[j] != e.name || !fn(j, &e.val) {
			continue
		}
		if kept != i {
			o.attrs[kept] = *e
		}
		kept++
		o.wire += wireOf(&e.val)
	}
	o.attrs = o.attrs[:kept]
}

// Clone returns a deep-enough copy: the attribute entries are copied (values
// are immutable, so they are shared).
func (o *Object) Clone() *Object {
	return &Object{LOid: o.LOid, Class: o.Class, attrs: append([]attr(nil), o.attrs...), wire: o.wire}
}

// Projection is a cursor over the attributes of an object that a mask names:
// the projection of the object on the mask, read in place instead of copied
// out. Object.Projected starts one.
type Projection struct {
	attrs []attr
	mask  []string
	width int // the whole mask's length
}

// Projected returns a cursor over the object's attributes whose names are in
// mask, in name order. The mask must be sorted and free of repeats, as
// query.Bound.Involved lists a class's attributes; the walk advances through
// the two sorted lists together, so it costs their lengths, not their
// product. A nil or empty mask selects nothing.
func (o *Object) Projected(mask []string) Projection {
	return Projection{attrs: o.attrs, mask: mask, width: len(mask)}
}

// next returns the next selected entry, or nil when the walk is over.
func (p *Projection) next() *attr {
	for len(p.attrs) > 0 && len(p.mask) > 0 {
		e := &p.attrs[0]
		c := strings.Compare(e.name, p.mask[0])
		if c <= 0 {
			p.attrs = p.attrs[1:]
		}
		if c >= 0 {
			p.mask = p.mask[1:]
		}
		if c == 0 {
			return e
		}
	}
	return nil
}

// Next returns the next selected attribute by its position j in the mask
// (its name is mask[j]); ok is false when none is left.
func (p *Projection) Next() (j int, v Value, ok bool) {
	if e := p.next(); e != nil {
		return p.width - len(p.mask) - 1, e.val, true
	}
	return 0, Value{}, false
}

// WireSize returns the bytes needed to ship the object projected on the
// given attributes (sorted and free of repeats, as for Projected; pass nil
// for all attributes), including its LOid. This is the paper's Table 1 cost
// model, not the size of any encoding. The whole object's size is kept, not
// summed.
func (o *Object) WireSize(attrs []string) int {
	if attrs == nil {
		return LOidWireSize + o.wire
	}
	n := LOidWireSize
	p := o.Projected(attrs)
	for e := p.next(); e != nil; e = p.next() {
		n += wireOf(&e.val)
	}
	return n
}

// AttrNames returns the object's attribute names in sorted order.
func (o *Object) AttrNames() []string {
	names := make([]string, len(o.attrs))
	for i, e := range o.attrs {
		names[i] = e.name
	}
	return names
}

// String renders the object for diagnostics.
func (o *Object) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]{", o.Class, o.LOid)
	for i, e := range o.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", e.name, e.val)
	}
	b.WriteByte('}')
	return b.String()
}

// AppendBinary appends the value's binary encoding to dst and returns the
// extended slice. The encoding is not self-delimiting (a string runs to the
// end of the input); AppendValue frames it for use inside a larger message.
func (v Value) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case 0, KindNull:
	case KindInt, KindBool, KindFloat:
		dst = appendInt64(dst, int64(v.n))
	case KindString, KindRef, KindGRef:
		dst = append(dst, v.s...)
	case KindList:
		for _, e := range v.Elems() {
			// The element length prefix is fixed-width, so it can be
			// reserved up front and backfilled once the element is encoded.
			at := len(dst)
			dst = appendInt64(dst, 0)
			var err error
			dst, err = e.AppendBinary(dst)
			if err != nil {
				return nil, err
			}
			putInt64(dst[at:], int64(len(dst)-at-8))
		}
	default:
		return nil, fmt.Errorf("object: marshal of invalid kind %d", v.kind)
	}
	return dst, nil
}

// UnmarshalBinary decodes an AppendBinary encoding that fills data exactly.
func (v *Value) UnmarshalBinary(data []byte) error {
	return v.unmarshal(data, 0, nil, 0)
}

// maxListDepth bounds list nesting in a decoded value. The data model nests
// lists at most once (a multi-valued attribute); the bound keeps a hostile
// encoding from driving the decoder's recursion as deep as its input is long.
const maxListDepth = 8

// unmarshal is the one value parser. A string or reference payload is cut
// from slab under Slab.str's rules, room being what the caller's remaining
// input could still hold; a nil slab allocates it.
func (v *Value) unmarshal(data []byte, depth int, slab *Slab, room int) error {
	if len(data) == 0 {
		return fmt.Errorf("object: empty value encoding")
	}
	kind := Kind(data[0])
	payload := data[1:]
	// Only AppendBinary's own bytes decode: a value has one encoding, so a
	// corrupt one cannot read as a value that prints alike and compares apart.
	switch kind {
	case 0, KindNull:
		if len(payload) != 0 {
			return fmt.Errorf("object: %s value with a %d-byte payload", kind, len(payload))
		}
		*v = Value{kind: kind}
	case KindInt, KindBool, KindFloat:
		i, rest, err := readInt64(payload)
		if err != nil {
			return err
		}
		if len(rest) != 0 || kind == KindBool && uint64(i) > 1 {
			return fmt.Errorf("object: non-canonical %s encoding", kind)
		}
		*v = Value{kind: kind, n: uint64(i)}
	case KindString, KindRef, KindGRef:
		*v = Value{kind: kind, s: slab.str(payload, room)}
	case KindList:
		if depth >= maxListDepth {
			return fmt.Errorf("object: list nested deeper than %d", maxListDepth)
		}
		var elems []Value
		for len(payload) > 0 {
			n, rest, err := readInt64(payload)
			if err != nil {
				return err
			}
			if n < 0 || int(n) > len(rest) {
				return fmt.Errorf("object: corrupt list encoding")
			}
			var e Value
			if err := e.unmarshal(rest[:n], depth+1, slab, room); err != nil {
				return err
			}
			elems = append(elems, e)
			payload = rest[n:]
		}
		*v = listOf(elems)
	default:
		return fmt.Errorf("object: unmarshal of invalid kind %d", kind)
	}
	return nil
}

func appendInt64(b []byte, v int64) []byte {
	u := uint64(v)
	return append(b,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// putInt64 overwrites the 8 bytes at the start of b with v's encoding.
func putInt64(b []byte, v int64) {
	u := uint64(v)
	b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	b[4], b[5], b[6], b[7] = byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56)
}

func readInt64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("object: truncated value encoding")
	}
	u := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return int64(u), b[8:], nil
}
