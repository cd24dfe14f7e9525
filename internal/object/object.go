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
//   - Objects share their class's layout: an Object is a run of Values, one
//     per slot of a shared Layout (its sorted names). A reader resolves its
//     names to slots once per layout, not per object: a Mask maps a list's
//     mask onto the layout of the objects read through it (WireSize,
//     AppendMasked, the global site's join). There is no Project: a
//     restricted copy was only ever built to be encoded or merged.
//   - A batch of objects that live and die together — a decoded reply, a
//     materialized view — is cut from a Slab: Objects, their values, LOid
//     text and string and reference payloads come from shared chunks. One
//     entry loop and one value parser read every record: masked into a
//     slab (Slab.DecodeMasked), named with allocations of its own
//     (DecodeObject).
//   - A Value is three words, 24 bytes: a data pointer (a string's or
//     reference's text, a list's elements), a payload word (the text's or
//     list's length, or the scalar itself) and a kind byte, so it fits the
//     registers a call passes it in. This file is the one place that builds
//     and reads the data pointer and an object's run of values (unsafe).
package object

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
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
// It is three machine words, small enough for the compiler to keep in
// registers, so a value-receiver call or a Value argument costs no copy
// through memory: the data pointer p, the payload word n and the tag, whose
// low byte is the kind and whose spare bytes hold RefAt's view-slot stamp.
type Value struct {
	p   unsafe.Pointer // KindString, KindRef, KindGRef: the text; KindList: the elements (nil for none)
	n   uint64         // KindInt: the integer; KindBool: 0 or 1; KindFloat: math.Float64bits; text or list: its length
	tag uint64         // the Kind, and for KindRef RefAt's slot+1 shifted past it (0: unstamped)
}

// textKinds is the set of kinds whose payload is text, one bit per kind.
const textKinds = 1<<KindString | 1<<KindRef | 1<<KindGRef

// textValue returns a value of a text kind holding s.
func textValue(k Kind, s string) Value {
	return Value{tag: uint64(k), p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// str is the text of a value of a text kind.
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.n) }

// stringOf returns b as a string without a copy; b must never change again.
func stringOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Null returns the null value, representing missing data.
func Null() Value { return Value{tag: uint64(KindNull)} }

// Int returns an integer value.
func Int(v int64) Value { return Value{tag: uint64(KindInt), n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{tag: uint64(KindFloat), n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value { return textValue(KindString, v) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{tag: uint64(KindBool), n: n}
}

// Ref returns a reference to a local object, i.e. the value of a complex
// attribute in a component database.
func Ref(id LOid) Value { return textValue(KindRef, string(id)) }

// RefAt returns Ref(id) stamped with slot, its target's position in the view
// that holds it. Only RefSlot reads the stamp: Equal, Compare, WireSize,
// String and AppendBinary read it as Ref(id), so it reaches no answer or wire.
func RefAt(id LOid, slot int) Value {
	v := Ref(id)
	v.tag |= uint64(slot+1) << 8
	return v
}

// RefSlot returns the slot RefAt stamped on a reference; ok is false for an
// unstamped reference and for every other kind.
func (v Value) RefSlot() (slot int, ok bool) {
	return int(v.tag>>8) - 1, v.Kind() == KindRef && v.tag>>8 != 0
}

// GRef returns a reference to a global object, i.e. the value of a complex
// attribute after LOids have been transformed to GOids during integration.
func GRef(id GOid) Value { return textValue(KindGRef, string(id)) }

// List returns a multi-valued attribute value. The elements are copied.
func List(elems ...Value) Value {
	return listOf(append([]Value(nil), elems...))
}

// listOf wraps elems, which the caller gives up, as a list value.
func listOf(elems []Value) Value {
	if len(elems) == 0 {
		return Value{tag: uint64(KindList)}
	}
	return Value{tag: uint64(KindList), p: unsafe.Pointer(unsafe.SliceData(elems)), n: uint64(len(elems))}
}

// Kind reports the kind of the value. The zero Value reports 0.
func (v Value) Kind() Kind { return Kind(uint8(v.tag)) }

// IsNull reports whether the value is the null value.
func (v Value) IsNull() bool { return v.Kind() == KindNull }

// IsRef reports whether the value is a local or global object reference.
func (v Value) IsRef() bool { return v.Kind() == KindRef || v.Kind() == KindGRef }

// Int64 returns the integer payload. It is valid only for KindInt.
func (v Value) Int64() int64 { return int64(v.n) }

// Float64 returns the float payload. It is valid only for KindFloat.
func (v Value) Float64() float64 { return math.Float64frombits(v.n) }

// Text returns the string payload. It is valid for KindString (and reads a
// reference's identifier); it is "" for every other kind.
func (v Value) Text() string {
	if 1<<v.Kind()&textKinds == 0 {
		return ""
	}
	return v.str()
}

// BoolVal returns the boolean payload. It is valid only for KindBool.
func (v Value) BoolVal() bool { return v.n != 0 }

// RefLOid returns the referenced LOid. It is valid only for KindRef.
func (v Value) RefLOid() LOid { return LOid(v.Text()) }

// Elems returns the elements of a list value. The returned slice must not be
// modified. It is nil for every other kind.
func (v Value) Elems() []Value {
	if v.Kind() != KindList {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), v.n)
}

// Equal reports whether two values are identical (same kind and payload).
// Null equals null under this relation; three-valued comparison semantics
// belong to package eval, not here.
func (v Value) Equal(w Value) bool {
	if v.Kind() != w.Kind() {
		// Numeric cross-kind equality: 3 == 3.0.
		if bothNumeric(v, w) {
			return v.asFloat() == w.asFloat()
		}
		return false
	}
	switch v.Kind() {
	case KindNull:
		return true
	case KindInt, KindBool:
		return v.n == w.n
	case KindFloat:
		// A comparison of floats, not of their bits: -0 equals 0 and NaN
		// equals nothing, itself included.
		return v.Float64() == w.Float64()
	case KindString, KindRef, KindGRef:
		return v.str() == w.str()
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
	return (v.Kind() == KindInt || v.Kind() == KindFloat) &&
		(w.Kind() == KindInt || w.Kind() == KindFloat)
}

func (v Value) asFloat() float64 {
	if v.Kind() == KindInt {
		return float64(int64(v.n))
	}
	return v.Float64()
}

// Compare orders two values. It returns a negative, zero, or positive integer
// when v sorts before, equal to, or after w, and ok=false when the values are
// not comparable (different non-numeric kinds, nulls, refs or lists).
func (v Value) Compare(w Value) (int, bool) {
	if v.Kind() == KindNull || w.Kind() == KindNull {
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
	if v.Kind() != w.Kind() {
		return 0, false
	}
	switch v.Kind() {
	case KindString:
		return strings.Compare(v.str(), w.str()), true
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
	switch v.Kind() {
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
	switch v.Kind() {
	case KindNull:
		return "-"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindRef:
		return "@" + v.str()
	case KindGRef:
		return "@@" + v.str()
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

// Layout is the attribute names, sorted and free of repeats, that a batch of
// objects is laid out by: slot k of each holds the value of names[k], or a
// zero Value. It is immutable and shared: a store extent's objects share
// their class's, a decoded retrieve list's objects its mask (bar sparse
// ones: DecodeMasked), a view class's objects its involved attributes.
type Layout struct {
	names []string
	held  bool // a store's: an object laid out by it is one a store holds
}

// NewLayout returns the layout of names, which is kept, not copied.
func NewLayout(names []string) *Layout { return &Layout{names: names} }

// HeldLayout is NewLayout for a store's extent, whose objects LaidOut copies
// instead of editing.
func HeldLayout(names []string) *Layout { return &Layout{names: names, held: true} }

// Names returns the layout's names in slot order, nil for a nil layout.
func (l *Layout) Names() []string {
	if l == nil {
		return nil
	}
	return l.names
}

// Object is a stored object: an identifier plus named attribute values.
// Attributes that are missing for the object's class, or null in the source
// database, are simply absent (Attr returns Null for them). The names are its
// Layout's, in name order, and it holds a bare Value per slot.
//
// An Object is not safe for concurrent mutation. Stored objects are shared
// by pointer between a store, its readers and the retrieve replies that ship
// them: a store never edits an object after inserting it (another store
// inserting it lays out a copy), and readers restrict what they see with a
// Mask instead of a restricted copy. Set, SetSlot and Rename are for the sole
// holder of an object. The modeled size of the whole object, which every
// scan and fetch charges, is kept beside the values by whatever changes them.
type Object struct {
	LOid   LOid
	Class  string
	layout *Layout
	vals   *Value // the first of the run, a value per slot of layout
	wire   int    // the present values' Value.WireSize, summed
}

// wireOf is v.WireSize() for keeping an object's size up to date: a plain
// primitive, which most attributes are, is answered inline, without the call
// that WireSize's list loop keeps from inlining.
func wireOf(v *Value) int {
	if v.Kind() >= KindInt && v.Kind() <= KindBool {
		return AttrWireSize
	}
	return v.WireSize()
}

// missing reports whether v represents missing data: null or the zero Value.
func missing(v Value) bool { return v.Kind() == 0 || v.Kind() == KindNull }

// New returns an object holding a copy of the supplied attributes, laid out
// by the names it holds. Null values are normalized away: a null attribute
// and an absent attribute both represent missing data.
func New(id LOid, class string, attrs map[string]Value) *Object {
	o := &Object{LOid: id, Class: class}
	names := make([]string, 0, len(attrs))
	for k, v := range attrs {
		if !missing(v) {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	o.setValues(NewLayout(names), make([]Value, len(names)))
	for k, name := range names {
		o.SetSlot(k, attrs[name])
	}
	return o
}

// setValues lays o out by l over vals, a value per slot.
func (o *Object) setValues(l *Layout, vals []Value) { o.layout, o.vals = l, unsafe.SliceData(vals) }

// values is o's run of values, a value per slot of its layout.
func (o *Object) values() []Value { return unsafe.Slice(o.vals, len(o.layout.Names())) }

// Layout returns the layout o is laid out by; nil for the zero Object.
func (o *Object) Layout() *Layout { return o.layout }

// Attr returns the value of the named attribute, or Null when it is missing.
// It scans the layout's handful of names, small enough to inline.
func (o *Object) Attr(name string) Value {
	if o.layout != nil {
		for k, n := range o.layout.names {
			if n == name {
				if v := *(*Value)(unsafe.Add(unsafe.Pointer(o.vals), uintptr(k)*unsafe.Sizeof(Value{}))); v.tag != 0 {
					return v
				}
				break
			}
		}
	}
	return Null()
}

// Slot returns the value in slot k: the zero Value where it is absent.
func (o *Object) Slot(k int) Value { return o.values()[k] }

// SetSlot stores v in slot k, or clears the slot when v is missing data.
func (o *Object) SetSlot(k int, v Value) {
	e := &o.values()[k]
	if e.tag != 0 {
		o.wire -= wireOf(e)
	}
	if *e = v; missing(v) {
		*e = Value{}
	} else {
		o.wire += wireOf(e)
	}
}

// Rename gives o a new identity and the layout l, which must name what o's
// does (checked once per layout by the caller, not here): the values stay.
func (o *Object) Rename(id LOid, class string, l *Layout) {
	_ = o.values()[:len(l.Names())] // a wider layout panics
	o.LOid, o.Class, o.layout = id, class, l
}

// LaidOut returns o laid out by l, which must name every attribute o holds:
// o itself, relaid in place, or, if a store holds o (its layout is a
// HeldLayout), a copy, so that a stored object is never edited. The values
// move to l's slots unless o's layout names what l does.
func (o *Object) LaidOut(l *Layout) *Object {
	if o.layout == l {
		return o
	}
	cp := o
	if o.layout != nil && o.layout.held {
		cp = new(Object)
		*cp = *o
	}
	if !slices.Equal(o.layout.Names(), l.Names()) {
		vals := make([]Value, len(l.names))
		for i, v := range o.values() {
			if k, ok := slices.BinarySearch(l.names, o.layout.names[i]); ok {
				vals[k] = v
			}
		}
		cp.vals = unsafe.SliceData(vals)
	}
	cp.layout = l
	return cp
}

// Len returns the number of (non-null) attributes the object holds.
func (o *Object) Len() int {
	n := 0
	for _, v := range o.values() {
		if v.tag != 0 {
			n++
		}
	}
	return n
}

// Set stores an attribute value, or deletes it when v is null. A name o's
// layout lacks gives o a layout of its own: Set builds objects by hand.
func (o *Object) Set(name string, v Value) {
	k, ok := slices.BinarySearch(o.layout.Names(), name)
	if !ok && !missing(v) {
		*o = *o.LaidOut(NewLayout(slices.Insert(slices.Clone(o.layout.Names()), k, name)))
	}
	if ok || !missing(v) {
		o.SetSlot(k, v)
	}
}

// Clone returns a copy with values of its own, sharing o's layout.
func (o *Object) Clone() *Object {
	cp := *o
	cp.setValues(o.layout, slices.Clone(o.values()))
	return &cp
}

// WireSize returns the bytes needed to ship the object through mask (nil
// for all attributes), its LOid included: the paper's Table 1 cost model,
// not the size of any encoding.
func (o *Object) WireSize(mask *Mask) int {
	if mask == nil {
		return LOidWireSize + o.wire
	}
	n, vals := LOidWireSize, o.values()
	for _, k := range mask.Slots(o.layout) {
		if k >= 0 && vals[k].tag != 0 {
			n += wireOf(&vals[k])
		}
	}
	return n
}

// AttrNames returns the names of the attributes the object holds, sorted.
func (o *Object) AttrNames() []string {
	var names []string
	for k, v := range o.values() {
		if v.tag != 0 {
			names = append(names, o.layout.names[k])
		}
	}
	return names
}

// String renders the object for diagnostics.
func (o *Object) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]{", o.Class, o.LOid)
	for i, name := range o.AttrNames() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", name, o.Attr(name))
	}
	b.WriteByte('}')
	return b.String()
}

// Mask is a list's mask, sorted names, resolved to the slots of the layout
// of the objects read through it (-1 where it has none) once per layout: a
// list whose objects share a layout resolves it once. Not for concurrent use.
type Mask struct {
	names  []string
	layout *Layout
	slots  []int32
}

// NewMask returns the mask of names, which is kept, not copied.
func NewMask(names []string) *Mask { return &Mask{names: names} }

// Reset makes m the mask of names, keeping its room for slots.
func (m *Mask) Reset(names []string) { *m = Mask{names: names, slots: m.slots[:0:cap(m.slots)]} }

// Slots returns the mask's slots in l, valid until the next call.
func (m *Mask) Slots(l *Layout) []int32 {
	if len(m.slots) == len(m.names) && l == m.layout {
		return m.slots
	}
	m.layout, m.slots = l, m.slots[:0]
	for _, name := range m.names {
		k, ok := slices.BinarySearch(l.Names(), name)
		m.slots = append(m.slots, int32(k))
		if !ok {
			m.slots[len(m.slots)-1] = -1
		}
	}
	return m.slots
}

// AppendBinary appends the value's binary encoding to dst and returns the
// extended slice. The encoding is not self-delimiting (a string runs to the
// end of the input); AppendValue frames it for use inside a larger message.
func (v Value) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case 0, KindNull:
	case KindInt, KindBool, KindFloat:
		dst = appendInt64(dst, int64(v.n))
	case KindString, KindRef, KindGRef:
		dst = append(dst, v.str()...)
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
		return nil, fmt.Errorf("object: marshal of invalid kind %d", v.Kind())
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
		*v = Value{tag: uint64(kind)}
	case KindInt, KindBool, KindFloat:
		i, rest, err := readInt64(payload)
		if err != nil {
			return err
		}
		if len(rest) != 0 || kind == KindBool && uint64(i) > 1 {
			return fmt.Errorf("object: non-canonical %s encoding", kind)
		}
		*v = Value{tag: uint64(kind), n: uint64(i)}
	case KindString, KindRef, KindGRef:
		*v = textValue(kind, slab.str(payload, room))
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
