package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// This file holds the binary encodings of an object. The named record is
// self-describing and serves WAL insert records and snapshots on disk and
// store requests on the wire:
//
//	object = class:str loid:str nattrs:uvarint (name:str value)*nattrs
//	value  = len:uvarint bytes[len]        bytes = Value.AppendBinary
//	str    = len:uvarint bytes[len]
//
// Attributes are written in name order — the order of an Object's layout —
// and the decoder rejects any other, so an object has exactly one encoding
// and the decoder can fill its values in place.
//
// The masked record serves retrieve lists, which name the class and the
// attributes once for all their objects: it is an object read through a
// mask (sorted, free of repeats), positionally.
//
//	masked = loid:str present:u8[⌈len(mask)/8⌉] value*
//
// Bit j of present (byte j/8, bit j%8) means the object holds mask[j]; the
// values of the set bits follow in mask order. No bit past len(mask) is set
// and no present value is null, so a masked record has one encoding too. A
// decoded masked record is laid out by its mask, value j in slot j, unless it
// holds under a quarter of the mask: then by the names it holds, so that the
// slots of a wide mask are paid for by the values that fill them.
//
// One entry loop (decodeEntries) and one value parser (Value.unmarshal) read
// both back, into a Slab's chunks when one is given.

var errCorrupt = errors.New("object: corrupt record")

// Interner deduplicates the strings a decoder meets over and over — class
// and attribute names, which repeat on every object of a reply — so decoding
// n objects allocates each name once instead of n times. One message names a
// handful of classes and attributes, so the table is a short slice searched
// linearly (faster than hashing at that size) and stops admitting entries at
// maxInterned, which bounds what a hostile message can make a lookup cost.
// The zero value is ready to use; a nil *Interner allocates every string.
type Interner struct {
	seen []string
}

const maxInterned = 64

// Intern returns a string equal to b, reusing an earlier one when it can.
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	for _, s := range in.seen {
		if s == string(b) { // compares in place, no conversion is allocated
			return s
		}
	}
	s := string(b)
	if len(in.seen) < maxInterned {
		in.seen = append(in.seen, s)
	}
	return s
}

// AppendValue appends v framed by its length, so it can sit in the middle of
// a larger message: the self-delimiting form of Value.AppendBinary.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	// The prefix width is not known until the value is encoded. Nearly every
	// value fits one prefix byte, so one is reserved; a longer value is
	// shifted right to make room — either way no scratch buffer per value.
	at := len(dst)
	dst = append(dst, 0)
	dst, err := v.AppendBinary(dst)
	if err != nil {
		return nil, err
	}
	return setUvarint(dst, at, uint64(len(dst)-at-1)), nil
}

// DecodeValue decodes one AppendValue encoding from the front of b and
// returns the bytes after it.
func DecodeValue(b []byte) (Value, []byte, error) {
	raw, rest, err := readBytes(b)
	if err != nil {
		return Value{}, nil, err
	}
	var v Value
	if err := v.UnmarshalBinary(raw); err != nil {
		return Value{}, nil, err
	}
	return v, rest, nil
}

// AppendObject appends the object's named record to dst.
func AppendObject(dst []byte, o *Object) ([]byte, error) {
	dst = appendString(dst, o.Class)
	dst = appendString(dst, string(o.LOid))
	dst = binary.AppendUvarint(dst, uint64(o.Len()))
	for k, v := range o.values() {
		if v.tag == 0 {
			continue
		}
		var err error
		if dst, err = appendSlot(appendString(dst, o.layout.names[k]), o, k); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendMasked appends o's masked record through mask: its LOid, the bitmap
// of the mask's names it holds, and their values in mask order, read by the
// slots the mask resolves in o's layout. What o holds outside the mask is not
// written.
func AppendMasked(dst []byte, o *Object, mask *Mask) ([]byte, error) {
	dst = appendString(dst, string(o.LOid))
	at := len(dst)
	for range (len(mask.names) + 7) / 8 {
		dst = append(dst, 0)
	}
	vals := o.values()
	for j, k := range mask.Slots(o.layout) {
		if k < 0 || vals[k].tag == 0 {
			continue
		}
		dst[at+j/8] |= 1 << (j % 8)
		var err error
		if dst, err = appendSlot(dst, o, int(k)); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// setUvarint writes v as the uvarint whose first byte was reserved at
// dst[at]; a longer one shifts what follows to the right.
func setUvarint(dst []byte, at int, v uint64) []byte {
	if v < 0x80 {
		dst[at] = byte(v)
		return dst
	}
	var pre [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(pre[:], v)
	tail := len(dst) - at - 1
	dst = append(dst, pre[1:w]...)
	copy(dst[at+w:], dst[at+1:at+1+tail])
	copy(dst[at:], pre[:w])
	return dst
}

// appendSlot appends the value in o's slot k, naming the object and the
// attribute in a failure.
func appendSlot(dst []byte, o *Object, k int) ([]byte, error) {
	dst, err := AppendValue(dst, o.values()[k])
	if err != nil {
		return nil, fmt.Errorf("object: encode %s.%s: %w", o.LOid, o.layout.names[k], err)
	}
	return dst, nil
}

// Least encoded sizes: of a value a one-byte length and a kind byte; of a
// named attribute an empty name before that.
const (
	minValueBytes = 2
	minAttrBytes  = 3
)

// DecodeObject decodes one named record from the front of b and returns the
// bytes after it. The object has allocations of its own, a layout of the
// names it holds among them; nothing it holds shares memory with b. Class and
// attribute names go through in (which may be nil). Null and zero-kind values
// are dropped as New drops them; names out of order or repeated are
// corruption.
func DecodeObject(b []byte, in *Interner) (*Object, []byte, error) {
	class, b, err := readBytes(b)
	if err != nil {
		return nil, nil, err
	}
	loid, b, err := readBytes(b)
	if err != nil {
		return nil, nil, err
	}
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w)/minAttrBytes {
		// Checked against the bytes that remain before the values are
		// allocated: a count cannot claim more than the input can hold.
		return nil, nil, fmt.Errorf("%w: attribute count", errCorrupt)
	}
	o := &Object{Class: in.Intern(class), LOid: LOid(loid)}
	return (*Slab)(nil).decodeEntries(o, b[w:], int(n), in, make([]string, 0, n), make([]Value, n), nil)
}

// DecodeMasked decodes one masked record of class through the mask l names
// (sorted, free of repeats, as the list that carries the record checks once)
// from the front of b and returns the bytes after it. The Object, its values,
// its LOid and its string and reference payloads are cut from the slab, and
// it is laid out by l, or by the names it holds when they are under a
// quarter of l's. Nothing the object holds shares memory with b. A bit
// past the mask, or a present value that is null or of zero kind, is
// corruption.
func (s *Slab) DecodeMasked(b []byte, class string, l *Layout) (*Object, []byte, error) {
	mask := l.Names()
	loid, b, err := readBytes(b)
	if err != nil {
		return nil, nil, err
	}
	width := (len(mask) + 7) / 8
	if len(b) < width {
		return nil, nil, fmt.Errorf("%w: %s: presence bitmap", errCorrupt, loid)
	}
	present, b := b[:width], b[width:]
	n := 0
	for _, m := range present {
		n += bits.OnesCount8(m)
	}
	if width > 0 && present[width-1]>>(len(mask)-8*(width-1)) != 0 {
		return nil, nil, fmt.Errorf("%w: %s: presence bit past %d attributes", errCorrupt, loid, len(mask))
	}
	if n > len(b)/minValueBytes {
		return nil, nil, fmt.Errorf("%w: %s: %d values marked present", errCorrupt, loid, n)
	}
	if 4*n < len(mask) { // a slot per name would cost more than the record pays for
		names := make([]string, 0, n)
		for j, name := range mask {
			if present[j/8]&(1<<(j%8)) != 0 {
				names = append(names, name)
			}
		}
		l = NewLayout(names)
	}
	// Room for the records the rest of the input could still hold, and for
	// two slots a byte: a record laid out by its mask holds a quarter of it,
	// each value two bytes at least.
	o := s.cut(l, 1+len(b)/(1+width), 2*len(b))
	o.Class, o.LOid = class, LOid(s.str(loid, len(loid)+len(b)))
	return s.decodeEntries(o, b, n, nil, nil, o.values(), present)
}

// decodeEntries is the one entry loop: it decodes o's n attributes from the
// front of b into vals and returns the bytes after them. A masked record's
// i-th value goes to the slot of the i-th name present marks (slot i if o is
// laid out by the names it holds), vals being o's own; a named record
// (present nil) spells each name before its value, appended to names in the
// slot its value takes, and o is laid out by them over vals at the end. Each
// value is parsed in place, its payload cut from the slab.
func (s *Slab) decodeEntries(o *Object, b []byte, n int, in *Interner, names []string, vals []Value, present []byte) (*Object, []byte, error) {
	var prev string
	j := -1 // the last value's slot in a named record, its mask position in a masked one
	for i := 0; i < n; i++ {
		var name string
		var raw []byte
		var err error
		k := i // the value's slot
		if present == nil {
			if raw, b, err = readBytes(b); err != nil {
				return nil, nil, err
			}
			j, name = len(names), in.Intern(raw)
			k, names = j, append(names, name)
		} else {
			for j++; present[j/8]&(1<<(j%8)) == 0; j++ {
			}
			if len(vals) > n { // laid out by its mask, not by the names it holds
				k = j
			}
			name = o.layout.names[k]
		}
		if raw, b, err = readBytes(b); err != nil {
			return nil, nil, err
		}
		// The value is decoded where it will stay; a named entry that turns
		// out to hold missing data is given back.
		e := &vals[k]
		if err := e.unmarshal(raw, 0, s, len(raw)+len(b)); err != nil {
			return nil, nil, fmt.Errorf("object: decode %s.%s: %w", o.LOid, name, err)
		}
		if present != nil {
			if missing(*e) {
				return nil, nil, fmt.Errorf("%w: %s: %s marked present, holds no value", errCorrupt, o.LOid, name)
			}
		} else {
			if i > 0 && prev >= name {
				return nil, nil, fmt.Errorf("%w: %s: attribute %q out of order", errCorrupt, o.LOid, name)
			}
			prev = name
			if missing(*e) {
				*e = Value{}
				names = names[:j]
				continue
			}
		}
		o.wire += wireOf(e)
	}
	if present == nil {
		o.setValues(NewLayout(names), vals)
	}
	return o, b, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readBytes splits one length-prefixed field off the front of b. The result
// aliases b.
func readBytes(b []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("%w: field length", errCorrupt)
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}
