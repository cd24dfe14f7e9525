package object

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file holds the one binary encoding of an object, shared by every
// place objects cross a byte boundary: WAL insert records and snapshots on
// disk, store requests and retrieve replies on the wire.
//
//	object = class:str loid:str nattrs:uvarint (name:str value)*nattrs
//	value  = len:uvarint bytes[len]        bytes = Value.AppendBinary
//	str    = len:uvarint bytes[len]
//
// Attributes are written in name order — the order an Object keeps them in —
// and the decoder rejects any other, so an object has exactly one encoding
// and the decoder can fill the entry slice in place.
//
// A record need not be written from an object that holds exactly its
// attributes: AppendProjected writes the record of a stored object restricted
// to a mask, which is how a retrieve reply ships a projection nobody built.
// One parser, Slab.Decode, reads every record back.

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

// AppendObject appends the object's record encoding to dst.
func AppendObject(dst []byte, o *Object) ([]byte, error) {
	dst = appendString(dst, o.Class)
	dst = appendString(dst, string(o.LOid))
	dst = binary.AppendUvarint(dst, uint64(len(o.attrs)))
	for i := range o.attrs {
		var err error
		if dst, err = appendAttr(dst, o, &o.attrs[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendProjected appends the record of o restricted to the attributes in
// mask (sorted, free of repeats: see Object.Projected) — byte for byte the
// record AppendObject writes for an object holding only those attributes,
// without that object being built.
func AppendProjected(dst []byte, o *Object, mask []string) ([]byte, error) {
	// The count precedes the entries it counts. Like a value's length it
	// nearly always fits the one byte reserved for it.
	dst = appendString(dst, o.Class)
	dst = appendString(dst, string(o.LOid))
	at := len(dst)
	dst = append(dst, 0)
	n := uint64(0)
	p := o.Projected(mask)
	for e := p.next(); e != nil; e = p.next() {
		var err error
		if dst, err = appendAttr(dst, o, e); err != nil {
			return nil, err
		}
		n++
	}
	return setUvarint(dst, at, n), nil
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

func appendAttr(dst []byte, o *Object, e *attr) ([]byte, error) {
	dst, err := AppendValue(appendString(dst, e.name), e.val)
	if err != nil {
		return nil, fmt.Errorf("object: encode %s.%s: %w", o.LOid, e.name, err)
	}
	return dst, nil
}

// Least encoded sizes: of an attribute an empty name, a one-byte length and
// a kind byte; of a record two empty strings and a zero count.
const (
	minAttrBytes   = 3
	minRecordBytes = 3
)

// DecodeObject decodes one record from the front of b into an object with
// an allocation of its own: Slab.Decode for a batch of one.
func DecodeObject(b []byte, in *Interner) (*Object, []byte, error) {
	return (*Slab)(nil).Decode(b, in)
}

// Decode decodes one record from the front of b and returns the bytes after
// it. The Object and its entries are cut from the slab; nothing the object
// holds shares memory with b. Class and attribute names go through in (which
// may be nil). Null and zero-kind values are dropped as New drops them; names
// out of order or repeated are corruption.
func (s *Slab) Decode(b []byte, in *Interner) (*Object, []byte, error) {
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
		// Checked against the bytes that remain before the entries are
		// allocated: a count cannot claim more than the input can hold.
		return nil, nil, fmt.Errorf("%w: attribute count", errCorrupt)
	}
	b = b[w:]
	o := s.object(1 + len(b)/minRecordBytes)
	o.Class, o.LOid = in.Intern(class), LOid(s.str(loid, len(loid)+len(b)))
	o.attrs = s.entries(int(n), len(b)/minAttrBytes)
	var prev []byte
	for i := uint64(0); i < n; i++ {
		var name, raw []byte
		if name, b, err = readBytes(b); err != nil {
			return nil, nil, err
		}
		if raw, b, err = readBytes(b); err != nil {
			return nil, nil, err
		}
		// The value is decoded where it will stay; an entry that turns out
		// to hold missing data is given back.
		o.attrs = o.attrs[:len(o.attrs)+1]
		e := &o.attrs[len(o.attrs)-1]
		if err := e.val.UnmarshalBinary(raw); err != nil {
			return nil, nil, fmt.Errorf("object: decode %s.%s: %w", loid, name, err)
		}
		if i > 0 && string(prev) >= string(name) {
			return nil, nil, fmt.Errorf("%w: %s: attribute %q out of order", errCorrupt, loid, name)
		}
		prev = name
		if missing(e.val) {
			*e = attr{}
			o.attrs = o.attrs[:len(o.attrs)-1]
			continue
		}
		e.name = in.Intern(name)
		o.wire += wireOf(&e.val)
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
