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
// and DecodeObject can fill the entry slice in place.

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
	n := len(dst) - at - 1
	if n < 0x80 {
		dst[at] = byte(n)
		return dst, nil
	}
	var pre [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(pre[:], uint64(n))
	dst = append(dst, pre[1:w]...)
	copy(dst[at+w:], dst[at+1:at+1+n])
	copy(dst[at:], pre[:w])
	return dst, nil
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
	for _, e := range o.attrs {
		dst = appendString(dst, e.name)
		var err error
		if dst, err = AppendValue(dst, e.val); err != nil {
			return nil, fmt.Errorf("object: encode %s.%s: %w", o.LOid, e.name, err)
		}
	}
	return dst, nil
}

// minAttrBytes is the least an encoded attribute occupies: an empty name,
// a one-byte length, a kind byte.
const minAttrBytes = 3

// DecodeObject decodes one record from the front of b and returns the bytes
// after it. The object shares no memory with b. Class and attribute names go
// through in (which may be nil). Null and zero-kind values are dropped as
// New drops them; names out of order or repeated are corruption.
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
		// Checked against the bytes that remain before the entries are
		// allocated: a count cannot claim more than the input can hold.
		return nil, nil, fmt.Errorf("%w: attribute count", errCorrupt)
	}
	b = b[w:]
	o := &Object{Class: in.Intern(class), LOid: LOid(loid)}
	if n > 0 {
		o.attrs = make([]attr, 0, n)
	}
	var prev []byte
	for i := uint64(0); i < n; i++ {
		var name []byte
		if name, b, err = readBytes(b); err != nil {
			return nil, nil, err
		}
		var v Value
		if v, b, err = DecodeValue(b); err != nil {
			return nil, nil, fmt.Errorf("object: decode %s.%s: %w", loid, name, err)
		}
		if i > 0 && string(prev) >= string(name) {
			return nil, nil, fmt.Errorf("%w: %s: attribute %q out of order", errCorrupt, loid, name)
		}
		prev = name
		if !missing(v) {
			o.attrs = append(o.attrs, attr{in.Intern(name), v})
			o.wire += wireOf(&v)
		}
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
