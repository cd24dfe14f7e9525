package object

import "strings"

// Slab hands out the Objects of one batch — the records of a decoded reply,
// the merged objects of a materialized view — their attribute entries and,
// for decoded records, the text of their LOids and of their string and
// reference values from shared chunks, so that a batch of thousands costs a
// handful of allocations instead of three or four per object. The objects are ordinary: they outlive the Slab value, and a chunk
// is freed when the last object cut from it is. That is also the price: one
// retained object retains its chunks, so a slab suits objects that live and
// die together.
//
// The zero Slab is ready to use; a Slab must not be copied once used. A nil
// *Slab gives every object an allocation of its own, its entries another and
// its LOid a third — the batch of one.
type Slab struct {
	objs  []Object
	attrs []attr
	text  strings.Builder // grown once per chunk, so the strings cut from it stay put
}

// Chunk sizes: 4 KiB of Objects, 14 KiB of entries, 2 KiB of text. The first
// two stop short of the size class because a pointerful chunk carries the
// allocator's 8-byte header: 63 64-byte Objects and their header fill the
// 4 096-byte size class and 358 40-byte entries the 14 336-byte one, where 64
// and 359 would spill into the 4 864- and 16 384-byte classes.
const (
	slabObjects = 63
	slabEntries = 358
	slabText    = 2048
)

// NewSlab returns a slab that holds the given numbers of objects and
// attribute entries in one chunk each, for a batch whose size is known.
func NewSlab(objects, entries int) *Slab {
	return &Slab{objs: make([]Object, objects), attrs: make([]attr, entries)}
}

// New returns an empty object with room for n attributes: up to n Sets of
// new names allocate nothing.
func (s *Slab) New(id LOid, class string, n int) *Object {
	o := s.object(slabObjects)
	o.LOid, o.Class = id, class
	o.attrs = s.entries(n, slabEntries)
	return o
}

// Reserve gives o room for n attributes in all: if it has less, its entries
// move into the slab, so that Sets of new names up to n allocate nothing.
// room bounds a new chunk as for object: the caller passes how many entries
// its batch could still reserve. Only the sole holder of o may call it, as
// for Set.
func (s *Slab) Reserve(o *Object, n, room int) {
	if cap(o.attrs) < n {
		o.attrs = append(s.entries(n, room), o.attrs...)
	}
}

// object cuts one zero Object. A new chunk holds at most room objects: a
// decoder passes what its remaining input could still hold, so that the
// chunks it allocates are paid for in bytes received.
func (s *Slab) object(room int) *Object {
	if s == nil {
		return new(Object)
	}
	if len(s.objs) == 0 {
		s.objs = make([]Object, max(1, min(slabObjects, room)))
	}
	o := &s.objs[0]
	s.objs = s.objs[1:]
	return o
}

// entries cuts an empty entry slice of capacity n, capped so that appending
// past n cannot reach a neighbour's entries. room bounds a new chunk as for
// object. A request the current chunk cannot serve starts a new chunk only
// if it is small beside one; a large one is allocated on its own and the
// chunk kept, so at most a quarter of any chunk is ever abandoned.
func (s *Slab) entries(n, room int) []attr {
	switch {
	case n == 0:
		return nil
	case s == nil || (n > len(s.attrs) && n > slabEntries/4):
		return make([]attr, 0, n)
	case n > len(s.attrs):
		s.attrs = make([]attr, max(n, min(slabEntries, room)))
	}
	out := s.attrs[:0:n]
	s.attrs = s.attrs[n:]
	return out
}

// str returns b as a string cut from the slab's text chunk, under the rules
// entries follows.
func (s *Slab) str(b []byte, room int) string {
	free := 0
	if s != nil {
		free = s.text.Cap() - s.text.Len()
	}
	switch {
	case len(b) == 0:
		return ""
	case s == nil || (len(b) > free && len(b) > slabText/4):
		return string(b)
	case len(b) > free:
		s.text = strings.Builder{}
		s.text.Grow(max(len(b), min(slabText, room)))
	}
	at := s.text.Len()
	s.text.Write(b)
	return s.text.String()[at:]
}
