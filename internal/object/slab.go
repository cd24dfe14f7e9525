package object

// Slab hands out the Objects of one batch — the records of a decoded reply,
// the merged objects of a materialized view — their runs of values and, for
// decoded records, the text of their LOids and of their string and reference
// values from shared chunks, so that a batch of thousands costs a handful of
// allocations instead of three or four per object. The objects are ordinary:
// they outlive the Slab value, and a chunk is freed when the last object cut
// from it is. That is also the price: one retained object retains its
// chunks, so a slab suits objects that live and die together.
//
// The zero Slab is ready to use; a Slab must not be copied once used. A nil
// *Slab gives every object an allocation of its own, its values another and
// its LOid a third — the batch of one.
type Slab struct {
	objs []Object
	vals []Value
	text []byte // cut into strings, each range written once
}

// Chunk sizes: 4 KiB of Objects, 14 KiB of values, 2 KiB of text. The first
// two stop short of the size class because a pointerful chunk carries the
// allocator's 8-byte header: 73 56-byte Objects and their header fill the
// 4 096-byte size class and 597 24-byte Values the 14 336-byte one, where 74
// and 598 would spill into the 4 864- and 16 384-byte classes.
const (
	slabObjects = 73
	slabEntries = 597
	slabText    = 2048
)

// NewSlab returns a slab that holds the given numbers of objects and values
// in one chunk each, for a batch whose size is known.
func NewSlab(objects, values int) *Slab {
	return &Slab{objs: make([]Object, objects), vals: make([]Value, values)}
}

// New returns an empty object laid out by l, its values cut from the slab.
func (s *Slab) New(l *Layout) *Object { return s.cut(l, slabObjects, slabEntries) }

// cut cuts one zero Object laid out by l and its run of zero values. A new
// chunk holds at most objects Objects or values Values: a decoder passes
// what its remaining input could still hold, so that the chunks it allocates
// are paid for in bytes received.
func (s *Slab) cut(l *Layout, objects, values int) *Object {
	if s == nil {
		o := new(Object)
		o.setValues(l, make([]Value, len(l.Names())))
		return o
	}
	o := &run(&s.objs, 1, slabObjects, objects)[0]
	o.setValues(l, run(&s.vals, len(l.Names()), slabEntries, values))
	return o
}

// run cuts n zero elements off *chunk. If the chunk cannot serve them, they
// start a new chunk of up to size elements (room bounding it) only if they
// are few beside one; more are allocated on their own and the chunk kept, so
// at most a quarter of any chunk is ever abandoned.
func run[T any](chunk *[]T, n, size, room int) []T {
	switch {
	case n > len(*chunk) && n > size/4:
		return make([]T, n)
	case n > len(*chunk):
		*chunk = make([]T, max(n, min(size, room)))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// str returns b as a string cut from the slab's text chunk, as run cuts.
func (s *Slab) str(b []byte, room int) string {
	if s == nil || len(b) == 0 {
		return string(b)
	}
	t := run(&s.text, len(b), slabText, room)
	copy(t, b)
	return stringOf(t)
}
