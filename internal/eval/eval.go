// Package eval implements three-valued predicate evaluation over component
// databases: navigating nested predicate paths through locally stored
// objects, classifying each predicate as true, false or unknown, and — for
// unknown predicates — extracting the *unsolved point*: the object that
// lacks the data (because of a missing attribute or a null value) together
// with the unsolved predicate rooted at that object's global class.
//
// The unsolved points are what the localized strategies feed into phase O:
// the assistant objects of an unsolved point's item are checked against its
// suffix predicate.
//
// The parallel localized strategy navigates before it evaluates (Navigate):
// its phase O makes each final comparison, uncharged, and keeps only the
// two-byte Outcome; its phase P reads the verdict and is charged the
// comparison, as the model has phase P compare.
//
// A site navigates through Cached, the per-query buffer pool of the paper's
// component DBMSs: an object's first touch is charged as a disk read, each
// later touch as one CPU operation. Either is one probe of the store's LOid
// index, which also yields the object's position; the pool is a bitset over
// those positions, not a second map of LOids.
package eval

import (
	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/tvl"
)

// Source resolves object references during path navigation and charges the
// cost of each access. A component database reads the reference's LOid and
// charges a disk read per fetch; Cached is its per-query buffer pool, which
// charges disk only on first touch; the coordinator's materialized view reads
// its slot (object.RefAt) and charges a CPU operation (it lives in memory).
type Source interface {
	Fetch(ref object.Value, sink cost.Sink) (*object.Object, bool)
}

// Store is the component database a DiskSource reads (store.Database).
// Locate finds an object and its position in one probe; positions are dense,
// below Len, and never reused or moved.
type Store interface {
	Locate(object.LOid) (*object.Object, int, bool)
	Len() int
}

// DiskSource adapts a component database into a Source that charges one
// full-object disk read per fetch.
type DiskSource struct{ DB Store }

// Fetch implements Source.
func (d DiskSource) Fetch(ref object.Value, sink cost.Sink) (*object.Object, bool) {
	o, _, ok := d.DB.Locate(ref.RefLOid())
	if !ok {
		return nil, false
	}
	sink.DiskRead(o.WireSize(nil))
	return o, true
}

// Cached is a component database's buffer pool, one per site operation (the
// paper's DBMSs buffer per query, not across queries): an object's first
// fetch is charged its disk read, a later one CPU(1), a failed one nothing.
// Every fetch is one probe of the store. The buffer is a bitset over the
// store's positions, sized from the store at the first touch — one allocation
// — and grown only for an object inserted since, which a site's lock rules out.
type Cached struct {
	db   Store
	seen []uint64 // bit p set: the object at position p is buffered
}

// NewCached returns an empty buffer pool over src's store.
func NewCached(src DiskSource) *Cached { return &Cached{db: src.DB} }

// Warm buffers the object at a position the caller already holds (e.g. just
// scanned from the extent) without charging anything.
func (c *Cached) Warm(pos int) { c.mark(pos) }

// Fetch implements Source.
func (c *Cached) Fetch(ref object.Value, sink cost.Sink) (*object.Object, bool) {
	o, pos, ok := c.db.Locate(ref.RefLOid())
	if !ok {
		return nil, false
	}
	if c.mark(pos) {
		sink.CPU(1) // buffer hit
	} else {
		sink.DiskRead(o.WireSize(nil))
	}
	return o, true
}

// mark buffers position pos and reports whether it already was.
func (c *Cached) mark(pos int) bool {
	w, bit := uint(pos)/64, uint64(1)<<(uint(pos)%64)
	if w >= uint(len(c.seen)) {
		c.seen = append(c.seen, make([]uint64, max(int(w)+1, (c.db.Len()+63)/64)-len(c.seen))...)
	}
	hit := c.seen[w]&bit != 0
	c.seen[w] |= bit
	return hit
}

// Compare applies a comparison operator under three-valued logic: any null
// operand yields Unknown. Values of incomparable kinds are unequal; ordered
// comparisons between incomparable kinds are false.
func Compare(op query.Op, a, b object.Value) tvl.Truth {
	if a.IsNull() || b.IsNull() {
		return tvl.Unknown
	}
	switch op {
	case query.OpEq:
		return tvl.Of(a.Equal(b))
	case query.OpNe:
		return tvl.Of(!a.Equal(b))
	default:
		cmp, ok := a.Compare(b)
		if !ok {
			return tvl.False
		}
		switch op {
		case query.OpLt:
			return tvl.Of(cmp < 0)
		case query.OpLe:
			return tvl.Of(cmp <= 0)
		case query.OpGt:
			return tvl.Of(cmp > 0)
		case query.OpGe:
			return tvl.Of(cmp >= 0)
		default:
			return tvl.False
		}
	}
}

// Unsolved is an unsolved predicate on a particular stored object: the item
// that lacks the data and the point — item class, suffix predicate, source
// predicate index — at which the bound predicate was left unsolved. The
// point belongs to the bound query and is shared, never copied.
type Unsolved struct {
	// ItemLOid is the object lacking the data; it may be the range object
	// itself or an object reached through complex attributes.
	ItemLOid object.LOid
	// Point carries ItemClass (the item's *global* class), Suffix (the
	// unsolved predicate rooted at it) and SourceIdx.
	*query.Point
	// Multi marks unsolved points reached through a multi-valued
	// attribute: the predicate holds if ANY element satisfies it, so a
	// single violating assistant does not falsify the predicate.
	Multi bool
}

// Outcome is the result of navigating a predicate path: the verdict, and
// whether it is charged. Done marks a verdict navigation has paid for — the
// path hit missing data (Unknown, with the unsolved points handed to the
// caller's collector) or passed through a multi-valued attribute (the
// elements were compared under ANY semantics). Otherwise the path was plain
// and scalar, and Verdict is its final comparison, made but not yet charged.
// An Outcome holds no pointers, so a slab of them is nothing the collector
// scans.
type Outcome struct {
	Done    bool
	Verdict tvl.Truth
}

// Navigate walks a predicate's path from the range object, charging one CPU
// operation per step and a disk read per dereferenced object. On a plain
// scalar path it makes the final comparison without charging it: the caller
// charges it where the model has it made. The unsolved points found are
// appended to *uns. The parallel localized strategy navigates in its phase O
// and charges the comparisons in its phase P; EvalPredicate charges them as it
// goes.
func Navigate(src Source, bp *query.BoundPredicate, root *object.Object, sink cost.Sink, uns *[]Unsolved) Outcome {
	return navigate(src, bp, root, 0, sink, false, uns)
}

// EvalPredicate evaluates one bound predicate on a range object. When the
// verdict is Unknown the unsolved points locating the missing data are
// appended to *uns; a path through a multi-valued attribute may produce
// several (one per element lacking data), marked Multi. A caller with no use
// for the points (checking an assistant, evaluating the integrated view)
// passes nil, and nothing is collected or allocated.
func EvalPredicate(src Source, bp *query.BoundPredicate, root *object.Object, sink cost.Sink, uns *[]Unsolved) tvl.Truth {
	return navigate(src, bp, root, 0, sink, true, uns).Verdict
}

// unknownAt is the outcome of missing data at step i of the path on cur.
func unknownAt(bp *query.BoundPredicate, cur *object.Object, i int, uns *[]Unsolved) Outcome {
	if uns != nil {
		*uns = append(*uns, Unsolved{ItemLOid: cur.LOid, Point: bp.Point(i)})
	}
	return Outcome{Done: true, Verdict: tvl.Unknown}
}

// navigate walks the path from step start. compare charges the final
// comparison. uns collects the unsolved points; nil drops them.
func navigate(src Source, bp *query.BoundPredicate, cur *object.Object, start int, sink cost.Sink, compare bool, uns *[]Unsolved) Outcome {
	for i := start; i < len(bp.Path); i++ {
		v := cur.Attr(bp.Path[i])
		sink.CPU(1)
		if v.IsNull() {
			return unknownAt(bp, cur, i, uns)
		}
		last := i == len(bp.Path)-1
		if v.Kind() == object.KindList {
			return evalList(src, bp, cur, v, i, sink, uns)
		}
		if last {
			if compare {
				sink.CPU(1)
			}
			return Outcome{Done: compare, Verdict: Compare(bp.Op, v, bp.Literal)}
		}
		next, ok := src.Fetch(v, sink)
		if !ok {
			// Dangling reference: treat as missing data rather than
			// failing the whole query.
			return unknownAt(bp, cur, i, uns)
		}
		cur = next
	}
	panic("unreachable: empty predicate path")
}

// evalList evaluates a predicate across a multi-valued attribute's elements
// under ANY semantics: true if some element satisfies, false if every
// element violates, unknown otherwise (with one unsolved point per element
// lacking data). Like navigate, it leaves the collector as it found it
// unless it returns Unknown.
func evalList(src Source, bp *query.BoundPredicate, cur *object.Object, v object.Value,
	i int, sink cost.Sink, uns *[]Unsolved) Outcome {
	verdict := tvl.False
	last := i == len(bp.Path)-1
	// Only an Unknown outcome keeps the points its elements contributed;
	// mark is where they start in the collector.
	mark := 0
	if uns != nil {
		mark = len(*uns)
	}
	for _, elem := range v.Elems() {
		var ev tvl.Truth
		if last {
			sink.CPU(1)
			ev = Compare(bp.Op, elem, bp.Literal)
		} else if next, ok := src.Fetch(elem, sink); ok {
			ev = navigate(src, bp, next, i+1, sink, true, uns).Verdict
		} else {
			ev = unknownAt(bp, cur, i, uns).Verdict
		}
		if ev == tvl.True {
			verdict = tvl.True
			break
		}
		if ev == tvl.Unknown {
			verdict = tvl.Unknown
		}
	}
	if uns != nil {
		if verdict != tvl.Unknown {
			*uns = (*uns)[:mark]
		}
		for j := mark; j < len(*uns); j++ {
			(*uns)[j].Multi = true
		}
	}
	return Outcome{Done: true, Verdict: verdict}
}

// EvalTarget navigates a target path on a range object, returning the
// reached value or null when any step's data is missing. A final complex
// step yields the local reference value.
func EvalTarget(src Source, tp query.BoundPath, root *object.Object, sink cost.Sink) object.Value {
	cur := root
	for i, step := range tp.Path {
		v := cur.Attr(step)
		sink.CPU(1)
		if v.IsNull() || i == len(tp.Path)-1 {
			return v
		}
		next, ok := src.Fetch(v, sink)
		if !ok {
			return object.Null()
		}
		cur = next
	}
	return object.Null()
}

// Result is the evaluation of all query predicates on one range object.
type Result struct {
	// Verdicts holds the per-predicate truth values, aligned with the
	// bound query's predicate list.
	Verdicts []tvl.Truth
	// Unsolved holds one entry per Unknown verdict.
	Unsolved []Unsolved
}

// Verdict folds the per-predicate verdicts into the object's classification
// under the conjunctive query: True (certain), Unknown (maybe) or False.
func (r *Result) Verdict() tvl.Truth {
	return tvl.All(r.Verdicts...)
}

// EvalObject evaluates the given subset of the bound query's predicates
// (identified by index) on one range object. Verdict slots of predicates
// outside the subset are left zero.
func EvalObject(src Source, b *query.Bound, predIdx []int, root *object.Object, sink cost.Sink) Result {
	r := Result{Verdicts: make([]tvl.Truth, len(b.Preds))}
	for _, i := range predIdx {
		r.Verdicts[i] = EvalPredicate(src, &b.Preds[i], root, sink, &r.Unsolved)
	}
	return r
}

// SplitPredIdx partitions the bound query's predicate indexes for one site
// into local predicates (every path step held by the site's constituent
// classes) and removed predicates (some step is a missing attribute there).
// This is the runtime counterpart of query.Localize.
func SplitPredIdx(b *query.Bound, site object.SiteID) (local, removed []int) {
	for i := range b.Preds {
		if _, missing := b.MissingStep(b.Preds[i].BoundPath, site); missing {
			removed = append(removed, i)
		} else {
			local = append(local, i)
		}
	}
	return local, removed
}
