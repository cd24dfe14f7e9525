package federation

import (
	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/eval"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/tvl"
)

// Site is one component database participating in the federation: its local
// object store, the integrated global schema (every site knows it), and a
// replica of the GOid mapping tables.
type Site struct {
	db     *store.Database
	global *schema.Global
	tables *gmap.Tables
}

// NewSite wraps a component database for federation duty. tables is the
// site's replica of the GOid mapping tables (it is used as-is; clone before
// passing if the caller mutates it later).
func NewSite(db *store.Database, global *schema.Global, tables *gmap.Tables) *Site {
	return &Site{db: db, global: global, tables: tables}
}

// ID returns the site identifier.
func (s *Site) ID() object.SiteID { return s.db.Site() }

// charge flushes accumulated cost events to the runtime, attributed to this
// site, then resets the counter. Costs are batched per processing step so
// the discrete-event runtime schedules one resource occupation per step.
func (s *Site) charge(p fabric.Proc, c *cost.Counter) {
	sink := p.Sink(s.ID())
	if b := c.DiskBytes(); b > 0 {
		sink.DiskRead(int(b))
	}
	if o := c.CPUOps(); o > 0 {
		sink.CPU(int(o))
	}
	c.Reset()
}

// identities resolves the GOids of one site's objects for one processing step.
// A step names a handful of classes over and over (a row's, an item's, a
// reference's), so each class's table and the site's LOid index of it are
// looked up once and found again by scanning a short list.
type identities struct {
	site    object.SiteID
	tables  *gmap.Tables
	classes []classIdentity
}

type classIdentity struct {
	class string
	table *gmap.Table
	index gmap.Index // this site's objects of the class
}

func (ids *identities) of(class string) *classIdentity {
	for i := range ids.classes {
		if ids.classes[i].class == class {
			return &ids.classes[i]
		}
	}
	t := ids.tables.Table(class)
	ids.classes = append(ids.classes, classIdentity{class, t, t.At(ids.site)})
	return &ids.classes[len(ids.classes)-1]
}

// goidOf resolves a stored object's GOid from the mapping-table replica,
// charging one lookup. Objects missing from the tables get a synthetic
// singleton GOid so they still carry a global identity.
func (ids *identities) goidOf(class string, loid object.LOid, c *cost.Counter) object.GOid {
	c.CPU(1)
	ci := ids.of(class)
	if e, ok := ci.index[loid]; ok {
		return e.GOid
	}
	return ci.table.Unbound(ids.site, loid)
}

// Retrieve implements step CA_C1: read all objects of the local root and
// branch classes of the query and return them projected on their LOids and
// the attributes involved in the query. Nothing is copied: the reply lists
// the stored objects themselves beside the projection they are to be read
// through (see ClassObjects).
func (s *Site) Retrieve(p fabric.Proc, b *query.Bound) RetrieveReply {
	var c cost.Counter
	involved := b.Involved()
	reply := RetrieveReply{Site: s.ID(), Classes: make([]ClassObjects, 0, len(involved))}
	for _, in := range involved {
		localName, ok := s.global.Class(in.Class).Constituents[s.ID()]
		if !ok {
			continue
		}
		ext := s.db.Extent(localName)
		objects := make([]*object.Object, 0, ext.Len())
		ext.Scan(func(o *object.Object) bool {
			c.DiskRead(o.WireSize(nil)) // the disk reads the full object
			c.CPU(1)                    // scan step
			objects = append(objects, o)
			return true
		})
		reply.Classes = append(reply.Classes, ClassObjects{GlobalClass: in.Class, Attrs: in.Attrs, Objects: objects})
	}
	s.charge(p, &c)
	return reply
}

// collector accumulates deduplicated check items grouped by target site,
// plus the check verdicts synthesized locally from signature probes.
//
// Checks are deduplicated where they arise, at the unsolved item: an item's
// check items are a function of its GOid and point alone, and the isomeric
// objects of different entities are different objects, so a repeated item —
// a branch object several root objects refer to — would queue exactly the
// check items its first occurrence did.
type collector struct {
	bySite map[object.SiteID][]CheckItem
	// items maps each unsolved item collected so far to the CPU operations
	// its signature probes were charged; a repeat is charged the same again,
	// as the model has every occurrence probe afresh.
	items map[itemKey]int
	synth []CheckVerdict
}

// itemKey identifies an unsolved item: the points of one bound query are
// distinct by (predicate, depth), so the pointer stands for both.
type itemKey struct {
	item  object.GOid
	point *query.Point
}

func newCollector() *collector {
	return &collector{
		bySite: make(map[object.SiteID][]CheckItem),
		items:  make(map[itemKey]int),
	}
}

// rootExtent returns the extent of the range class's constituent at this
// site.
func (s *Site) rootExtent(b *query.Bound) *store.Extent {
	gc := s.global.Class(b.Query.Range)
	return s.db.Extent(gc.Constituents[s.ID()])
}

// EvalLocalBasic runs steps BL_C1 + BL_C2 of the basic localized approach
// (phase P, then phase O): scan the local root class, evaluate the local
// predicates first (short-circuiting on the first false one), and only for
// the surviving results locate the unsolved items and their assistant
// objects. It returns the local rows plus the check items grouped by
// target site.
// sigs, when non-nil, enables the signature-assisted variant (the paper's
// Section 5 extension): assistants provably violating a single-step
// equality predicate are turned into local false verdicts instead of
// network checks.
func (s *Site) EvalLocalBasic(p fabric.Proc, b *query.Bound, sigs *signature.Index) (LocalResult, map[object.SiteID][]CheckItem) {
	localIdx, removedIdx := eval.SplitPredIdx(b, s.ID())
	res := LocalResult{Site: s.ID()}
	checks := newCollector()
	ext := s.rootExtent(b)
	src := eval.NewCached(eval.DiskSource{DB: s.db})
	ids := &identities{site: s.ID(), tables: s.tables}
	var c cost.Counter

	// BL_C1 (phase P): evaluate the local predicates, short-circuiting on
	// the first false predicate. Most objects die here, so the verdicts and
	// unsolved points of the object at hand live in scratch space and only a
	// survivor's are kept: its verdicts in a slab, its points as a range of
	// found.
	type survivor struct {
		obj      *object.Object
		verdicts []tvl.Truth
		lo, hi   int // its unsolved points, found[lo:hi]
	}
	conjunctive := b.Conjunctive()
	iterate := ext.ScanPos
	// A conjunctive query with a direct local predicate on an attribute the
	// extent has a secondary index on (store.Database.CreateIndex) reads the
	// index's candidates, not the whole extent: same rows, less disk. The
	// index lists this extent's objects only.
	if conjunctive {
		if loids, probeBytes, ok := s.indexProbe(b, ext, localIdx); ok {
			c.DiskRead(probeBytes)
			c.CPU(1 + len(loids))
			iterate = func(fn func(*object.Object, int) bool) {
				for _, id := range loids {
					if o, pos, ok := s.db.Locate(id); ok && !fn(o, pos) {
						return
					}
				}
			}
		}
	}
	var (
		survivors []survivor
		found     []eval.Unsolved
		slabs     = rowSlabs{rows: ext.Len()}
	)
	scratch := make([]tvl.Truth, len(b.Preds))
	iterate(func(o *object.Object, pos int) bool {
		c.DiskRead(o.WireSize(nil))
		src.Warm(pos)
		clear(scratch)
		lo := len(found)
		alive := true
		for _, i := range localIdx {
			scratch[i] = eval.EvalPredicate(src, &b.Preds[i], o, &c, &found)
			// Conjunctive queries short-circuit on the first false local
			// predicate; disjunctive ones need every local verdict before
			// folding.
			if conjunctive && scratch[i] == tvl.False {
				alive = false
				break
			}
		}
		if !conjunctive {
			// Removed predicates are unknown; the verdict slice already
			// holds zero (= no information) for them.
			alive = b.Fold(scratch) != tvl.False
		}
		if alive {
			survivors = append(survivors, survivor{obj: o, verdicts: slabs.keep(scratch), lo: lo, hi: len(found)})
		} else {
			found = found[:lo]
		}
		return true
	})
	s.charge(p, &c)

	// BL_C2 (phase O): for the surviving results, locate the unsolved
	// items of the removed predicates and look up their assistant objects.
	var (
		unsolved []eval.Unsolved
		items    []UnsolvedItem
	)
	if len(survivors) > 0 {
		res.Rows = make([]LocalRow, 0, len(survivors))
	}
	slabs.rows = len(survivors)
	for _, sv := range survivors {
		unsolved = append(unsolved[:0], found[sv.lo:sv.hi]...)
		for _, i := range removedIdx {
			sv.verdicts[i] = eval.EvalPredicate(src, &b.Preds[i], sv.obj, &c, &unsolved)
		}
		lo := len(items)
		items = ids.appendUnsolvedItems(items, sv.obj, unsolved, &c)
		row := ids.buildRow(src, b, sv.obj, sv.verdicts, items[lo:len(items):len(items)], &slabs, &c)
		s.collectChecks(row.Unsolved, checks, ids, sigs, &c)
		res.Rows = append(res.Rows, row)
	}
	res.SigVerdicts = checks.synth
	s.charge(p, &c)
	return res, checks.bySite
}

// slab hands out short slices cut from shared chunks, so that a result row's
// verdicts and targets cost no allocation of their own.
type slab[T any] struct{ free []T }

// take returns a zeroed slice of n elements that nothing else refers to. A
// new chunk serves rows more takes, at most 64: the caller passes the row
// count it knows, so that a two-row result does not pay for 64.
func (sl *slab[T]) take(n, rows int) []T {
	if len(sl.free) < n {
		sl.free = make([]T, n*max(1, min(64, rows)))
	}
	out := sl.free[:n:n]
	sl.free = sl.free[n:]
	return out
}

// rowSlabs are the slabs the rows of one local result or one answer are cut
// from; rows bounds how many rows that can be, as far as the caller knows.
type rowSlabs struct {
	rows     int
	verdicts slab[tvl.Truth]
	targets  slab[object.Value]
	unknowns slab[int]
}

// keep returns a private copy of the scratch verdicts.
func (rs *rowSlabs) keep(scratch []tvl.Truth) []tvl.Truth {
	out := rs.verdicts.take(len(scratch), rs.rows)
	copy(out, scratch)
	return out
}

// indexProbe selects candidate root objects through a secondary index when
// some local predicate is a direct comparison on an indexed attribute. The
// candidates are the value matches plus the objects whose attribute is null
// (unknown under three-valued logic, so still potential maybe results).
func (s *Site) indexProbe(b *query.Bound, ext *store.Extent, localIdx []int) ([]object.LOid, int, bool) {
	for _, i := range localIdx {
		bp := &b.Preds[i]
		if len(bp.Path) != 1 {
			continue
		}
		ix := ext.Index(bp.Path[0])
		if ix == nil {
			continue
		}
		var matches []object.LOid
		switch bp.Op {
		case query.OpEq:
			matches = ix.EqualTo(bp.Literal)
		case query.OpNe:
			matches = ix.NotEqualTo(bp.Literal)
		case query.OpLt:
			matches = ix.Range(bp.Literal, true, false)
		case query.OpLe:
			matches = ix.Range(bp.Literal, true, true)
		case query.OpGt:
			matches = ix.Range(bp.Literal, false, false)
		case query.OpGe:
			matches = ix.Range(bp.Literal, false, true)
		default:
			continue
		}
		loids := make([]object.LOid, 0, len(matches)+len(ix.Nulls()))
		loids = append(loids, matches...)
		loids = append(loids, ix.Nulls()...)
		return loids, ix.ProbeCost(len(matches)), true
	}
	return nil, 0, false
}

// navigated is the phase-O state of one root object under the parallel
// localized approach.
type navigated struct {
	obj      *object.Object
	outcomes []eval.Outcome // navigation outcome per predicate, cut from one slab
	lo, hi   int            // its unsolved items, Navigation.items[lo:hi]
}

// Navigation is the opaque phase-O state NavigateAll hands to
// EvalNavigated.
type Navigation struct {
	navs       []navigated
	items      []UnsolvedItem // every object's unsolved items, GOids resolved
	localIdx   []int
	removedIdx []int
	src        *eval.Cached // the local query's buffer pool, shared by both phases
	synth      []CheckVerdict
}

// NavigateAll runs step PL_C1 of the parallel localized approach (phase O
// before phase P): navigate every predicate path on every root object —
// including objects the local predicates will later eliminate — and look up
// the assistant objects of every unsolved item found. The returned check
// items are dispatched immediately so remote checking overlaps the local
// predicate evaluation of EvalNavigated.
// sigs, when non-nil, enables the signature-assisted variant.
//
// The state is sized from the extent, not grown object by object: the
// outcomes of all objects share one slab, and an object without missing data
// allocates nothing.
func (s *Site) NavigateAll(p fabric.Proc, b *query.Bound, sigs *signature.Index) (*Navigation, map[object.SiteID][]CheckItem) {
	localIdx, removedIdx := eval.SplitPredIdx(b, s.ID())
	ext := s.rootExtent(b)
	n, np := ext.Len(), len(b.Preds)
	nav := &Navigation{
		navs:       make([]navigated, 0, n),
		localIdx:   localIdx,
		removedIdx: removedIdx,
		src:        eval.NewCached(eval.DiskSource{DB: s.db}),
	}
	checks := newCollector()
	ids := &identities{site: s.ID(), tables: s.tables}
	var c cost.Counter
	var unsolved []eval.Unsolved
	outcomeSlab := make([]eval.Outcome, n*np)

	ext.ScanPos(func(o *object.Object, pos int) bool {
		c.DiskRead(o.WireSize(nil))
		nav.src.Warm(pos)
		outcomes := outcomeSlab[:np:np]
		outcomeSlab = outcomeSlab[np:]
		unsolved = unsolved[:0]
		for i := range outcomes {
			outcomes[i] = eval.Navigate(nav.src, &b.Preds[i], o, &c, &unsolved)
		}
		lo := len(nav.items)
		nav.items = ids.appendUnsolvedItems(nav.items, o, unsolved, &c)
		s.collectChecks(nav.items[lo:], checks, ids, sigs, &c)
		nav.navs = append(nav.navs, navigated{obj: o, outcomes: outcomes, lo: lo, hi: len(nav.items)})
		return true
	})
	nav.synth = checks.synth
	s.charge(p, &c)
	return nav, checks.bySite
}

// EvalNavigated runs step PL_C2 (phase P): evaluate the local predicates
// over the values navigated by NavigateAll; unsolved predicates are
// unknown. It returns the surviving local rows.
func (s *Site) EvalNavigated(p fabric.Proc, b *query.Bound, nav *Navigation) LocalResult {
	res := LocalResult{Site: s.ID()}
	ids := &identities{site: s.ID(), tables: s.tables}
	var c cost.Counter
	slabs := rowSlabs{rows: len(nav.navs)}
	conjunctive := b.Conjunctive()
	verdicts := make([]tvl.Truth, len(b.Preds))
	for _, nv := range nav.navs {
		clear(verdicts)
		alive := true
		for _, i := range nav.localIdx {
			if out := &nv.outcomes[i]; out.Done {
				// The navigation already determined the verdict (missing
				// data, or a multi-valued attribute evaluated under ANY
				// semantics).
				verdicts[i] = out.Verdict
			} else {
				c.CPU(1)
				verdicts[i] = eval.Compare(b.Preds[i].Op, out.Value, b.Preds[i].Literal)
			}
			if conjunctive && verdicts[i] == tvl.False {
				alive = false
				break
			}
		}
		if !conjunctive {
			alive = b.Fold(verdicts) != tvl.False
		}
		if !alive {
			continue
		}
		for _, i := range nav.removedIdx {
			verdicts[i] = tvl.Unknown
		}
		// The model's phase P resolves the GOids of the row's unsolved items
		// like the basic flow's does; phase O already holds them, so the
		// look-ups are charged and not repeated.
		items := nav.items[nv.lo:nv.hi:nv.hi]
		c.CPU(len(items))
		res.Rows = append(res.Rows, ids.buildRow(nav.src, b, nv.obj, slabs.keep(verdicts), items, &slabs, &c))
	}
	res.SigVerdicts = nav.synth
	s.charge(p, &c)
	return res
}

// buildRow assembles a local result row: target values (complex values
// translated to global references) and the unsolved items.
func (ids *identities) buildRow(src eval.Source, b *query.Bound, o *object.Object, verdicts []tvl.Truth,
	unsolved []UnsolvedItem, slabs *rowSlabs, c *cost.Counter) LocalRow {
	row := LocalRow{
		LOid:     o.LOid,
		GOid:     ids.goidOf(b.Query.Range, o.LOid, c),
		Verdicts: verdicts,
	}
	if len(unsolved) > 0 {
		row.Unsolved = unsolved
	}
	row.Targets = slabs.targets.take(len(b.Targets), slabs.rows)
	for i, tp := range b.Targets {
		v := eval.EvalTarget(src, tp, o, c)
		switch v.Kind() {
		case object.KindRef:
			v = object.GRef(ids.goidOf(tp.Attr.Domain, v.RefLOid(), c))
		case object.KindList:
			if tp.Attr.IsComplex() {
				elems := make([]object.Value, 0, len(v.Elems()))
				for _, e := range v.Elems() {
					elems = append(elems, object.GRef(ids.goidOf(tp.Attr.Domain, e.RefLOid(), c)))
				}
				v = object.List(elems...)
			}
		}
		row.Targets[i] = v
	}
	return row
}

// appendUnsolvedItems attaches global identities to a root object's unsolved
// points — one mapping-table look-up each — and appends them to items. The
// items of many objects share one backing array; callers cut a row's items
// out of it with a capped slice expression.
func (ids *identities) appendUnsolvedItems(items []UnsolvedItem, root *object.Object,
	unsolved []eval.Unsolved, c *cost.Counter) []UnsolvedItem {
	for _, u := range unsolved {
		items = append(items, UnsolvedItem{
			ItemGOid: ids.goidOf(u.ItemClass, u.ItemLOid, c),
			Point:    u.Point,
			SelfItem: u.ItemLOid == root.LOid,
			Multi:    u.Multi,
		})
	}
	return items
}

// collectChecks looks up the assistant objects for each unsolved item and
// queues check items toward the sites storing them. Items that are the root
// object itself are skipped: the root's isomeric objects are evaluated by
// their own sites' local queries. Assistants whose site cannot evaluate the
// suffix predicate (a step is a missing attribute there too) are skipped,
// as no data could be obtained from them.
func (s *Site) collectChecks(items []UnsolvedItem, checks *collector, ids *identities, sigs *signature.Index, c *cost.Counter) {
	for i := range items {
		it := &items[i]
		if it.SelfItem {
			continue
		}
		c.CPU(1) // mapping-table lookup for the item's isomeric objects
		k := itemKey{item: it.ItemGOid, point: it.Point}
		if probes, seen := checks.items[k]; seen {
			c.CPU(probes)
			continue
		}
		beforeProbes := c.CPUOps()
		for _, loc := range ids.of(it.ItemClass).table.Locations(it.ItemGOid) {
			if loc.Site == s.ID() {
				continue
			}
			if !s.holdsSuffix(it.ItemClass, it.Suffix.Path, loc.Site) {
				continue
			}
			if sigs != nil && s.probeSignature(sigs, loc, it, checks, c) {
				continue // verdict synthesized locally; no check dispatched
			}
			checks.bySite[loc.Site] = append(checks.bySite[loc.Site],
				CheckItem{Assistant: loc.LOid, ItemGOid: it.ItemGOid, Point: it.Point})
		}
		checks.items[k] = int(c.CPUOps() - beforeProbes)
	}
}

// probeSignature consults the replicated signature of an assistant for a
// single-step equality predicate. When the probe proves the assistant's
// value present and different from the literal, a false verdict is recorded
// locally and true is returned (the network check is unnecessary).
func (s *Site) probeSignature(sigs *signature.Index, loc gmap.Location,
	it *UnsolvedItem, checks *collector, c *cost.Counter) bool {
	if len(it.Suffix.Path) != 1 || it.Suffix.Op != query.OpEq {
		return false
	}
	sig, ok := sigs.Lookup(loc.Site, loc.LOid)
	if !ok {
		return false
	}
	c.CPU(1) // signature probe
	if !sig.RulesOutEquality(it.Suffix.Path[0], it.Suffix.Literal) {
		return false
	}
	checks.synth = append(checks.synth, CheckVerdict{
		ItemGOid:  it.ItemGOid,
		SourceIdx: it.SourceIdx,
		SuffixLen: len(it.Suffix.Path),
		Verdict:   tvl.False,
	})
	return true
}

// holdsSuffix reports whether every step of a suffix path rooted at the
// given global class is held by the constituent classes at the site.
func (s *Site) holdsSuffix(class string, path query.Path, site object.SiteID) bool {
	cur := class
	for _, step := range path {
		gc := s.global.Class(cur)
		if gc == nil || !gc.Holds(site, step) {
			return false
		}
		a, _ := gc.Attr(step)
		if a.IsComplex() {
			cur = a.Domain
		}
	}
	return true
}

// CheckAssistants implements steps BL_C3 / PL_C3: evaluate the appended
// unsolved predicates on the listed assistant objects this site stores, and
// report a three-valued verdict per item (the paper's "checking the
// assistant objects").
//
// Items that produce no evidence — the assistant cannot be fetched, or the
// suffix predicate fails to bind at this site — yield NO verdict rather
// than a shipped Unknown: an absent verdict and an Unknown verdict are
// equivalent for certification, and dropping them keeps the reply's wire
// size (and the simulated transfer charged from it) at the bytes actually
// produced. A genuine evaluation Unknown (the assistant also lacks the
// data) is still reported.
func (s *Site) CheckAssistants(p fabric.Proc, items []CheckItem) CheckReply {
	var c cost.Counter
	src := eval.NewCached(eval.DiskSource{DB: s.db})
	reply := CheckReply{Site: s.ID()}
	if len(items) > 0 {
		reply.Verdicts = make([]CheckVerdict, 0, len(items))
	}
	var suffixes boundSuffixes
	for i := range items {
		it := &items[i]
		if it.Point == nil {
			continue // no site of this program sends one; there is nothing to evaluate
		}
		bs := suffixes.of(s, it.Point)
		o, ok := src.Fetch(it.Assistant, &c)
		if !ok || !bs.ok {
			continue
		}
		reply.Verdicts = append(reply.Verdicts, CheckVerdict{
			ItemGOid:  it.ItemGOid,
			SourceIdx: it.SourceIdx,
			SuffixLen: len(it.Suffix.Path),
			Verdict:   eval.EvalPredicate(src, &bs.pred, o, &c, nil),
		})
	}
	s.charge(p, &c)
	return reply
}

// boundSuffix is one point's suffix predicate bound at this site.
type boundSuffix struct {
	point *query.Point
	pred  query.BoundPredicate
	ok    bool // the suffix binds against this site's global schema
}

// boundSuffixes binds each distinct point of one check request once. The
// items of a request share a handful of points — by pointer, whether they
// come from a bound query in this process or from a frame's point table —
// so a scan finds them; a request with more than that (no site of this
// program builds one, but a socket can deliver one) gets an index.
type boundSuffixes struct {
	list  []boundSuffix
	index map[*query.Point]int
}

func (bs *boundSuffixes) of(s *Site, pt *query.Point) *boundSuffix {
	if bs.index != nil {
		if i, ok := bs.index[pt]; ok {
			return &bs.list[i]
		}
	} else {
		for i := range bs.list {
			if bs.list[i].point == pt {
				return &bs.list[i]
			}
		}
	}
	pred, err := query.BindPredicateAt(s.global, pt.ItemClass, pt.Suffix)
	bs.list = append(bs.list, boundSuffix{point: pt, pred: pred, ok: err == nil})
	const scanLimit = 16
	if bs.index != nil {
		bs.index[pt] = len(bs.list) - 1
	} else if len(bs.list) > scanLimit {
		bs.index = make(map[*query.Point]int, 2*scanLimit)
		for i := range bs.list {
			bs.index[bs.list[i].point] = i
		}
	}
	return &bs.list[len(bs.list)-1]
}
