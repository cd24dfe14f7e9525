package federation

import (
	"slices"
	"sync"

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
	// workspaces holds the released workspaces (Site.Workspace).
	workspaces sync.Pool
}

// NewSite wraps a component database for federation duty. tables is the
// site's replica of the GOid mapping tables (it is used as-is; clone before
// passing if the caller mutates it later).
func NewSite(db *store.Database, global *schema.Global, tables *gmap.Tables) *Site {
	return &Site{db: db, global: global, tables: tables}
}

// ID returns the site identifier.
func (s *Site) ID() object.SiteID { return s.db.Site() }

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

// entityOf resolves a stored object's entity from the mapping-table replica,
// charging one lookup. Objects missing from the tables get a synthetic
// singleton GOid so they still carry a global identity, and the number -1:
// the table does not number them.
func (ids *identities) entityOf(class string, loid object.LOid, c *cost.Counter) gmap.Entity {
	c.CPU(1)
	ci := ids.of(class)
	if e, ok := ci.index[loid]; ok {
		return e
	}
	return gmap.Entity{GOid: ci.table.Unbound(ids.site, loid), Number: -1}
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
	c.Flush(p.Sink(s.ID()))
	return reply
}

// of returns the record of point pt, made when pt is first met: its item
// table sized from t, the item class's table, and its targets found among
// the sites the item class has a constituent at. A record's arrays are those
// of the record that held its slot in an earlier query, when they fit.
func (col *collector) of(s *Site, pt *query.Point, t *gmap.Table) *pointChecks {
	for i := range col.points {
		if col.points[i].point == pt {
			return &col.points[i]
		}
	}
	if len(col.points) == cap(col.points) {
		col.points = append(col.points, pointChecks{})
	} else {
		col.points = col.points[:len(col.points)+1]
	}
	pc := &col.points[len(col.points)-1]
	pc.point, pc.probes, pc.targets = pt, zeroed(pc.probes, t.Len()), pc.targets[:0]
	for site := range s.global.Class(pt.ItemClass).Constituents {
		if site != s.ID() && s.holdsSuffix(pt.ItemClass, pt.Suffix.Path, site) {
			pc.targets = append(pc.targets, site)
		}
	}
	return pc
}

// rootExtent returns the extent of the range class's constituent at this
// site.
func (s *Site) rootExtent(b *query.Bound) *store.Extent {
	gc := s.global.Class(b.Query.Range)
	return s.db.Extent(gc.Constituents[s.ID()])
}

// EvalLocalBasic is Workspace.EvalLocalBasic in a workspace of its own,
// which nothing recycles.
func (s *Site) EvalLocalBasic(p fabric.Proc, b *query.Bound, sigs *signature.Index) (LocalResult, map[object.SiteID][]CheckItem) {
	return (&Workspace{site: s}).EvalLocalBasic(p, b, sigs)
}

// EvalLocalBasic runs steps BL_C1 + BL_C2 of the basic localized approach
// (phase P, then phase O): scan the local root class, evaluate the local
// predicates first (short-circuiting on the first false one), and only for
// the surviving results locate the unsolved items and their assistant
// objects. It returns the local rows plus the check items grouped by
// target site, both cut from the workspace.
// sigs, when non-nil, enables the signature-assisted variant (the paper's
// Section 5 extension): assistants provably violating a single-step
// equality predicate are turned into local false verdicts instead of
// network checks.
func (ws *Workspace) EvalLocalBasic(p fabric.Proc, b *query.Bound, sigs *signature.Index) (LocalResult, map[object.SiteID][]CheckItem) {
	s := ws.site
	localIdx, removedIdx := eval.SplitPredIdx(b, s.ID())
	res := LocalResult{Site: s.ID()}
	checks := ws.col.reset()
	ext := s.rootExtent(b)
	src := eval.NewCached(eval.DiskSource{DB: s.db})
	ids := &identities{site: s.ID(), tables: s.tables}
	var c cost.Counter

	// BL_C1 (phase P): evaluate the local predicates, short-circuiting on
	// the first false predicate. The verdicts and unsolved points of the
	// object at hand are appended to the workspace's arrays and dropped again
	// when it dies there, as most objects do; a survivor keeps them by
	// position.
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
	np, nt := len(b.Preds), len(b.Targets)
	survivors, found := ws.survivors[:0], ws.found[:0]
	ws.verdicts = ws.verdicts[:0]
	iterate(func(o *object.Object, pos int) bool {
		c.DiskRead(o.WireSize(nil))
		src.Warm(pos)
		v, lo := len(ws.verdicts), len(found)
		verdicts := cut(&ws.verdicts, np)
		alive := true
		for _, i := range localIdx {
			verdicts[i] = eval.EvalPredicate(src, &b.Preds[i], o, &c, &found)
			// Conjunctive queries short-circuit on the first false local
			// predicate; disjunctive ones need every local verdict before
			// folding.
			if conjunctive && verdicts[i] == tvl.False {
				alive = false
				break
			}
		}
		if !conjunctive {
			// Removed predicates are unknown; the verdict slice already
			// holds zero (= no information) for them.
			alive = b.Fold(verdicts) != tvl.False
		}
		if alive {
			survivors = append(survivors, survivor{obj: o, v: v, lo: lo, hi: len(found)})
		} else {
			ws.verdicts, found = ws.verdicts[:v], found[:lo]
		}
		return true
	})
	ws.survivors, ws.found = survivors, found
	c.Flush(p.Sink(s.ID()))

	// BL_C2 (phase O): for the surviving results, locate the unsolved
	// items of the removed predicates and look up their assistant objects.
	unsolved, items := ws.unsolved, ws.items[:0]
	ws.rows, ws.targets = reuse(ws.rows, len(survivors)), reuse(ws.targets, len(survivors)*nt)
	for k := range survivors {
		sv := &survivors[k]
		verdicts := ws.verdicts[sv.v : sv.v+np : sv.v+np]
		unsolved = append(unsolved[:0], found[sv.lo:sv.hi]...)
		for _, i := range removedIdx {
			verdicts[i] = eval.EvalPredicate(src, &b.Preds[i], sv.obj, &c, &unsolved)
		}
		sv.lo = len(items)
		items = s.appendUnsolvedItems(items, sv.obj, unsolved, checks, ids, sigs, &c)
		sv.hi = len(items)
		ws.rows = append(ws.rows, ids.buildRow(src, b, sv.obj, verdicts, cut(&ws.targets, nt), nil, &c))
	}
	ws.unsolved, ws.items = unsolved, items
	// The rows' items are cut once the array has stopped growing.
	for k, sv := range survivors {
		if sv.hi > sv.lo {
			ws.rows[k].Unsolved = items[sv.lo:sv.hi:sv.hi]
		}
	}
	if len(ws.rows) > 0 {
		res.Rows = ws.rows
	}
	if len(checks.synth) > 0 {
		res.SigVerdicts = checks.synth
	}
	c.Flush(p.Sink(s.ID()))
	return res, checks.checks()
}

// survivor is a root object the basic flow's local predicates kept: its
// verdicts at Workspace.verdicts[v:], its unsolved points found[lo:hi] —
// then, once its row is built, its unsolved items Workspace.items[lo:hi].
type survivor struct {
	obj    *object.Object
	v      int
	lo, hi int
}

// slab hands out short slices cut from shared chunks, so that an answer row's
// targets and unknown lists cost no allocation of their own.
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

// rowSlabs are the slabs the rows of one answer are cut from; rows bounds
// how many rows that can be, as far as the caller knows.
type rowSlabs struct {
	rows     int
	targets  slab[object.Value]
	unknowns slab[int]
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
	obj    *object.Object
	lo, hi int // its unsolved items, Navigation.items[lo:hi]
}

// Navigation is the opaque phase-O state NavigateAll hands to
// EvalNavigated, part of the workspace it was built in.
type Navigation struct {
	ws         *Workspace
	navs       []navigated
	outcomes   []eval.Outcome // navs[k]'s outcome of predicate i at k*len(Preds)+i
	items      []UnsolvedItem // every object's unsolved items, GOids resolved
	localIdx   []int
	removedIdx []int
	src        *eval.Cached // the local query's buffer pool, shared by both phases
	synth      []CheckVerdict
}

// NavigateAll is Workspace.NavigateAll in a workspace of its own, which
// nothing recycles.
func (s *Site) NavigateAll(p fabric.Proc, b *query.Bound, sigs *signature.Index) (*Navigation, map[object.SiteID][]CheckItem) {
	return (&Workspace{site: s}).NavigateAll(p, b, sigs)
}

// NavigateAll runs step PL_C1 of the parallel localized approach (phase O
// before phase P): navigate every predicate path on every root object —
// including objects the local predicates will later eliminate — and look up
// the assistant objects of every unsolved item found. The returned check
// items are dispatched immediately so remote checking overlaps the local
// predicate evaluation of EvalNavigated.
// sigs, when non-nil, enables the signature-assisted variant.
//
// The state lives in the workspace and keeps only what phase P reads, sized
// from the extent: a two-byte outcome per object and predicate, in one
// pointer-free array, and the objects' unsolved items in another. The check
// items are the workspace's too, one array per target site; all of it is
// valid until the workspace is released.
func (ws *Workspace) NavigateAll(p fabric.Proc, b *query.Bound, sigs *signature.Index) (*Navigation, map[object.SiteID][]CheckItem) {
	s := ws.site
	localIdx, removedIdx := eval.SplitPredIdx(b, s.ID())
	ext := s.rootExtent(b)
	n, np := ext.Len(), len(b.Preds)
	nav := &ws.nav
	*nav = Navigation{
		ws:         ws,
		navs:       reuse(nav.navs, n),
		outcomes:   reuse(nav.outcomes, n*np),
		items:      reuse(nav.items, n),
		localIdx:   localIdx,
		removedIdx: removedIdx,
		src:        eval.NewCached(eval.DiskSource{DB: s.db}),
	}
	checks := ws.col.reset()
	ids := &identities{site: s.ID(), tables: s.tables}
	var c cost.Counter
	unsolved := ws.unsolved

	ext.ScanPos(func(o *object.Object, pos int) bool {
		c.DiskRead(o.WireSize(nil))
		nav.src.Warm(pos)
		unsolved = unsolved[:0]
		for i := range b.Preds {
			nav.outcomes = append(nav.outcomes, eval.Navigate(nav.src, &b.Preds[i], o, &c, &unsolved))
		}
		lo := len(nav.items)
		nav.items = s.appendUnsolvedItems(nav.items, o, unsolved, checks, ids, sigs, &c)
		nav.navs = append(nav.navs, navigated{obj: o, lo: lo, hi: len(nav.items)})
		return true
	})
	ws.unsolved = unsolved
	if len(checks.synth) > 0 {
		nav.synth = checks.synth
	}
	c.Flush(p.Sink(s.ID()))
	return nav, checks.checks()
}

// EvalNavigated runs step PL_C2 (phase P): evaluate the local predicates
// from the outcomes NavigateAll kept, charging each comparison navigation
// made; unsolved predicates are unknown. It returns the surviving local rows,
// cut from the workspace nav belongs to. A first pass counts the survivors,
// so that the rows, their verdicts and their targets are sized exactly.
func (s *Site) EvalNavigated(p fabric.Proc, b *query.Bound, nav *Navigation) LocalResult {
	ws := nav.ws
	res := LocalResult{Site: s.ID()}
	ids := &identities{site: s.ID(), tables: s.tables}
	var c, uncharged cost.Counter
	np, nt := len(b.Preds), len(b.Targets)
	keep := 0
	ws.verdicts = zeroed(ws.verdicts, np)
	for k := range nav.navs {
		if nav.alive(b, k, ws.verdicts, &uncharged) {
			keep++
		}
	}
	// The verdicts have room for one more object's, cut before it dies.
	ws.rows, ws.verdicts, ws.targets = reuse(ws.rows, keep), reuse(ws.verdicts, (keep+1)*np), reuse(ws.targets, keep*nt)
	for k, nv := range nav.navs {
		verdicts := cut(&ws.verdicts, np)
		if !nav.alive(b, k, verdicts, &c) {
			ws.verdicts = ws.verdicts[:len(ws.verdicts)-np]
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
		ws.rows = append(ws.rows, ids.buildRow(nav.src, b, nv.obj, verdicts, cut(&ws.targets, nt), items, &c))
	}
	if len(ws.rows) > 0 {
		res.Rows = ws.rows
	}
	res.SigVerdicts = nav.synth
	c.Flush(p.Sink(s.ID()))
	return res
}

// alive reports whether the local predicates keep navigated object k,
// writing their verdicts into verdicts and charging c each comparison
// navigation did not: a Done outcome was charged there (missing data, or a
// multi-valued attribute evaluated under ANY semantics).
func (nav *Navigation) alive(b *query.Bound, k int, verdicts []tvl.Truth, c *cost.Counter) bool {
	np, conjunctive := len(b.Preds), b.Conjunctive()
	outcomes := nav.outcomes[k*np : k*np+np]
	for _, i := range nav.localIdx {
		if !outcomes[i].Done {
			c.CPU(1)
		}
		verdicts[i] = outcomes[i].Verdict
		if conjunctive && verdicts[i] == tvl.False {
			return false
		}
	}
	return conjunctive || b.Fold(verdicts) != tvl.False
}

// buildRow assembles a local result row: target values (complex values
// translated to global references) written into targets, and the unsolved
// items.
func (ids *identities) buildRow(src eval.Source, b *query.Bound, o *object.Object, verdicts []tvl.Truth,
	targets []object.Value, unsolved []UnsolvedItem, c *cost.Counter) LocalRow {
	row := LocalRow{
		LOid:     o.LOid,
		GOid:     ids.entityOf(b.Query.Range, o.LOid, c).GOid,
		Verdicts: verdicts,
		Targets:  targets,
	}
	if len(unsolved) > 0 {
		row.Unsolved = unsolved
	}
	for i, tp := range b.Targets {
		v := eval.EvalTarget(src, tp, o, c)
		switch v.Kind() {
		case object.KindRef:
			v = object.GRef(ids.entityOf(tp.Attr.Domain, v.RefLOid(), c).GOid)
		case object.KindList:
			if tp.Attr.IsComplex() {
				elems := make([]object.Value, 0, len(v.Elems()))
				for _, e := range v.Elems() {
					elems = append(elems, object.GRef(ids.entityOf(tp.Attr.Domain, e.RefLOid(), c).GOid))
				}
				v = object.List(elems...)
			}
		}
		row.Targets[i] = v
	}
	return row
}

// appendUnsolvedItems attaches global identities to a root object's unsolved
// points — one mapping-table look-up each — appends them to items, and queues
// the checks of each that is not the root itself (the root's isomeric objects
// are evaluated by their own sites' local queries). The items of many objects
// share one backing array; callers cut a row's items out of it with a capped
// slice expression.
func (s *Site) appendUnsolvedItems(items []UnsolvedItem, root *object.Object, unsolved []eval.Unsolved,
	checks *collector, ids *identities, sigs *signature.Index, c *cost.Counter) []UnsolvedItem {
	for _, u := range unsolved {
		e := ids.entityOf(u.ItemClass, u.ItemLOid, c)
		items = append(items, UnsolvedItem{
			ItemGOid: e.GOid,
			Point:    u.Point,
			SelfItem: u.ItemLOid == root.LOid,
			Multi:    u.Multi,
		})
		if it := &items[len(items)-1]; !it.SelfItem {
			s.collectChecks(it, e.Number, checks, ids, sigs, c)
		}
	}
	return items
}

// collectChecks looks up the assistant objects of an unsolved item, of
// entity number num, and queues check items toward the sites storing them.
// Assistants whose site cannot evaluate the suffix predicate (a step is a
// missing attribute there too) are skipped, as no data could be obtained from
// them.
func (s *Site) collectChecks(it *UnsolvedItem, num int, checks *collector, ids *identities, sigs *signature.Index, c *cost.Counter) {
	c.CPU(1) // mapping-table lookup for the item's isomeric objects
	if num < 0 {
		return // not in the table: no isomeric objects
	}
	table := ids.of(it.ItemClass).table
	pc := checks.of(s, it.Point, table)
	if seen := pc.probes[num]; seen != 0 {
		c.CPU(int(seen - 1))
		return
	}
	beforeProbes := c.CPUOps()
	for _, loc := range table.Locations(it.ItemGOid) {
		if !slices.Contains(pc.targets, loc.Site) {
			continue
		}
		if sigs != nil && s.probeSignature(sigs, loc, it, checks, c) {
			continue // verdict synthesized locally; no check dispatched
		}
		checks.add(loc.Site, CheckItem{Assistant: loc.LOid, ItemGOid: it.ItemGOid, Point: it.Point})
	}
	pc.probes[num] = int32(c.CPUOps()-beforeProbes) + 1
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

// CheckAssistants is Workspace.CheckAssistants in a workspace of its own,
// which nothing recycles.
func (s *Site) CheckAssistants(p fabric.Proc, items []CheckItem) CheckReply {
	return (&Workspace{site: s}).CheckAssistants(p, items)
}

// CheckAssistants implements steps BL_C3 / PL_C3: evaluate the appended
// unsolved predicates on the listed assistant objects this site stores, and
// report a three-valued verdict per item (the paper's "checking the
// assistant objects"). The reply's verdicts are cut from the workspace.
//
// Items that produce no evidence — the assistant cannot be fetched, or the
// suffix predicate fails to bind at this site — yield NO verdict rather
// than a shipped Unknown: an absent verdict and an Unknown verdict are
// equivalent for certification, and dropping them keeps the reply's wire
// size (and the simulated transfer charged from it) at the bytes actually
// produced. A genuine evaluation Unknown (the assistant also lacks the
// data) is still reported.
func (ws *Workspace) CheckAssistants(p fabric.Proc, items []CheckItem) CheckReply {
	s := ws.site
	var c cost.Counter
	src := eval.NewCached(eval.DiskSource{DB: s.db})
	reply := CheckReply{Site: s.ID()}
	if len(items) > 0 {
		reply.Verdicts = reuse(ws.checked, len(items))
	}
	var suffixes boundSuffixes
	for i := range items {
		it := &items[i]
		if it.Point == nil {
			continue // no site of this program sends one; there is nothing to evaluate
		}
		bs := suffixes.of(s, it.Point)
		o, ok := src.Fetch(object.Ref(it.Assistant), &c)
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
	if reply.Verdicts != nil {
		ws.checked = reply.Verdicts
	}
	c.Flush(p.Sink(s.ID()))
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
