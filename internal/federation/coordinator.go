package federation

import (
	"slices"
	"sort"
	"strings"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/eval"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/tvl"
)

// Coordinator is the global processing site: it materializes global classes
// for the centralized approach and certifies local results for the
// localized approaches.
type Coordinator struct {
	id     object.SiteID
	global *schema.Global
	tables *gmap.Tables
}

// NewCoordinator returns a coordinator with its replica of the GOid mapping
// tables.
func NewCoordinator(id object.SiteID, global *schema.Global, tables *gmap.Tables) *Coordinator {
	return &Coordinator{id: id, global: global, tables: tables}
}

// ID returns the global processing site's identifier.
func (co *Coordinator) ID() object.SiteID { return co.id }

// View is the materialized global view built by the centralized approach:
// integrated objects named by their GOid (stored in the LOid slot, so the
// shared path-navigation evaluator works unchanged), with complex attribute
// values rewritten to global references stamped with their target's slot:
// each involved class's slots, cut from one slice, are indexed by the
// entity's number in its mapping table. Those numbers are this replica's, and
// a view is built and read under the read lock of the tables it came from.
type View struct {
	classes []viewClass
	slots   []*object.Object // every class's byNumber, back to back
	roots   []*object.Object
	n       int
}

// viewClass is one involved global class's part of a view.
type viewClass struct {
	name     string
	table    *gmap.Table
	base     int              // the class's first slot in View.slots
	byNumber []*object.Object // by entity number; nil where no reply held the entity
	// unbound holds the objects no binding names, by gmap.Table.Unbound.
	unbound map[object.GOid]*object.Object
	// The objects the replies list and their mask's width: they size the slab.
	constituents, width int
}

var _ eval.Source = (*View)(nil)

// Fetch implements eval.Source over the materialized objects: the view is
// in memory at the global site, so an access costs one CPU operation.
func (v *View) Fetch(ref object.Value, sink cost.Sink) (*object.Object, bool) {
	o := v.lookup(ref)
	if o == nil {
		return nil, false
	}
	sink.CPU(1)
	return o, true
}

// lookup finds a reference's view object: a stamped one at its slot, any
// other by GOid, asking the involved classes' tables in turn, since a GOid
// does not say which class it belongs to.
func (v *View) lookup(ref object.Value) *object.Object {
	if s, ok := ref.RefSlot(); ok && s < len(v.slots) {
		return v.slots[s]
	}
	g := object.GOid(ref.RefLOid())
	for i := range v.classes {
		vc := &v.classes[i]
		if n, ok := vc.table.Number(g); !ok {
			if o := vc.unbound[g]; o != nil {
				return o
			}
		} else if n < len(vc.byNumber) && vc.byNumber[n] != nil {
			return vc.byNumber[n]
		}
	}
	return nil
}

// Has reports whether the entity was materialized into the view (used as
// the presence test when synthesizing degraded rows under site failure).
func (v *View) Has(g object.GOid) bool { return v.lookup(object.Ref(object.LOid(g))) != nil }

// Len returns the number of materialized objects.
func (v *View) Len() int { return v.n }

// class returns the view's part for the named class, nil if no reply lists it.
func (v *View) class(name string) *viewClass {
	for i := range v.classes {
		if v.classes[i].name == name {
			return &v.classes[i]
		}
	}
	return nil
}

// Materialize implements step CA_G2: integrate the constituent objects of
// each involved global class by outerjoin over their GOids. Missing
// attribute values are filled from isomeric objects (a class's lists are
// merged in site order; isomeric objects are assumed consistent, so the first
// non-null value wins), and LOid-valued complex attributes are transformed
// to GOids.
//
// A reply's objects may be a store's own, and those are read, never written
// (see ClassObjects). An Owned list is the join's to consume: the first
// constituent of each entity becomes that entity's view object, only its
// references rewritten in place. The join is the mapping table's numbering:
// per (class, site) list the site's LOid indexes and the mask's attributes are
// resolved once (listPlan), and one probe per object gives the view's slot to
// merge into. The view is sized before it is filled: a slot per entity the
// tables know, and for the entities that start from a list that is not owned,
// objects and entries from one slab with room for as many entities as those
// lists can hold (an object no binding names takes the slab's overflow).
func (co *Coordinator) Materialize(p fabric.Proc, b *query.Bound, replies []RetrieveReply) *View {
	var c cost.Counter

	sorted := append([]RetrieveReply(nil), replies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Site < sorted[j].Site })

	v := &View{}
	for _, reply := range sorted {
		for _, cls := range reply.Classes {
			vc := v.class(cls.GlobalClass)
			if vc == nil {
				v.classes = append(v.classes, viewClass{name: cls.GlobalClass, table: co.tables.Table(cls.GlobalClass)})
				vc = &v.classes[len(v.classes)-1]
			}
			if !cls.Owned {
				vc.constituents += len(cls.Objects)
			}
			vc.width = len(cls.Attrs)
		}
	}
	objects, entries, slots := 0, 0, 0
	for i := range v.classes {
		vc := &v.classes[i]
		vc.base, slots = slots, slots+vc.table.Len()
		vc.unbound = make(map[object.GOid]*object.Object)
		n := min(vc.constituents, vc.table.Len())
		objects, entries = objects+n, entries+n*vc.width
	}
	v.slots = make([]*object.Object, slots)
	slab := object.NewSlab(objects, entries)

	var lp listPlan
	for i := range v.classes {
		vc := &v.classes[i]
		vc.byNumber = v.slots[vc.base : vc.base+vc.table.Len()]
		gc := co.global.Class(vc.name)
		if gc == nil { // a class this schema lacks: none of its attributes is known
			gc = &schema.GlobalClass{}
		}
		for _, reply := range sorted {
			for _, cls := range reply.Classes {
				if cls.GlobalClass != vc.name {
					continue
				}
				lp.reset(v, co.tables, reply.Site, gc, cls.Attrs)
				index := vc.table.At(reply.Site)
				room := len(cls.Objects) * len(cls.Attrs)
				for _, o := range cls.Objects {
					c.CPU(1) // GOid lookup: the outerjoin's join-attribute probe
					e, bound := index[o.LOid]
					var m *object.Object
					if bound {
						m = vc.byNumber[e.Number]
					} else {
						e.GOid = vc.table.Unbound(reply.Site, o.LOid)
						m = vc.unbound[e.GOid]
					}
					if m != nil {
						co.merge(lp, m, o, cls.Attrs, slab, room, &c)
						continue
					}
					if cls.Owned {
						m = o
						m.LOid, m.Class = object.LOid(e.GOid), vc.name
						m.Rewrite(cls.Attrs, func(j int, val *object.Value) bool {
							c.CPU(1) // merge step
							return lp.translate(j, val, &c)
						})
					} else {
						m = slab.New(object.LOid(e.GOid), vc.name, len(cls.Attrs))
						co.merge(lp, m, o, cls.Attrs, nil, 0, &c)
					}
					if bound {
						vc.byNumber[e.Number] = m
					} else {
						vc.unbound[e.GOid] = m
					}
					v.n++
				}
			}
		}
	}
	if vc := v.class(b.Query.Range); vc != nil {
		v.roots = vc.inOrder()
	}

	c.Flush(p.Sink(co.id))
	return v
}

// inOrder lists the class's view objects by GOid: the bound ones in the
// mapping table's order, the few no binding names merged in.
func (vc *viewClass) inOrder() []*object.Object {
	extra := make([]*object.Object, 0, len(vc.unbound))
	for _, o := range vc.unbound {
		extra = append(extra, o)
	}
	slices.SortFunc(extra, func(a, b *object.Object) int { return strings.Compare(string(a.LOid), string(b.LOid)) })
	ordered := vc.table.Ordered()
	out := make([]*object.Object, 0, len(ordered)+len(extra))
	for _, e := range ordered {
		if o := vc.byNumber[e.Number]; o != nil {
			for len(extra) > 0 && extra[0].LOid < o.LOid {
				out, extra = append(out, extra[0]), extra[1:]
			}
			out = append(out, o)
		}
	}
	return append(out, extra...)
}

// listPlan is how a (class, site) list's mask enters the view: per
// attribute, whether the global class has it and whether it is complex, and
// the site's LOid index of its domain and the domain's first slot (or -1).
type listPlan []attrPlan

type attrPlan struct {
	in, complex bool
	index       gmap.Index
	base        int
}

func (lp *listPlan) reset(v *View, tables *gmap.Tables, site object.SiteID, gc *schema.GlobalClass, mask []string) {
	*lp = (*lp)[:0]
	for _, name := range mask {
		a, in := gc.Attr(name)
		ap := attrPlan{in: in, complex: in && a.IsComplex(), base: -1}
		if vc := v.class(a.Domain); ap.complex && vc != nil {
			ap.index, ap.base = vc.table.At(site), vc.base
		} else if ap.complex && tables.Has(a.Domain) {
			ap.index = tables.Table(a.Domain).At(site)
		}
		*lp = append(*lp, ap)
	}
}

// merge merges one constituent object, read through its list's mask and
// plan, into a materialized object. With a nil slab, m is the entity's fresh view object
// and the entries are appended in order; otherwise a later isomer fills what
// m still misses, and a view object without room for them — an adopted one
// holds only what its record held — gets room for the mask's width from the
// slab, in a chunk of at most room entries: what the list could fill.
func (co *Coordinator) merge(lp listPlan, m, o *object.Object, mask []string, slab *object.Slab, room int, c *cost.Counter) {
	for p := o.Projected(mask); ; {
		j, val, ok := p.Next()
		if !ok {
			return
		}
		c.CPU(1) // merge step
		if slab != nil && !m.Attr(mask[j]).IsNull() {
			continue // first non-null value wins
		}
		if !lp.translate(j, &val, c) {
			continue
		}
		if slab != nil {
			slab.Reserve(m, len(mask), room)
			m.Set(mask[j], val)
		} else {
			m.Append(mask[j], val)
		}
	}
}

// translate rewrites the value of mask attribute j as the view holds it:
// local references become global ones stamped with their target's slot. It
// reports false for a value the view drops: a reference in an attribute the
// global class lacks, or one with no identity here. A multi-valued reference
// drops such elements instead.
func (lp listPlan) translate(j int, val *object.Value, c *cost.Counter) bool {
	ap := &lp[j]
	switch val.Kind() {
	case object.KindRef:
		if !ap.in {
			return false
		}
		c.CPU(1) // reference translation lookup
		var ok bool
		*val, ok = ap.global(*val)
		return ok
	case object.KindList:
		if !ap.complex {
			return true
		}
		elems := make([]object.Value, 0, len(val.Elems()))
		for _, el := range val.Elems() {
			c.CPU(1)
			if g, ok := ap.global(el); ok {
				elems = append(elems, g)
			}
		}
		*val = object.List(elems...)
	}
	return true
}

// global returns the global reference for a local one of the domain.
func (ap *attrPlan) global(ref object.Value) (object.Value, bool) {
	e, ok := ap.index[ref.RefLOid()]
	switch {
	case !ok:
		return ref, false
	case ap.base < 0:
		return object.Ref(object.LOid(e.GOid)), true
	}
	return object.RefAt(object.LOid(e.GOid), ap.base+e.Number), true
}

// EvaluateView implements step CA_G3: evaluate the query predicates on the
// materialized global classes. In-memory navigation costs CPU rather than
// disk (the view was just built at the global site).
func (co *Coordinator) EvaluateView(p fabric.Proc, b *query.Bound, v *View) *Answer {
	var c cost.Counter
	ans := &Answer{}

	conjunctive := b.Conjunctive()
	// Every root's verdicts are kept — verdicts[r*k:(r+1)*k] are root r's and
	// folds[r] their fold — so that the answer's rows are counted before
	// they are cut; the rows' targets are cut from a slab.
	k := len(b.Preds)
	verdicts := make([]tvl.Truth, len(v.roots)*k)
	folds := make([]tvl.Truth, len(v.roots))
	for r, root := range v.roots {
		vs := verdicts[r*k : (r+1)*k]
		for i := range b.Preds {
			vs[i] = eval.EvalPredicate(v, &b.Preds[i], root, &c, nil)
			// Conjunctive queries short-circuit on the first false
			// predicate; disjunctive ones need every verdict.
			if conjunctive && vs[i] == tvl.False {
				break
			}
		}
		folds[r] = b.Fold(vs)
	}
	slabs := rowSlabs{rows: ans.cut(folds)}
	for r, root := range v.roots {
		verdict := folds[r]
		if verdict == tvl.False {
			continue
		}
		row := ResultRow{GOid: object.GOid(root.LOid)}
		if verdict == tvl.Unknown {
			row.Unknown = slabs.unknown(verdicts[r*k : (r+1)*k])
		}
		row.Targets = slabs.targets.take(len(b.Targets), slabs.rows)
		for i, tp := range b.Targets {
			tv := eval.EvalTarget(v, tp, root, &c)
			switch tv.Kind() {
			case object.KindRef:
				tv = object.GRef(object.GOid(tv.RefLOid()))
			case object.KindList:
				if tp.Attr.IsComplex() {
					elems := make([]object.Value, 0, len(tv.Elems()))
					for _, e := range tv.Elems() {
						elems = append(elems, object.GRef(object.GOid(e.RefLOid())))
					}
					tv = object.List(elems...)
				}
			}
			row.Targets[i] = tv
		}
		ans.add(verdict, row) // the roots, and so the rows, come in GOid order
	}
	c.Flush(p.Sink(co.id))
	return ans
}

// cut counts the classifications in folds (0 for none): it adds the
// eliminated ones to the answer's statistics, gives Certain and Maybe room
// for exactly their rows and returns how many rows that is.
func (a *Answer) cut(folds []tvl.Truth) int {
	var n [tvl.True + 1]int
	for _, f := range folds {
		n[f]++
	}
	a.Stats.Eliminated += n[tvl.False]
	a.Certain, a.Maybe = slices.Grow(a.Certain, n[tvl.True]), slices.Grow(a.Maybe, n[tvl.Unknown])
	return n[tvl.True] + n[tvl.Unknown]
}

// add appends a row to the list its classification names.
func (a *Answer) add(verdict tvl.Truth, row ResultRow) {
	if verdict == tvl.True {
		a.Certain = append(a.Certain, row)
	} else {
		a.Maybe = append(a.Maybe, row)
	}
}

// Certify implements step BL_G2 / PL_G2 (phase I): group the local rows of
// isomeric root objects by GOid, combine their per-predicate verdicts,
// apply the assistant-check verdicts under the certification rule, and
// classify every entity as a certain result, a maybe result, or eliminated.
//
// Elimination evidence is threefold: a root object of the entity was
// filtered out by its own site's local predicates (the entity appears in
// the mapping tables at a queried root site that returned no row for it), a
// check verdict reports an assistant violating an unsolved predicate, or —
// defensively, with inconsistent isomeric data — a row carries a false
// verdict.
func (co *Coordinator) Certify(p fabric.Proc, b *query.Bound, results []LocalResult, replies []CheckReply) *Answer {
	return co.CertifyDegraded(p, b, results, replies, nil)
}

// CertifyDegraded is Certify under partial site availability: the sites in
// dead never answered their local queries, so site failure is folded into
// the paper's maybe semantics instead of failing the query.
//
// Two rules change relative to Certify. First, an entity's absence from a
// dead queried root site is not elimination evidence — only a live site can
// eliminate by silence, because silence from a dead site says nothing about
// its local predicates. Second, range entities whose every queried root
// copy lives at a dead site are returned as all-unknown maybe rows: the
// entity may satisfy the query, and nothing can be read to decide.
// Check verdicts that never arrived (a dead assistant site) need no special
// handling — the unsolved predicates simply stay unknown and the dependent
// results stay maybe.
//
// Rows are grouped by the range table's entity numbers, which hold still
// under the read lock a query's global step runs in: a count per number, one
// pass that gathers each entity's rows in site order, and a GOid map only for
// the rows no binding in this replica names. The check verdicts are indexed
// the same way, per point by the item class table's numbers (verdictIndex).
// Certification keeps no state past the call: the rows and verdicts it reads
// are the caller's — in process cut from the sites' workspaces, which the
// caller releases once the answer is built — and the answer's rows are its
// own.
func (co *Coordinator) CertifyDegraded(p fabric.Proc, b *query.Bound, results []LocalResult,
	replies []CheckReply, dead map[object.SiteID]bool) *Answer {
	var c cost.Counter

	// Index check verdicts: any violation dominates, then satisfaction.
	ans := &Answer{}
	checked := co.checkEvidence(b)
	record := func(cv CheckVerdict) {
		c.CPU(1)
		ans.Stats.CheckVerdicts++
		slot := checked.slot(cv.ItemGOid, cv.SourceIdx, cv.SuffixLen, true)
		switch prev := *slot; {
		case cv.Verdict == tvl.False || prev == tvl.False:
			*slot = tvl.False
		case cv.Verdict == tvl.True || prev == tvl.True:
			*slot = tvl.True
		default:
			*slot = tvl.Unknown
		}
	}
	for _, reply := range replies {
		for _, cv := range reply.Verdicts {
			record(cv)
		}
	}
	for _, res := range results {
		for _, cv := range res.SigVerdicts {
			record(cv)
		}
	}

	// Number every row's entity. A GOid the range table does not name — an
	// unbound object's identity, or an entity a site bound before this
	// replica heard of it — is numbered past the table's own.
	sorted := slices.Clone(results)
	slices.SortFunc(sorted, func(a, b LocalResult) int { return strings.Compare(string(a.Site), string(b.Site)) })
	rootTable := co.tables.Table(b.Query.Range)
	for _, res := range sorted {
		ans.Stats.LocalRows += len(res.Rows)
	}
	keys := make([]int32, 0, ans.Stats.LocalRows) // each row's entity number, in site order
	at := make([]int32, rootTable.Len()+1)        // per entity, and one past the last
	var unnamed map[object.GOid]int
	for _, res := range sorted {
		for i := range res.Rows {
			c.CPU(1)
			g := res.Rows[i].GOid
			k, ok := rootTable.Number(g)
			if !ok {
				if k, ok = unnamed[g]; !ok {
					if unnamed == nil {
						unnamed = make(map[object.GOid]int)
					}
					k = len(at) - 1
					unnamed[g] = k
					at = append(at, 0)
				}
			}
			at[k]++
			keys = append(keys, int32(k))
		}
	}
	// Gather: at[k] counts entity k's rows, then ends them, then — filled
	// from the back — starts them, so that at[k]:at[k+1] are k's rows.
	for k := 1; k < len(at); k++ {
		at[k] += at[k-1]
	}
	rows := make([]siteRow, len(keys))
	r := len(keys)
	for i := len(sorted) - 1; i >= 0; i-- {
		res := &sorted[i]
		for j := len(res.Rows) - 1; j >= 0; j-- {
			r--
			k := keys[r]
			at[k]--
			rows[at[k]] = siteRow{&res.Rows[j], res.Site}
		}
	}

	rootSites := b.RootSites()
	// Every entity's evidence is kept — all[k*np:(k+1)*np] is entity k's and
	// folds[k] its classification, 0 for a number no row names — so that the
	// answer's rows are counted before they are cut; the rows' targets and
	// unknown lists are cut from slabs.
	np := len(b.Preds)
	all := make([]tvl.Truth, (len(at)-1)*np)
	folds := make([]tvl.Truth, len(at)-1)
	for k := range folds {
		e := rows[at[k]:at[k+1]]
		if len(e) == 0 {
			continue
		}
		goid := e[0].GOid
		evidence := all[k*np : (k+1)*np]

		// A queried isomeric root object that returned no row was
		// eliminated by its site's local predicates: the entity violates
		// some predicate definitively.
		eliminated := false
		for _, loc := range rootTable.Locations(goid) {
			c.CPU(1)
			if slices.Contains(rootSites, loc.Site) && !dead[loc.Site] &&
				!slices.ContainsFunc(e, func(r siteRow) bool { return r.site == loc.Site }) {
				eliminated = true
				break
			}
		}
		if eliminated {
			folds[k] = tvl.False
			continue
		}

		// Combine per-predicate evidence across the entity's rows. A
		// definitive verdict (true or false) beats unknown; with
		// consistent isomeric data true and false never conflict, and a
		// violation dominates defensively if they do.
		for i := range evidence {
			evidence[i] = tvl.Unknown
		}
		for _, row := range e {
			for i, v := range row.Verdicts {
				c.CPU(1)
				switch v {
				case tvl.True:
					if evidence[i] != tvl.False {
						evidence[i] = tvl.True
					}
				case tvl.False:
					evidence[i] = tvl.False
				}
			}
		}

		// The fold of the local evidence alone, before check verdicts are
		// applied — a later upgrade to a certain result means the entity was
		// certified by assistant checks (Stats.Certified).
		localFold := b.Fold(evidence)

		// Apply the certification rule through the check verdicts of the
		// rows' unsolved items. A predicate's items within one row combine
		// under ANY semantics when they came through a multi-valued
		// attribute: some satisfied item proves the predicate, and only
		// all items violating disproves it. A scalar path has exactly one
		// item per predicate, for which the rule degenerates to the
		// paper's: satisfied solves, violated eliminates.
		// A row holds a handful of items: a predicate's are found by scanning
		// on from its first.
		for _, row := range e {
			for i := range row.Unsolved {
				idx := row.Unsolved[i].SourceIdx
				if slices.ContainsFunc(row.Unsolved[:i], func(u UnsolvedItem) bool { return u.SourceIdx == idx }) {
					continue // the predicate's first item covered this one
				}
				anyTrue := false
				allFalse := true
				for _, u := range row.Unsolved[i:] {
					if u.SourceIdx != idx {
						continue
					}
					c.CPU(1)
					switch checked.of(u.ItemGOid, u.SourceIdx, len(u.Suffix.Path)) {
					case tvl.True:
						anyTrue, allFalse = true, false
					case 0, tvl.Unknown: // 0: no verdict
						allFalse = false
					}
				}
				switch {
				case anyTrue:
					if evidence[idx] != tvl.False {
						evidence[idx] = tvl.True
					}
				case allFalse:
					evidence[idx] = tvl.False
				}
			}
		}

		// Classify under the query's (possibly disjunctive) form.
		folds[k] = b.Fold(evidence)
		if folds[k] == tvl.True && localFold != tvl.True {
			ans.Stats.Certified++
		}
	}
	slabs := rowSlabs{rows: ans.cut(folds)}
	for k, verdict := range folds {
		if verdict == 0 || verdict == tvl.False {
			continue
		}
		e := rows[at[k]:at[k+1]]
		row := ResultRow{GOid: e[0].GOid, Targets: mergeTargets(slabs.targets.take(len(b.Targets), slabs.rows), e, &c)}
		if verdict == tvl.Unknown {
			row.Unknown = slabs.unknown(all[k*np : (k+1)*np])
		}
		ans.add(verdict, row)
	}

	// Entities silenced entirely by dead sites come back as all-unknown
	// maybe rows rather than disappearing. Only the table's own entities are
	// asked about.
	if len(dead) > 0 {
		present := func(g object.GOid) bool {
			k, ok := rootTable.Number(g)
			return ok && at[k+1] > at[k]
		}
		rows := co.degradedRootRows(b, dead, present, &c)
		ans.Maybe = append(ans.Maybe, rows...)
	}

	sortRows(ans.Certain)
	sortRows(ans.Maybe)
	c.Flush(p.Sink(co.id))
	return ans
}

// verdictIndex holds what the check verdicts say of each unsolved item: per
// point of the query, a slot by the item's number in its class's mapping
// table — the numbering the rows are grouped by — and a map for an item no
// table here numbers (an unbound identity, a binding this replica has not
// heard of yet) or a verdict naming no point of the query. A slot reads 0
// until a verdict names it.
type verdictIndex struct {
	b      *query.Bound
	tables *gmap.Tables
	first  []int // first[i]: predicate i's point at depth 0, in points
	points []pointVerdicts
	other  map[verdictKey]*tvl.Truth
}

// pointVerdicts are one point's verdicts, by the item class table's entity
// number; both are set by the first verdict that names the point.
type pointVerdicts struct {
	table    *gmap.Table
	byNumber []tvl.Truth
}

type verdictKey struct {
	item      object.GOid
	idx       int
	suffixLen int
}

// checkEvidence returns an empty verdict index for b's points.
func (co *Coordinator) checkEvidence(b *query.Bound) *verdictIndex {
	vi := &verdictIndex{b: b, tables: co.tables, first: make([]int, len(b.Preds)+1)}
	for i := range b.Preds {
		vi.first[i+1] = vi.first[i] + len(b.Preds[i].Path)
	}
	vi.points = make([]pointVerdicts, vi.first[len(b.Preds)])
	return vi
}

// slot returns the verdict slot of the item at predicate idx's point with
// suffixLen steps left; nil if the map would hold it and does not, unless
// add makes it.
func (vi *verdictIndex) slot(item object.GOid, idx, suffixLen int, add bool) *tvl.Truth {
	if idx >= 0 && idx < len(vi.b.Preds) {
		bp := &vi.b.Preds[idx]
		if depth := len(bp.Path) - suffixLen; suffixLen > 0 && depth >= 0 {
			pv := &vi.points[vi.first[idx]+depth]
			if pv.table == nil {
				pv.table = vi.tables.Table(bp.Classes[depth])
				pv.byNumber = make([]tvl.Truth, pv.table.Len())
			}
			if n, ok := pv.table.Number(item); ok {
				return &pv.byNumber[n]
			}
		}
	}
	k := verdictKey{item: item, idx: idx, suffixLen: suffixLen}
	t := vi.other[k]
	if t == nil && add {
		if vi.other == nil {
			vi.other = make(map[verdictKey]*tvl.Truth)
		}
		t = new(tvl.Truth)
		vi.other[k] = t
	}
	return t
}

// of returns the item's verdict, 0 if none arrived.
func (vi *verdictIndex) of(item object.GOid, idx, suffixLen int) tvl.Truth {
	if t := vi.slot(item, idx, suffixLen, false); t != nil {
		return *t
	}
	return 0
}

// siteRow is one local row and the site that returned it.
type siteRow struct {
	*LocalRow
	site object.SiteID
}

// DegradedRootRows synthesizes all-unknown maybe rows for range entities
// whose every queried root copy lives at an unavailable site. present
// reports whether the entity already contributed evidence (a materialized
// view object under CA, a local row under the localized strategies); an
// entity with a copy at a live queried site is skipped — if the live site
// stayed silent about it, that silence is elimination evidence.
func (co *Coordinator) DegradedRootRows(p fabric.Proc, b *query.Bound,
	dead map[object.SiteID]bool, present func(object.GOid) bool) []ResultRow {
	var c cost.Counter
	rows := co.degradedRootRows(b, dead, present, &c)
	c.Flush(p.Sink(co.id))
	return rows
}

func (co *Coordinator) degradedRootRows(b *query.Bound, dead map[object.SiteID]bool,
	present func(object.GOid) bool, c *cost.Counter) []ResultRow {
	if len(dead) == 0 {
		return nil
	}
	queried := make(map[object.SiteID]bool)
	for _, s := range b.RootSites() {
		queried[s] = true
	}
	rootTable := co.tables.Table(b.Query.Range)
	var out []ResultRow
	for _, ent := range rootTable.Ordered() {
		goid := ent.GOid
		c.CPU(1)
		if present(goid) {
			continue
		}
		liveRoot, deadRoot := false, false
		for _, loc := range rootTable.Locations(goid) {
			if !queried[loc.Site] {
				continue
			}
			if dead[loc.Site] {
				deadRoot = true
			} else {
				liveRoot = true
			}
		}
		if liveRoot || !deadRoot {
			continue
		}
		targets := make([]object.Value, len(b.Targets))
		for i := range targets {
			targets[i] = object.Null()
		}
		unknown := make([]int, len(b.Preds))
		for i := range unknown {
			unknown[i] = i
		}
		out = append(out, ResultRow{GOid: goid, Targets: targets, Unknown: unknown})
	}
	return out
}

// unknown lists the predicate indexes whose truth value is unknown (or was
// never established), cut from the slabs; nil when there is none.
func (rs *rowSlabs) unknown(verdicts []tvl.Truth) []int {
	n := 0
	for _, v := range verdicts {
		if v == tvl.Unknown || v == 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := rs.unknowns.take(n, rs.rows)[:0]
	for i, v := range verdicts {
		if v == tvl.Unknown || v == 0 {
			out = append(out, i)
		}
	}
	return out
}

// mergeTargets fills out with the target values combined across the
// isomeric rows: the first non-null value in site order wins.
func mergeTargets(out []object.Value, rows []siteRow, c *cost.Counter) []object.Value {
	for i := range out {
		out[i] = object.Null()
		for _, row := range rows {
			c.CPU(1)
			if i < len(row.Targets) && !row.Targets[i].IsNull() {
				out[i] = row.Targets[i]
				break
			}
		}
	}
	return out
}
