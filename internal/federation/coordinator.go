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

func (co *Coordinator) charge(p fabric.Proc, c *cost.Counter) {
	sink := p.Sink(co.id)
	if b := c.DiskBytes(); b > 0 {
		sink.DiskRead(int(b))
	}
	if o := c.CPUOps(); o > 0 {
		sink.CPU(int(o))
	}
	c.Reset()
}

// View is the materialized global view built by the centralized approach:
// integrated objects named by their GOid (stored in the LOid slot, so the
// shared path-navigation evaluator works unchanged), with complex attribute
// values rewritten to global references. It holds them per involved class in
// a slice indexed by the entity's number in the class's mapping table, so the
// outerjoin that fills it hashes no GOid; those numbers are this replica's, and
// a view is built and read under the read lock of the tables it came from.
type View struct {
	classes []viewClass
	roots   []*object.Object
	n       int
}

// viewClass is one involved global class's part of a view.
type viewClass struct {
	name     string
	table    *gmap.Table
	byNumber []*object.Object // by entity number; nil where no reply held the entity
	// unbound holds the objects no binding names, by gmap.Table.Unbound.
	unbound map[object.GOid]*object.Object
	// The objects the replies list and their mask's width: they size the slab.
	constituents, width int
}

var _ eval.Source = (*View)(nil)

// Fetch implements eval.Source over the materialized objects: the view is
// in memory at the global site, so an access costs one CPU operation. A
// reference does not say which class it points into, so the involved classes'
// tables are asked in turn for the entity's number.
func (v *View) Fetch(id object.LOid, sink cost.Sink) (*object.Object, bool) {
	g := object.GOid(id)
	for i := range v.classes {
		vc := &v.classes[i]
		var o *object.Object
		if n, ok := vc.table.Number(g); !ok {
			o = vc.unbound[g]
		} else if n < len(vc.byNumber) {
			o = vc.byNumber[n]
		}
		if o != nil {
			sink.CPU(1)
			return o, true
		}
	}
	return nil, false
}

// Deref resolves a materialized object without charging (diagnostics).
func (v *View) Deref(id object.LOid) (*object.Object, bool) { return v.Fetch(id, cost.Discard) }

// Has reports whether the entity was materialized into the view (used as
// the presence test when synthesizing degraded rows under site failure).
func (v *View) Has(g object.GOid) bool {
	_, ok := v.Deref(object.LOid(g))
	return ok
}

// Len returns the number of materialized objects.
func (v *View) Len() int { return v.n }

// Materialize implements step CA_G2: integrate the constituent objects of
// each involved global class by outerjoin over their GOids. Missing
// attribute values are filled from isomeric objects (a class's lists are
// merged in site order; isomeric objects are assumed consistent, so the first
// non-null value wins), and LOid-valued complex attributes are transformed
// to GOids.
//
// A reply's objects may be a store's own, and those are read, never written
// (see ClassObjects). An Owned list is the join's to consume: the first
// constituent of each entity becomes that entity's view object in place. The
// join is the mapping table's numbering: per (class, site) list the site's
// LOid indexes are resolved once, and one probe per object gives the view's
// slot to merge into. The view is sized before it is filled: a slot per
// entity the table knows, and for the entities that start from a list that is
// not owned, objects and entries from one slab with room for as many entities
// as those lists can hold (an object no binding names takes the slab's
// overflow).
func (co *Coordinator) Materialize(p fabric.Proc, b *query.Bound, replies []RetrieveReply) *View {
	var c cost.Counter

	sorted := append([]RetrieveReply(nil), replies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Site < sorted[j].Site })

	v := &View{}
	for _, reply := range sorted {
		for _, cls := range reply.Classes {
			at := slices.IndexFunc(v.classes, func(vc viewClass) bool { return vc.name == cls.GlobalClass })
			if at < 0 {
				at = len(v.classes)
				v.classes = append(v.classes, viewClass{name: cls.GlobalClass, table: co.tables.Table(cls.GlobalClass)})
			}
			if !cls.Owned {
				v.classes[at].constituents += len(cls.Objects)
			}
			v.classes[at].width = len(cls.Attrs)
		}
	}
	objects, entries := 0, 0
	for i := range v.classes {
		vc := &v.classes[i]
		vc.byNumber = make([]*object.Object, vc.table.Len())
		vc.unbound = make(map[object.GOid]*object.Object)
		n := min(vc.constituents, len(vc.byNumber))
		objects, entries = objects+n, entries+n*vc.width
	}
	slab := object.NewSlab(objects, entries)

	ids := identities{tables: co.tables}
	for i := range v.classes {
		vc := &v.classes[i]
		gc := co.global.Class(vc.name)
		for _, reply := range sorted {
			for _, cls := range reply.Classes {
				if cls.GlobalClass != vc.name {
					continue
				}
				ids.site, ids.classes = reply.Site, ids.classes[:0]
				index := ids.of(vc.name).index
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
					mode := fill
					if m == nil {
						if cls.Owned {
							m, mode = o, adopt
							m.LOid, m.Class = object.LOid(e.GOid), vc.name
						} else {
							m, mode = slab.New(object.LOid(e.GOid), vc.name, len(cls.Attrs)), start
						}
						if bound {
							vc.byNumber[e.Number] = m
						} else {
							vc.unbound[e.GOid] = m
						}
						v.n++
						if vc.name == b.Query.Range {
							v.roots = append(v.roots, m)
						}
					}
					co.merge(m, mode, o.Projected(cls.Attrs), len(cls.Attrs), len(cls.Objects)*len(cls.Attrs), gc, &ids, slab, &c)
				}
			}
		}
	}

	// The materialized range-class objects, sorted by GOid.
	slices.SortFunc(v.roots, func(a, b *object.Object) int { return strings.Compare(string(a.LOid), string(b.LOid)) })

	co.charge(p, &c)
	return v
}

// mergeMode is how one constituent object enters its entity's view object.
type mergeMode int

const (
	// start: the constituent begins its entity in a fresh slab object, and
	// its entries are appended in order.
	start mergeMode = iota
	// adopt: the constituent, from an Owned list, is the view object itself,
	// already renamed; its entries are rewritten in place.
	adopt
	// fill: a later isomer fills what the view object still misses.
	fill
)

// merge merges one constituent object, read through its list's projection
// (taken before an adopted object is cleared), into a materialized object,
// translating local references to global ones through its site's identities.
// An entry outside the mask, a reference attribute the global class lacks, or
// a reference with no identity here is dropped, whatever the mode. A view
// object that a fill finds without room — an adopted one holds only what its
// record held — gets room for the mask's width from the slab, in a chunk of at
// most room entries: what the list could fill.
func (co *Coordinator) merge(m *object.Object, mode mergeMode, p object.Projection, width, room int,
	gc *schema.GlobalClass, ids *identities, slab *object.Slab, c *cost.Counter) {
	if mode == adopt {
		m.Clear() // p still reads the old entries
	}
	for {
		name, val, ok := p.Next()
		if !ok {
			return
		}
		c.CPU(1) // merge step
		if mode == fill && !m.Attr(name).IsNull() {
			continue // first non-null value wins
		}
		switch val.Kind() {
		case object.KindRef:
			a, ok := gc.Attr(name)
			if !ok {
				continue
			}
			c.CPU(1) // reference translation lookup
			e, ok := ids.of(a.Domain).index[val.RefLOid()]
			if !ok {
				continue
			}
			val = object.Ref(object.LOid(e.GOid))
		case object.KindList:
			// Multi-valued complex attributes: translate every element.
			if a, ok := gc.Attr(name); ok && a.IsComplex() {
				domain := ids.of(a.Domain).index
				elems := make([]object.Value, 0, len(val.Elems()))
				for _, el := range val.Elems() {
					c.CPU(1)
					if e, ok := domain[el.RefLOid()]; ok {
						elems = append(elems, object.Ref(object.LOid(e.GOid)))
					}
				}
				val = object.List(elems...)
			}
		}
		if mode == fill {
			slab.Reserve(m, width, room)
			m.Set(name, val)
		} else {
			m.Append(name, val)
		}
	}
}

// EvaluateView implements step CA_G3: evaluate the query predicates on the
// materialized global classes. In-memory navigation costs CPU rather than
// disk (the view was just built at the global site).
func (co *Coordinator) EvaluateView(p fabric.Proc, b *query.Bound, v *View) *Answer {
	var c cost.Counter
	ans := &Answer{}

	conjunctive := b.Conjunctive()
	// No row keeps its verdicts, so one scratch slice serves every root; the
	// rows' targets are cut from a slab.
	verdicts := make([]tvl.Truth, len(b.Preds))
	slabs := rowSlabs{rows: len(v.roots)}
	for _, root := range v.roots {
		clear(verdicts)
		for i := range b.Preds {
			pv := eval.EvalPredicate(v, &b.Preds[i], root, &c, nil)
			verdicts[i] = pv
			// Conjunctive queries short-circuit on the first false
			// predicate; disjunctive ones need every verdict.
			if conjunctive && pv == tvl.False {
				break
			}
		}
		verdict := b.Fold(verdicts)
		if verdict == tvl.False {
			ans.Stats.Eliminated++
			continue
		}
		row := ResultRow{GOid: object.GOid(root.LOid)}
		if verdict == tvl.Unknown {
			row.Unknown = slabs.unknown(verdicts)
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
		if verdict == tvl.True {
			ans.Certain = append(ans.Certain, row)
		} else {
			ans.Maybe = append(ans.Maybe, row)
		}
	}
	sortRows(ans.Certain)
	sortRows(ans.Maybe)
	co.charge(p, &c)
	return ans
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
// the rows no binding in this replica names.
func (co *Coordinator) CertifyDegraded(p fabric.Proc, b *query.Bound, results []LocalResult,
	replies []CheckReply, dead map[object.SiteID]bool) *Answer {
	var c cost.Counter

	// Index check verdicts: any violation dominates, then satisfaction.
	type vkey struct {
		item      object.GOid
		idx       int
		suffixLen int
	}
	ans := &Answer{}
	n := 0
	for _, reply := range replies {
		n += len(reply.Verdicts)
	}
	for _, res := range results {
		n += len(res.SigVerdicts)
	}
	checkEvidence := make(map[vkey]tvl.Truth, n)
	record := func(cv CheckVerdict) {
		c.CPU(1)
		ans.Stats.CheckVerdicts++
		k := vkey{item: cv.ItemGOid, idx: cv.SourceIdx, suffixLen: cv.SuffixLen}
		prev, seen := checkEvidence[k]
		switch {
		case cv.Verdict == tvl.False || prev == tvl.False:
			checkEvidence[k] = tvl.False
		case cv.Verdict == tvl.True || (seen && prev == tvl.True):
			checkEvidence[k] = tvl.True
		default:
			checkEvidence[k] = tvl.Unknown
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
	// No entity keeps its evidence, so one scratch slice serves every one;
	// the rows' targets and unknown lists are cut from slabs.
	evidence := make([]tvl.Truth, len(b.Preds))
	slabs := rowSlabs{rows: len(at) - 1}
	for k := 0; k+1 < len(at); k++ {
		e := rows[at[k]:at[k+1]]
		if len(e) == 0 {
			continue
		}
		goid := e[0].GOid

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
			ans.Stats.Eliminated++
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
					cv, ok := checkEvidence[vkey{item: u.ItemGOid, idx: u.SourceIdx, suffixLen: len(u.Suffix.Path)}]
					if !ok {
						allFalse = false
						continue
					}
					switch cv {
					case tvl.True:
						anyTrue = true
						allFalse = false
					case tvl.Unknown:
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
		switch b.Fold(evidence) {
		case tvl.False:
			ans.Stats.Eliminated++
			continue
		case tvl.True:
			if localFold != tvl.True {
				ans.Stats.Certified++
			}
			ans.Certain = append(ans.Certain, ResultRow{
				GOid: goid, Targets: mergeTargets(slabs.targets.take(len(b.Targets), slabs.rows), e, &c)})
		default:
			ans.Maybe = append(ans.Maybe, ResultRow{
				GOid:    goid,
				Targets: mergeTargets(slabs.targets.take(len(b.Targets), slabs.rows), e, &c),
				Unknown: slabs.unknown(evidence),
			})
		}
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
	co.charge(p, &c)
	return ans
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
	co.charge(p, &c)
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
	for _, goid := range rootTable.GOids() {
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
