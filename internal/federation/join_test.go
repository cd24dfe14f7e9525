package federation

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/store"
)

// joinFixture is a three-site federation small enough to write every view
// object out by hand, with the cases the Table 2 generator never draws:
// objects no binding names, references to them, an entity whose only copy is
// at a site that does not answer, a multi-valued reference.
//
//	Emp   ge1 = S1:e1, S2:e1'   ge2 = S1:e2   ge3 = S3:e3   (S1:eU, S1:eV unbound)
//	Dept  gd1 = S1:d1, S2:d1'                               (S1:dX unbound)
func joinFixture(t testing.TB) sitePathFixture {
	t.Helper()
	emp := []schema.Attribute{
		schema.Prim("name", object.KindString), schema.Prim("skill", object.KindString),
		schema.Complex("dept", "Dept"), {Name: "peers", Domain: "Emp", MultiValued: true},
	}
	dept := []schema.Attribute{schema.Prim("name", object.KindString), schema.Prim("city", object.KindString)}
	schemas := map[object.SiteID]*schema.Schema{}
	dbs := map[object.SiteID]*store.Database{}
	var emps, depts []schema.Constituent
	for _, id := range []object.SiteID{"S1", "S2", "S3"} {
		s := schema.NewSchema(id)
		s.MustAddClass(schema.MustClass("Dept", dept, "name"))
		s.MustAddClass(schema.MustClass("Emp", emp, "name"))
		schemas[id], dbs[id] = s, store.MustNewDatabase(s)
		emps = append(emps, schema.Constituent{Site: id, Class: "Emp"})
		depts = append(depts, schema.Constituent{Site: id, Class: "Dept"})
	}
	global, err := schema.Integrate(schemas, []schema.Correspondence{
		{GlobalClass: "Emp", Members: emps}, {GlobalClass: "Dept", Members: depts}})
	if err != nil {
		t.Fatal(err)
	}
	str, ref := object.Str, object.Ref
	put := func(site object.SiteID, id object.LOid, class string, attrs map[string]object.Value) {
		dbs[site].MustInsert(object.New(id, class, attrs))
	}
	put("S1", "d1", "Dept", map[string]object.Value{"name": str("R&D"), "city": str("Oslo")})
	put("S1", "dX", "Dept", map[string]object.Value{"name": str("Ops"), "city": str("Rome")})
	put("S1", "e1", "Emp", map[string]object.Value{"name": str("Ann"), "dept": ref("d1"),
		"peers": object.List(ref("e2"), ref("eU"), ref("e1"))})
	put("S1", "e2", "Emp", map[string]object.Value{"name": str("Bob"), "skill": str("go"), "dept": ref("dX")})
	put("S1", "eU", "Emp", map[string]object.Value{"name": str("Uma")})
	put("S1", "eV", "Emp", map[string]object.Value{"name": str("Vic"), "peers": object.List(ref("eU"))})
	put("S2", "d1'", "Dept", map[string]object.Value{"name": str("R&D"), "city": str("Bergen")})
	put("S2", "e1'", "Emp", map[string]object.Value{"name": str("Ann"), "skill": str("rust"), "dept": ref("d1'"),
		"peers": object.List(ref("e1'"))})
	put("S3", "e3", "Emp", map[string]object.Value{"name": str("Cy"), "skill": str("go")})

	tables := gmap.NewTables()
	tables.Table("Emp").MustBind("ge1", "S1", "e1")
	tables.Table("Emp").MustBind("ge1", "S2", "e1'")
	tables.Table("Emp").MustBind("ge2", "S1", "e2")
	tables.Table("Emp").MustBind("ge3", "S3", "e3")
	tables.Table("Dept").MustBind("gd1", "S1", "d1")
	tables.Table("Dept").MustBind("gd1", "S2", "d1'")
	return sitePathFixture{name: "join", global: global, dbs: dbs, tables: tables,
		bound: query.MustBind(query.MustParse(
			`select name, dept from Emp where dept.city = "Oslo" and skill = "go" and peers.skill = "go"`), global)}
}

// retrieveFrom returns the listed sites' replies, in the order listed.
func retrieveFrom(t testing.TB, fx sitePathFixture, ids ...object.SiteID) []RetrieveReply {
	t.Helper()
	sites := fx.sites()
	replies := make([]RetrieveReply, len(ids))
	for i, id := range ids {
		onReal(t, func(p fabric.Proc) { replies[i] = sites[id].Retrieve(p, fx.bound) })
	}
	return replies
}

// wantView compares a view, object for object, with the outerjoin written out
// by hand: want is every object as the parent's merge built it (first
// non-null value in site order, references translated, untranslatable ones
// dropped), roots the range class's GOids in order, absent some GOids the
// view must not hold.
func wantView(t *testing.T, when string, v *View, want []*object.Object, roots []object.GOid, absent ...object.GOid) {
	t.Helper()
	slices.SortFunc(want, func(a, b *object.Object) int { return strings.Compare(string(a.LOid), string(b.LOid)) })
	got := viewObjects(v)
	if len(got) != len(want) || v.Len() != len(want) {
		t.Errorf("%s: the view lists %d objects and reports Len %d, want %d", when, len(got), v.Len(), len(want))
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i].String() != want[i].String() || got[i].WireSize(nil) != want[i].WireSize(nil) {
			t.Errorf("%s: object %d is %v (%d bytes modeled), want %v (%d)",
				when, i, got[i], got[i].WireSize(nil), want[i], want[i].WireSize(nil))
		}
	}
	var c cost.Counter
	for _, w := range want {
		g := object.GOid(w.LOid)
		o, ok := v.Fetch(w.LOid, &c)
		if d, dok := v.Deref(w.LOid); !ok || !dok || o != d || !v.Has(g) || o.LOid != w.LOid {
			t.Errorf("%s: Fetch, Deref and Has disagree on %s: %v %v, %v %v, %v", when, g, o, ok, d, dok, v.Has(g))
		}
	}
	if c.CPUOps() != int64(len(want)) || c.DiskBytes() != 0 {
		t.Errorf("%s: %d fetches charged %d CPU operations, %d disk bytes", when, len(want), c.CPUOps(), c.DiskBytes())
	}
	for _, g := range absent {
		if _, ok := v.Fetch(object.LOid(g), &c); ok || v.Has(g) {
			t.Errorf("%s: the view holds %s, which no reply did", when, g)
		}
	}
	if c.CPUOps() != int64(len(want)) {
		t.Errorf("%s: a fetch that found nothing was charged", when)
	}
	var gotRoots []object.GOid
	for _, r := range v.roots {
		gotRoots = append(gotRoots, object.GOid(r.LOid))
	}
	if !slices.Equal(gotRoots, roots) {
		t.Errorf("%s: roots = %v, want %v", when, gotRoots, roots)
	}
}

// TestMaterializeHandBuiltJoin: the outerjoin over entity numbers builds, on a
// federation with unbound objects, dangling references and a multi-valued
// reference, exactly the objects the hashed join built, whether the replies
// are the stores' own objects or decoded records, and in whatever order the
// replies are handed over.
func TestMaterializeHandBuiltJoin(t *testing.T) {
	fx := joinFixture(t)
	co := NewCoordinator("G", fx.global, fx.tables)
	str, ref := object.Str, object.Ref
	expected := func() []*object.Object {
		return []*object.Object{
			// S1's e1 starts ge1: its peers keep the two bound ones, in the
			// list's order. S2's e1' fills the skill; its dept and peers lose
			// to the values already there.
			object.New("ge1", "Emp", map[string]object.Value{"name": str("Ann"), "skill": str("rust"),
				"dept": ref("gd1"), "peers": object.List(ref("ge2"), ref("ge1"))}),
			// e2's dept points at an object no binding names: dropped.
			object.New("ge2", "Emp", map[string]object.Value{"name": str("Bob"), "skill": str("go")}),
			object.New("!Emp:S1:eU", "Emp", map[string]object.Value{"name": str("Uma")}),
			// Every element of eV's peers is unbound: the list stays, empty.
			object.New("!Emp:S1:eV", "Emp", map[string]object.Value{"name": str("Vic"), "peers": object.List()}),
			// Dept is read through {city}: S1's Oslo wins over S2's Bergen.
			object.New("gd1", "Dept", map[string]object.Value{"city": str("Oslo")}),
			object.New("!Dept:S1:dX", "Dept", map[string]object.Value{"city": str("Rome")}),
		}
	}
	roots := []object.GOid{"!Emp:S1:eU", "!Emp:S1:eV", "ge1", "ge2"}

	// Charges, counted by hand from the replies: one per object (6 + 2), one
	// per masked attribute held (S1: d1 1, dX 1, e1 3, e2 3, eU 1, eV 2;
	// S2: d1' 1, e1' 4), one per reference met on an attribute still missing
	// (e1.dept, e2.dept; e1'.dept loses before it is looked at), one per
	// element of a list merged (e1.peers 3, eV.peers 1).
	const wantCPU = 8 + (11 + 5) + 2 + 4

	for _, order := range [][]object.SiteID{{"S1", "S2"}, {"S2", "S1"}} {
		for _, overWire := range []bool{false, true} {
			replies := retrieveFrom(t, fx, order...)
			if overWire {
				for i := range replies {
					replies[i] = recordRoundTrip(t, replies[i])
				}
			}
			var view *View
			m := onReal(t, func(p fabric.Proc) { view = co.Materialize(p, fx.bound, replies) })
			when := fmt.Sprintf("replies %v, over the wire %v", order, overWire)
			// ge3 is an entity the replica knows and no reply holds.
			wantView(t, when, view, expected(), roots, "ge3", "gd9", "!Emp:S1:e1", "")
			if m.CPUOps != wantCPU || m.DiskBytes != 0 {
				t.Errorf("%s: Materialize charged %d CPU operations and %d disk bytes, want %d and 0",
					when, m.CPUOps, m.DiskBytes, wantCPU)
			}
		}
	}
}

// TestMaterializeSeesBindingsAddedBetweenCalls: a view is indexed by the
// numbers its tables held when it was built. Bindings that arrive afterwards —
// an unbound object adopted by a known entity, a new entity numbered past the
// earlier view's end, a reference target that gets its identity — show in the
// next view and leave the earlier one answering as it did.
func TestMaterializeSeesBindingsAddedBetweenCalls(t *testing.T) {
	fx := joinFixture(t)
	co := NewCoordinator("G", fx.global, fx.tables)
	replies := retrieveFrom(t, fx, "S1", "S2")
	var before, after *View
	onReal(t, func(p fabric.Proc) { before = co.Materialize(p, fx.bound, replies) })

	fx.tables.Table("Emp").MustBind("ge3", "S1", "eU")  // adopted by the entity stored at S3
	fx.tables.Table("Emp").MustBind("ge4", "S1", "eV")  // a new entity: number 3, past the first view's slots
	fx.tables.Table("Dept").MustBind("gd2", "S1", "dX") // e2's dept can now be followed
	onReal(t, func(p fabric.Proc) { after = co.Materialize(p, fx.bound, replies) })

	str, ref := object.Str, object.Ref
	wantView(t, "after the binds", after, []*object.Object{
		object.New("ge1", "Emp", map[string]object.Value{"name": str("Ann"), "skill": str("rust"),
			"dept": ref("gd1"), "peers": object.List(ref("ge2"), ref("ge3"), ref("ge1"))}),
		object.New("ge2", "Emp", map[string]object.Value{"name": str("Bob"), "skill": str("go"), "dept": ref("gd2")}),
		object.New("ge3", "Emp", map[string]object.Value{"name": str("Uma")}),
		object.New("ge4", "Emp", map[string]object.Value{"name": str("Vic"), "peers": object.List(ref("ge3"))}),
		object.New("gd1", "Dept", map[string]object.Value{"city": str("Oslo")}),
		object.New("gd2", "Dept", map[string]object.Value{"city": str("Rome")}),
	}, []object.GOid{"ge1", "ge2", "ge3", "ge4"}, "!Emp:S1:eU", "!Emp:S1:eV", "!Dept:S1:dX")

	// The earlier view: ge3 and ge4 have numbers now, but it holds neither.
	if before.Has("ge3") || before.Has("ge4") || before.Has("gd2") || !before.Has("!Emp:S1:eU") || before.Len() != 6 {
		t.Errorf("the view built before the binds changed its answers: ge3 %v ge4 %v gd2 %v eU %v Len %d",
			before.Has("ge3"), before.Has("ge4"), before.Has("gd2"), before.Has("!Emp:S1:eU"), before.Len())
	}
}

// TestDegradedRowsFollowViewHas: with S3 unavailable, the entity stored only
// there is not in the view, so View.Has lets it through as a synthesized
// all-unknown maybe row; the entities the live sites shipped — bound or not —
// are present and synthesize nothing.
func TestDegradedRowsFollowViewHas(t *testing.T) {
	fx := joinFixture(t)
	co := NewCoordinator("G", fx.global, fx.tables)
	replies := retrieveFrom(t, fx, "S1", "S2")
	var (
		view *View
		ans  *Answer
		rows []ResultRow
	)
	dead := map[object.SiteID]bool{"S3": true}
	onReal(t, func(p fabric.Proc) {
		view = co.Materialize(p, fx.bound, replies)
		ans = co.EvaluateView(p, fx.bound, view)
		rows = co.DegradedRootRows(p, fx.bound, dead, view.Has)
	})
	if len(rows) != 1 || rows[0].GOid != "ge3" || !slices.Equal(rows[0].Unknown, []int{0, 1, 2}) {
		t.Errorf("synthesized rows = %+v, want ge3 alone with every predicate unknown", rows)
	}
	// ge2 is Bob: go, but his dept could not be followed and he has no
	// peers; ge1's dept is in Oslo, her skill is rust. Nothing is certain.
	if len(ans.Certain) != 0 {
		t.Errorf("certain = %v", ans.Certain)
	}
	for _, row := range ans.Maybe {
		if row.GOid == "ge3" {
			t.Errorf("EvaluateView answered for ge3, which no reply held: %v", row)
		}
	}
	// With S1 dead instead, ge1 is still in the view through S2 and ge2 is
	// not: exactly ge2 is synthesized (the unbound objects have no table
	// entry to be synthesized from).
	onReal(t, func(p fabric.Proc) {
		view = co.Materialize(p, fx.bound, retrieveFrom(t, fx, "S2", "S3"))
		rows = co.DegradedRootRows(p, fx.bound, map[object.SiteID]bool{"S1": true}, view.Has)
	})
	if len(rows) != 1 || rows[0].GOid != "ge2" {
		t.Errorf("with S1 dead the synthesized rows are %+v, want ge2 alone", rows)
	}
}
