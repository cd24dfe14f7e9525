package eval

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/hetfed/hetfed/internal/cost"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/tvl"
)

func TestCompare(t *testing.T) {
	cases := []struct {
		op   query.Op
		a, b object.Value
		want tvl.Truth
	}{
		{query.OpEq, object.Int(1), object.Int(1), tvl.True},
		{query.OpEq, object.Int(1), object.Int(2), tvl.False},
		{query.OpEq, object.Null(), object.Int(1), tvl.Unknown},
		{query.OpEq, object.Int(1), object.Null(), tvl.Unknown},
		{query.OpNe, object.Int(1), object.Int(2), tvl.True},
		{query.OpNe, object.Null(), object.Int(2), tvl.Unknown},
		{query.OpLt, object.Int(1), object.Int(2), tvl.True},
		{query.OpLt, object.Int(2), object.Int(2), tvl.False},
		{query.OpLe, object.Int(2), object.Int(2), tvl.True},
		{query.OpGt, object.Str("b"), object.Str("a"), tvl.True},
		{query.OpGe, object.Str("a"), object.Str("b"), tvl.False},
		{query.OpGe, object.Null(), object.Null(), tvl.Unknown},
		{query.OpLt, object.Str("a"), object.Int(1), tvl.False},
		{query.OpEq, object.Str("1"), object.Int(1), tvl.False},
	}
	for _, c := range cases {
		if got := Compare(c.op, c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

// evalPred is EvalPredicate with a collector of its own.
func evalPred(src Source, bp query.BoundPredicate, root *object.Object, sink cost.Sink) (tvl.Truth, []Unsolved) {
	var uns []Unsolved
	return EvalPredicate(src, &bp, root, sink, &uns), uns
}

func q1Bound(t *testing.T) (*school.Fixture, *query.Bound) {
	t.Helper()
	fx := school.New()
	return fx, query.MustBind(query.MustParse(school.Q1), fx.Global)
}

// TestEvalPredicateDB1 walks the paper's example: evaluating Q1's
// predicates on DB1's students.
func TestEvalPredicateDB1(t *testing.T) {
	fx, b := q1Bound(t)
	db1 := fx.Databases["DB1"]

	// Predicate 0: address.city = "Taipei" — address is a missing
	// attribute of Student@DB1, so every student is unsolved at itself.
	s1 := db1.Extent("Student").Get("s1")
	verdict, unss := evalPred(DiskSource{DB: db1}, b.Preds[0], s1, cost.Discard)
	if verdict != tvl.Unknown || len(unss) != 1 {
		t.Fatalf("pred0 on s1 = %v, %v", verdict, unss)
	}
	uns := unss[0]
	if uns.ItemLOid != "s1" || uns.ItemClass != "Student" ||
		!uns.Suffix.Path.Equal(query.Path{"address", "city"}) || uns.SourceIdx != 0 {
		t.Errorf("unsolved = %+v", uns)
	}

	// Predicate 1: advisor.speciality = "database" — speciality missing on
	// Teacher@DB1; the advisor is the unsolved item.
	verdict, unss = evalPred(DiskSource{DB: db1}, b.Preds[1], s1, cost.Discard)
	if verdict != tvl.Unknown || len(unss) != 1 {
		t.Fatalf("pred1 on s1 = %v, %v", verdict, unss)
	}
	uns = unss[0]
	if uns.ItemLOid != "t1" || uns.ItemClass != "Teacher" ||
		!uns.Suffix.Path.Equal(query.Path{"speciality"}) {
		t.Errorf("unsolved = %+v", uns)
	}

	// Predicate 2: advisor.department.name = "CS" — fully held at DB1;
	// true for s1 (t1 → d1 → CS).
	verdict, unss = evalPred(DiskSource{DB: db1}, b.Preds[2], s1, cost.Discard)
	if verdict != tvl.True || len(unss) != 0 {
		t.Errorf("pred2 on s1 = %v, %v", verdict, unss)
	}

	// s3's advisor t2 has a null department: unknown with item t2.
	s3 := db1.Extent("Student").Get("s3")
	verdict, unss = evalPred(DiskSource{DB: db1}, b.Preds[2], s3, cost.Discard)
	if verdict != tvl.Unknown || len(unss) != 1 {
		t.Fatalf("pred2 on s3 = %v, %v", verdict, unss)
	}
	uns = unss[0]
	if uns.ItemLOid != "t2" || uns.ItemClass != "Teacher" ||
		!uns.Suffix.Path.Equal(query.Path{"department", "name"}) {
		t.Errorf("unsolved = %+v", uns)
	}
}

func TestEvalPredicateDB2(t *testing.T) {
	fx, b := q1Bound(t)
	db2 := fx.Databases["DB2"]

	// s1' (Hedy): address.city = Taipei → true; speciality database → true;
	// department missing → unknown at t1'.
	s1p := db2.Extent("Student").Get("s1'")
	if v, _ := evalPred(DiskSource{DB: db2}, b.Preds[0], s1p, cost.Discard); v != tvl.True {
		t.Errorf("pred0 on s1' = %v", v)
	}
	if v, _ := evalPred(DiskSource{DB: db2}, b.Preds[1], s1p, cost.Discard); v != tvl.True {
		t.Errorf("pred1 on s1' = %v", v)
	}
	v, unss := evalPred(DiskSource{DB: db2}, b.Preds[2], s1p, cost.Discard)
	if v != tvl.Unknown || len(unss) != 1 || unss[0].ItemLOid != "t1'" || unss[0].ItemClass != "Teacher" {
		t.Errorf("pred2 on s1' = %v, %+v", v, unss)
	}
	if !unss[0].Suffix.Path.Equal(query.Path{"department", "name"}) {
		t.Errorf("suffix = %v", unss[0].Suffix)
	}

	// s2' (John): address.city = HsinChu → false.
	s2p := db2.Extent("Student").Get("s2'")
	if v, _ := evalPred(DiskSource{DB: db2}, b.Preds[0], s2p, cost.Discard); v != tvl.False {
		t.Errorf("pred0 on s2' = %v", v)
	}
}

func TestEvalPredicateCosts(t *testing.T) {
	fx, b := q1Bound(t)
	db1 := fx.Databases["DB1"]
	s1 := db1.Extent("Student").Get("s1")

	var c cost.Counter
	// advisor.department.name: 3 steps + 1 comparison → 4 CPU ops,
	// 2 derefs (t1, d1).
	evalPred(DiskSource{DB: db1}, b.Preds[2], s1, &c)
	if c.CPUOps() != 4 {
		t.Errorf("CPUOps = %d, want 4", c.CPUOps())
	}
	t1 := db1.Extent("Teacher").Get("t1")
	d1 := db1.Extent("Department").Get("d1")
	wantDisk := int64(t1.WireSize(nil) + d1.WireSize(nil))
	if c.DiskBytes() != wantDisk {
		t.Errorf("DiskBytes = %d, want %d", c.DiskBytes(), wantDisk)
	}
}

func TestEvalTarget(t *testing.T) {
	fx, b := q1Bound(t)
	db1 := fx.Databases["DB1"]
	s1 := db1.Extent("Student").Get("s1")

	// Target 0: name.
	if v := EvalTarget(DiskSource{DB: db1}, b.Targets[0], s1, cost.Discard); !v.Equal(object.Str("John")) {
		t.Errorf("target name = %v", v)
	}
	// Target 1: advisor.name.
	if v := EvalTarget(DiskSource{DB: db1}, b.Targets[1], s1, cost.Discard); !v.Equal(object.Str("Jeffery")) {
		t.Errorf("target advisor.name = %v", v)
	}
	// Missing data yields null: address.city on DB1 students.
	bp, err := query.BindPredicateAt(fx.Global, "Student", query.Predicate{
		Path: query.Path{"address", "city"}, Op: query.OpEq, Literal: object.Str("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := EvalTarget(DiskSource{DB: db1}, bp.BoundPath, s1, cost.Discard); !v.IsNull() {
		t.Errorf("missing target = %v", v)
	}
}

func TestEvalObjectAndVerdict(t *testing.T) {
	fx, b := q1Bound(t)
	db1 := fx.Databases["DB1"]
	s3 := db1.Extent("Student").Get("s3")

	r := EvalObject(DiskSource{DB: db1}, b, []int{0, 1, 2}, s3, cost.Discard)
	if len(r.Unsolved) != 3 {
		t.Errorf("unsolved = %+v", r.Unsolved)
	}
	if r.Verdict() != tvl.Unknown {
		t.Errorf("verdict = %v", r.Verdict())
	}

	// Subset evaluation leaves other verdict slots zero.
	r2 := EvalObject(DiskSource{DB: db1}, b, []int{2}, s3, cost.Discard)
	if r2.Verdicts[0] != 0 || r2.Verdicts[1] != 0 {
		t.Error("subset eval touched other slots")
	}
	if r2.Verdicts[2] != tvl.Unknown {
		t.Errorf("verdict[2] = %v", r2.Verdicts[2])
	}
}

func TestSplitPredIdx(t *testing.T) {
	fx, b := q1Bound(t)
	_ = fx

	local, removed := SplitPredIdx(b, "DB1")
	if !reflect.DeepEqual(local, []int{2}) || !reflect.DeepEqual(removed, []int{0, 1}) {
		t.Errorf("DB1 split = %v / %v", local, removed)
	}
	local, removed = SplitPredIdx(b, "DB2")
	if !reflect.DeepEqual(local, []int{0, 1}) || !reflect.DeepEqual(removed, []int{2}) {
		t.Errorf("DB2 split = %v / %v", local, removed)
	}
}

func TestSplitMatchesLocalize(t *testing.T) {
	fx, b := q1Bound(t)
	_ = fx
	for _, site := range []object.SiteID{"DB1", "DB2"} {
		lq, err := b.Localize(site)
		if err != nil {
			t.Fatal(err)
		}
		local, removed := SplitPredIdx(b, site)
		if len(local) != len(lq.Local) || len(removed) != len(lq.Unsolved) {
			t.Errorf("%s: split (%d,%d) vs localize (%d,%d)",
				site, len(local), len(removed), len(lq.Local), len(lq.Unsolved))
		}
	}
}

func TestDanglingRefTreatedAsMissing(t *testing.T) {
	fx, b := q1Bound(t)
	db1 := fx.Databases["DB1"]
	// Bypass Insert validation by mutating a stored object directly.
	s1 := db1.Extent("Student").Get("s1")
	s1.Set("advisor", object.Ref("ghost"))
	v, unss := evalPred(DiskSource{DB: db1}, b.Preds[2], s1, cost.Discard)
	if v != tvl.Unknown || len(unss) != 1 || unss[0].ItemLOid != "s1" {
		t.Errorf("dangling ref: %v, %+v", v, unss)
	}
	if vt := EvalTarget(DiskSource{DB: db1}, b.Targets[1], s1, cost.Discard); !vt.IsNull() {
		t.Errorf("dangling target = %v", vt)
	}
}

func TestCachedChargesOnce(t *testing.T) {
	fx, b := q1Bound(t)
	db1 := fx.Databases["DB1"]
	s1 := db1.Extent("Student").Get("s1")

	src := NewCached(DiskSource{DB: db1})
	var c1 cost.Counter
	evalPred(src, b.Preds[2], s1, &c1) // reads t1, d1 from disk
	var c2 cost.Counter
	evalPred(src, b.Preds[2], s1, &c2) // buffer hits only
	if c2.DiskBytes() != 0 {
		t.Errorf("second evaluation read %d disk bytes", c2.DiskBytes())
	}
	if c1.DiskBytes() == 0 {
		t.Error("first evaluation read nothing")
	}
	// Buffer hits still cost CPU.
	if c2.CPUOps() <= 0 {
		t.Error("buffer hits charged no CPU")
	}
}

// listFixture stores one root object with a multi-valued complex attribute
// and list-valued primitives for exercising ANY semantics directly.
func listFixture(t *testing.T) (Source, *object.Object, *query.Bound) {
	t.Helper()
	s := schema.NewSchema("L1")
	s.MustAddClass(schema.MustClass("Part", []schema.Attribute{
		schema.Prim("weight", object.KindInt),
	}, "weight"))
	s.MustAddClass(schema.MustClass("Kit", []schema.Attribute{
		schema.Prim("name", object.KindString),
		{Name: "parts", Domain: "Part", MultiValued: true},
		{Name: "labels", Prim: object.KindString, MultiValued: true},
	}, "name"))
	db := store.MustNewDatabase(s)
	db.MustInsert(object.New("pa", "Part", map[string]object.Value{"weight": object.Int(5)}))
	db.MustInsert(object.New("pb", "Part", nil)) // weight null
	db.MustInsert(object.New("pc", "Part", map[string]object.Value{"weight": object.Int(9)}))
	db.MustInsert(object.New("k1", "Kit", map[string]object.Value{
		"name":   object.Str("kit"),
		"parts":  object.List(object.Ref("pa"), object.Ref("pb"), object.Ref("pc")),
		"labels": object.List(object.Str("red"), object.Str("blue")),
	}))
	g, err := schema.Integrate(map[object.SiteID]*schema.Schema{"L1": s},
		[]schema.Correspondence{
			{GlobalClass: "Kit", Members: []schema.Constituent{{Site: "L1", Class: "Kit"}}},
			{GlobalClass: "Part", Members: []schema.Constituent{{Site: "L1", Class: "Part"}}},
		})
	if err != nil {
		t.Fatal(err)
	}
	b := query.MustBind(query.MustParse(`select name from Kit where parts.weight = 5`), g)
	return DiskSource{DB: db}, db.Extent("Kit").Get("k1"), b
}

func TestListAnyTrueShortCircuits(t *testing.T) {
	src, k1, b := listFixture(t)
	v, uns := evalPred(src, b.Preds[0], k1, cost.Discard)
	if v != tvl.True || len(uns) != 0 {
		t.Errorf("parts.weight = 5 -> %v, %v", v, uns)
	}
}

func TestListUnknownCollectsMultiUnsolved(t *testing.T) {
	src, k1, b := listFixture(t)
	bp, err := query.BindPredicateAt(b.Global, "Kit", query.Predicate{
		Path: query.Path{"parts", "weight"}, Op: query.OpEq, Literal: object.Int(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, uns := evalPred(src, bp, k1, cost.Discard)
	if v != tvl.Unknown {
		t.Fatalf("verdict = %v", v)
	}
	// Only pb lacks the weight; it is the single unsolved item, marked Multi.
	if len(uns) != 1 || uns[0].ItemLOid != "pb" || !uns[0].Multi {
		t.Errorf("unsolved = %+v", uns)
	}
}

func TestListAllFalse(t *testing.T) {
	src, k1, b := listFixture(t)
	bp, err := query.BindPredicateAt(b.Global, "Kit", query.Predicate{
		Path: query.Path{"parts", "weight"}, Op: query.OpGt, Literal: object.Int(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	// pb's weight is null -> unknown, so the whole list predicate stays
	// unknown even though pa and pc definitively fail.
	if v, _ := evalPred(src, bp, k1, cost.Discard); v != tvl.Unknown {
		t.Errorf("verdict = %v", v)
	}
	// Against the primitive list with no nulls, all-false is definitive.
	bp2, err := query.BindPredicateAt(b.Global, "Kit", query.Predicate{
		Path: query.Path{"labels"}, Op: query.OpEq, Literal: object.Str("green"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, uns := evalPred(src, bp2, k1, cost.Discard); v != tvl.False || len(uns) != 0 {
		t.Errorf("labels = green -> %v, %v", v, uns)
	}
}

func TestListPrimitiveAnyTrue(t *testing.T) {
	src, k1, b := listFixture(t)
	bp, err := query.BindPredicateAt(b.Global, "Kit", query.Predicate{
		Path: query.Path{"labels"}, Op: query.OpEq, Literal: object.Str("blue"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := evalPred(src, bp, k1, cost.Discard); v != tvl.True {
		t.Errorf("labels = blue -> %v", v)
	}
}

func TestNavigateDoneForListPaths(t *testing.T) {
	src, k1, b := listFixture(t)
	out := Navigate(src, &b.Preds[0], k1, cost.Discard, nil)
	if !out.Done || out.Verdict != tvl.True {
		t.Errorf("Navigate over list = %+v", out)
	}
	// Scalar paths stay undone with the reached value.
	bp, err := query.BindPredicateAt(b.Global, "Kit", query.Predicate{
		Path: query.Path{"name"}, Op: query.OpEq, Literal: object.Str("kit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A scalar path's comparison is made but left uncharged: not Done.
	var c cost.Counter
	out = Navigate(src, &bp, k1, &c, nil)
	if out.Done || out.Verdict != tvl.True || c.CPUOps() != 1 {
		t.Errorf("Navigate over scalar = %+v, %d CPU ops; want undone, true, 1 op", out, c.CPUOps())
	}
	if v := EvalPredicate(src, &bp, k1, &c, nil); v != out.Verdict || c.CPUOps() != 3 {
		t.Errorf("EvalPredicate = %v, %d CPU ops in all; want %v and the comparison charged", v, c.CPUOps(), out.Verdict)
	}
	// A slab of outcomes is nothing the garbage collector scans.
	if n := unsafe.Sizeof(Outcome{}); n != 2 {
		t.Errorf("Outcome is %d bytes, want 2 and no pointers", n)
	}
}
