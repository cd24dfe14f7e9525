package store

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/schema"
)

func testSchema() *schema.Schema {
	s := schema.NewSchema("DB1")
	s.MustAddClass(schema.MustClass("Department", []schema.Attribute{
		schema.Prim("name", object.KindString),
	}, "name"))
	s.MustAddClass(schema.MustClass("Teacher", []schema.Attribute{
		schema.Prim("name", object.KindString),
		schema.Prim("salary", object.KindFloat),
		schema.Complex("department", "Department"),
		{Name: "courses", Prim: object.KindString, MultiValued: true},
	}, "name"))
	return s
}

func TestNewDatabaseRejectsInvalidSchema(t *testing.T) {
	s := schema.NewSchema("DBX")
	s.MustAddClass(schema.MustClass("A", []schema.Attribute{schema.Complex("b", "Missing")}))
	if _, err := NewDatabase(s); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestInsertAndGet(t *testing.T) {
	db := MustNewDatabase(testSchema())
	d := object.New("d1", "Department", map[string]object.Value{"name": object.Str("CS")})
	if err := db.Insert(d); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	tch := object.New("t1", "Teacher", map[string]object.Value{
		"name":       object.Str("Jeffery"),
		"salary":     object.Int(50000), // int into float attr is fine
		"department": object.Ref("d1"),
		"courses":    object.List(object.Str("db"), object.Str("os")),
	})
	if err := db.Insert(tch); err != nil {
		t.Fatalf("Insert teacher: %v", err)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
	if got := db.Extent("Teacher").Get("t1"); got != tch {
		t.Error("Get returned wrong object")
	}
	if got, ok := db.Deref("d1"); !ok || got != d {
		t.Error("Deref failed")
	}
	if _, ok := db.Deref("zzz"); ok {
		t.Error("Deref of unknown LOid succeeded")
	}
	if db.Site() != "DB1" || db.Schema() == nil {
		t.Error("accessors wrong")
	}
}

func TestInsertErrors(t *testing.T) {
	db := MustNewDatabase(testSchema())
	cases := []struct {
		name string
		obj  *object.Object
		want string
	}{
		{"unknown class", object.New("x", "Nope", nil), "no class"},
		{"empty LOid", object.New("", "Department", nil), "empty LOid"},
		{"unknown attr", object.New("d9", "Department", map[string]object.Value{
			"zzz": object.Int(1)}), "no attribute"},
		{"kind mismatch", object.New("d8", "Department", map[string]object.Value{
			"name": object.Int(1)}), "want string"},
		{"ref into primitive", object.New("d7", "Department", map[string]object.Value{
			"name": object.Ref("x")}), "want string"},
		{"primitive into complex", object.New("t9", "Teacher", map[string]object.Value{
			"department": object.Str("d1")}), "wants a ref"},
		{"bad list element", object.New("t8", "Teacher", map[string]object.Value{
			"courses": object.List(object.Int(1))}), "want string"},
	}
	for _, c := range cases {
		err := db.Insert(c.obj)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}

	db.MustInsert(object.New("d1", "Department", map[string]object.Value{"name": object.Str("CS")}))
	if err := db.Insert(object.New("d1", "Department", nil)); err == nil {
		t.Error("duplicate LOid accepted")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db := MustNewDatabase(testSchema())
	for _, id := range []object.LOid{"d3", "d1", "d2"} {
		db.MustInsert(object.New(id, "Department", map[string]object.Value{"name": object.Str(string(id))}))
	}
	var seen []object.LOid
	db.Extent("Department").Scan(func(o *object.Object) bool {
		seen = append(seen, o.LOid)
		return true
	})
	if len(seen) != 3 || seen[0] != "d3" || seen[1] != "d1" || seen[2] != "d2" {
		t.Errorf("scan order = %v", seen)
	}
	n := 0
	db.Extent("Department").Scan(func(*object.Object) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop scanned %d", n)
	}
	all := db.Extent("Department").All()
	if len(all) != 3 || all[0].LOid != "d3" {
		t.Errorf("All = %v", all)
	}
}

// TestPositionsAreDenseAndStable: Insert numbers objects 0 … Len()−1 across
// every extent in insertion order, a rejected insert takes no position, later
// inserts move none, Locate and ScanPos agree, and an extent answers Get from
// the database's one index for its own objects only.
func TestPositionsAreDenseAndStable(t *testing.T) {
	db := MustNewDatabase(testSchema())
	want := map[object.LOid]int{}
	insert := func(id object.LOid, class string) {
		t.Helper()
		db.MustInsert(object.New(id, class, nil))
		want[id] = len(want)
	}
	check := func(step string) {
		t.Helper()
		for id, pos := range want {
			if _, got, ok := db.Locate(id); !ok || got != pos {
				t.Errorf("%s: Locate(%s) = %d, %v; want position %d", step, id, got, ok, pos)
			}
		}
		seen := 0
		for _, class := range db.Schema().ClassNames() {
			db.Extent(class).ScanPos(func(o *object.Object, pos int) bool {
				seen++
				if pos != want[o.LOid] {
					t.Errorf("%s: ScanPos hands %s position %d, want %d", step, o.LOid, pos, want[o.LOid])
				}
				return true
			})
		}
		if seen != len(want) || db.Len() != len(want) {
			t.Errorf("%s: ScanPos saw %d objects, Len = %d; want %d", step, seen, db.Len(), len(want))
		}
	}
	insert("d1", "Department")
	insert("t1", "Teacher")
	insert("d2", "Department")
	check("three inserts")
	if err := db.Insert(object.New("d1", "Department", nil)); err == nil {
		t.Fatal("duplicate LOid accepted")
	}
	if err := db.Insert(object.New("t9", "Teacher", map[string]object.Value{"zzz": object.Int(1)})); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	check("two rejected inserts")
	insert("t2", "Teacher")
	check("one more insert")
	if _, _, ok := db.Locate("ghost"); ok {
		t.Error("Locate of unknown LOid succeeded")
	}
	if db.Extent("Teacher").Get("d1") != nil || db.Extent("Department").Get("t2") != nil {
		t.Error("an extent answered Get for another extent's object")
	}
	if o := db.Extent("Department").Get("d2"); o == nil || o.LOid != "d2" {
		t.Errorf("Get(d2) = %v", o)
	}
}

func TestCheckRefs(t *testing.T) {
	db := MustNewDatabase(testSchema())
	db.MustInsert(object.New("d1", "Department", map[string]object.Value{"name": object.Str("CS")}))
	db.MustInsert(object.New("t1", "Teacher", map[string]object.Value{
		"name": object.Str("A"), "department": object.Ref("d1"),
	}))
	if err := db.CheckRefs(); err != nil {
		t.Errorf("CheckRefs: %v", err)
	}
	db.MustInsert(object.New("t2", "Teacher", map[string]object.Value{
		"name": object.Str("B"), "department": object.Ref("ghost"),
	}))
	if err := db.CheckRefs(); err == nil {
		t.Error("dangling ref accepted")
	}
}

func TestCheckRefsWrongClass(t *testing.T) {
	db := MustNewDatabase(testSchema())
	db.MustInsert(object.New("t0", "Teacher", map[string]object.Value{"name": object.Str("Z")}))
	db.MustInsert(object.New("t1", "Teacher", map[string]object.Value{
		"name": object.Str("A"), "department": object.Ref("t0"),
	}))
	err := db.CheckRefs()
	if err == nil || !strings.Contains(err.Error(), "class") {
		t.Errorf("wrong-class ref: %v", err)
	}
}

func TestCheckRefsMultiValued(t *testing.T) {
	s := schema.NewSchema("DBX")
	s.MustAddClass(schema.MustClass("Item", []schema.Attribute{schema.Prim("n", object.KindInt)}))
	s.MustAddClass(schema.MustClass("Box", []schema.Attribute{
		{Name: "items", Domain: "Item", MultiValued: true},
	}))
	db := MustNewDatabase(s)
	db.MustInsert(object.New("i1", "Item", map[string]object.Value{"n": object.Int(1)}))
	db.MustInsert(object.New("b1", "Box", map[string]object.Value{
		"items": object.List(object.Ref("i1"), object.Ref("missing")),
	}))
	if err := db.CheckRefs(); err == nil {
		t.Error("dangling list ref accepted")
	}
}

func indexedDB(t *testing.T) *Database {
	t.Helper()
	s := schema.NewSchema("DBX")
	s.MustAddClass(schema.MustClass("P", []schema.Attribute{
		schema.Prim("n", object.KindInt),
		schema.Prim("s", object.KindString),
	}))
	db := MustNewDatabase(s)
	for i, n := range []int64{30, 10, 20, 10} {
		db.MustInsert(object.New(object.LOid(fmt.Sprintf("p%d", i)), "P", map[string]object.Value{
			"n": object.Int(n), "s": object.Str(fmt.Sprintf("v%d", i)),
		}))
	}
	// p4 has a null n.
	db.MustInsert(object.New("p4", "P", map[string]object.Value{"s": object.Str("v4")}))
	return db
}

func TestCreateIndexAndLookups(t *testing.T) {
	db := indexedDB(t)
	ix, err := db.CreateIndex("P", "n")
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if ix.Attr() != "n" || ix.Len() != 4 {
		t.Fatalf("index = %s/%d", ix.Attr(), ix.Len())
	}
	if got := ix.Nulls(); len(got) != 1 || got[0] != "p4" {
		t.Errorf("nulls = %v", got)
	}
	if got := ix.EqualTo(object.Int(10)); len(got) != 2 {
		t.Errorf("EqualTo(10) = %v", got)
	}
	if got := ix.EqualTo(object.Int(99)); len(got) != 0 {
		t.Errorf("EqualTo(99) = %v", got)
	}
	if got := ix.Range(object.Int(20), true, false); len(got) != 2 { // < 20
		t.Errorf("Range(<20) = %v", got)
	}
	if got := ix.Range(object.Int(20), true, true); len(got) != 3 { // <= 20
		t.Errorf("Range(<=20) = %v", got)
	}
	if got := ix.Range(object.Int(20), false, false); len(got) != 1 { // > 20
		t.Errorf("Range(>20) = %v", got)
	}
	if got := ix.Range(object.Int(20), false, true); len(got) != 2 { // >= 20
		t.Errorf("Range(>=20) = %v", got)
	}
	if got := ix.NotEqualTo(object.Int(10)); len(got) != 2 {
		t.Errorf("NotEqualTo(10) = %v", got)
	}
	if ix.ProbeCost(2) <= 0 {
		t.Error("ProbeCost must be positive")
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	db := indexedDB(t)
	ix, err := db.CreateIndex("P", "n")
	if err != nil {
		t.Fatal(err)
	}
	db.MustInsert(object.New("p5", "P", map[string]object.Value{"n": object.Int(15)}))
	if got := ix.Range(object.Int(20), true, false); len(got) != 3 {
		t.Errorf("after insert Range(<20) = %v", got)
	}
	db.MustInsert(object.New("p6", "P", map[string]object.Value{"s": object.Str("x")}))
	if len(ix.Nulls()) != 2 {
		t.Errorf("nulls after insert = %v", ix.Nulls())
	}
}

func TestCreateIndexErrors(t *testing.T) {
	db := indexedDB(t)
	if _, err := db.CreateIndex("Nope", "n"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := db.CreateIndex("P", "nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
	s := schema.NewSchema("DBY")
	s.MustAddClass(schema.MustClass("C", []schema.Attribute{
		schema.Complex("d", "C"),
		{Name: "m", Prim: object.KindInt, MultiValued: true},
	}))
	db2 := MustNewDatabase(s)
	if _, err := db2.CreateIndex("C", "d"); err == nil {
		t.Error("complex attribute accepted")
	}
	if _, err := db2.CreateIndex("C", "m"); err == nil {
		t.Error("multi-valued attribute accepted")
	}
}

func TestIndexLookupViaExtent(t *testing.T) {
	db := indexedDB(t)
	if db.Extent("P").Index("n") != nil {
		t.Error("index exists before CreateIndex")
	}
	if _, err := db.CreateIndex("P", "n"); err != nil {
		t.Fatal(err)
	}
	if db.Extent("P").Index("n") == nil {
		t.Error("index missing after CreateIndex")
	}
}
