package query

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/tvl"
)

func TestParseQ1(t *testing.T) {
	q, err := Parse(school.Q1)
	if err != nil {
		t.Fatalf("Parse(Q1): %v", err)
	}
	if q.Range != "Student" {
		t.Errorf("Range = %q", q.Range)
	}
	wantTargets := []Path{{"name"}, {"advisor", "name"}}
	if !reflect.DeepEqual(q.Targets, wantTargets) {
		t.Errorf("Targets = %v", q.Targets)
	}
	if len(q.Preds) != 3 {
		t.Fatalf("got %d predicates", len(q.Preds))
	}
	want := []Predicate{
		{Path: Path{"address", "city"}, Op: OpEq, Literal: object.Str("Taipei")},
		{Path: Path{"advisor", "speciality"}, Op: OpEq, Literal: object.Str("database")},
		{Path: Path{"advisor", "department", "name"}, Op: OpEq, Literal: object.Str("CS")},
	}
	for i, w := range want {
		if !q.Preds[i].Equal(w) {
			t.Errorf("pred %d = %v, want %v", i, q.Preds[i], w)
		}
	}
}

func TestParseRangeVariable(t *testing.T) {
	// The paper's SQL/X form with explicit range variable X.
	q, err := Parse(`Select X.name, X.advisor.name From Student X ` +
		`Where X.address.city=Taipei and X.advisor.speciality=database ` +
		`and X.advisor.department.name=CS`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Range != "Student" {
		t.Errorf("Range = %q", q.Range)
	}
	if !q.Targets[0].Equal(Path{"name"}) || !q.Targets[1].Equal(Path{"advisor", "name"}) {
		t.Errorf("Targets = %v", q.Targets)
	}
	if !q.Preds[0].Path.Equal(Path{"address", "city"}) {
		t.Errorf("pred 0 path = %v", q.Preds[0].Path)
	}
	if !q.Preds[0].Literal.Equal(object.Str("Taipei")) {
		t.Errorf("bare identifier literal = %v", q.Preds[0].Literal)
	}
}

func TestParseLiteralsAndOperators(t *testing.T) {
	q, err := Parse(`select a from C where a = 5 and b != 2.5 and c < -3 ` +
		`and d <= "x" and e > true and f >= 'quoted' and g <> 7`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	wantOps := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpNe}
	wantLits := []object.Value{
		object.Int(5), object.Float(2.5), object.Int(-3),
		object.Str("x"), object.Bool(true), object.Str("quoted"), object.Int(7),
	}
	for i := range wantOps {
		if q.Preds[i].Op != wantOps[i] {
			t.Errorf("pred %d op = %v, want %v", i, q.Preds[i].Op, wantOps[i])
		}
		if !q.Preds[i].Literal.Equal(wantLits[i]) {
			t.Errorf("pred %d literal = %v, want %v", i, q.Preds[i].Literal, wantLits[i])
		}
	}
}

func TestParseHyphenatedIdentifier(t *testing.T) {
	q, err := Parse(`select s-no from Student where s-no = 804301`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Targets[0].Equal(Path{"s-no"}) {
		t.Errorf("target = %v", q.Targets[0])
	}
	if !q.Preds[0].Path.Equal(Path{"s-no"}) {
		t.Errorf("pred path = %v", q.Preds[0].Path)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := Parse(`select a from C where a = "say \"hi\""`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := q.Preds[0].Literal.Text(); got != `say "hi"` {
		t.Errorf("literal = %q", got)
	}
}

func TestParseNoWhere(t *testing.T) {
	q, err := Parse(`select name from Student`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Preds) != 0 {
		t.Errorf("Preds = %v", q.Preds)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{``, `expected "select"`},
		{`choose a from C`, `expected "select"`},
		{`select from C`, "expected attribute name"},
		{`select a C`, `expected "from"`},
		{`select a from`, "expected range class"},
		{`select a from C where`, "expected attribute name"},
		{`select a from C where a`, "expected comparison operator"},
		{`select a from C where a =`, "expected literal"},
		{`select a from C where a = 1 or`, "expected attribute name"},
		{`select a from C where a = 1 extra`, "trailing"},
		{`select a. from C`, "expected attribute name after"},
		{`select a from C where a = "unterminated`, "unterminated string"},
		{`select a from C where a = 1 and b = $`, "unexpected character"},
		{`select a from C where a ! 1`, `unexpected "!"`},
		{`select a from C where a = -x`, `unexpected "-"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want substring %q", c.src, err, c.want)
		}
	}
}

func TestQueryString(t *testing.T) {
	src := `select name, advisor.name from Student where address.city = "Taipei" and age > 21`
	q := MustParse(src)
	if got := q.String(); got != src {
		t.Errorf("String = %q, want %q", got, src)
	}
	// String output must reparse to the same query.
	q2 := MustParse(q.String())
	if !object.Identical(q, q2) {
		t.Error("String round-trip failed")
	}
}

func TestBindQ1(t *testing.T) {
	fx := school.New()
	b, err := Bind(MustParse(school.Q1), fx.Global)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if len(b.Preds) != 3 || len(b.Targets) != 2 {
		t.Fatalf("preds/targets = %d/%d", len(b.Preds), len(b.Targets))
	}
	p := b.Preds[2] // advisor.department.name
	wantClasses := []string{"Student", "Teacher", "Department"}
	if !reflect.DeepEqual(p.Classes, wantClasses) {
		t.Errorf("Classes = %v", p.Classes)
	}
	if p.Attr.Prim != object.KindString {
		t.Errorf("Attr = %+v", p.Attr)
	}
}

func TestBindErrors(t *testing.T) {
	fx := school.New()
	cases := []struct {
		src  string
		want string
	}{
		{`select name from Ghost`, "unknown global class"},
		{`select ghost from Student`, "no attribute"},
		{`select name from Student where advisor = 1`, "complex attribute"},
		{`select name from Student where name.x = 1`, "primitive mid-path"},
		{`select name from Student where age = "x"`, "numeric attribute"},
		{`select name from Student where name = 5`, "string attribute"},
	}
	for _, c := range cases {
		_, err := Bind(MustParse(c.src), fx.Global)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Bind(%q) err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestBindBoolLiteral(t *testing.T) {
	fx := school.New()
	// No bool attribute in the fixture; check the op restriction with a
	// synthetic query on a numeric attribute instead is not possible, so
	// just verify bool literal against string attribute errors.
	_, err := Bind(MustParse(`select name from Student where name = true`), fx.Global)
	if err == nil {
		t.Error("bool literal on string attribute accepted")
	}
}

func TestBranchAndInvolvedClasses(t *testing.T) {
	fx := school.New()
	b := MustBind(MustParse(school.Q1), fx.Global)
	if got := b.BranchClasses(); !reflect.DeepEqual(got, []string{"Address", "Department", "Teacher"}) {
		t.Errorf("BranchClasses = %v", got)
	}
	if got := b.Classes(); !reflect.DeepEqual(got, []string{"Student", "Address", "Department", "Teacher"}) {
		t.Errorf("Classes = %v", got)
	}
	if got := b.RootSites(); !reflect.DeepEqual(got, []object.SiteID{"DB1", "DB2"}) {
		t.Errorf("RootSites = %v", got)
	}
	if got := b.InvolvedSites(); !reflect.DeepEqual(got, []object.SiteID{"DB1", "DB2", "DB3"}) {
		t.Errorf("InvolvedSites = %v", got)
	}
}

func TestInvolvedAttrs(t *testing.T) {
	fx := school.New()
	b := MustBind(MustParse(school.Q1), fx.Global)
	want := []ClassAttrs{
		{"Address", []string{"city"}},
		{"Department", []string{"name"}},
		{"Student", []string{"address", "advisor", "name"}},
		{"Teacher", []string{"department", "name", "speciality"}},
	}
	if got := b.Involved(); !reflect.DeepEqual(got, want) {
		t.Errorf("Involved = %v, want %v", got, want)
	}
}

// TestLocalizeQ1 reproduces the paper's Figure 3(b): Q1' for DB1 keeps only
// the department predicate; Q1” for DB2 keeps the address and speciality
// predicates.
func TestLocalizeQ1(t *testing.T) {
	fx := school.New()
	b := MustBind(MustParse(school.Q1), fx.Global)

	q1p, err := b.Localize("DB1")
	if err != nil {
		t.Fatalf("Localize(DB1): %v", err)
	}
	if len(q1p.Local) != 1 || !q1p.Local[0].Path.Equal(Path{"advisor", "department", "name"}) {
		t.Errorf("DB1 local predicates = %v", q1p.Local)
	}
	if len(q1p.Unsolved) != 2 {
		t.Fatalf("DB1 unsolved = %v", q1p.Unsolved)
	}
	// address.city: missing at step 0 → the root itself is unsolved.
	u0 := q1p.Unsolved[0]
	if len(u0.Prefix) != 0 || u0.ItemClass != "Student" ||
		!u0.Pred.Path.Equal(Path{"address", "city"}) {
		t.Errorf("DB1 unsolved[0] = %+v", u0)
	}
	// advisor.speciality: missing at step 1 → the advisor is the item.
	u1 := q1p.Unsolved[1]
	if !u1.Prefix.Equal(Path{"advisor"}) || u1.ItemClass != "Teacher" ||
		!u1.Pred.Path.Equal(Path{"speciality"}) {
		t.Errorf("DB1 unsolved[1] = %+v", u1)
	}

	q1pp, err := b.Localize("DB2")
	if err != nil {
		t.Fatalf("Localize(DB2): %v", err)
	}
	if len(q1pp.Local) != 2 {
		t.Errorf("DB2 local predicates = %v", q1pp.Local)
	}
	if len(q1pp.Unsolved) != 1 {
		t.Fatalf("DB2 unsolved = %v", q1pp.Unsolved)
	}
	u := q1pp.Unsolved[0]
	if !u.Prefix.Equal(Path{"advisor"}) || u.ItemClass != "Teacher" ||
		!u.Pred.Path.Equal(Path{"department", "name"}) {
		t.Errorf("DB2 unsolved[0] = %+v", u)
	}

	if _, err := b.Localize("DB3"); err == nil {
		t.Error("Localize(DB3) should fail: no Student constituent")
	}

	all := b.LocalizeAll()
	if len(all) != 2 || all[0].Site != "DB1" || all[1].Site != "DB2" {
		t.Errorf("LocalizeAll = %v", all)
	}
}

func TestLocalQueryString(t *testing.T) {
	fx := school.New()
	b := MustBind(MustParse(school.Q1), fx.Global)
	lq, _ := b.Localize("DB1")
	s := lq.String()
	for _, want := range []string{"select Oid", "advisor", "from Student@DB1",
		`advisor.department.name = "CS"`} {
		if !strings.Contains(s, want) {
			t.Errorf("LocalQuery.String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "speciality") && strings.Contains(s, "where") &&
		strings.Contains(s[strings.Index(s, "where"):], "speciality") {
		t.Errorf("removed predicate leaked into where clause: %q", s)
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{"a", "b", "c"}
	if p.String() != "a.b.c" {
		t.Errorf("String = %q", p.String())
	}
	if !p.Suffix(1).Equal(Path{"b", "c"}) {
		t.Errorf("Suffix = %v", p.Suffix(1))
	}
	if p.Equal(Path{"a", "b"}) || !p.Equal(Path{"a", "b", "c"}) {
		t.Error("Equal wrong")
	}
	// Suffix must be independent of the original.
	s := p.Suffix(0)
	s[0] = "z"
	if p[0] != "a" {
		t.Error("Suffix aliases original")
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", Op(0): "?"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("Op(%d).String() = %q", op, op.String())
		}
	}
}

func TestPredicateString(t *testing.T) {
	pr := Predicate{Path: Path{"a", "b"}, Op: OpGe, Literal: object.Int(5)}
	if got := pr.String(); got != "a.b >= 5" {
		t.Errorf("String = %q", got)
	}
	pr2 := Predicate{Path: Path{"c"}, Op: OpEq, Literal: object.Str("x")}
	if got := pr2.String(); got != `c = "x"` {
		t.Errorf("String = %q", got)
	}
}

func TestParseDisjunctive(t *testing.T) {
	q, err := Parse(`select a from C where a = 1 and b = 2 or c = 3`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Preds) != 3 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	groups := q.GroupIdx()
	if len(groups) != 2 || !reflect.DeepEqual(groups[0], []int{0, 1}) ||
		!reflect.DeepEqual(groups[1], []int{2}) {
		t.Errorf("groups = %v", groups)
	}
	// Conjunctive queries keep nil Groups (canonical form).
	q2 := MustParse(`select a from C where a = 1 and b = 2`)
	if q2.Groups != nil {
		t.Errorf("conjunctive Groups = %v", q2.Groups)
	}
	if len(q2.GroupIdx()) != 1 || len(q2.GroupIdx()[0]) != 2 {
		t.Errorf("GroupIdx = %v", q2.GroupIdx())
	}
}

func TestDisjunctiveStringRoundTrip(t *testing.T) {
	src := `select a from C where a = 1 and b = 2 or c = 3`
	q := MustParse(src)
	if got := q.String(); got != src {
		t.Errorf("String = %q, want %q", got, src)
	}
	if !reflect.DeepEqual(MustParse(q.String()), q) {
		t.Error("round trip failed")
	}
}

func TestFold(t *testing.T) {
	fx := school.New()
	// (age > 20 and sex = male) or name = Hedy
	b := MustBind(MustParse(
		`select name from Student where age > 20 and sex = "male" or name = "Hedy"`), fx.Global)
	cases := []struct {
		v    []tvl.Truth
		want tvl.Truth
	}{
		{[]tvl.Truth{tvl.True, tvl.True, tvl.False}, tvl.True},
		{[]tvl.Truth{tvl.False, tvl.True, tvl.False}, tvl.False},
		{[]tvl.Truth{tvl.False, tvl.True, tvl.True}, tvl.True},
		{[]tvl.Truth{tvl.Unknown, tvl.True, tvl.False}, tvl.Unknown},
		{[]tvl.Truth{tvl.False, tvl.False, tvl.Unknown}, tvl.Unknown},
		{[]tvl.Truth{0, 0, tvl.True}, tvl.True}, // unevaluated = unknown
		{[]tvl.Truth{tvl.False, 0, tvl.False}, tvl.False},
	}
	for _, c := range cases {
		if got := b.Fold(c.v); got != c.want {
			t.Errorf("Fold(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if b.Conjunctive() {
		t.Error("disjunctive query reported conjunctive")
	}
	b2 := MustBind(MustParse(`select name from Student where age > 20`), fx.Global)
	if !b2.Conjunctive() {
		t.Error("conjunctive query reported disjunctive")
	}
}

// TestBindBuildsPoints: Bind computes, once, the point of every predicate at
// every depth — item class, suffix (a sub-slice of the bound path, capped),
// source index — and hands the same one out on every call; a predicate bound
// on its own has none and gets fresh ones.
func TestBindBuildsPoints(t *testing.T) {
	fx := school.New()
	b := MustBind(MustParse(school.Q1), fx.Global)
	// Q1's third predicate: advisor.department.name = "CS".
	bp := &b.Preds[2]
	for depth, want := range []struct {
		class string
		path  Path
	}{
		{"Student", Path{"advisor", "department", "name"}},
		{"Teacher", Path{"department", "name"}},
		{"Department", Path{"name"}},
	} {
		pt := bp.Point(depth)
		if pt.ItemClass != want.class || !pt.Suffix.Path.Equal(want.path) || pt.SourceIdx != 2 ||
			pt.Suffix.Op != bp.Op || !pt.Suffix.Literal.Equal(bp.Literal) {
			t.Errorf("Point(%d) = %+v, want %s %v of predicate 2", depth, pt, want.class, want.path)
		}
		if pt != bp.Point(depth) {
			t.Errorf("Point(%d) is not shared between calls", depth)
		}
		if &pt.Suffix.Path[0] != &bp.Path[depth] {
			t.Errorf("Point(%d): suffix path is a copy, want a sub-slice of the bound path", depth)
		}
		if cap(pt.Suffix.Path) != len(pt.Suffix.Path) {
			t.Errorf("Point(%d): suffix path has spare capacity %d over the bound path", depth, cap(pt.Suffix.Path)-len(pt.Suffix.Path))
		}
	}
	// A copy of the bound predicate shares the points.
	if cp := b.Preds[2]; cp.Point(1) != bp.Point(1) {
		t.Error("a copied BoundPredicate got points of its own")
	}

	alone, err := BindPredicateAt(fx.Global, "Teacher", bp.Point(1).Suffix)
	if err != nil {
		t.Fatal(err)
	}
	pt := alone.Point(1)
	if pt.ItemClass != "Department" || !pt.Suffix.Path.Equal(Path{"name"}) || pt.SourceIdx != 0 {
		t.Errorf("point of a predicate bound on its own = %+v", pt)
	}
	if pt == alone.Point(1) {
		t.Error("a predicate bound on its own returned one point twice; it keeps none")
	}
}
