package federation

import (
	"reflect"
	"sort"
	"testing"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/tvl"
)

// run executes fn on the real fabric and fails the test on error.
func run(t *testing.T, fn func(fabric.Proc)) fabric.Metrics {
	t.Helper()
	m, err := fabric.NewReal(fabric.DefaultRates()).Run("test", fn)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func setup(t *testing.T) (*school.Fixture, *query.Bound, map[object.SiteID]*Site, *Coordinator) {
	t.Helper()
	fx := school.New()
	b := query.MustBind(query.MustParse(school.Q1), fx.Global)
	sites := make(map[object.SiteID]*Site, len(fx.Databases))
	for id, db := range fx.Databases {
		sites[id] = NewSite(db, fx.Global, fx.Mapping)
	}
	coord := NewCoordinator("G", fx.Global, fx.Mapping)
	return fx, b, sites, coord
}

// TestEvalLocalBasicDB1Figure7 reproduces the paper's Figure 7(a): DB1's
// local query returns three maybe results (s1, s2, s3) whose unsolved items
// are the roots themselves (address), their advisors (speciality), and —
// for s3 — advisor t2's null department.
func TestEvalLocalBasicDB1Figure7(t *testing.T) {
	_, b, sites, _ := setup(t)
	var res LocalResult
	var checks map[object.SiteID][]CheckItem
	run(t, func(p fabric.Proc) {
		res, checks = sites["DB1"].EvalLocalBasic(p, b, nil)
	})

	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byLOid := map[object.LOid]LocalRow{}
	for _, r := range res.Rows {
		byLOid[r.LOid] = r
	}

	s1 := byLOid["s1"]
	if s1.GOid != "gs1" {
		t.Errorf("s1 GOid = %s", s1.GOid)
	}
	// s1: unsolved on address (self) and advisor.speciality (item gt1).
	if len(s1.Unsolved) != 2 {
		t.Fatalf("s1 unsolved = %+v", s1.Unsolved)
	}
	if !s1.Unsolved[0].SelfItem || s1.Unsolved[0].ItemGOid != "gs1" {
		t.Errorf("s1 unsolved[0] = %+v", s1.Unsolved[0])
	}
	if s1.Unsolved[1].SelfItem || s1.Unsolved[1].ItemGOid != "gt1" ||
		s1.Unsolved[1].ItemClass != "Teacher" {
		t.Errorf("s1 unsolved[1] = %+v", s1.Unsolved[1])
	}
	// s1's verdicts: department predicate (index 2) evaluated true locally.
	if s1.Verdicts[2] != tvl.True {
		t.Errorf("s1 verdicts = %v", s1.Verdicts)
	}

	// s3: t2's department is null, so the department predicate is unsolved
	// at item gt2.
	s3 := byLOid["s3"]
	found := false
	for _, u := range s3.Unsolved {
		if u.ItemGOid == "gt2" && u.SourceIdx == 2 &&
			u.Suffix.Path.Equal(query.Path{"department", "name"}) {
			found = true
		}
	}
	if !found {
		t.Errorf("s3 unsolved = %+v", s3.Unsolved)
	}

	// Checks: t2' to DB2 (speciality), t1'' to DB3 (department.name). No
	// check for gt3 (Haley): no isomeric object holds speciality.
	if len(checks["DB2"]) != 1 || checks["DB2"][0].Assistant != "t2'" {
		t.Errorf("DB2 checks = %+v", checks["DB2"])
	}
	wantDB3 := map[object.LOid]bool{"t1''": true}
	for _, c := range checks["DB3"] {
		if !wantDB3[c.Assistant] {
			t.Errorf("unexpected DB3 check %+v", c)
		}
	}
	if len(checks["DB3"]) != 1 {
		t.Errorf("DB3 checks = %+v", checks["DB3"])
	}
}

// TestEvalLocalBasicDB2Figure7 reproduces Figure 7(b): DB2 returns one
// maybe result (Hedy) with unsolved item t1' (Kelly) on the department
// predicate, checked against t2” at DB3.
func TestEvalLocalBasicDB2Figure7(t *testing.T) {
	_, b, sites, _ := setup(t)
	var res LocalResult
	var checks map[object.SiteID][]CheckItem
	run(t, func(p fabric.Proc) {
		res, checks = sites["DB2"].EvalLocalBasic(p, b, nil)
	})
	if len(res.Rows) != 1 || res.Rows[0].GOid != "gs4" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	row := res.Rows[0]
	if row.Verdicts[0] != tvl.True || row.Verdicts[1] != tvl.True || row.Verdicts[2] != tvl.Unknown {
		t.Errorf("verdicts = %v", row.Verdicts)
	}
	if len(checks["DB3"]) != 1 || checks["DB3"][0].Assistant != "t2''" {
		t.Errorf("DB3 checks = %+v", checks["DB3"])
	}
}

// TestCheckAssistants reproduces the paper's checking outcomes: Jeffery's
// DB2 record violates speciality=database; Kelly's DB3 record satisfies
// department.name=CS; Abel's DB3 record violates it (EE).
func TestCheckAssistants(t *testing.T) {
	_, _, sites, _ := setup(t)
	speciality := query.Predicate{
		Path: query.Path{"speciality"}, Op: query.OpEq, Literal: object.Str("database"),
	}
	deptName := query.Predicate{
		Path: query.Path{"department", "name"}, Op: query.OpEq, Literal: object.Str("CS"),
	}

	var reply CheckReply
	run(t, func(p fabric.Proc) {
		reply = sites["DB2"].CheckAssistants(p, []CheckItem{
			{Assistant: "t2'", ItemGOid: "gt1", Point: &query.Point{ItemClass: "Teacher", Suffix: speciality, SourceIdx: 1}},
		})
	})
	if len(reply.Verdicts) != 1 || reply.Verdicts[0].Verdict != tvl.False {
		t.Errorf("t2' check = %+v", reply.Verdicts)
	}

	run(t, func(p fabric.Proc) {
		reply = sites["DB3"].CheckAssistants(p, []CheckItem{
			{Assistant: "t2''", ItemGOid: "gt4", Point: &query.Point{ItemClass: "Teacher", Suffix: deptName, SourceIdx: 2}},
			{Assistant: "t1''", ItemGOid: "gt2", Point: &query.Point{ItemClass: "Teacher", Suffix: deptName, SourceIdx: 2}},
			{Assistant: "ghost", ItemGOid: "gX", Point: &query.Point{ItemClass: "Teacher", Suffix: deptName, SourceIdx: 2}},
		})
	})
	// The unfetchable "ghost" assistant produces no verdict at all (absent
	// and Unknown certify identically, and the reply's wire size must count
	// only verdicts actually produced), so only two verdicts come back.
	if len(reply.Verdicts) != 2 {
		t.Fatalf("Verdicts = %+v, want 2 (missing assistant dropped)", reply.Verdicts)
	}
	if reply.Verdicts[0].Verdict != tvl.True {
		t.Errorf("t2'' check = %+v", reply.Verdicts[0])
	}
	if reply.Verdicts[1].Verdict != tvl.False {
		t.Errorf("t1'' check = %+v", reply.Verdicts[1])
	}
}

// TestMaterializeFigure6 reproduces the paper's Figure 6: the materialized
// Student gs1 merges John's DB1 record (age 31) with his DB2 record (sex,
// address), and complex values are rewritten to GOids.
func TestMaterializeFigure6(t *testing.T) {
	_, b, sites, coord := setup(t)
	var view *View
	run(t, func(p fabric.Proc) {
		var replies []RetrieveReply
		for _, id := range []object.SiteID{"DB1", "DB2", "DB3"} {
			replies = append(replies, sites[id].Retrieve(p, b))
		}
		view = coord.Materialize(p, b, replies)
	})

	gs1, ok := view.Deref("gs1")
	if !ok {
		t.Fatal("gs1 not materialized")
	}
	if !gs1.Attr("name").Equal(object.Str("John")) {
		t.Errorf("gs1 name = %v", gs1.Attr("name"))
	}
	if gs1.Attr("advisor").RefLOid() != "gt1" {
		t.Errorf("gs1 advisor = %v", gs1.Attr("advisor"))
	}
	if gs1.Attr("address").RefLOid() != "ga2" {
		t.Errorf("gs1 address = %v", gs1.Attr("address"))
	}

	// gt4 (Kelly) merges DB2's speciality with DB3's department.
	gt4, ok := view.Deref("gt4")
	if !ok {
		t.Fatal("gt4 not materialized")
	}
	if !gt4.Attr("speciality").Equal(object.Str("database")) {
		t.Errorf("gt4 speciality = %v", gt4.Attr("speciality"))
	}
	if gt4.Attr("department").RefLOid() != "gd1" {
		t.Errorf("gt4 department = %v", gt4.Attr("department"))
	}

	// Five materialized students, sorted roots.
	if len(view.roots) != 5 {
		t.Errorf("roots = %d", len(view.roots))
	}
	var ids []string
	for _, r := range view.roots {
		ids = append(ids, string(r.LOid))
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("roots unsorted: %v", ids)
	}
}

// TestCertifyDirect drives Certify with hand-built inputs covering all
// three outcomes: solved (check true), eliminated (check false), and
// eliminated by a missing isomeric row.
func TestCertifyDirect(t *testing.T) {
	_, b, _, coord := setup(t)

	verdicts := func(v0, v1, v2 tvl.Truth) []tvl.Truth { return []tvl.Truth{v0, v1, v2} }
	targets := []object.Value{object.Str("X"), object.Null()}

	results := []LocalResult{{
		Site: "DB1",
		Rows: []LocalRow{
			// gs2 exists only at DB1 (mapping says so): stays maybe.
			{LOid: "s2", GOid: "gs2", Targets: targets,
				Verdicts: verdicts(tvl.Unknown, tvl.Unknown, tvl.True)},
			// gs1 exists at DB1 and DB2; DB2 returned no row: eliminated.
			{LOid: "s1", GOid: "gs1", Targets: targets,
				Verdicts: verdicts(tvl.Unknown, tvl.Unknown, tvl.True)},
			// gs3 has an unsolved item refuted by a check: eliminated.
			{LOid: "s3", GOid: "gs3", Targets: targets,
				Verdicts: verdicts(tvl.True, tvl.True, tvl.Unknown),
				Unsolved: []UnsolvedItem{{ItemGOid: "gt2", Point: &query.Point{ItemClass: "Teacher",
					Suffix: query.Predicate{Path: query.Path{"department", "name"},
						Op: query.OpEq, Literal: object.Str("CS")}, SourceIdx: 2}}},
			},
		},
	}, {
		Site: "DB2",
		Rows: []LocalRow{
			// gs4 unsolved on predicate 2, item certified by a check.
			{LOid: "s1'", GOid: "gs4", Targets: targets,
				Verdicts: verdicts(tvl.True, tvl.True, tvl.Unknown),
				Unsolved: []UnsolvedItem{{ItemGOid: "gt4", Point: &query.Point{ItemClass: "Teacher",
					Suffix: query.Predicate{Path: query.Path{"department", "name"},
						Op: query.OpEq, Literal: object.Str("CS")}, SourceIdx: 2}}},
			},
		},
	}}
	replies := []CheckReply{{
		Site: "DB3",
		Verdicts: []CheckVerdict{
			{ItemGOid: "gt4", SourceIdx: 2, SuffixLen: 2, Verdict: tvl.True},
			{ItemGOid: "gt2", SourceIdx: 2, SuffixLen: 2, Verdict: tvl.False},
		},
	}}

	var ans *Answer
	run(t, func(p fabric.Proc) {
		ans = coord.Certify(p, b, results, replies)
	})
	if got := ans.CertainGOids(); !reflect.DeepEqual(got, []object.GOid{"gs4"}) {
		t.Errorf("certain = %v", got)
	}
	if got := ans.MaybeGOids(); !reflect.DeepEqual(got, []object.GOid{"gs2"}) {
		t.Errorf("maybe = %v", got)
	}
	// Merged targets: first non-null wins.
	if !ans.Maybe[0].Targets[0].Equal(object.Str("X")) || !ans.Maybe[0].Targets[1].IsNull() {
		t.Errorf("targets = %v", ans.Maybe[0].Targets)
	}
}

// TestParallelFlowMatchesBasicRows: NavigateAll + EvalNavigated must return
// the same rows as EvalLocalBasic. The order of a row's unsolved entries
// may differ (BL discovers local-predicate unknowns before removed-predicate
// ones; PL walks the predicates in query order), so rows are normalized
// before comparison.
func TestParallelFlowMatchesBasicRows(t *testing.T) {
	_, b, sites, _ := setup(t)
	normalize := func(rows []LocalRow) []LocalRow {
		out := append([]LocalRow(nil), rows...)
		for i := range out {
			u := append([]UnsolvedItem(nil), out[i].Unsolved...)
			sort.Slice(u, func(a, b int) bool {
				if u[a].SourceIdx != u[b].SourceIdx {
					return u[a].SourceIdx < u[b].SourceIdx
				}
				return u[a].ItemGOid < u[b].ItemGOid
			})
			out[i].Unsolved = u
		}
		return out
	}
	for _, id := range []object.SiteID{"DB1", "DB2"} {
		var basic, parallel LocalResult
		run(t, func(p fabric.Proc) {
			basic, _ = sites[id].EvalLocalBasic(p, b, nil)
		})
		run(t, func(p fabric.Proc) {
			nav, _ := sites[id].NavigateAll(p, b, nil)
			parallel = sites[id].EvalNavigated(p, b, nav)
		})
		if !reflect.DeepEqual(normalize(basic.Rows), normalize(parallel.Rows)) {
			t.Errorf("%s: rows differ:\nbasic:    %+v\nparallel: %+v", id, basic.Rows, parallel.Rows)
		}
	}
}

// TestParallelChecksSuperset: PL's check set contains BL's.
func TestParallelChecksSuperset(t *testing.T) {
	_, b, sites, _ := setup(t)
	for _, id := range []object.SiteID{"DB1", "DB2"} {
		var blChecks, plChecks map[object.SiteID][]CheckItem
		run(t, func(p fabric.Proc) {
			_, blChecks = sites[id].EvalLocalBasic(p, b, nil)
		})
		run(t, func(p fabric.Proc) {
			_, plChecks = sites[id].NavigateAll(p, b, nil)
		})
		for target, items := range blChecks {
			plSet := map[object.LOid]bool{}
			for _, c := range plChecks[target] {
				plSet[c.Assistant] = true
			}
			for _, c := range items {
				if !plSet[c.Assistant] {
					t.Errorf("%s: BL check %v missing from PL", id, c.Assistant)
				}
			}
		}
	}
}

// TestRetrieveProjectsInvolvedAttrs: a retrieve reply is the stored objects
// beside the projection — nothing is copied, and nothing outside the
// projection gets any further: not into the records the reply is shipped as,
// not into the modeled size, not into the view. age and sex are not involved
// in Q1.
func TestRetrieveProjectsInvolvedAttrs(t *testing.T) {
	fx, b, sites, co := setup(t)
	var reply RetrieveReply
	run(t, func(p fabric.Proc) {
		reply = sites["DB1"].Retrieve(p, b)
	})
	// DB1 contributes Student, Teacher, Department (no Address).
	if len(reply.Classes) != 3 {
		t.Fatalf("classes = %+v", reply.Classes)
	}
	outside := func(o *object.Object) bool { return !o.Attr("age").IsNull() || !o.Attr("sex").IsNull() }
	var students ClassObjects
	for _, cls := range reply.Classes {
		if cls.GlobalClass == "Student" {
			students = cls
		}
	}
	if want := []string{"address", "advisor", "name"}; !reflect.DeepEqual(students.Attrs, want) {
		t.Errorf("Student is read through %v, want %v", students.Attrs, want)
	}
	if len(students.Objects) != 3 {
		t.Fatalf("students = %d", len(students.Objects))
	}
	modeled := 0
	for _, o := range students.Objects {
		if stored, _ := fx.Databases["DB1"].Deref(o.LOid); o != stored || !outside(o) {
			t.Errorf("the reply lists %v, not the stored object with its age", o)
		}
		modeled += object.LOidWireSize + o.Attr("advisor").WireSize() + o.Attr("name").WireSize()
	}
	if got := (RetrieveReply{Classes: []ClassObjects{students}}).WireSize(); got != RequestOverhead+modeled {
		t.Errorf("the students' modeled size is %d, their LOids, advisors and names come to %d", got, RequestOverhead+modeled)
	}
	for _, cls := range recordRoundTrip(t, reply).Classes {
		for _, o := range cls.Objects {
			if outside(o) {
				t.Errorf("shipped with attributes outside the projection: %v", o)
			}
		}
	}
	var view *View
	run(t, func(p fabric.Proc) { view = co.Materialize(p, b, []RetrieveReply{reply}) })
	for _, root := range view.roots {
		if outside(root) || root.Attr("name").IsNull() {
			t.Errorf("merged with attributes outside the projection, or without those inside: %v", root)
		}
	}
	if len(view.roots) != 3 {
		t.Errorf("the view holds %d students, want 3", len(view.roots))
	}
}

func TestWireSizes(t *testing.T) {
	row := LocalRow{
		LOid:     "s1",
		GOid:     "gs1",
		Targets:  []object.Value{object.Str("John"), object.GRef("gt1")},
		Verdicts: []tvl.Truth{tvl.True, tvl.Unknown},
		Unsolved: []UnsolvedItem{{ItemGOid: "gt1"}},
	}
	want := 16 + 16 + (32 + 16) + 2*8 + (16 + 32)
	if got := row.WireSize(); got != want {
		t.Errorf("LocalRow.WireSize = %d, want %d", got, want)
	}

	lr := LocalResult{Rows: []LocalRow{row}, SigVerdicts: []CheckVerdict{{}}}
	if got := lr.WireSize(); got != 64+want+(16+8) {
		t.Errorf("LocalResult.WireSize = %d", got)
	}

	cr := CheckRequest{Items: []CheckItem{{}, {}}}
	if got := cr.WireSize(); got != 64+2*(16+16+32) {
		t.Errorf("CheckRequest.WireSize = %d", got)
	}

	rep := CheckReply{Verdicts: []CheckVerdict{{}}}
	if got := rep.WireSize(); got != 64+16+8 {
		t.Errorf("CheckReply.WireSize = %d", got)
	}
}

func TestAnswerAccessors(t *testing.T) {
	a := Answer{
		Certain: []ResultRow{{GOid: "g1", Targets: []object.Value{object.Int(1)}}},
		Maybe:   []ResultRow{{GOid: "g2"}},
	}
	if !reflect.DeepEqual(a.CertainGOids(), []object.GOid{"g1"}) {
		t.Error("CertainGOids wrong")
	}
	if !reflect.DeepEqual(a.MaybeGOids(), []object.GOid{"g2"}) {
		t.Error("MaybeGOids wrong")
	}
	if a.Certain[0].String() != "g1(1)" {
		t.Errorf("ResultRow.String = %q", a.Certain[0].String())
	}
}

// TestCertifyDisjunctive drives Certify with a two-group query: an entity
// whose first disjunct is refuted but whose second is certified must come
// out certain; one with both groups undecided stays maybe.
func TestCertifyDisjunctive(t *testing.T) {
	fx, _, _, coord := setup(t)
	// (address.city = X and advisor.speciality = Y) or advisor.department.name = Z
	b := query.MustBind(query.MustParse(
		`select name from Student where address.city = "Taipei" and advisor.speciality = "database" `+
			`or advisor.department.name = "CS"`), fx.Global)

	deptPred := query.Predicate{Path: query.Path{"department", "name"},
		Op: query.OpEq, Literal: object.Str("CS")}
	results := []LocalResult{{
		Site: "DB1",
		Rows: []LocalRow{
			// gs2: group 1 fully unknown, group 2's predicate unsolved at
			// item gt3 — a check certifies it: entity certain via group 2.
			{LOid: "s2", GOid: "gs2", Targets: []object.Value{object.Str("Tony")},
				Verdicts: []tvl.Truth{tvl.Unknown, tvl.Unknown, tvl.Unknown},
				Unsolved: []UnsolvedItem{{ItemGOid: "gt3", Point: &query.Point{ItemClass: "Teacher",
					Suffix: deptPred, SourceIdx: 2}}},
			},
			// gs3: group 1 has a false predicate, group 2 unknown with a
			// refuting check — everything false: eliminated.
			{LOid: "s3", GOid: "gs3", Targets: []object.Value{object.Str("Mary")},
				Verdicts: []tvl.Truth{tvl.False, tvl.True, tvl.Unknown},
				Unsolved: []UnsolvedItem{{ItemGOid: "gt2", Point: &query.Point{ItemClass: "Teacher",
					Suffix: deptPred, SourceIdx: 2}}},
			},
		},
	}}
	replies := []CheckReply{{
		Site: "DB3",
		Verdicts: []CheckVerdict{
			{ItemGOid: "gt3", SourceIdx: 2, SuffixLen: 2, Verdict: tvl.True},
			{ItemGOid: "gt2", SourceIdx: 2, SuffixLen: 2, Verdict: tvl.False},
		},
	}}

	var ans *Answer
	run(t, func(p fabric.Proc) {
		ans = coord.Certify(p, b, results, replies)
	})
	if got := ans.CertainGOids(); !reflect.DeepEqual(got, []object.GOid{"gs2"}) {
		t.Errorf("certain = %v", got)
	}
	if len(ans.Maybe) != 0 {
		t.Errorf("maybe = %v", ans.Maybe)
	}
}

// TestCertifyMultiItemsOrCombination: a predicate whose row carries several
// Multi items follows ANY semantics — one satisfied item certifies, and
// elimination needs every item refuted.
func TestCertifyMultiItemsOrCombination(t *testing.T) {
	fx, b, _, coord := setup(t)
	_ = fx
	spec := query.Predicate{Path: query.Path{"speciality"},
		Op: query.OpEq, Literal: object.Str("database")}
	mkRow := func(goid object.GOid, items ...UnsolvedItem) LocalResult {
		return LocalResult{Site: "DB2", Rows: []LocalRow{{
			LOid: "s1'", GOid: goid, Targets: []object.Value{object.Str("X"), object.Null()},
			Verdicts: []tvl.Truth{tvl.True, tvl.Unknown, tvl.True},
			Unsolved: items,
		}}}
	}
	itemA := UnsolvedItem{ItemGOid: "gtA", Point: &query.Point{ItemClass: "Teacher", Suffix: spec, SourceIdx: 1}, Multi: true}
	itemB := UnsolvedItem{ItemGOid: "gtB", Point: &query.Point{ItemClass: "Teacher", Suffix: spec, SourceIdx: 1}, Multi: true}

	cases := []struct {
		name     string
		verdicts []CheckVerdict
		certain  int
		maybe    int
	}{
		{"one satisfied", []CheckVerdict{
			{ItemGOid: "gtA", SourceIdx: 1, SuffixLen: 1, Verdict: tvl.False},
			{ItemGOid: "gtB", SourceIdx: 1, SuffixLen: 1, Verdict: tvl.True},
		}, 1, 0},
		{"all refuted", []CheckVerdict{
			{ItemGOid: "gtA", SourceIdx: 1, SuffixLen: 1, Verdict: tvl.False},
			{ItemGOid: "gtB", SourceIdx: 1, SuffixLen: 1, Verdict: tvl.False},
		}, 0, 0},
		{"one refuted one silent", []CheckVerdict{
			{ItemGOid: "gtA", SourceIdx: 1, SuffixLen: 1, Verdict: tvl.False},
		}, 0, 1},
	}
	for _, c := range cases {
		var ans *Answer
		run(t, func(p fabric.Proc) {
			ans = coord.Certify(p, b,
				[]LocalResult{mkRow("gsX", itemA, itemB)},
				[]CheckReply{{Site: "DB3", Verdicts: c.verdicts}})
		})
		if len(ans.Certain) != c.certain || len(ans.Maybe) != c.maybe {
			t.Errorf("%s: certain=%d maybe=%d, want %d/%d",
				c.name, len(ans.Certain), len(ans.Maybe), c.certain, c.maybe)
		}
	}
}

// TestCertifyScalarItemStillEliminates: the paper's original rule is the
// single-item degenerate case — one refuted scalar item eliminates.
func TestCertifyScalarItemStillEliminates(t *testing.T) {
	_, b, _, coord := setup(t)
	spec := query.Predicate{Path: query.Path{"speciality"},
		Op: query.OpEq, Literal: object.Str("database")}
	results := []LocalResult{{Site: "DB2", Rows: []LocalRow{{
		LOid: "s1'", GOid: "gsY", Targets: []object.Value{object.Str("Y"), object.Null()},
		Verdicts: []tvl.Truth{tvl.True, tvl.Unknown, tvl.True},
		Unsolved: []UnsolvedItem{{ItemGOid: "gtC", Point: &query.Point{ItemClass: "Teacher", Suffix: spec, SourceIdx: 1}}},
	}}}}
	replies := []CheckReply{{Site: "DB3", Verdicts: []CheckVerdict{
		{ItemGOid: "gtC", SourceIdx: 1, SuffixLen: 1, Verdict: tvl.False},
	}}}
	var ans *Answer
	run(t, func(p fabric.Proc) {
		ans = coord.Certify(p, b, results, replies)
	})
	if len(ans.Certain) != 0 || len(ans.Maybe) != 0 {
		t.Errorf("refuted scalar item survived: %v / %v", ans.Certain, ans.Maybe)
	}
}
