package trace

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/object"
)

// buildQueryTree records a small cross-site query tree on a fresh tracer —
// a root at G with an O child at DB1 and a PO child at DB2, beside an
// unrelated span from another query that must not leak into the profile —
// and takes it.
func buildQueryTree(t *testing.T) []Span {
	t.Helper()
	tr := &Tracer{}
	root := tr.StartSpan(0, "G", "PL").WithQuery("q1", "PL")
	c1 := tr.StartSpan(root.ID(), "DB1", "PL_C1").WithQuery("q1", "PL").WithPhases("O")
	c1.Add("rows", 10)
	time.Sleep(time.Millisecond)
	c1.End()
	c2 := tr.StartSpan(root.ID(), "DB2", "BL_C1+C2").WithQuery("q1", "PL").WithPhases("PO")
	c2.Add("rows", 5).Add("bytes_shipped", 400)
	time.Sleep(time.Millisecond)
	c2.End()
	root.End()
	other := tr.StartSpan(0, "DB3", "CA_C1").WithQuery("q2", "CA")
	other.End()
	return tr.Take(root.ID())
}

func TestBuildProfile(t *testing.T) {
	if p := BuildProfile("q1", "PL", nil); p != nil {
		t.Fatalf("profile from no spans = %+v, want nil", p)
	}
	spans := buildQueryTree(t)
	p := BuildProfile("q1", "PL", spans)
	if p == nil {
		t.Fatal("nil profile")
	}
	if p.ID != "q1" || p.Alg != "PL" || p.Status != StatusOK {
		t.Errorf("profile header = %s/%s/%s", p.ID, p.Alg, p.Status)
	}
	wantSites := []object.SiteID{"DB1", "DB2", "G"}
	if len(p.Sites) != len(wantSites) {
		t.Fatalf("sites = %v, want %v", p.Sites, wantSites)
	}
	for i, s := range wantSites {
		if p.Sites[i] != s {
			t.Fatalf("sites = %v, want %v", p.Sites, wantSites)
		}
	}
	// The root span carries the end-to-end timing.
	if p.WallMicros < 2000 {
		t.Errorf("wall = %.0fµs, want ≥ the 2ms the children slept", p.WallMicros)
	}
	if p.Start != spans[0].Start || p.Start <= 0 {
		t.Errorf("start = %g, want the root span's %g", p.Start, spans[0].Start)
	}
	// Span counters aggregate across the tree.
	if p.Counters["rows"] != 15 || p.Counters["bytes_shipped"] != 400 {
		t.Errorf("counters = %v", p.Counters)
	}
	// Phase attribution: DB1 has an O row; DB2's "PO" span contributes its
	// full duration to both P and O (not separable at the site).
	if c := p.Phases.Get("DB1", "O"); c <= 0 {
		t.Errorf("DB1/O = %g", c)
	}
	pRow, oRow := p.Phases.Get("DB2", "P"), p.Phases.Get("DB2", "O")
	if pRow <= 0 || pRow != oRow {
		t.Errorf("DB2 multi-phase rows: P=%g O=%g, want equal and positive", pRow, oRow)
	}
	// The unrelated query's site must not appear.
	for _, s := range p.Sites {
		if s == "DB3" {
			t.Error("q2's span leaked into q1's profile")
		}
	}
}

func TestProfileOutcome(t *testing.T) {
	var nilP *Profile
	nilP.SetOutcome(1, 2, nil, nil) // must not panic
	nilP.AddCounter("x", 1)
	if nilP.Interesting() {
		t.Error("nil profile is interesting")
	}

	p := &Profile{Status: StatusOK}
	p.SetOutcome(3, 1, nil, nil)
	if p.Status != StatusOK || p.Certain != 3 || p.Maybe != 1 || p.Interesting() {
		t.Errorf("ok outcome = %+v", p)
	}
	p.SetOutcome(3, 1, []string{"DB2"}, nil)
	if p.Status != StatusDegraded || !p.Interesting() {
		t.Errorf("degraded outcome = %+v", p)
	}
	// An error wins over degradation.
	p.SetOutcome(0, 0, []string{"DB2"}, errTest)
	if p.Status != StatusError || p.Error == "" || !p.Interesting() {
		t.Errorf("error outcome = %+v", p)
	}

	p2 := &Profile{}
	p2.AddCounter("disk_bytes", 40)
	p2.AddCounter("disk_bytes", 2)
	p2.AddCounter("zero", 0) // zero values are not recorded
	if p2.Counters["disk_bytes"] != 42 {
		t.Errorf("counters = %v", p2.Counters)
	}
	if _, ok := p2.Counters["zero"]; ok {
		t.Error("zero counter recorded")
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "site DB2 unreachable" }

func TestImportDedupes(t *testing.T) {
	site := &Tracer{}
	h := site.StartSpan(0, "DB1", "serve:retrieve").WithQuery("rq1-a", "CA")
	h.End()
	shipped := site.Take(h.ID())
	if len(shipped) != 1 {
		t.Fatalf("shipped %d spans", len(shipped))
	}

	coord := &Tracer{}
	coord.Import(shipped)
	// The same span arriving again (a second reply path through a peer) must
	// not duplicate.
	coord.Import(shipped)
	if got := held(coord); len(got) != 1 {
		t.Errorf("after double import: %d spans, want 1", len(got))
	}
	// Zero-ID spans are skipped outright.
	coord.Import([]Span{{ID: 0, Query: "rq1-a"}})
	if got := held(coord); len(got) != 1 {
		t.Errorf("zero-ID span imported: %d spans", len(got))
	}
	// Imported spans keep their identity, times and counters: the tracer
	// takes over the maps their decoder made.
	shipped[0].Counters = map[string]int64{"rows": 1}
	coord2 := &Tracer{}
	coord2.Import(shipped)
	got := held(coord2)
	if got[0].ID != shipped[0].ID || got[0].Start != shipped[0].Start || got[0].End != shipped[0].End {
		t.Errorf("import changed the span: %+v, shipped %+v", got[0], shipped[0])
	}
	if got[0].Counters["rows"] != 1 {
		t.Errorf("imported counters = %v", got[0].Counters)
	}
}

func TestChromeTrace(t *testing.T) {
	spans := buildQueryTree(t)
	p := BuildProfile("q1", "PL", spans)
	data, err := json.Marshal(p.ChromeTrace())
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Every participating site appears as a named process, and every span as
	// a complete event with positive duration.
	named := make(map[string]bool)
	var xEvents int
	pidsSeen := make(map[int]bool)
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				named[e.Args["name"].(string)] = true
			}
		case "X":
			xEvents++
			pidsSeen[e.Pid] = true
			if e.Dur <= 0 {
				t.Errorf("event %q has dur %g", e.Name, e.Dur)
			}
		}
	}
	for _, site := range p.Sites {
		if !named[string(site)] {
			t.Errorf("site %s missing from process metadata", site)
		}
	}
	if xEvents != len(p.Spans) {
		t.Errorf("%d complete events, want %d", xEvents, len(p.Spans))
	}
	if len(pidsSeen) != len(p.Sites) {
		t.Errorf("events span %d pids, want one per site (%d)", len(pidsSeen), len(p.Sites))
	}
}
