package trace

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/object"
)

// step records one instant span, as an algorithm step with nothing to time.
func step(tr *Tracer, site object.SiteID, name, detail string) {
	tr.StartSpan(0, site, name).Detailf("%s", detail).End()
}

// held returns a copy of the spans the tracer holds, in record order.
func held(tr *Tracer) []Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Span(nil), tr.spans...)
}

// TestTakeRemovesSubtree: Take hands off a root and everything below it,
// found through parent links even when a peer's spans arrived child first,
// in record order; the rest stays, reachable through its handles.
func TestTakeRemovesSubtree(t *testing.T) {
	var tr Tracer
	q1 := tr.StartSpan(0, "G", "BL").WithQuery("q1", "BL")
	q2 := tr.StartSpan(0, "G", "CA").WithQuery("q2", "CA")
	rpc := tr.StartSpan(q1.ID(), "G", "rpc:local")
	serve, check := SpanID(spanIDs.Add(1)), SpanID(spanIDs.Add(1))
	tr.Import([]Span{
		{ID: check, Parent: serve, Site: "DB3", Name: "serve:check"},
		{ID: serve, Parent: rpc.ID(), Site: "DB2", Name: "serve:local"},
	})
	retrieve := tr.StartSpan(q2.ID(), "DB1", "rpc:retrieve")
	rpc.End()
	q1.End()

	var names []string
	for _, s := range tr.Take(q1.ID()) {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " "), "BL rpc:local serve:check serve:local"; got != want {
		t.Errorf("took %q, want %q", got, want)
	}
	retrieve.Add("rows", 2).End()
	left := held(&tr)
	if len(left) != 2 || left[0].Name != "CA" || left[1].Name != "rpc:retrieve" || left[1].Counters["rows"] != 2 {
		t.Errorf("after Take the tracer holds %+v, want q2's two spans with their handles intact", left)
	}
	if got := tr.Take(q1.ID()); got != nil {
		t.Errorf("a second Take of the same tree returned %d spans", len(got))
	}
	if got := tr.Take(0); got != nil {
		t.Errorf("Take(0) returned %d spans", len(got))
	}
	if got := tr.Take(q2.ID()); len(got) != 2 || len(held(&tr)) != 0 {
		t.Errorf("taking q2 left %d spans (took %d)", len(held(&tr)), len(got))
	}
}

// TestTakeHandsOffSpans: the taken spans are the caller's alone — a handle
// still held by straggling work no longer reaches them.
func TestTakeHandsOffSpans(t *testing.T) {
	var tr Tracer
	h := tr.StartSpan(0, "G", "X").Add("rows", 1)
	h.End()
	spans := tr.Take(h.ID())
	h.Add("rows", 9).Detailf("late")
	if len(spans) != 1 || spans[0].Counters["rows"] != 1 || spans[0].Detail != "" {
		t.Errorf("a handle reached a taken span: %+v", spans)
	}
}

func TestRenderGroupsBySite(t *testing.T) {
	var tr Tracer
	step(&tr, "G", "BL_G1", "start")
	step(&tr, "DB2", "BL_C1", "local")
	step(&tr, "DB1", "BL_C1", "local")
	step(&tr, "G", "BL_G2", "certify")
	out := renderFlow(held(&tr))

	// Sites appear sorted, each with its own steps.
	iDB1 := strings.Index(out, "DB1:")
	iDB2 := strings.Index(out, "DB2:")
	iG := strings.Index(out, "G:")
	if iDB1 < 0 || iDB2 < 0 || iG < 0 || !(iDB1 < iDB2 && iDB2 < iG) {
		t.Errorf("Render order wrong:\n%s", out)
	}
	if !strings.Contains(out, "BL_G2") || !strings.Contains(out, "certify") {
		t.Errorf("Render missing content:\n%s", out)
	}
}

func TestConcurrentSteps(t *testing.T) {
	var tr Tracer
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			step(&tr, "DB1", "C3", "check")
		}()
	}
	wg.Wait()
	if len(held(&tr)) != 50 {
		t.Errorf("spans = %d", len(held(&tr)))
	}
	// Every step closed, on the span clock.
	for _, e := range held(&tr) {
		if e.Open() || e.End < e.Start {
			t.Fatalf("step %d: %g..%g", e.ID, e.Start, e.End)
		}
	}
}

func TestSpanTreeRecording(t *testing.T) {
	var tr Tracer
	root := tr.StartSpan(0, "G", "BL").WithQuery("q1", "BL")
	child := tr.StartSpan(root.ID(), "DB1", "BL_C1+C2").
		WithQuery("q1", "BL").WithPhases("PO").WithStart(100)
	child.Add("rows", 3).Detailf("%d local rows", 3)
	child.EndAt(250)
	root.Add("certain", 1).End()

	spans := tr.Take(root.ID())
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	r, c := spans[0], spans[1]
	if r.Parent != 0 || r.Site != "G" || r.Query != "q1" || r.Algorithm != "BL" {
		t.Errorf("root = %+v", r)
	}
	if c.Parent != r.ID || c.Phases != "PO" || c.Counters["rows"] != 3 {
		t.Errorf("child = %+v", c)
	}
	// A step stamped on its runtime's clock keeps that clock's times.
	if c.Start != 100 || c.End != 250 || c.DurationMicros() != 150 {
		t.Errorf("child times = %g..%g (%g µs), want 100..250 (150 µs)", c.Start, c.End, c.DurationMicros())
	}
	if d, ok := c.PhaseMicros(); !ok || d != 150 {
		t.Errorf("PhaseMicros = %g, %v; want 150", d, ok)
	}
	if r.Open() || r.Start <= 0 || r.End < r.Start {
		t.Errorf("root times = %g..%g, want a closed span on the wall clock", r.Start, r.End)
	}
	if c.Detail != "3 local rows" {
		t.Errorf("child detail = %q", c.Detail)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	h := tr.StartSpan(0, "G", "X").WithQuery("q", "BL").WithPhases("O").Add("n", 1)
	h.End()
	if h.ID() != 0 {
		t.Errorf("nil tracer handle id = %d", h.ID())
	}
	tr.SetLimit(1)
	tr.Import([]Span{{ID: 7}})
	if tr.Take(7) != nil {
		t.Error("nil tracer returned data")
	}
	var p *Profile
	if p.Render() != "" || p.RenderTree() != "" {
		t.Error("nil profile rendered output")
	}
}

func TestSetLimitDropsOldest(t *testing.T) {
	var tr Tracer
	tr.SetLimit(10)
	for i := 0; i < 25; i++ {
		tr.StartSpan(0, "G", fmt.Sprintf("s%d", i)).End()
	}
	spans := held(&tr)
	if len(spans) > 10 {
		t.Errorf("limit not enforced: %d spans", len(spans))
	}
	// The survivors are the most recent spans.
	if last := spans[len(spans)-1]; last.Name != "s24" {
		t.Errorf("last survivor = %s, want s24", last.Name)
	}
	// Handles for dropped spans are inert, not panics.
	h := tr.StartSpan(0, "G", "late")
	for i := 0; i < 20; i++ {
		tr.StartSpan(0, "G", "fill").End()
	}
	h.Add("n", 1).End() // may be dropped already; must not panic
}

func TestRenderPerSiteNumbering(t *testing.T) {
	var tr Tracer
	step(&tr, "G", "BL_G1", "start")
	step(&tr, "DB1", "BL_C1+C2", "local")
	step(&tr, "DB2", "BL_C1+C2", "local")
	step(&tr, "DB2", "C3", "check")
	step(&tr, "G", "BL_G2", "certify")
	out := renderFlow(held(&tr))

	// Numbering restarts per site; the global order survives as [gN].
	for _, want := range []string{
		" 1. BL_G1", " 2. BL_G2", // G's own 1, 2
		" 1. BL_C1+C2", // DB1 restarts at 1
		" 2. C3",       // DB2's second step
		"[g1]", "[g4]", "[g5]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " 3. ") {
		t.Errorf("no site ran three steps, yet Render shows a 3rd:\n%s", out)
	}
}

func TestRenderTreeNesting(t *testing.T) {
	var tr Tracer
	root := tr.StartSpan(0, "G", "BL").WithQuery("q1", "BL")
	c1 := tr.StartSpan(root.ID(), "DB1", "BL_C1+C2").WithPhases("PO")
	tr.StartSpan(c1.ID(), "DB2", "C3").WithPhases("O").End()
	c1.End()
	root.End()
	out := renderTree(tr.Take(root.ID()))

	iRoot := strings.Index(out, "BL @G")
	iC1 := strings.Index(out, "  BL_C1+C2 [PO] @DB1")
	iC3 := strings.Index(out, "    C3 [O] @DB2")
	if iRoot < 0 || iC1 < 0 || iC3 < 0 || !(iRoot < iC1 && iC1 < iC3) {
		t.Errorf("RenderTree nesting wrong:\n%s", out)
	}
	if !strings.Contains(out, "query=q1") || !strings.Contains(out, "alg=BL") {
		t.Errorf("RenderTree missing query scope:\n%s", out)
	}
}

// TestRenderSurvivesForeignParentCollision: a span parented on a span ID
// propagated from another process may collide with a local ID — in the worst
// case its own. Rendering must not drop such spans (a self-parented span once
// rendered as nothing while the tracer held the whole query), and Take must
// still hand such a span off.
func TestRenderSurvivesForeignParentCollision(t *testing.T) {
	var tr Tracer
	ping := tr.StartSpan(0, "DB1", "serve:ping")
	ping.End()
	local := tr.StartSpan(0, "DB1", "serve:local").WithQuery("rq1", "BL")
	local.End()
	// Forge the pathological wire states directly on the recorded spans.
	tr.mu.Lock()
	tr.spans[1].Parent = tr.spans[1].ID // self-parent (foreign ID == own ID)
	tr.mu.Unlock()
	if out := renderTree(held(&tr)[1:]); !strings.Contains(out, "serve:local") {
		t.Errorf("self-parented span dropped from the tree:\n%q", out)
	}
	tr.mu.Lock()
	tr.spans[1].Parent = tr.spans[0].ID // foreign ID == unrelated local span
	tr.mu.Unlock()
	if out := renderTree(held(&tr)); !strings.Contains(out, "serve:local") {
		t.Errorf("collided span dropped from the tree:\n%q", out)
	}
	if got := tr.Take(local.ID()); len(got) != 1 || got[0].Name != "serve:local" {
		t.Errorf("Take of a span parented on a colliding ID = %+v", got)
	}
}

// TestSpanIDsUniqueAcrossTracers: the coordinator's and a server's tracers
// live in different Tracer values, but their IDs must never collide — server
// spans are parented on coordinator span IDs that travel over the wire.
func TestSpanIDsUniqueAcrossTracers(t *testing.T) {
	var a, b Tracer
	seen := map[SpanID]bool{}
	for i := 0; i < 100; i++ {
		for _, tr := range []*Tracer{&a, &b} {
			h := tr.StartSpan(0, "X", "s")
			h.End()
			if seen[h.ID()] {
				t.Fatalf("span ID %d issued twice", h.ID())
			}
			seen[h.ID()] = true
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	var tr Tracer
	root := tr.StartSpan(0, "G", "root")
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.StartSpan(root.ID(), "DB1", "C3").Add("items", 1)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	spans := tr.Take(root.ID())
	if len(spans) != 51 {
		t.Fatalf("spans = %d", len(spans))
	}
	ids := map[SpanID]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
}

// TestSpanClockResolution: a span timed on the wall clock measures its wall
// duration to within 0.1 µs, today and a decade on — a float64 count of
// microseconds since 1970 would round to about 0.25 µs.
func TestSpanClockResolution(t *testing.T) {
	for _, at := range []time.Time{time.Now(), epoch.AddDate(10, 0, 0)} {
		for _, d := range []time.Duration{1, 1234, 98_765_432} {
			got, want := since(at.Add(d))-since(at), float64(d.Nanoseconds())/1e3
			if math.Abs(got-want) > 0.1 {
				t.Errorf("at %v: %v measures %g µs, want %g", at, d, got, want)
			}
		}
	}
}
