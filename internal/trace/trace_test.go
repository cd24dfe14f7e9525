package trace

import (
	"strings"
	"sync"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

// step records one instant span, as an algorithm step with nothing to time.
func step(tr *Tracer, site object.SiteID, name, detail string) {
	tr.StartSpan(0, site, name).Detailf("%s", detail).End()
}

func TestSpansReturnsCopy(t *testing.T) {
	var tr Tracer
	tr.StartSpan(0, "G", "X").Add("rows", 1).End()
	spans := tr.Spans()
	spans[0].Name = "MUTATED"
	spans[0].Counters["rows"] = 9
	if got := tr.Spans()[0]; got.Name != "X" || got.Counters["rows"] != 1 {
		t.Errorf("Spans exposes internal state: %+v", got)
	}
}

func TestReset(t *testing.T) {
	var tr Tracer
	step(&tr, "G", "X", "")
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestRenderGroupsBySite(t *testing.T) {
	var tr Tracer
	step(&tr, "G", "BL_G1", "start")
	step(&tr, "DB2", "BL_C1", "local")
	step(&tr, "DB1", "BL_C1", "local")
	step(&tr, "G", "BL_G2", "certify")
	out := tr.Render()

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
	if len(tr.Spans()) != 50 {
		t.Errorf("spans = %d", len(tr.Spans()))
	}
	// Sequence numbers are unique and contiguous.
	seen := map[int]bool{}
	for _, e := range tr.Spans() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestSpanTreeRecording(t *testing.T) {
	var tr Tracer
	root := tr.StartSpan(0, "G", "BL").WithQuery("q1", "BL")
	child := tr.StartSpan(root.ID(), "DB1", "BL_C1+C2").
		WithQuery("q1", "BL").WithPhases("PO").WithVStart(100)
	child.Add("rows", 3).Detailf("%d local rows", 3)
	child.EndV(250)
	root.Add("certain", 1).End()

	spans := tr.Spans()
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
	if got := c.VDurationMicros(); got != 150 {
		t.Errorf("virtual duration = %g, want 150", got)
	}
	if c.End.IsZero() || c.DurationMicros() < 0 {
		t.Errorf("child wall times = %v..%v", c.Start, c.End)
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
	if tr.Spans() != nil {
		t.Error("nil tracer returned data")
	}
	tr.Reset()
	if tr.Render() != "" || tr.RenderTree() != "" || tr.RenderLastQuery() != "" {
		t.Error("nil tracer rendered output")
	}
}

func TestSpansReturnCopies(t *testing.T) {
	var tr Tracer
	tr.StartSpan(0, "G", "X").Add("n", 1).End()
	spans := tr.Spans()
	spans[0].Name = "MUTATED"
	spans[0].Counters["n"] = 99
	again := tr.Spans()
	if again[0].Name != "X" || again[0].Counters["n"] != 1 {
		t.Error("Spans exposes internal state")
	}
}

func TestSetLimitDropsOldest(t *testing.T) {
	var tr Tracer
	tr.SetLimit(10)
	for i := 0; i < 25; i++ {
		tr.StartSpan(0, "G", "s").End()
	}
	spans := tr.Spans()
	if len(spans) > 10 {
		t.Errorf("limit not enforced: %d spans", len(spans))
	}
	// The survivors are the most recent spans.
	last := spans[len(spans)-1]
	if last.Seq != 25 {
		t.Errorf("last surviving seq = %d, want 25", last.Seq)
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
	out := tr.Render()

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
	out := tr.RenderTree()

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

func TestRenderLastQuery(t *testing.T) {
	var tr Tracer
	tr.StartSpan(0, "G", "BL").WithQuery("q1", "BL").End()
	tr.StartSpan(0, "G", "CA").WithQuery("q2", "CA").End()
	out := tr.RenderLastQuery()
	if !strings.Contains(out, "q2") || strings.Contains(out, "q1") {
		t.Errorf("RenderLastQuery should show only the latest query:\n%s", out)
	}
}

// TestRenderSurvivesForeignParentCollision: a span parented on a span ID
// propagated from another process may collide with a local ID — in the worst
// case its own. Rendering must not drop such spans (a self-parented span once
// made RenderLastQuery return nothing while Spans() held the whole query).
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
	if out := tr.RenderLastQuery(); !strings.Contains(out, "serve:local") {
		t.Errorf("self-parented span dropped from RenderLastQuery:\n%q", out)
	}
	tr.mu.Lock()
	tr.spans[1].Parent = tr.spans[0].ID // foreign ID == unrelated local span
	tr.mu.Unlock()
	if out := tr.RenderTree(); !strings.Contains(out, "serve:local") {
		t.Errorf("collided span dropped from RenderTree:\n%q", out)
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
	spans := tr.Spans()
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
