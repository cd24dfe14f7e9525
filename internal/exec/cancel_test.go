package exec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/trace"
)

// cancelEngine builds a fully instrumented engine (metrics + recorder) for
// the interruption tests.
func cancelEngine(t testing.TB) (*Engine, *query.Bound, *metrics.Registry, *obs.Recorder) {
	t.Helper()
	fx := school.New()
	reg := metrics.New()
	rec := obs.NewRecorder(obs.RecorderConfig{Site: "G", Metrics: reg})
	e, err := New(Config{
		Global:      fx.Global,
		Coordinator: "G",
		Databases:   fx.Databases,
		Tables:      fx.Mapping,
		Tracer:      &trace.Tracer{},
		Metrics:     reg,
		Signatures:  signature.Build(fx.Databases),
		Recorder:    rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, query.MustBind(query.MustParse(school.Q1), fx.Global), reg, rec
}

// assertNoGoroutineLeak fails the test if the goroutine count has not
// settled back to (about) the baseline within a generous window. The slack
// absorbs runtime-internal goroutines; a leaked per-site worker per
// cancelled query grows far beyond it.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, baseline %d", n, baseline)
}

// TestDeadlineInterruptsDelayedSites is the acceptance scenario at the
// engine level: a 50ms-deadline query against sites wedged by a 5s Delay
// fault must come back well within the fault's delay (≈ the deadline, with
// generous slack for slow CI), as a sound partial answer — outcome
// deadline, every wedged site reported unavailable, certain rows empty —
// and must not leak the per-site worker goroutines.
func TestDeadlineInterruptsDelayedSites(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, b, reg, rec := cancelEngine(t)
	for _, alg := range []Algorithm{CA, BL, PL} {
		rt := fabric.NewReal(fabric.DefaultRates()).WithFaults(
			fabric.NewFaultPlan().
				Delay("DB1", 5e6).Delay("DB2", 5e6).Delay("DB3", 5e6))
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		ans, _, err := e.RunContext(ctx, rt, alg, b)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("%v: interrupted query failed instead of degrading: %v", alg, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%v: returned after %v — the deadline did not cut the 5s delay", alg, elapsed)
		}
		if ans.Outcome != federation.OutcomeDeadline {
			t.Errorf("%v: outcome = %q, want %q", alg, ans.Outcome, federation.OutcomeDeadline)
		}
		if !ans.Interrupted() || !ans.Degraded {
			t.Errorf("%v: Interrupted=%v Degraded=%v, want both", alg, ans.Interrupted(), ans.Degraded)
		}
		if len(ans.Certain) != 0 {
			t.Errorf("%v: certain = %v, want none (no site answered in budget)", alg, ans.Certain)
		}
		if len(ans.Unavailable) == 0 {
			t.Errorf("%v: no sites reported unavailable", alg)
		}
		if p := rec.Last(); p == nil || p.Status != trace.StatusDeadline {
			t.Errorf("%v: recorded profile status = %v, want %q", alg, p, trace.StatusDeadline)
		}
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("deadline_exceeded_total", metrics.Labels{Site: "G", Alg: "PL"}); got != 1 {
		t.Errorf("deadline_exceeded_total{PL} = %d, want 1", got)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestCancelMidQuery cancels the context while the sites are wedged: the
// strategies must unwind at their next checkpoint with outcome canceled.
func TestCancelMidQuery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, b, reg, _ := cancelEngine(t)
	for _, alg := range []Algorithm{CA, BL, PL} {
		rt := fabric.NewReal(fabric.DefaultRates()).WithFaults(
			fabric.NewFaultPlan().
				Delay("DB1", 5e6).Delay("DB2", 5e6).Delay("DB3", 5e6))
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		ans, _, err := e.RunContext(ctx, rt, alg, b)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("%v: cancelled query failed instead of degrading: %v", alg, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%v: returned after %v — cancellation did not cut the 5s delay", alg, elapsed)
		}
		if ans.Outcome != federation.OutcomeCanceled {
			t.Errorf("%v: outcome = %q, want %q", alg, ans.Outcome, federation.OutcomeCanceled)
		}
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("queries_canceled_total", metrics.Labels{Site: "G", Alg: "CA"}); got != 1 {
		t.Errorf("queries_canceled_total{CA} = %d, want 1", got)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestCancelSimRuntime covers the virtual-time fabric: a pre-cancelled
// context must still yield a sound partial answer (every site interrupted)
// rather than an error, on the same code path the CLI's ctrl-C takes.
func TestCancelSimRuntime(t *testing.T) {
	e, b, _, _ := cancelEngine(t)
	for _, alg := range []Algorithm{CA, BL, PL} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rt := fabric.NewSim(fabric.DefaultRates(), e.Sites())
		ans, _, err := e.RunContext(ctx, rt, alg, b)
		if err != nil {
			t.Fatalf("%v/sim: %v", alg, err)
		}
		if ans.Outcome != federation.OutcomeCanceled {
			t.Errorf("%v/sim: outcome = %q, want canceled", alg, ans.Outcome)
		}
		if len(ans.Certain) != 0 {
			t.Errorf("%v/sim: certain = %v, want none", alg, ans.Certain)
		}
	}
}

// TestInterruptedSitesChargeNoUnavailableCounter: a query whose deadline has
// already expired skips every site — they are all listed in
// Answer.Unavailable, since what they would have contributed is unknown —
// but a caller running out of budget says nothing about the sites' health,
// so site_unavailable_total must stay 0 (DESIGN §10).
func TestInterruptedSitesChargeNoUnavailableCounter(t *testing.T) {
	e, b, reg, _ := cancelEngine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, alg := range []Algorithm{CA, BL, PL} {
		ans, _, err := e.RunContext(ctx, fabric.NewReal(fabric.DefaultRates()), alg, b)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if ans.Outcome != federation.OutcomeDeadline || len(ans.Unavailable) == 0 {
			t.Errorf("%v: outcome %q, unavailable %v; want deadline with the skipped sites listed",
				alg, ans.Outcome, ans.Unavailable)
		}
	}
	if n := reg.Snapshot().Sum("site_unavailable_total"); n != 0 {
		t.Errorf("site_unavailable_total = %d after interrupted queries, want 0", n)
	}
}
