package fabric

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/object"
)

// TestRealPanicSurfacesWithEveryLegJoined: wherever a task panics — the root,
// a Fork's inline leg, a spawned leg — Run returns it as its error, the
// forking task carries on, and no leg is still running when Run returns.
func TestRealPanicSurfacesWithEveryLegJoined(t *testing.T) {
	var done atomic.Int32
	slow := func(Proc) {
		time.Sleep(2 * time.Millisecond)
		done.Add(1)
	}
	boom := func(Proc) { panic("leg exploded") }
	cases := map[string]struct {
		root     func(Proc)
		want     string
		finished int32 // 1 per slow leg run to its end, 10 for a root that carried on past the Fork
	}{
		"root": {
			root: func(p Proc) {
				p.Go("slow", slow) // not waited for: Run joins it
				panic("root exploded")
			},
			want: "task r panicked: root exploded", finished: 1,
		},
		"inline leg": {
			root: func(p Proc) { p.Fork(slow, slow, boom); done.Add(10) },
			want: "task fork panicked: leg exploded", finished: 12,
		},
		"spawned leg": {
			root: func(p Proc) { p.Fork(boom, slow, slow); done.Add(10) },
			want: "task fork panicked: leg exploded", finished: 12,
		},
		"fork of one": {
			root: func(p Proc) { p.Fork(boom); done.Add(10) },
			want: "task fork panicked: leg exploded", finished: 10,
		},
	}
	rt := NewReal(DefaultRates())
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			done.Store(0)
			_, err := rt.Run("r", tc.root)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to hold %q", err, tc.want)
			}
			if got := done.Load(); got != tc.finished {
				t.Errorf("%d units of work finished before Run returned, want %d", got, tc.finished)
			}
		})
	}
}

// TestForkRunsItsLastLegOnTheCaller: on a warm runtime a Fork starts no
// goroutine. A Fork of three hands its first two legs to parked workers and
// runs the last on the caller; a Fork of one hands nothing off. A worker that
// retires meanwhile only lowers the count, so the legs read at most what the
// caller read before the Fork.
func TestForkRunsItsLastLegOnTheCaller(t *testing.T) {
	rt := NewReal(DefaultRates())
	warm(t, rt, 2)
	_, err := rt.Run("r", func(p Proc) {
		before, caller := runtime.NumGoroutine(), goid()
		p.Fork(func(Proc) {
			if n := runtime.NumGoroutine(); n > before || goid() != caller {
				t.Errorf("fork of one: %d goroutines inside the leg, %d before the Fork; on the caller: %v", n, before, goid() == caller)
			}
		})
		var held atomic.Int32
		release := make(chan struct{})
		hold := func(Proc) { held.Add(1); <-release }
		p.Fork(hold, hold, func(Proc) {
			defer close(release)
			for held.Load() < 2 {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before || goid() != caller {
				t.Errorf("fork of three: %d goroutines inside the last leg, %d before the Fork; on the caller: %v", n, before, goid() == caller)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPanicOnAWorkerLeavesItServing: a leg that panics on a worker becomes
// Run's error, and the worker parks again and runs the next run's leg. The
// next run holds one leg on every parked worker at once, so it reaches the
// one that panicked.
func TestPanicOnAWorkerLeavesItServing(t *testing.T) {
	rt := NewReal(DefaultRates())
	var boomOn string
	_, err := rt.Run("r", func(p Proc) {
		p.Fork(func(Proc) { boomOn = goid(); panic("leg exploded") }, func(Proc) {})
	})
	if err == nil || !strings.Contains(err.Error(), "task fork panicked: leg exploded") {
		t.Fatalf("err = %v, want the leg's panic", err)
	}
	waitFor(t, time.Second, func() bool { return slices.Contains(parked(), boomOn) })
	ids := held(t, rt, len(parked()))
	if !slices.Contains(ids, boomOn) {
		t.Errorf("the worker that panicked (goroutine %s) ran none of the next run's legs (goroutines %v)", boomOn, ids)
	}
}

// TestConcurrentRunsAccountApart: two runs at a time, sharing the workers,
// each see only their own CPU and bytes.
func TestConcurrentRunsAccountApart(t *testing.T) {
	rt := NewReal(DefaultRates())
	var wg sync.WaitGroup
	for w, site := range []object.SiteID{"A", "B"} {
		w := w + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			leg := func(p Proc) { p.Sink(site).CPU(w); p.Transfer(site, "G", 10*w) }
			root := func(p Proc) { p.Wait(p.Go("g", leg)); p.Fork(leg, leg, leg) }
			for range 200 {
				m, err := rt.Run("r", root)
				if err != nil {
					t.Error(err)
					return
				}
				if m.CPUOps != int64(4*w) || m.NetBytes != int64(40*w) || len(m.PerSite) != 1 ||
					m.PerSite[site].CPUOps != int64(4*w) || m.NetPairs[Pair{From: site, To: "G"}] != int64(40*w) {
					t.Errorf("run at %s: metrics = %+v, want %d ops and %d bytes of its own", site, m, 4*w, 40*w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleWorkersStayBounded: a Fork wider than the idle bound leaves at most
// maxIdle workers parked once its legs are done, at once and not only after
// idleFor; and after idleFor every worker it left has retired.
func TestIdleWorkersStayBounded(t *testing.T) {
	rt := NewReal(DefaultRates())
	before := runtime.NumGoroutine()
	held(t, rt, maxIdle+8)
	waitFor(t, idleFor/2, func() bool {
		return runtime.NumGoroutine() <= before+maxIdle && len(parked()) <= maxIdle
	})
	waitFor(t, idleFor+5*time.Second, func() bool { return runtime.NumGoroutine() <= before })
}

// warm leaves at least n workers parked, each with a fresh idleFor.
func warm(t *testing.T, rt *Real, n int) {
	t.Helper()
	held(t, rt, n)
	waitFor(t, time.Second, func() bool { return len(parked()) >= n })
}

// held runs a Fork of n+1 legs whose first n wait until all n have started,
// so each holds a worker of its own, and returns the goroutines they ran on.
func held(t *testing.T, rt *Real, n int) []string {
	t.Helper()
	ids := make([]string, n)
	var started atomic.Int32
	release := make(chan struct{})
	legs := make([]func(Proc), n+1)
	for i := range n {
		legs[i] = func(Proc) { ids[i] = goid(); started.Add(1); <-release }
	}
	legs[n] = func(Proc) {
		defer close(release)
		for int(started.Load()) < n {
			runtime.Gosched()
		}
	}
	if _, err := rt.Run("r", func(p Proc) { p.Fork(legs...) }); err != nil {
		t.Fatal(err)
	}
	return ids
}

// parked lists the goroutines of the workers waiting for a task.
func parked() []string {
	buf := make([]byte, 1<<20)
	var ids []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "fabric.work(") {
			ids = append(ids, strings.Fields(g)[1])
		}
	}
	return ids
}

// goid returns the calling goroutine's ID, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// waitFor polls cond until it holds, failing the test after d.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not so after %v: %d goroutines, %d workers parked", d, runtime.NumGoroutine(), len(parked()))
		}
	}
}

// TestNestedForkAccountsEveryLeg: legs that fork again, inline and spawned,
// charge one run.
func TestNestedForkAccountsEveryLeg(t *testing.T) {
	leaf := func(p Proc) { p.Sink("A").CPU(1); p.Transfer("A", "G", 10) }
	inner := func(p Proc) { p.Fork(leaf, leaf, leaf) }
	m, err := NewReal(DefaultRates()).Run("r", func(p Proc) { p.Fork(inner, inner); p.Fork(inner) })
	if err != nil {
		t.Fatal(err)
	}
	if m.CPUOps != 9 || m.NetBytes != 90 || m.PerSite["A"].CPUOps != 9 || m.NetPairs[Pair{From: "A", To: "G"}] != 90 {
		t.Errorf("metrics = %+v, want 9 ops and 90 bytes", m)
	}
}

// TestRunWithoutChargesReadsEmpty: a run that charged nothing reports nil
// maps, which read like empty ones.
func TestRunWithoutChargesReadsEmpty(t *testing.T) {
	m, err := NewReal(DefaultRates()).Run("r", func(Proc) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerSite) != 0 || len(m.NetPairs) != 0 || m.PerSite["A"] != (SiteCost{}) || m.NetPairs[Pair{}] != 0 {
		t.Errorf("metrics of an empty run = %+v", m)
	}
}

// TestCancelCutsSleepInAnInlineLeg: the context travels in the run, so the
// last leg of a Fork — running on Run's caller — sees it, and a Sleep there
// ends when it is cancelled. Two runs share the runtime under different
// contexts.
func TestCancelCutsSleepInAnInlineLeg(t *testing.T) {
	rt := NewReal(DefaultRates())
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	_, err := rt.RunContext(ctx, "r", func(p Proc) {
		p.Fork(func(Proc) {}, func(p Proc) {
			if p.Context() != ctx {
				t.Error("the inline leg does not see the run's context")
			}
			p.Sleep(60e6)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("a cancelled one-minute Sleep took %v", d)
	}
	if _, err := rt.Run("r", func(p Proc) {
		if p.Context().Err() != nil {
			t.Error("a later run on the same runtime sees the cancelled context")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRealRunAllocationCeilings holds what a run costs before it does any
// work, at the measured values: the run itself for an empty root; for a Fork
// of three, the argument slice, the two handed-off legs' closures and the
// WaitGroup they share.
func TestRealRunAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rt := NewReal(DefaultRates())
	empty := func(Proc) {}
	fork := func(p Proc) { p.Fork(empty, empty, empty) }
	for _, tc := range []struct {
		name    string
		root    func(Proc)
		ceiling float64
	}{
		{"empty root", empty, 1},
		{"fork of three", fork, 5},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := rt.Run("r", tc.root); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s: %.1f allocs per Run, ceiling %.0f", tc.name, got, tc.ceiling)
		}
		t.Logf("%s: %.1f allocs per Run", tc.name, got)
	}
}

// BenchmarkRealFork is a Fork of three legs whose bodies need about 8 KiB of
// stack, as a site call's client, exchange and decode frames do: what a leg
// costs the runtime when its goroutine's stack must grow to hold it.
func BenchmarkRealFork(b *testing.B) {
	rt := NewReal(DefaultRates())
	leg := func(Proc) { deep(64) }
	root := func(p Proc) { p.Fork(leg, leg, leg) }
	b.ReportAllocs()
	for range b.N {
		if _, err := rt.Run("r", root); err != nil {
			b.Fatal(err)
		}
	}
}

// deep recurses n frames of a little over 128 bytes each.
//
//go:noinline
func deep(n int) byte {
	var pad [128]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		return pad[0]
	}
	return deep(n-1) + pad[(n+1)%len(pad)]
}
