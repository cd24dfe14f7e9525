package fabric

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

// TestForkRunsItsLastLegOnTheCaller: a Fork of one starts no goroutine, and a
// Fork of three starts two — the last leg counts the goroutines the caller
// counted before the Fork, plus the two legs it holds back.
func TestForkRunsItsLastLegOnTheCaller(t *testing.T) {
	_, err := NewReal(DefaultRates()).Run("r", func(p Proc) {
		before := runtime.NumGoroutine()
		p.Fork(func(Proc) {
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("fork of one: %d goroutines inside the leg, %d before the Fork", n, before)
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
			if n := runtime.NumGoroutine(); n != before+2 {
				t.Errorf("fork of three: %d goroutines inside the last leg, want %d + 2", n, before)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
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
// of three, the argument slice, the two spawned legs' closures and the
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
