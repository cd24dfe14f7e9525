package fabric

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/hetfed/hetfed/internal/object"
)

// unitRates make a CPU operation, a disk byte and a network byte cost 1 µs
// each, so a test's charges read as durations.
var unitRates = Rates{DiskPerByte: 1, NetPerByte: 1, CPUPerOp: 1}

func simRun(t *testing.T, fn func(Proc)) Metrics {
	t.Helper()
	m, err := NewSim(unitRates, testSites).Run("root", fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

// simTasks lists the goroutines of simulated tasks still alive.
func simTasks() []string {
	buf := make([]byte, 1<<20)
	var ids []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "fabric.(*simProc).run(") {
			ids = append(ids, strings.Fields(g)[1])
		}
	}
	return ids
}

func TestSimSleepAdvancesTheClock(t *testing.T) {
	var at float64
	m := simRun(t, func(p Proc) {
		p.Sleep(10)
		p.Sleep(5)
		at = p.Now()
	})
	if at != 15 || m.ResponseMicros != 15 {
		t.Errorf("time = %g / %g, want 15", at, m.ResponseMicros)
	}
}

func TestSimParallelTasksOverlap(t *testing.T) {
	m := simRun(t, func(p Proc) {
		p.Fork(func(p Proc) { p.Sleep(10) }, func(p Proc) { p.Sleep(7) })
	})
	if m.ResponseMicros != 10 {
		t.Errorf("makespan = %g, want 10 (parallel)", m.ResponseMicros)
	}
}

// TestSimResourceSerializes: two tasks charging one site's CPU take turns,
// and the CPU is busy for both charges.
func TestSimResourceSerializes(t *testing.T) {
	ends := make([]float64, 2)
	m := simRun(t, func(p Proc) {
		p.Fork(
			func(p Proc) { p.Sink("A").CPU(10); ends[0] = p.Now() },
			func(p Proc) { p.Sink("A").CPU(10); ends[1] = p.Now() },
		)
	})
	if ends[0] != 10 || ends[1] != 20 {
		t.Errorf("ends = %v, want [10 20]", ends)
	}
	if m.TotalBusyMicros != 20 {
		t.Errorf("busy = %g, want 20", m.TotalBusyMicros)
	}
}

// TestSimResourceIsFIFO: tasks that find the network held are served in the
// order they arrived.
func TestSimResourceIsFIFO(t *testing.T) {
	var order []string
	user := func(name string, start float64) func(Proc) {
		return func(p Proc) {
			p.Sleep(start)
			p.Transfer("A", "G", 5)
			order = append(order, name)
		}
	}
	simRun(t, func(p Proc) { p.Fork(user("first", 0), user("second", 1), user("third", 2)) })
	if strings.Join(order, " ") != "first second third" {
		t.Errorf("order = %v, want [first second third]", order)
	}
}

func TestSimWaitOnRunningTasks(t *testing.T) {
	var joined float64
	simRun(t, func(p Proc) {
		a := p.Go("a", func(p Proc) { p.Sleep(10) })
		b := p.Go("b", func(p Proc) { p.Sleep(20) })
		p.Wait(a, b)
		joined = p.Now()
	})
	if joined != 20 {
		t.Errorf("joined at %g, want 20", joined)
	}
}

func TestSimWaitOnFinishedTask(t *testing.T) {
	var late float64
	simRun(t, func(p Proc) {
		c := p.Go("c", func(Proc) {})
		p.Sleep(5)
		p.Wait(c) // already finished
		late = p.Now()
	})
	if late != 5 {
		t.Errorf("joined at %g, want 5", late)
	}
}

// TestSimIsDeterministic: the same inputs give the same trajectory, to the
// bit.
func TestSimIsDeterministic(t *testing.T) {
	run := func() ([]float64, Metrics) {
		ends := make([]float64, 5)
		m := simRun(t, func(p Proc) {
			hs := make([]Handle, len(ends))
			for i := range hs {
				d := i + 1
				hs[i] = p.Go("w", func(p Proc) {
					p.Sink("A").CPU(d)
					p.Transfer("A", "G", 2*d)
					p.Sleep(float64(d) / 2)
					ends[i] = p.Now()
				})
			}
			p.Wait(hs...)
		})
		return ends, m
	}
	e1, m1 := run()
	e2, m2 := run()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Errorf("task %d ended at %g, then at %g", i, e1[i], e2[i])
		}
	}
	if m1.ResponseMicros != m2.ResponseMicros || m1.TotalBusyMicros != m2.TotalBusyMicros {
		t.Errorf("nondeterministic: %+v vs %+v", m1, m2)
	}
	if m1.TotalBusyMicros != 45 { // CPU 15 + network 30
		t.Errorf("TotalBusyMicros = %g, want 45", m1.TotalBusyMicros)
	}
}

// TestSimTaskPanicFailsTheRun: a task's panic is the run's error, named as
// on the real runtime, and the task parked on a long Sleep unwinds.
func TestSimTaskPanicFailsTheRun(t *testing.T) {
	_, err := NewSim(unitRates, testSites).Run("root", func(p Proc) {
		p.Go("sleeper", func(p Proc) { p.Sleep(1000) })
		p.Fork(func(p Proc) {
			p.Sleep(1)
			panic("kaboom")
		})
	})
	if err == nil || !strings.Contains(err.Error(), "task fork panicked: kaboom") {
		t.Errorf("Run err = %v", err)
	}
	waitFor(t, time.Second, func() bool { return len(simTasks()) == 0 })
}

// TestSimDeadlockDetected: two tasks that wait on each other fail the run,
// and no task's goroutine is left behind.
func TestSimDeadlockDetected(t *testing.T) {
	_, err := NewSim(unitRates, testSites).Run("root", func(p Proc) {
		var a, b Handle
		a = p.Go("a", func(p Proc) { p.Wait(b) })
		b = p.Go("b", func(p Proc) { p.Wait(a) })
		p.Wait(a)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Run err = %v", err)
	}
	waitFor(t, time.Second, func() bool { return len(simTasks()) == 0 })
}

func TestSimZeroCharge(t *testing.T) {
	if m := simRun(t, func(p Proc) { p.Sink("A").CPU(0) }); m.ResponseMicros != 0 {
		t.Errorf("CPU(0) took %g µs", m.ResponseMicros)
	}
}

func TestSimNegativeChargePanics(t *testing.T) {
	for name, fn := range map[string]func(Proc){
		"cpu":      func(p Proc) { p.Sink("A").CPU(-1) },
		"disk":     func(p Proc) { p.Sink("A").DiskRead(-1) },
		"transfer": func(p Proc) { p.Transfer("A", "G", -1) },
	} {
		if _, err := NewSim(unitRates, testSites).Run(name, fn); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: Run err = %v", name, err)
		}
	}
}

// TestSimBusyBoundedByMakespan: no resource is busy longer than the run, so
// the total busy time is at most the makespan times the number of resources
// (a CPU and a disk per site, and the network).
func TestSimBusyBoundedByMakespan(t *testing.T) {
	sites := []object.SiteID{"A", "B", "C", "D"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSites := 1 + rng.Intn(len(sites))
		legs := make([]func(Proc), 1+rng.Intn(10))
		for i := range legs {
			steps := make([]func(Proc), 1+rng.Intn(5))
			for j := range steps {
				site, n := sites[rng.Intn(nSites)], rng.Intn(10)
				steps[j] = []func(Proc){
					func(p Proc) { p.Sink(site).CPU(n) },
					func(p Proc) { p.Sink(site).DiskRead(n) },
					func(p Proc) { p.Transfer(site, "A", n) },
				}[rng.Intn(3)]
			}
			legs[i] = func(p Proc) {
				for _, step := range steps {
					step(p)
				}
			}
		}
		rates := Rates{DiskPerByte: rng.Float64(), NetPerByte: rng.Float64(), CPUPerOp: rng.Float64()}
		m, err := NewSim(rates, sites[:nSites]).Run("root", func(p Proc) { p.Fork(legs...) })
		if err != nil {
			return false
		}
		const eps = 1e-9
		if m.TotalBusyMicros > m.ResponseMicros*float64(2*nSites+1)+eps ||
			float64(m.NetBytes)*rates.NetPerByte > m.ResponseMicros+eps {
			return false
		}
		for _, c := range m.PerSite {
			if float64(c.CPUOps)*rates.CPUPerOp > m.ResponseMicros+eps ||
				float64(c.DiskBytes)*rates.DiskPerByte > m.ResponseMicros+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSimManyTasks: a fan-out and fan-in of 1 000 tasks contending for the
// sites' CPUs and the network, which is the bottleneck.
func TestSimManyTasks(t *testing.T) {
	rates := Rates{CPUPerOp: 1, NetPerByte: 0.5}
	m, err := NewSim(rates, testSites).Run("root", func(p Proc) {
		hs := make([]Handle, 1000)
		for i := range hs {
			site := testSites[i%len(testSites)]
			hs[i] = p.Go("w", func(p Proc) {
				p.Sink(site).CPU(1)
				p.Transfer(site, "G", 1)
			})
		}
		p.Wait(hs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 000 × 0.5 µs on the network, after the first task's 1 µs of CPU.
	if m.ResponseMicros < 500 || m.ResponseMicros > 502 {
		t.Errorf("makespan = %g, want about 500–502", m.ResponseMicros)
	}
	if math.Abs(m.TotalBusyMicros-1500) > 1e-6 {
		t.Errorf("TotalBusyMicros = %g, want 1500", m.TotalBusyMicros)
	}
}
