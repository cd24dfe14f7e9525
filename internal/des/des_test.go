package des

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDelayAdvancesClock(t *testing.T) {
	sim := New()
	var at float64
	sim.Spawn("p", func(p *Proc) {
		p.Delay(10)
		p.Delay(5)
		at = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 15 || sim.Now() != 15 {
		t.Errorf("time = %g / %g, want 15", at, sim.Now())
	}
}

func TestParallelProcessesOverlap(t *testing.T) {
	sim := New()
	sim.Spawn("a", func(p *Proc) { p.Delay(10) })
	sim.Spawn("b", func(p *Proc) { p.Delay(7) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sim.Now() != 10 {
		t.Errorf("makespan = %g, want 10 (parallel)", sim.Now())
	}
}

func TestResourceSerializes(t *testing.T) {
	sim := New()
	r := sim.NewResource("disk")
	ends := make([]float64, 2)
	sim.Spawn("a", func(p *Proc) { p.Use(r, 10); ends[0] = p.Now() })
	sim.Spawn("b", func(p *Proc) { p.Use(r, 10); ends[1] = p.Now() })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ends[0] != 10 || ends[1] != 20 {
		t.Errorf("ends = %v, want [10 20]", ends)
	}
	if r.BusyTime() != 20 {
		t.Errorf("busy = %g, want 20", r.BusyTime())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	sim := New()
	r := sim.NewResource("r")
	var order []string
	spawnUser := func(name string, startDelay float64) {
		sim.Spawn(name, func(p *Proc) {
			p.Delay(startDelay)
			p.Use(r, 5)
			order = append(order, name)
		})
	}
	spawnUser("first", 0)
	spawnUser("second", 1)
	spawnUser("third", 2)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestJoinWaitsForChildren(t *testing.T) {
	sim := New()
	var joined float64
	sim.Spawn("parent", func(p *Proc) {
		a := p.Spawn("a", func(c *Proc) { c.Delay(10) })
		b := p.Spawn("b", func(c *Proc) { c.Delay(20) })
		p.Join(a, b)
		joined = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if joined != 20 {
		t.Errorf("joined at %g, want 20", joined)
	}
}

func TestJoinFinishedChild(t *testing.T) {
	sim := New()
	sim.Spawn("parent", func(p *Proc) {
		a := p.Spawn("a", func(c *Proc) {})
		p.Delay(5)
		p.Join(a) // already finished
		if p.Now() != 5 {
			t.Errorf("join of finished child advanced time to %g", p.Now())
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		sim := New()
		cpu := sim.NewResource("cpu")
		net := sim.NewResource("net")
		for i := 0; i < 5; i++ {
			d := float64(i + 1)
			sim.Spawn("w", func(p *Proc) {
				p.Use(cpu, d)
				p.Use(net, 2*d)
				p.Delay(d / 2)
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sim.Now(), sim.TotalBusy()
	}
	n1, b1 := run()
	n2, b2 := run()
	if n1 != n2 || b1 != b2 {
		t.Errorf("nondeterministic: (%g,%g) vs (%g,%g)", n1, b1, n2, b2)
	}
	if math.Abs(b1-45) > 1e-9 { // cpu 15 + net 30
		t.Errorf("TotalBusy = %g, want 45", b1)
	}
}

func TestPanicPropagates(t *testing.T) {
	sim := New()
	sim.Spawn("boom", func(p *Proc) {
		p.Delay(1)
		panic("kaboom")
	})
	// A second process parked on a long delay must not leak.
	sim.Spawn("sleeper", func(p *Proc) { p.Delay(1000) })
	err := sim.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("Run err = %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	sim := New()
	r := sim.NewResource("r")
	sim.Spawn("holder", func(p *Proc) {
		p.Acquire(r)
		// Never releases, never delays again after this.
	})
	sim.Spawn("waiter", func(p *Proc) {
		p.Delay(1)
		p.Acquire(r) // blocks forever
	})
	err := sim.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Run err = %v", err)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	sim := New()
	r := sim.NewResource("r")
	sim.Spawn("p", func(p *Proc) { p.Release(r) })
	if err := sim.Run(); err == nil {
		t.Error("release of idle resource accepted")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	sim := New()
	sim.Spawn("p", func(p *Proc) { p.Delay(-1) })
	if err := sim.Run(); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestZeroDurationUse(t *testing.T) {
	sim := New()
	r := sim.NewResource("r")
	sim.Spawn("p", func(p *Proc) { p.Use(r, 0) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sim.Now() != 0 {
		t.Errorf("Now = %g", sim.Now())
	}
}

func TestBusyByPrefixAndNames(t *testing.T) {
	sim := New()
	c1 := sim.NewResource("DB1.cpu")
	d1 := sim.NewResource("DB1.disk")
	n := sim.NewResource("net")
	sim.Spawn("p", func(p *Proc) {
		p.Use(c1, 5)
		p.Use(d1, 7)
		p.Use(n, 3)
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	by := BusyByPrefix(sim.Resources())
	if by["DB1"] != 12 || by["net"] != 3 {
		t.Errorf("BusyByPrefix = %v", by)
	}
	if sim.TotalBusy() != 15 {
		t.Errorf("TotalBusy = %g", sim.TotalBusy())
	}
}

func TestProcName(t *testing.T) {
	sim := New()
	sim.Spawn("xyz", func(p *Proc) {
		if p.Name() != "xyz" {
			t.Errorf("Name = %q", p.Name())
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestManyProcessesStress exercises the scheduler with a fan-out/fan-in of
// hundreds of processes contending on shared resources.
func TestManyProcessesStress(t *testing.T) {
	sim := New()
	net := sim.NewResource("net")
	cpus := make([]*Resource, 8)
	for i := range cpus {
		cpus[i] = sim.NewResource("cpu")
	}
	sim.Spawn("root", func(p *Proc) {
		var children []*Proc
		for i := 0; i < 400; i++ {
			cpu := cpus[i%len(cpus)]
			children = append(children, p.Spawn("w", func(c *Proc) {
				c.Use(cpu, 1)
				c.Use(net, 0.5)
			}))
		}
		p.Join(children...)
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Network is the bottleneck: 400 × 0.5 = 200 plus initial cpu latency.
	if sim.Now() < 200 || sim.Now() > 202 {
		t.Errorf("makespan = %g, want about 200–202", sim.Now())
	}
	if math.Abs(sim.TotalBusy()-600) > 1e-6 {
		t.Errorf("TotalBusy = %g, want 600", sim.TotalBusy())
	}
}

// TestBusyBoundedByMakespanProperty: with R resources, total busy time can
// never exceed R times the makespan (a resource is busy at most the whole
// run), and the makespan can never be less than the busiest resource.
func TestBusyBoundedByMakespanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := New()
		nRes := 1 + rng.Intn(4)
		res := make([]*Resource, nRes)
		for i := range res {
			res[i] = sim.NewResource(fmt.Sprintf("r%d", i))
		}
		nProcs := 1 + rng.Intn(10)
		for i := 0; i < nProcs; i++ {
			steps := 1 + rng.Intn(5)
			plan := make([]struct {
				r *Resource
				d float64
			}, steps)
			for j := range plan {
				plan[j].r = res[rng.Intn(nRes)]
				plan[j].d = rng.Float64() * 10
			}
			sim.Spawn("w", func(p *Proc) {
				for _, st := range plan {
					p.Use(st.r, st.d)
				}
			})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		total := sim.TotalBusy()
		makespan := sim.Now()
		if total > makespan*float64(nRes)+1e-9 {
			return false
		}
		for _, r := range res {
			if r.BusyTime() > makespan+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
