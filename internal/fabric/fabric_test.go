package fabric

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hetfed/hetfed/internal/object"
)

var testSites = []object.SiteID{"A", "B", "G"}

func TestRatesWork(t *testing.T) {
	r := DefaultRates()
	if r.DiskPerByte != 15 || r.NetPerByte != 8 || r.CPUPerOp != 0.5 {
		t.Errorf("DefaultRates = %+v", r)
	}
	if got := r.Work(10, 4, 2); got != 150+2+16 {
		t.Errorf("Work = %g", got)
	}
}

// runBoth executes the same task graph on both runtimes and returns the
// metrics pair.
func runBoth(t *testing.T, fn func(Proc)) (Metrics, Metrics) {
	t.Helper()
	mReal, err := NewReal(DefaultRates()).Run("t", fn)
	if err != nil {
		t.Fatalf("real: %v", err)
	}
	mSim, err := NewSim(DefaultRates(), testSites).Run("t", fn)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return mReal, mSim
}

func TestWorkParity(t *testing.T) {
	fn := func(p Proc) {
		p.Fork(
			func(p Proc) {
				p.Sink("A").DiskRead(100)
				p.Sink("A").CPU(10)
				p.Transfer("A", "G", 50)
			},
			func(p Proc) {
				p.Sink("B").DiskRead(200)
				p.Transfer("B", "G", 70)
			},
		)
		p.Sink("G").CPU(5)
	}
	mReal, mSim := runBoth(t, fn)
	if mReal.DiskBytes != 300 || mReal.CPUOps != 15 || mReal.NetBytes != 120 {
		t.Errorf("real metrics = %+v", mReal)
	}
	if mSim.DiskBytes != mReal.DiskBytes || mSim.CPUOps != mReal.CPUOps ||
		mSim.NetBytes != mReal.NetBytes {
		t.Errorf("parity broken: %+v vs %+v", mReal, mSim)
	}
	if mReal.TotalBusyMicros != mSim.TotalBusyMicros {
		t.Errorf("modeled work differs: %g vs %g", mReal.TotalBusyMicros, mSim.TotalBusyMicros)
	}
}

func TestSimParallelismShortensResponse(t *testing.T) {
	serial := func(p Proc) {
		p.Sink("A").DiskRead(1000)
		p.Sink("B").DiskRead(1000)
	}
	parallel := func(p Proc) {
		p.Fork(
			func(p Proc) { p.Sink("A").DiskRead(1000) },
			func(p Proc) { p.Sink("B").DiskRead(1000) },
		)
	}
	mSerial, err := NewSim(DefaultRates(), testSites).Run("s", serial)
	if err != nil {
		t.Fatal(err)
	}
	mParallel, err := NewSim(DefaultRates(), testSites).Run("p", parallel)
	if err != nil {
		t.Fatal(err)
	}
	if mSerial.ResponseMicros != 30000 {
		t.Errorf("serial response = %g", mSerial.ResponseMicros)
	}
	if mParallel.ResponseMicros != 15000 {
		t.Errorf("parallel response = %g", mParallel.ResponseMicros)
	}
	if mSerial.TotalBusyMicros != mParallel.TotalBusyMicros {
		t.Error("total work should not depend on parallelism")
	}
}

func TestSimNetworkContention(t *testing.T) {
	m, err := NewSim(DefaultRates(), testSites).Run("n", func(p Proc) {
		p.Fork(
			func(p Proc) { p.Transfer("A", "G", 100) },
			func(p Proc) { p.Transfer("B", "G", 100) },
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The shared medium serializes the transfers: 2 × 100 B × 8 µs.
	if m.ResponseMicros != 1600 {
		t.Errorf("response = %g, want 1600", m.ResponseMicros)
	}
}

func TestGoAndWait(t *testing.T) {
	var order atomic.Int32
	_, err := NewSim(DefaultRates(), testSites).Run("g", func(p Proc) {
		h := p.Go("child", func(p Proc) {
			p.Sink("A").CPU(10) // 5 µs
			order.CompareAndSwap(0, 1)
		})
		p.Sink("B").CPU(2) // 1 µs: finishes before the child
		p.Wait(h)
		order.CompareAndSwap(1, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if order.Load() != 2 {
		t.Errorf("order = %d", order.Load())
	}
}

func TestRealPanicPropagates(t *testing.T) {
	_, err := NewReal(DefaultRates()).Run("boom", func(p Proc) {
		p.Go("child", func(Proc) { panic("child exploded") })
	})
	if err == nil || !strings.Contains(err.Error(), "task child panicked: child exploded") {
		t.Errorf("err = %v", err)
	}
}

func TestSimPanicPropagates(t *testing.T) {
	_, err := NewSim(DefaultRates(), testSites).Run("boom", func(p Proc) {
		panic("sim exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "sim exploded") {
		t.Errorf("err = %v", err)
	}
}

func TestSimUnregisteredSite(t *testing.T) {
	_, err := NewSim(DefaultRates(), testSites).Run("bad", func(p Proc) {
		p.Sink("NOPE").CPU(1)
	})
	if err == nil || !strings.Contains(err.Error(), "unregistered site") {
		t.Errorf("err = %v", err)
	}
}

func TestSimSingleUse(t *testing.T) {
	s := NewSim(DefaultRates(), testSites)
	if _, err := s.Run("a", func(Proc) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("b", func(Proc) {}); err == nil {
		t.Error("second Run accepted")
	}
}

func TestRealRuntimeIsReusable(t *testing.T) {
	rt := NewReal(DefaultRates())
	for i := 0; i < 2; i++ {
		m, err := rt.Run("r", func(p Proc) { p.Sink("A").CPU(1) })
		if err != nil {
			t.Fatal(err)
		}
		if m.CPUOps != 1 {
			t.Errorf("run %d: CPUOps = %d (state leaked)", i, m.CPUOps)
		}
	}
}
