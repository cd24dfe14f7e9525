package cost

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.DiskRead(100)
	c.DiskRead(50)
	c.CPU(7)
	if c.DiskBytes() != 150 || c.CPUOps() != 7 {
		t.Errorf("counter = %d/%d", c.DiskBytes(), c.CPUOps())
	}
	c.Reset()
	if c.DiskBytes() != 0 || c.CPUOps() != 0 {
		t.Error("Reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.DiskRead(1)
			c.CPU(2)
		}()
	}
	wg.Wait()
	if c.DiskBytes() != 100 || c.CPUOps() != 200 {
		t.Errorf("concurrent counter = %d/%d", c.DiskBytes(), c.CPUOps())
	}
}

func TestDiscard(t *testing.T) {
	Discard.DiskRead(1 << 30)
	Discard.CPU(1 << 30) // must not panic or accumulate anything
}

func TestRenderColumns(t *testing.T) {
	var a, b, c Breakdown
	a.AddEstimate("DB1", "O", 1000)
	a.AddEstimate("coord", "I", 500)
	b.AddEstimate("DB1", "O", 2000)
	c.Add("DB1", "O", 1500)
	c.Add("DB2", "P", 250)

	out := RenderColumns([]string{"table1", "calibrated", "measured"}, []*Breakdown{&a, &b, &c})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + rows for (DB1,O), (DB2,P), (coord,I) + total.
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "table1(ms)") || !strings.Contains(lines[0], "calibrated(ms)") ||
		!strings.Contains(lines[0], "measured(ms)") {
		t.Errorf("header = %q", lines[0])
	}
	// DB1/O appears in every column; DB2/P only in the measured one.
	if !strings.Contains(lines[1], "1.000") || !strings.Contains(lines[1], "2.000") ||
		!strings.Contains(lines[1], "1.500") {
		t.Errorf("DB1 row = %q", lines[1])
	}
	db2 := lines[2]
	if !strings.Contains(db2, "DB2") || strings.Count(db2, "-") != 2 || !strings.Contains(db2, "0.250") {
		t.Errorf("DB2 row = %q", db2)
	}
	// A nil breakdown renders dashes and a zero total.
	two := RenderColumns([]string{"predicted", "measured"}, []*Breakdown{&a, nil})
	if !strings.Contains(two, "predicted(ms)") || !strings.Contains(two, "measured(ms)") {
		t.Errorf("compare header missing:\n%s", two)
	}
}
