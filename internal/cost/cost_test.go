package cost

import (
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

// TestCounterConcurrent: the shared counter, the one charged from concurrent
// legs, loses no event.
func TestCounterConcurrent(t *testing.T) {
	var c SharedCounter
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

func TestRender(t *testing.T) {
	var b Breakdown
	b.Add("DB2", "P", 250)
	b.Add("DB1", "O", 1000)
	b.Add("DB1", "O", 500)
	b.Add("DB1", "I", 125)

	want := "" +
		"site     phase   measured(ms)\n" +
		"DB1      O              1.500\n" +
		"DB1      I              0.125\n" +
		"DB2      P              0.250\n" +
		"total                   1.875\n"
	if got := b.Render(); got != want {
		t.Errorf("Render =\n%s\nwant\n%s", got, want)
	}
	if rows := b.Rows(); rows[0].Spans != 2 {
		t.Errorf("DB1/O spans = %d, want 2", rows[0].Spans)
	}
	// A nil breakdown renders the header and a zero total.
	var none *Breakdown
	if got := none.Render(); got != "site     phase   measured(ms)\ntotal                   0.000\n" {
		t.Errorf("nil Render = %q", got)
	}
}
