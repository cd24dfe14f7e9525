package antientropy_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/bench"
)

// TestChaosPartitionKillRestart is the live smoke of the protocol: one seed
// of bench.RunChaos, the one chaos rig in the tree, over a WAL-durable TCP
// cluster (its doc comment states the two properties it asserts — certain
// rows under faults ⊆ fault-free certain rows, and bounded convergence back
// to the full, suspect-free answer). The protocol itself is swept seed by
// seed in TestReplicaNetwork; what this file adds is the transport, the
// durable stores and the queries, and that a finished run leaks no goroutine.
func TestChaosPartitionKillRestart(t *testing.T) {
	for _, seed := range []int64{1} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			spec := bench.ChaosSpec{Steps: 40, Seed: seed, MaxConvergenceRounds: 5}
			report, err := bench.RunChaos(spec, t.TempDir(), func(line string) { t.Log(line) })
			if err != nil {
				t.Fatalf("RunChaos(%+v): %v", spec, err)
			}
			if cells, _ := report.Cells.([]bench.ChaosCell); len(cells) != 1 || cells[0].Queries+cells[0].Inserts == 0 {
				t.Errorf("schedule ran no queries or inserts: %+v", report.Cells)
			}

			// RunChaos has shut its cluster down; verify nothing leaked.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline+3 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines did not settle: %d running, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
