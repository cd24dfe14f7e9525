package antientropy_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/bench"
)

// TestChaosPartitionKillRestart is the chaos acceptance suite: a seed sweep
// through bench.RunChaos, the one chaos rig and schedule in the tree (its
// doc comment states the two safety properties it asserts — certain rows
// under faults ⊆ fault-free certain rows, and bounded convergence back to
// the full, suspect-free answer). Each seed is a subtest named by it, so a
// failure prints the seed that replays the schedule; what this file adds is
// that a finished run leaks no goroutine.
func TestChaosPartitionKillRestart(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
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
