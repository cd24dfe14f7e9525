package antientropy_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store/wal"
)

// partition applies link to every link between the split's two sides, both
// ways: DropLink cuts the partition, HealLink heals it.
func partition(plan *fabric.FaultPlan, split [2][]object.SiteID, link func(*fabric.FaultPlan, object.SiteID, object.SiteID) *fabric.FaultPlan) {
	for _, a := range split[0] {
		for _, b := range split[1] {
			link(plan, a, b)
			link(plan, b, a)
		}
	}
}

// chaosCall is the rig's call policy: tight timeouts, so a partitioned or
// dead peer degrades the operation promptly.
func chaosCall(plan *fabric.FaultPlan) remote.CallConfig {
	return remote.CallConfig{
		DialTimeout: time.Second,
		CallTimeout: 5 * time.Second,
		Faults:      plan,
	}
}

// TestChaosPartitionKillRestart is the live chaos suite of the protocol: a
// WAL-durable school cluster over real TCP, driven by a seeded random
// schedule of partitions, heals, site kills, restarts, inserts and queries,
// with anti-entropy repair converging the replicas afterwards. Each row is
// held to the two safety properties the anti-entropy subsystem owes the
// paper's semantics:
//
//	(a) no certain answer ever contradicts the ground truth — under any
//	    fault pattern the certain rows are a subset of the fault-free
//	    certain answer (degradation moves rows to maybe, never invents
//	    certainty);
//	(b) once the network heals and every site is back, the replicas
//	    converge within maxConvergenceRounds full-mesh repair rounds, the
//	    full answer returns row for row, and no replica is left suspecting
//	    a class.
//
// The schedule is deterministic in the seed, so a failure reproduces, and a
// finished row leaks no goroutine. The protocol itself is swept seed by seed
// in TestReplicaNetwork; what this suite adds is the transport, the durable
// stores and the queries.
func TestChaosPartitionKillRestart(t *testing.T) {
	for _, row := range []struct {
		seed  int64
		steps int
	}{
		{seed: 1, steps: 40},
		{seed: 42, steps: 60},
	} {
		t.Run(fmt.Sprintf("seed=%d", row.seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			runChaos(t, row.seed, row.steps)

			// runChaos has shut its cluster down; verify nothing leaked.
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

// maxConvergenceRounds bounds the post-heal repair. One round moves a
// binding one hop and the repair topology is a complete graph over four
// replicas, so two rounds suffice in principle; 5 leaves slack for bindings
// parked on a replica that was restarted mid-round.
const maxConvergenceRounds = 5

// runChaos runs one chaos schedule and fails t on any broken property. It
// shuts down everything it starts before it returns.
func runChaos(t *testing.T, seed int64, steps int) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	fx := school.New()
	deltaLog, gtables, err := wal.OpenLog(wal.Options{Dir: filepath.Join(dir, "G"), Site: "G"})
	if err != nil {
		t.Fatal(err)
	}
	defer deltaLog.Close()
	if err := deltaLog.Import(nil, fx.Mapping); err != nil {
		t.Fatal(err)
	}
	matcher := isomer.NewMatcher(fx.Global)
	if err := matcher.Adopt(fx.Databases, gtables); err != nil {
		t.Fatal(err)
	}
	// The cluster under chaos: the durable school cluster and its
	// coordinator, all on one fault plan.
	plan := fabric.NewFaultPlan()
	coord := &remote.Coordinator{
		Tables:   matcher.Tables(),
		Matcher:  matcher,
		DeltaLog: deltaLog,
		Metrics:  metrics.New(),
		Call:     chaosCall(plan),
	}
	cluster, err := remote.StartCluster(remote.ClusterConfig{
		Federation: &fedfile.Federation{Global: fx.Global, Databases: fx.Databases, Tables: fx.Mapping},
		DataDir:    dir,
		Configure: func(_ object.SiteID, cfg *remote.ServerConfig) {
			cfg.Metrics = metrics.New()
			cfg.Faults, cfg.Call = plan, chaosCall(plan)
		},
		Coordinator: coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	repairRound := func() {
		for _, site := range cluster.Sites() {
			cluster.Server(site).RunAntiEntropyRound(ctx)
		}
		coord.RunAntiEntropyRound(ctx)
	}
	converged := func() bool {
		want := coord.Replica().Snapshot()
		for _, site := range cluster.Sites() {
			if len(antientropy.DiffClasses(want, cluster.Server(site).Replica().Snapshot())) != 0 {
				return false
			}
		}
		return true
	}

	truth, _, err := coord.Query(school.Q1, exec.CA)
	if err != nil {
		t.Fatalf("ground-truth query: %v", err)
	}
	if truth.Degraded || len(truth.Certain) == 0 {
		t.Fatalf("fault-free baseline degraded or empty: %d certain, unavailable %v",
			len(truth.Certain), truth.Unavailable)
	}
	truthCertain := make(map[string]bool, len(truth.Certain))
	for _, row := range truth.Certain {
		truthCertain[row.String()] = true
	}
	t.Logf("ground truth: %d certain, %d maybe", len(truth.Certain), len(truth.Maybe))

	algs := []exec.Algorithm{exec.CA, exec.BL, exec.PL}
	splits := [][2][]object.SiteID{
		{{"G", "DB1"}, {"DB2", "DB3"}},
		{{"G", "DB1", "DB2"}, {"DB3"}},
		{{"G"}, {"DB1", "DB2", "DB3"}},
		{{"G", "DB3"}, {"DB1", "DB2"}},
	}
	var (
		split [2][]object.SiteID // the partition in place, if any
		dead  []object.SiteID
		// The schedule's composition.
		queries, inserts, partitions, heals, kills, restarts, repairs int
	)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			alg := algs[rng.Intn(len(algs))]
			ans, _, err := coord.Query(school.Q1, alg)
			if err != nil {
				t.Fatalf("step %d: query(%v) failed hard: %v", step, alg, err)
			}
			queries++
			for _, row := range ans.Certain {
				if !truthCertain[row.String()] {
					t.Errorf("step %d: %v certain row %q not in ground truth", step, alg, row)
				}
			}
		case op < 5:
			live := cluster.Sites()
			site := live[rng.Intn(len(live))]
			if site == "DB3" {
				site = "DB1" // keep chaos inserts on the uniform Teacher shape
			}
			inserts++
			o := object.New(object.LOid(fmt.Sprintf("tc%03d'", inserts)), "Teacher",
				map[string]object.Value{"name": object.Str(fmt.Sprintf("Chaos%03d", inserts))})
			_, _ = coord.Insert(site, o) // partial failure is repair's job
		case op < 7:
			if split[0] != nil {
				partition(plan, split, (*fabric.FaultPlan).HealLink)
				split = [2][]object.SiteID{}
				heals++
			} else {
				split = splits[rng.Intn(len(splits))]
				partition(plan, split, (*fabric.FaultPlan).DropLink)
				partitions++
			}
		case op < 8:
			if len(dead) > 0 {
				site := dead[0]
				dead = dead[1:]
				if err := cluster.Restart(site); err != nil {
					t.Fatal(err)
				}
				restarts++
			} else if live := cluster.Sites(); len(live) > 2 {
				site := live[rng.Intn(len(live))]
				_ = cluster.Kill(site)
				dead = append(dead, site)
				kills++
			}
		case op < 9:
			repairRound()
			repairs++
		default:
			_ = coord.Ping()
		}
	}

	// Heal, restart, converge.
	partition(plan, split, (*fabric.FaultPlan).HealLink)
	for _, site := range dead {
		if err := cluster.Restart(site); err != nil {
			t.Fatal(err)
		}
		restarts++
	}
	t.Logf("schedule: %d queries, %d inserts, %d partitions, %d heals, %d kills, %d restarts, %d repair rounds",
		queries, inserts, partitions, heals, kills, restarts, repairs)
	if queries+inserts == 0 {
		t.Error("schedule ran no queries or inserts")
	}
	_ = coord.Ping()
	// At least one post-heal round always runs: a clean quorum round is
	// what clears suspect marks left over from partition-era exchanges,
	// even when the digests already agree.
	rounds := 0
	for {
		repairRound()
		rounds++
		if converged() {
			break
		}
		if rounds >= maxConvergenceRounds {
			t.Fatalf("replicas did not converge within %d repair rounds", maxConvergenceRounds)
		}
	}

	final, _, err := coord.Query(school.Q1, exec.CA)
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	if final.Degraded {
		t.Fatalf("final answer degraded after convergence: %v", final.Unavailable)
	}
	if got, want := fmt.Sprint(final.Certain), fmt.Sprint(truth.Certain); got != want || len(final.Maybe) != len(truth.Maybe) {
		t.Fatalf("final answer (certain %s, %d maybe) differs from ground truth (certain %s, %d maybe)",
			got, len(final.Maybe), want, len(truth.Maybe))
	}
	stats := coord.Replica().Stats()
	if len(stats.Suspects) != 0 {
		t.Fatalf("coordinator still suspects %v after convergence", stats.Suspects)
	}
	repaired, repairBytes := stats.RepairedBindings, stats.RepairedBytes
	for _, site := range cluster.Sites() {
		s := cluster.Server(site).Replica().Stats()
		if len(s.Suspects) != 0 {
			t.Fatalf("site %s still suspects %v after convergence", site, s.Suspects)
		}
		repaired += s.RepairedBindings
		repairBytes += s.RepairedBytes
	}
	t.Logf("converged after %d repair rounds; %d bindings, %d bytes repaired over the run",
		rounds, repaired, repairBytes)
}
