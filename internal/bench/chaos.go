package bench

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
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

// ChaosSpec shapes a chaos run: a WAL-durable school cluster over real TCP
// driven by a seeded random schedule of partitions, heals, site kills,
// restarts, inserts and queries, with anti-entropy repair converging the
// replicas afterwards.
type ChaosSpec struct {
	// Steps is the schedule length.
	Steps int `json:"steps"`
	// Seed roots the schedule; the same seed replays the same chaos.
	Seed int64 `json:"seed"`
	// MaxConvergenceRounds gates the post-heal repair: the run fails if
	// the replicas have not converged within this many full-mesh rounds.
	// One round moves a binding one hop and the repair topology is a
	// complete graph over four replicas, so two rounds suffice in
	// principle; the canonical 5 leaves slack for bindings parked on a
	// replica that was restarted mid-round.
	MaxConvergenceRounds int `json:"max_convergence_rounds"`
}

// ChaosCell is a chaos run's one cell: the schedule's composition and the
// invariants' measurements. The wall clock is machine-dependent; the gates
// are the run's own invariants — zero certain-answer violations and bounded
// convergence — so the report is CI-safe without a cross-run baseline.
type ChaosCell struct {
	// Schedule composition.
	Queries    int `json:"queries"`
	Inserts    int `json:"inserts"`
	Partitions int `json:"partitions"`
	Heals      int `json:"heals"`
	Kills      int `json:"kills"`
	Restarts   int `json:"restarts"`
	Repairs    int `json:"repairs"`

	// CertainViolations counts certain rows returned under faults that
	// contradict the fault-free ground truth. The gate: always 0.
	CertainViolations int `json:"certain_violations"`
	// ConvergenceRounds is how many post-heal repair rounds the replicas
	// needed to agree on every digest. Gated by MaxConvergenceRounds.
	ConvergenceRounds int `json:"convergence_rounds"`
	// RepairedBindings and RepairBytes total the anti-entropy repair work
	// across every replica (coordinator included) over the whole run.
	RepairedBindings int64 `json:"repaired_bindings"`
	RepairBytes      int64 `json:"repair_bytes"`

	WallMillis float64 `json:"wall_ms"`
}

// chaosCall is the rig's call policy: one attempt and tight timeouts, so a
// partitioned or dead peer degrades the operation promptly.
func chaosCall(plan *fabric.FaultPlan) remote.CallConfig {
	return remote.CallConfig{
		Attempts:         1,
		DialTimeout:      time.Second,
		CallTimeout:      5 * time.Second,
		BreakerThreshold: 0,
		Faults:           plan,
	}
}

// RunChaos executes the chaos schedule and gates itself on the two safety
// properties the anti-entropy subsystem owes the paper's semantics:
//
//	(a) no certain answer ever contradicts the ground truth — under any
//	    fault pattern the certain rows are a subset of the fault-free
//	    certain answer (degradation moves rows to maybe, never invents
//	    certainty);
//	(b) once the network heals and every site is back, the replicas
//	    converge within spec.MaxConvergenceRounds full-mesh repair rounds,
//	    the full answer returns row for row, and no replica is left
//	    suspecting a class.
//
// It is the one chaos rig and schedule in the tree: hetbench's chaos topic
// and the antientropy chaos suite both run it. The schedule is
// deterministic in spec.Seed, so a failure reproduces. Everything it starts
// is shut down before it returns. progress, when non-nil, receives one line
// per phase.
func RunChaos(spec ChaosSpec, dir string, progress func(string)) (*Report, error) {
	report := newReport("chaos", spec.Seed, spec)
	var cell ChaosCell
	say := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	ctx := context.Background()
	start := time.Now()

	fx := school.New()
	deltaLog, gtables, err := wal.OpenLog(wal.Options{Dir: filepath.Join(dir, "G"), Site: "G"})
	if err != nil {
		return nil, err
	}
	defer deltaLog.Close()
	if err := deltaLog.Import(nil, fx.Mapping); err != nil {
		return nil, err
	}
	matcher := isomer.NewMatcher(fx.Global)
	if err := matcher.Adopt(fx.Databases, gtables); err != nil {
		return nil, err
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
		return nil, err
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
		return nil, fmt.Errorf("bench: ground-truth query: %w", err)
	}
	if truth.Degraded || len(truth.Certain) == 0 {
		return nil, fmt.Errorf("bench: fault-free baseline degraded or empty: %d certain, unavailable %v",
			len(truth.Certain), truth.Unavailable)
	}
	truthCertain := make(map[string]bool, len(truth.Certain))
	for _, row := range truth.Certain {
		truthCertain[row.String()] = true
	}
	say("ground truth: %d certain, %d maybe", len(truth.Certain), len(truth.Maybe))

	algs := []exec.Algorithm{exec.CA, exec.BL, exec.PL}
	splits := [][2][]object.SiteID{
		{{"G", "DB1"}, {"DB2", "DB3"}},
		{{"G", "DB1", "DB2"}, {"DB3"}},
		{{"G"}, {"DB1", "DB2", "DB3"}},
		{{"G", "DB3"}, {"DB1", "DB2"}},
	}
	var (
		partitioned bool
		dead        []object.SiteID
	)
	for step := 0; step < spec.Steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			alg := algs[rng.Intn(len(algs))]
			ans, _, err := coord.Query(school.Q1, alg)
			if err != nil {
				return nil, fmt.Errorf("bench: step %d: query(%v) failed hard: %w", step, alg, err)
			}
			cell.Queries++
			for _, row := range ans.Certain {
				if !truthCertain[row.String()] {
					cell.CertainViolations++
					say("step %d: VIOLATION: %v certain row %q not in ground truth", step, alg, row)
				}
			}
		case op < 5:
			live := cluster.Sites()
			site := live[rng.Intn(len(live))]
			if site == "DB3" {
				site = "DB1" // keep chaos inserts on the uniform Teacher shape
			}
			cell.Inserts++
			o := object.New(object.LOid(fmt.Sprintf("tc%03d'", cell.Inserts)), "Teacher",
				map[string]object.Value{"name": object.Str(fmt.Sprintf("Chaos%03d", cell.Inserts))})
			_, _ = coord.Insert(site, o) // partial failure is repair's job
		case op < 7:
			if partitioned {
				plan.HealPartitions()
				partitioned = false
				cell.Heals++
			} else {
				split := splits[rng.Intn(len(splits))]
				plan.Partition(fabric.Partition{A: split[0], B: split[1]})
				partitioned = true
				cell.Partitions++
			}
		case op < 8:
			if len(dead) > 0 {
				site := dead[0]
				dead = dead[1:]
				if err := cluster.Restart(site); err != nil {
					return nil, err
				}
				cell.Restarts++
			} else if live := cluster.Sites(); len(live) > 2 {
				site := live[rng.Intn(len(live))]
				_ = cluster.Kill(site)
				dead = append(dead, site)
				cell.Kills++
			}
		case op < 9:
			repairRound()
			cell.Repairs++
		default:
			_ = coord.Ping()
		}
	}
	say("schedule done: %d queries, %d inserts, %d partitions, %d kills",
		cell.Queries, cell.Inserts, cell.Partitions, cell.Kills)

	// Heal, restart, converge.
	plan.HealPartitions()
	for _, site := range dead {
		if err := cluster.Restart(site); err != nil {
			return nil, err
		}
		cell.Restarts++
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
		if rounds >= spec.MaxConvergenceRounds {
			return nil, fmt.Errorf("bench: replicas did not converge within %d repair rounds",
				spec.MaxConvergenceRounds)
		}
	}
	cell.ConvergenceRounds = rounds
	say("converged after %d repair rounds", rounds)

	final, _, err := coord.Query(school.Q1, exec.CA)
	if err != nil {
		return nil, fmt.Errorf("bench: final query: %w", err)
	}
	if final.Degraded {
		return nil, fmt.Errorf("bench: final answer degraded after convergence: %v", final.Unavailable)
	}
	if got, want := fmt.Sprint(final.Certain), fmt.Sprint(truth.Certain); got != want || len(final.Maybe) != len(truth.Maybe) {
		return nil, fmt.Errorf("bench: final answer (certain %s, %d maybe) differs from ground truth (certain %s, %d maybe)",
			got, len(final.Maybe), want, len(truth.Maybe))
	}
	for _, site := range cluster.Sites() {
		if sus := cluster.Server(site).Replica().Suspects(); len(sus) != 0 {
			return nil, fmt.Errorf("bench: site %s still suspects %v after convergence", site, sus)
		}
	}
	stats := coord.Replica().Stats()
	if len(stats.Suspects) != 0 {
		return nil, fmt.Errorf("bench: coordinator still suspects %v after convergence", stats.Suspects)
	}
	cell.RepairedBindings = int64(stats.RepairedBindings)
	cell.RepairBytes = int64(stats.RepairedBytes)
	for _, site := range cluster.Sites() {
		s := cluster.Server(site).Replica().Stats()
		cell.RepairedBindings += int64(s.RepairedBindings)
		cell.RepairBytes += int64(s.RepairedBytes)
	}
	cell.WallMillis = float64(time.Since(start).Microseconds()) / 1e3
	report.Cells = []ChaosCell{cell}
	if cell.CertainViolations > 0 {
		return report, fmt.Errorf("bench: %d certain rows contradicted ground truth under faults",
			cell.CertainViolations)
	}
	return report, nil
}
