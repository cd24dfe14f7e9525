package remote

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
)

// digestsEqual reports whether two digest snapshots agree on every class.
func digestsEqual(a, b map[string]antientropy.Digest) bool {
	return len(antientropy.DiffClasses(a, b)) == 0
}

// bindAt applies one mapping binding to a single server's replica over the
// wire — the way divergence arises in production (a delta broadcast that
// reached only some replicas).
func bindAt(t *testing.T, srv *Server, d *antientropy.Delta) {
	t.Helper()
	cl := newClient("TEST", CallConfig{}, nil)
	defer cl.close()
	if _, _, err := cl.call(srv.Site(), srv.Addr(), Request{Kind: kindBind, Bind: d}); err != nil {
		t.Fatalf("bind at %s: %v", srv.Site(), err)
	}
}

// TestAntiEntropyConvergesDivergentReplicas: a binding applied at one site
// only (a lost broadcast) must propagate to every peer replica in one
// anti-entropy round from the site that holds it, leaving all digests
// equal.
func TestAntiEntropyConvergesDivergentReplicas(t *testing.T) {
	_, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)

	d := &antientropy.Delta{Class: "Teacher", GOid: "gt900", Site: "DB9", LOid: "t900'"}
	bindAt(t, servers["DB1"], d)
	if digestsEqual(servers["DB1"].Replica().Snapshot(), servers["DB2"].Replica().Snapshot()) {
		t.Fatal("replicas agree before repair; the fixture did not diverge")
	}

	if n := servers["DB1"].RunAntiEntropyRound(context.Background()); n == 0 {
		t.Fatal("round found no divergent classes")
	}
	for _, site := range []object.SiteID{"DB2", "DB3"} {
		tab := servers[site].cfg.Tables.Table("Teacher")
		if loid, ok := tab.LOidAt("gt900", "DB9"); !ok || loid != "t900'" {
			t.Errorf("replica %s after repair: gt900@DB9 = (%q, %v), want (t900', true)", site, loid, ok)
		}
		if !digestsEqual(servers["DB1"].Replica().Snapshot(), servers[site].Replica().Snapshot()) {
			t.Errorf("digests of DB1 and %s still differ after repair", site)
		}
	}
	// A second round finds nothing: the replicas converged.
	if n := servers["DB1"].RunAntiEntropyRound(context.Background()); n != 0 {
		t.Errorf("second round found %d divergent classes, want 0", n)
	}
}

// TestCoordinatorPullsMissingBindings: repair is symmetric — a coordinator
// whose replica is behind the sites (say, restarted from a stale log)
// pulls the bindings the sites kept.
func TestCoordinatorPullsMissingBindings(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)

	d := &antientropy.Delta{Class: "Teacher", GOid: "gt901", Site: "DB9", LOid: "t901'"}
	for _, srv := range servers {
		bindAt(t, srv, d)
	}

	if n := coord.RunAntiEntropyRound(context.Background()); n == 0 {
		t.Fatal("coordinator round found no divergent classes")
	}
	coord.mu.RLock()
	loid, ok := coord.Tables.Table("Teacher").LOidAt("gt901", "DB9")
	coord.mu.RUnlock()
	if !ok || loid != "t901'" {
		t.Fatalf("coordinator after pull: gt901@DB9 = (%q, %v), want (t901', true)", loid, ok)
	}
	if n := coord.RunAntiEntropyRound(context.Background()); n != 0 {
		t.Errorf("second coordinator round found %d divergent classes, want 0", n)
	}
}

// TestAntiEntropyLoopConvergesInBackground: servers configured with an
// anti-entropy cadence repair a lost delta without anyone calling a round
// explicitly.
func TestAntiEntropyLoopConvergesInBackground(t *testing.T) {
	_, cluster := testCluster(t, nil, nil, func(_ object.SiteID, cfg *ServerConfig) {
		cfg.AntiEntropy = AntiEntropyConfig{Interval: 20 * time.Millisecond}
	})
	servers := serversOf(cluster)

	bindAt(t, servers["DB2"], &antientropy.Delta{Class: "Teacher", GOid: "gt902", Site: "DB9", LOid: "t902'"})

	deadline := time.Now().Add(5 * time.Second)
	for {
		if digestsEqual(servers["DB1"].Replica().Snapshot(), servers["DB2"].Replica().Snapshot()) &&
			digestsEqual(servers["DB2"].Replica().Snapshot(), servers["DB3"].Replica().Snapshot()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge within 5s of background anti-entropy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConflictMarksSuspectAndDegradesQueries: contradictory bindings (the
// same GOid bound to different local objects on different replicas) cannot
// be repaired — repair never overwrites. The outvoted replica must mark
// the class suspect, answers touching the class must degrade with a
// divergence failure, and no certain row may be invented.
func TestConflictMarksSuspectAndDegradesQueries(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)

	// DB1 holds gt903→t903'; DB2 and DB3 hold gt903→t999'. DB1 is the
	// minority opinion.
	bindAt(t, servers["DB1"], &antientropy.Delta{Class: "Teacher", GOid: "gt903", Site: "DB9", LOid: "t903'"})
	for _, site := range []object.SiteID{"DB2", "DB3"} {
		bindAt(t, servers[site], &antientropy.Delta{Class: "Teacher", GOid: "gt903", Site: "DB9", LOid: "t999'"})
	}

	servers["DB1"].RunAntiEntropyRound(context.Background())
	sus := servers["DB1"].Replica().Suspects()
	if len(sus) != 1 || sus[0] != "Teacher" {
		t.Fatalf("DB1 suspects after conflicted round = %v, want [Teacher]", sus)
	}

	// Q1's branch classes include Teacher, so the answer must degrade.
	ans, _, err := coord.Query(school.Q1, exec.CA)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded {
		t.Fatal("answer not degraded despite a suspect replica")
	}
	found := false
	for _, f := range ans.Unavailable {
		if f.Site == "DB1" && strings.Contains(f.Reason, "mapping divergence") &&
			strings.Contains(f.Reason, "Teacher") {
			found = true
		}
	}
	if !found {
		t.Errorf("no divergence failure for DB1 in %v", ans.Unavailable)
	}
	// Degradation is advisory: the certain rows are still the fixture's
	// expected certain answer, not contaminated by the conflict.
	if len(ans.Certain) == 0 {
		t.Error("suspect replica emptied the certain answer")
	}
}

// TestMinorityPartitionMarksAllClassesSuspect: a coordinator that can reach
// fewer than half its peers cannot confirm any replica state with a quorum;
// every class must go suspect, and heal + a clean round must clear the
// marks again.
func TestMinorityPartitionMarksAllClassesSuspect(t *testing.T) {
	coord, _ := testCluster(t, nil, observedCoordinator(), observed)

	plan := fabric.NewFaultPlan()
	plan.DropLink("G", "DB2")
	plan.DropLink("G", "DB3")
	coord.Call.Faults = plan

	if n := coord.RunAntiEntropyRound(context.Background()); n != 0 {
		t.Errorf("round across a partition repaired %d classes", n)
	}
	if states := coord.Replica().Suspects(); len(states) == 0 {
		t.Fatal("minority partition left no suspect marks")
	}
	// Suspect marks degrade queries even though the reachable site answers.
	ans, _, err := coord.Query(school.Q1, exec.CA)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded {
		t.Fatal("answer not degraded during minority partition")
	}

	plan.HealLink("G", "DB2")
	plan.HealLink("G", "DB3")
	coord.RunAntiEntropyRound(context.Background())
	if states := coord.Replica().Suspects(); len(states) != 0 {
		t.Errorf("suspect marks survived the heal: %v", states)
	}
}
