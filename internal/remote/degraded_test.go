package remote

import (
	"strings"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
)

// fastFail is a call policy for tests that kill sites: timeouts tighter than
// DefaultCallConfig's, so a call to a dead or wedged site fails fast.
var fastFail = CallConfig{
	DialTimeout: time.Second,
	CallTimeout: 5 * time.Second,
}

func goids(rows []federation.ResultRow) []object.GOid {
	out := make([]object.GOid, len(rows))
	for i, r := range rows {
		out[i] = r.GOid
	}
	return out
}

func sameGOids(got []object.GOid, want ...object.GOid) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func unavailableSites(ans *federation.Answer) []object.SiteID {
	out := make([]object.SiteID, len(ans.Unavailable))
	for i, f := range ans.Unavailable {
		out[i] = f.Site
	}
	return out
}

// TestClusterDegradedAssistantSiteDown kills DB3 — the site holding the
// teachers' specialities — and runs Q1 under every strategy. The query must
// not fail: what DB3 would have certified or eliminated stays maybe. Under
// every strategy the answer collapses to the same degraded shape: no
// certain rows, and gs2, gs3, gs4 maybe (gs3 can no longer be eliminated,
// gs4 can no longer be certified).
func TestClusterDegradedAssistantSiteDown(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	coord.Call = fastFail
	defer coord.Close()
	if err := servers["DB3"].Close(); err != nil {
		t.Fatalf("killing DB3: %v", err)
	}

	for _, alg := range exec.AllAlgorithms() {
		ans, _, err := coord.Query(school.Q1, alg)
		if err != nil {
			t.Fatalf("%v: query failed instead of degrading: %v", alg, err)
		}
		if !ans.Degraded {
			t.Fatalf("%v: answer not marked degraded", alg)
		}
		downs := unavailableSites(ans)
		found := false
		for _, s := range downs {
			if s == "DB3" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: DB3 missing from unavailable sites %v", alg, downs)
		}
		if len(ans.Certain) != 0 {
			t.Errorf("%v: certain = %v, want none (nothing certifies without DB3)", alg, ans.Certain)
		}
		if got := goids(ans.Maybe); !sameGOids(got, "gs2", "gs3", "gs4") {
			t.Errorf("%v: maybe = %v, want [gs2 gs3 gs4]", alg, got)
		}
		for _, r := range ans.Maybe {
			if r.GOid == "gs4" {
				if len(r.Unknown) != 1 || r.Unknown[0] != 2 {
					t.Errorf("%v: gs4 unknown = %v, want [2] (speciality only)", alg, r.Unknown)
				}
			}
		}
	}
}

// TestClusterDegradedRootSiteDown kills DB2 — a root site of Student. The
// students stored only there (gs4, gs5) cannot be read at all; the paper's
// semantics still apply: what cannot be read cannot be eliminated, so they
// come back as synthesized all-unknown maybe rows instead of silently
// vanishing from the answer.
func TestClusterDegradedRootSiteDown(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	coord.Call = fastFail
	defer coord.Close()
	if err := servers["DB2"].Close(); err != nil {
		t.Fatalf("killing DB2: %v", err)
	}

	for _, alg := range exec.AllAlgorithms() {
		ans, _, err := coord.Query(school.Q1, alg)
		if err != nil {
			t.Fatalf("%v: query failed instead of degrading: %v", alg, err)
		}
		if !ans.Degraded {
			t.Fatalf("%v: answer not marked degraded", alg)
		}
		if len(ans.Certain) != 0 {
			t.Errorf("%v: certain = %v, want none", alg, ans.Certain)
		}
		// SBL/SPL still eliminate gs1 through DB2's signature: derived data
		// held at the live sites stays readable evidence after DB2 dies.
		want := []object.GOid{"gs1", "gs2", "gs4", "gs5"}
		if alg == exec.SBL || alg == exec.SPL {
			want = []object.GOid{"gs2", "gs4", "gs5"}
		}
		if got := goids(ans.Maybe); !sameGOids(got, want...) {
			t.Errorf("%v: maybe = %v, want %v", alg, got, want)
		}
		// gs4 and gs5 exist only at DB2: their rows are synthesized with
		// every predicate unknown and no readable target values.
		for _, r := range ans.Maybe {
			if r.GOid != "gs4" && r.GOid != "gs5" {
				continue
			}
			if len(r.Unknown) != 3 {
				t.Errorf("%v: %s unknown = %v, want all 3 predicates", alg, r.GOid, r.Unknown)
			}
			for _, v := range r.Targets {
				if !v.IsNull() {
					t.Errorf("%v: %s has a non-null target %v from a dead site", alg, r.GOid, v)
				}
			}
		}
	}
}

// TestClusterDegradedMetrics: a degraded query is visible on the
// coordinator's registry — the unavailability and the degradation are both
// counted.
func TestClusterDegradedMetrics(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	coord.Call = fastFail
	defer coord.Close()
	servers["DB3"].Close()

	if _, _, err := coord.Query(school.Q1, exec.BL); err != nil {
		t.Fatal(err)
	}
	snap := coord.Metrics.Snapshot()
	if n := snap.CounterValue("degraded_queries_total", metrics.Labels{Site: "G", Alg: "BL"}); n != 1 {
		t.Errorf("degraded_queries_total = %d, want 1", n)
	}
	// Under BL the coordinator only talks to the root sites; DB3's
	// unavailability is observed by the sites dispatching checks to it, so
	// the counter lives on their registries.
	var observed int64
	for _, site := range []object.SiteID{"DB1", "DB2"} {
		s := servers[site].cfg.Metrics.Snapshot()
		observed += s.CounterValue("site_unavailable_total",
			metrics.Labels{Site: string(site), Peer: "DB3", Alg: "BL"})
	}
	if observed < 1 {
		t.Errorf("site_unavailable_total as observed by the root sites = %d, want >= 1", observed)
	}
}

// TestPingReportsAllDeadSites: the parallel ping names every unreachable
// site in one aggregate error, not just the first.
func TestPingReportsAllDeadSites(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	coord.Call = fastFail
	defer coord.Close()
	servers["DB1"].Close()
	servers["DB3"].Close()

	err := coord.Ping()
	if err == nil {
		t.Fatal("ping of a two-thirds-dead cluster succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"DB1", "DB3"} {
		if !strings.Contains(msg, "site "+want+" unreachable") {
			t.Errorf("ping error does not name %s: %v", want, msg)
		}
	}
	if strings.Contains(msg, "site DB2 unreachable") {
		t.Errorf("ping error names the live site DB2: %v", msg)
	}
}

// TestInsertBroadcastsToAllReplicas: with one replica down, the insert
// still updates every live replica, reports the stale one, and counts it.
func TestInsertBroadcastsToAllReplicas(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	coord.Call = fastFail
	defer coord.Close()

	fx := school.New()
	matcher := isomer.NewMatcher(coord.Global)
	if err := matcher.Adopt(fx.Databases, coord.Tables.Clone()); err != nil {
		t.Fatal(err)
	}
	coord.Matcher = matcher
	coord.Tables = matcher.Tables()

	servers["DB3"].Close()

	// DB2 stores the object; DB1 (live) and DB3 (dead) are replicas.
	goid, err := coord.Insert("DB2", object.New("t9'", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"), "speciality": object.Str("database"),
	}))
	if err == nil {
		t.Fatal("insert with a dead replica reported no staleness")
	}
	if goid != "gt3" {
		t.Errorf("insert GOid = %s, want gt3 (binding happened despite the stale replica)", goid)
	}
	if !strings.Contains(err.Error(), "replica at DB3 is stale") {
		t.Errorf("error does not name the stale replica: %v", err)
	}
	if strings.Contains(err.Error(), "replica at DB1") {
		t.Errorf("error names the live replica DB1: %v", err)
	}
	snap := coord.Metrics.Snapshot()
	if n := snap.CounterValue("replica_stale_total", metrics.Labels{Site: "G", Peer: "DB3"}); n != 1 {
		t.Errorf("replica_stale_total = %d, want 1", n)
	}

	// The live replicas did get the delta: Q1 through DB1 and DB2 resolves
	// Tony's speciality predicate via the new assistant. (DB3 is dead, so
	// the answer is degraded, but the address check now dispatches through
	// the updated mapping.)
	ans, _, err := coord.Query(school.Q1, exec.BL)
	if err != nil {
		t.Fatalf("query after insert: %v", err)
	}
	if !ans.Degraded {
		t.Error("answer after killing DB3 not degraded")
	}
}
