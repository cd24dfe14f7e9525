package remote

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/trace"
)

// recorded is the full observability path of a production deployment: a
// tracer, a metrics registry and a flight recorder of the site's own.
func recorded(site object.SiteID, cfg *ServerConfig) {
	observed(site, cfg)
	cfg.Recorder = obs.NewRecorder(obs.RecorderConfig{Site: string(site)})
}

// recordingCoordinator is an observed coordinator with a flight recorder.
func recordingCoordinator() *Coordinator {
	coord := observedCoordinator()
	coord.Recorder = obs.NewRecorder(obs.RecorderConfig{Site: "G"})
	return coord
}

// TestClusterProfileCoversAllSites: a coordinator-side profile of a served
// query must include the spans every participating site shipped back, and
// its Chrome trace export must be valid JSON naming each of them.
func TestClusterProfileCoversAllSites(t *testing.T) {
	coord, _ := testCluster(t, nil, recordingCoordinator(), recorded)

	// CA touches every site from the coordinator; BL reaches DB3 only
	// site-to-site (check traffic), so its spans arrive transitively.
	for _, alg := range []exec.Algorithm{exec.CA, exec.BL} {
		if _, _, err := coord.Query(school.Q1, alg); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		p := coord.Recorder.Last()
		if p == nil {
			t.Fatalf("%v: no profile recorded", alg)
		}
		if p.Status != trace.StatusOK {
			t.Errorf("%v: status = %s", alg, p.Status)
		}
		siteSeen := make(map[string]bool)
		for _, s := range p.Sites {
			siteSeen[string(s)] = true
		}
		for _, site := range []string{"G", "DB1", "DB2", "DB3"} {
			if !siteSeen[site] {
				t.Errorf("%v: profile sites %v missing %s", alg, p.Sites, site)
			}
		}
		if p.Phases.Total() <= 0 {
			t.Errorf("%v: no phase attribution", alg)
		}

		data, err := json.Marshal(p.ChromeTrace())
		if err != nil {
			t.Fatalf("%v: ChromeTrace: %v", alg, err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%v: export is not valid JSON: %v", alg, err)
		}
		named := make(map[string]bool)
		for _, e := range doc.TraceEvents {
			if e.Ph == "M" {
				if n, ok := e.Args["name"].(string); ok {
					named[n] = true
				}
			}
		}
		for _, site := range []string{"G", "DB1", "DB2", "DB3"} {
			if !named[site] {
				t.Errorf("%v: Chrome trace lacks a process for %s", alg, site)
			}
		}
	}
}

// TestClusterSiteRecorders: traced requests leave profiles in the serving
// sites' own flight recorders, not only the coordinator's.
func TestClusterSiteRecorders(t *testing.T) {
	coord, cluster := testCluster(t, nil, recordingCoordinator(), recorded)

	if _, _, err := coord.Query(school.Q1, exec.CA); err != nil {
		t.Fatal(err)
	}
	for site, srv := range serversOf(cluster) {
		eventually(t, fmt.Sprintf("site %s to record a profile for a CA query", site), func() bool {
			return srv.cfg.Recorder.Last() != nil
		})
		p := srv.cfg.Recorder.Last()
		if p == nil || p.ID == "" {
			t.Errorf("site %s profile = %+v", site, p)
		}
	}
}

// TestClusterDegradedProfileRetained: the acceptance scenario — a query that
// degrades mid-flight (a site dies) stays resolvable in the coordinator's
// flight recorder after more than a ring's worth of healthy queries.
func TestClusterDegradedProfileRetained(t *testing.T) {
	const ring = obs.RecorderSize
	coord, cluster := testCluster(t, nil, recordingCoordinator(), recorded)
	coord.Call = fastFail

	// Kill DB3 and run one query: it degrades rather than failing.
	if err := cluster.Server("DB3").Close(); err != nil {
		t.Fatalf("killing DB3: %v", err)
	}
	ans, _, err := coord.Query(school.Q1, exec.BL)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("answer not degraded with DB3 down")
	}
	degraded := coord.Recorder.Last()
	if degraded == nil || degraded.Status != trace.StatusDegraded {
		t.Fatalf("degraded profile = %+v", degraded)
	}

	// Bring DB3 back on its old address so the follow-up traffic is healthy.
	if err := cluster.Restart("DB3"); err != nil {
		t.Fatal(err)
	}

	// Flood with healthy queries past the ring's capacity.
	healthy := 0
	for i := 0; i < ring+8; i++ {
		ans, _, err := coord.Query(school.Q1, exec.BL)
		if err != nil {
			t.Fatalf("healthy query %d: %v", i, err)
		}
		if !ans.Degraded {
			healthy++
		}
	}
	if healthy < ring {
		t.Fatalf("only %d healthy queries completed, need ≥ %d to pressure the ring", healthy, ring)
	}

	got := coord.Recorder.Get(degraded.ID)
	if got == nil {
		t.Fatalf("degraded profile %s evicted after %d healthy queries (ring size %d)",
			degraded.ID, healthy, ring)
	}
	if got.Status != trace.StatusDegraded {
		t.Errorf("retained profile status = %s", got.Status)
	}
	found := false
	for _, s := range got.Unavailable {
		if s == "DB3" {
			found = true
		}
	}
	if !found {
		t.Errorf("retained profile unavailable = %v, want DB3", got.Unavailable)
	}
	// The ring itself stays bounded.
	if n := len(coord.Recorder.Profiles()); n > ring {
		t.Errorf("recorder holds %d profiles, ring size %d", n, ring)
	}
}
