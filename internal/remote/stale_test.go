package remote

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/store/wal"
)

// served is the number of requests a site has counted so far. A request is
// counted after its response is on the wire, so when a call returns, the
// registry may not have it yet.
func served(srv *Server) int64 {
	return srv.cfg.Metrics.Snapshot().Sum("requests_total")
}

// settled waits until every server's count has held still for 20 ms — what
// ran before is then all counted — and returns the counts.
func settled(servers map[object.SiteID]*Server) map[object.SiteID]int64 {
	counts := make(map[object.SiteID]int64, len(servers))
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(time.Millisecond)
		for site, srv := range servers {
			if n := served(srv); n != counts[site] {
				counts[site], quiet = n, 0
			}
		}
	}
	return counts
}

// digestsSent is the number of digest exchanges the coordinator has opened —
// counted before the call returns, so exact the moment Ping or a round does.
func digestsSent(coord *Coordinator) int64 {
	return coord.Metrics.Snapshot().Sum("antientropy_exchanges_total")
}

// assertPeerConverged holds a site's replica to the coordinator's: it has
// every binding the coordinator holds, their digests are equal, and the
// coordinator neither marks the site stale nor reports anything unhealthy.
func assertPeerConverged(t *testing.T, coord *Coordinator, peer *Server) {
	t.Helper()
	site := peer.Site()
	lacking, first := 0, ""
	coord.mu.RLock()
	peer.stateMu.RLock()
	for _, class := range coord.Tables.Classes() {
		mine, theirs := coord.Tables.Table(class), peer.cfg.Tables.Table(class)
		for _, goid := range mine.GOids() {
			for _, loc := range mine.Locations(goid) {
				if !theirs.Bound(goid, loc.Site, loc.LOid) {
					if lacking++; lacking == 1 {
						first = fmt.Sprintf("%s: %s -> %s@%s", class, goid, loc.LOid, loc.Site)
					}
				}
			}
		}
	}
	peer.stateMu.RUnlock()
	coord.mu.RUnlock()
	if lacking > 0 {
		t.Errorf("%s lacks %d of the coordinator's bindings, the first %s", site, lacking, first)
	}
	if !digestsEqual(coord.Tracker().Snapshot(), peer.DigestSnapshot()) {
		t.Errorf("digests of G and %s differ", site)
	}
	if coord.replica().isStale(site) {
		t.Errorf("%s converged but is still marked stale", site)
	}
	if state := coord.Tracker().Health()["state"]; !obs.Healthy(state) || len(coord.DivergenceStates()) != 0 {
		t.Errorf("coordinator health after convergence: %q, suspects %v", state, coord.DivergenceStates())
	}
}

// assertQuietPing: a Ping of a cluster with no stale mark sends one request
// per site and nothing else.
func assertQuietPing(t *testing.T, coord *Coordinator, servers map[object.SiteID]*Server) {
	t.Helper()
	before := settled(servers)
	digests := digestsSent(coord)
	if err := coord.Ping(); err != nil {
		t.Fatalf("ping of the converged cluster: %v", err)
	}
	if got := digestsSent(coord) - digests; got != 0 {
		t.Errorf("a ping of the converged cluster opened %d digest exchanges, want none", got)
	}
	for site, after := range settled(servers) {
		if got := after - before[site]; got != 1 {
			t.Errorf("%s served %d requests for a ping of the converged cluster, want the one ping", site, got)
		}
	}
}

// staleCase is one way a site's replica falls behind the coordinator's.
type staleCase struct {
	name   string
	missed int // bind broadcasts DB3 misses
	// How DB3 misses them: "cut" (its link to G is cut, then healed),
	// "restart" (it is down, then restarts from its data directory) or
	// "fresh" (it is down, then revived with a replica that never saw them).
	peer     string
	deltaLog bool // the coordinator logs its bindings (wal.OpenLog)
	// The coordinator itself restarts over the recovered tables before
	// anything converges: the stale marks are gone, the bindings are not.
	restartCoordinator bool
}

// staleRig is the cluster TestStaleReplicaConverges drives — on WALs when
// the case restarts DB3 from its data directory — and a coordinator that is
// the mapping authority.
type staleRig struct {
	t       *testing.T
	root    string
	plan    *fabric.FaultPlan
	cluster *Cluster
	coord   *Coordinator
	log     *wal.Engine // the coordinator's delta log, when it has one
}

func (rig *staleRig) close() {
	rig.coord.Close() // a restarted coordinator is not the cluster's
	rig.cluster.Close()
	if rig.log != nil {
		rig.log.Close()
	}
}

// startStaleRig boots the cluster. With a delta log the coordinator runs over
// what the log under <root>/G recovers, seeded from the fixture on first use.
func startStaleRig(t *testing.T, c staleCase) *staleRig {
	t.Helper()
	fed := schoolFed()
	rig := &staleRig{t: t, root: t.TempDir(), plan: fabric.NewFaultPlan()}
	rig.coord = &Coordinator{Metrics: metrics.New(), Call: fastFail}
	rig.coord.Call.Faults = rig.plan
	tables := fed.Tables.Clone()
	if c.deltaLog {
		log, recovered, err := wal.OpenLog(wal.Options{Dir: filepath.Join(rig.root, "G"), Site: "G"})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Import(nil, tables); err != nil {
			t.Fatal(err)
		}
		rig.log, rig.coord.DeltaLog, tables = log, log, recovered
	}
	matcher := isomer.NewMatcher(fed.Global)
	if err := matcher.Adopt(fed.Databases, tables); err != nil {
		t.Fatal(err)
	}
	rig.coord.Matcher, rig.coord.Tables = matcher, matcher.Tables()
	cfg := ClusterConfig{Federation: fed, Coordinator: rig.coord, Configure: func(site object.SiteID, cfg *ServerConfig) {
		observed(site, cfg)
		cfg.Faults = rig.plan
	}}
	if c.peer == "restart" {
		cfg.DataDir = rig.root
	}
	var err error
	if rig.cluster, err = StartCluster(cfg); err != nil {
		t.Fatal(err)
	}
	return rig
}

// miss makes DB3 miss c.missed bind broadcasts the way the case says.
func (rig *staleRig) miss(c staleCase) {
	t := rig.t
	t.Helper()
	if c.peer == "cut" {
		rig.plan.DropLink("G", "DB3")
	} else {
		rig.cluster.Server("DB3").Close() // down, still wired
	}
	for i := 0; i < c.missed; i++ {
		_, err := rig.coord.Insert("DB2", object.New(object.LOid(fmt.Sprintf("tx%03d'", i)), "Teacher",
			map[string]object.Value{"name": object.Str(fmt.Sprintf("Stale%03d", i))}))
		if err == nil {
			t.Fatalf("insert %d with DB3 out of reach reported no stale replica", i)
		}
	}
	if !rig.coord.replica().isStale("DB3") {
		t.Fatal("DB3 missed a broadcast and is not marked stale")
	}
	if stale := rig.coord.Metrics.Snapshot().CounterValue("replica_stale_total", metrics.Labels{Site: "G", Peer: "DB3"}); stale != int64(c.missed) {
		t.Errorf("replica_stale_total = %d, want %d", stale, c.missed)
	}
	if c.peer == "cut" {
		rig.plan.HealLink("G", "DB3")
	} else {
		if err := rig.cluster.Restart("DB3"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleReplicaConverges is the one table over the one path by which a
// replica that missed bindings gets them: the peer's digest exchange, run by
// the Ping that finds the peer marked or by a repair round. However the
// bindings were missed and however many, afterwards the peer holds every one,
// it served one digest and one repair per divergent class for that — not a
// round trip per binding — the mark is gone, and a further Ping is a ping.
func TestStaleReplicaConverges(t *testing.T) {
	cases := []staleCase{
		{name: "1 missed binding", missed: 1, peer: "cut"},
		// More than the 256 a pending-delta queue used to hold: without a log
		// the overflow was dropped and the peer marked needs-rebuild for good.
		{name: "300 missed bindings", missed: 300, peer: "cut"},
		{name: "300 missed bindings, logged", missed: 300, peer: "cut", deltaLog: true},
		{name: "peer restarted from its data directory", missed: 3, peer: "restart", deltaLog: true},
		{name: "peer revived with a fresh replica", missed: 3, peer: "fresh"},
		// What the sites missed is in the recovered tables, not in anything
		// the old process remembered, so a round finds it. (A Ping of the new
		// process has no mark to act on and is only a ping.)
		{name: "coordinator restarted from its log", missed: 3, peer: "cut", deltaLog: true, restartCoordinator: true},
	}
	modes := map[string]func(*testing.T, *Coordinator){
		"Ping": func(t *testing.T, coord *Coordinator) {
			if err := coord.Ping(); err != nil {
				t.Fatalf("ping of the healed cluster: %v", err)
			}
		},
		"RunAntiEntropyRound": func(_ *testing.T, coord *Coordinator) { coord.RunAntiEntropyRound(context.Background()) },
	}
	for _, c := range cases {
		for mode, converge := range modes {
			if c.restartCoordinator && mode == "Ping" {
				continue
			}
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				rig := startStaleRig(t, c)
				defer rig.close()
				rig.miss(c)
				if c.restartCoordinator {
					sites := rig.coord.Sites
					rig.coord.Close()
					rig.log.Close()
					log, recovered, err := wal.OpenLog(wal.Options{Dir: filepath.Join(rig.root, "G"), Site: "G"})
					if err != nil {
						t.Fatal(err)
					}
					rig.log = log
					rig.coord = &Coordinator{ID: "G", Global: rig.coord.Global, Tables: recovered, Sites: sites,
						DeltaLog: log, Metrics: metrics.New(), Call: fastFail}
				}

				peer := rig.cluster.Server("DB3")
				divergent := len(antientropy.DiffClasses(rig.coord.Tracker().Snapshot(), peer.DigestSnapshot()))
				if divergent == 0 {
					t.Fatal("DB3 did not fall behind; the case staged nothing")
				}
				before := settled(serversOf(rig.cluster))["DB3"]
				converge(t, rig.coord)

				assertPeerConverged(t, rig.coord, peer)
				// One digest plus one repair per divergent class, and the ping
				// when it was a Ping that ran them.
				most := int64(1 + divergent)
				if mode == "Ping" {
					most++
				}
				if got := settled(serversOf(rig.cluster))["DB3"] - before; got > most {
					t.Errorf("DB3 served %d requests to converge %d missed bindings, want at most %d", got, c.missed, most)
				}
				assertQuietPing(t, rig.coord, serversOf(rig.cluster))
			})
		}
	}
}

// TestStaleMarkSurvivesRacingPing: an Insert whose broadcast to DB3 fails
// while a Ping's exchange with DB3 is under way never leaves DB3 behind the
// coordinator AND unmarked. The mark is taken off before the exchange, so one
// an Insert sets meanwhile — for a binding the exchange had already passed —
// outlives it, and the next undisturbed Ping finishes the job. First the one
// interleaving that loses the mark if it is cleared after the exchange, staged
// on a slow DB3; then whatever interleavings the scheduler finds.
func TestStaleMarkSurvivesRacingPing(t *testing.T) {
	rig := startStaleRig(t, staleCase{peer: "cut"})
	defer rig.close()
	coord, peer := rig.coord, rig.cluster.Server("DB3")
	seq := 0
	insertCut := func() {
		rig.plan.DropLink("G", "DB3")
		seq++
		// Stale or delivered is the race's to decide below; either is fine.
		_, _ = coord.Insert("DB2", object.New(object.LOid(fmt.Sprintf("tr%03d'", seq)), "Teacher",
			map[string]object.Value{"name": object.Str(fmt.Sprintf("Race%03d", seq))}))
		rig.plan.HealLink("G", "DB3")
	}
	behindAndUnmarked := func() bool {
		return !digestsEqual(coord.Tracker().Snapshot(), peer.DigestSnapshot()) && !coord.replica().isStale("DB3")
	}

	// DB3 takes 100 ms over its digest and again over its repair (pings are
	// not delayed). The second Insert lands once the digest is answered: the
	// repair is on the wire without its binding, and converges.
	insertCut()
	before := settled(serversOf(rig.cluster))["DB3"]
	rig.plan.Delay("DB3", 100_000)
	pinged := make(chan error, 1)
	go func() { pinged <- coord.Ping() }()
	eventually(t, "DB3 answered the ping and the digest", func() bool { return served(peer)-before == 2 })
	time.Sleep(20 * time.Millisecond)
	insertCut()
	if err := <-pinged; err != nil {
		t.Fatalf("ping: %v", err)
	}
	rig.plan.Delay("DB3", 0)
	if digestsEqual(coord.Tracker().Snapshot(), peer.DigestSnapshot()) {
		t.Fatal("the exchange carried the second binding; the interleaving was not staged")
	}
	if behindAndUnmarked() {
		t.Fatal("DB3 is behind the coordinator and the mark set during the exchange is gone")
	}
	if err := coord.Ping(); err != nil {
		t.Fatal(err)
	}
	assertPeerConverged(t, coord, peer)

	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				insertCut()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_ = coord.Ping() // it may well find the link cut
			}
		}()
		wg.Wait()
		if behindAndUnmarked() {
			t.Fatalf("round %d: DB3 is behind the coordinator and not marked stale", round)
		}
		if err := coord.Ping(); err != nil {
			t.Fatalf("round %d: ping of the healed cluster: %v", round, err)
		}
		assertPeerConverged(t, coord, peer)
	}
}
