package remote

import (
	"path/filepath"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store/wal"
	"github.com/hetfed/hetfed/internal/trace"
)

// durableSite is one WAL-backed site server plus the engine that owns its
// on-disk state.
type durableSite struct {
	Server *Server
	Engine *wal.Engine
}

// Close shuts the site down cleanly: the server first, then the engine
// (flushing the WAL's buffered tail to disk).
func (s *durableSite) Close() {
	s.Server.Close()
	s.Engine.Close()
}

// startDurableSite boots one school site from its WAL directory under root:
// recover (or seed, on first boot) the site's database and mapping replica,
// then serve the recovered state with every mutation logged.
func startDurableSite(t *testing.T, root string, site object.SiteID) *durableSite {
	t.Helper()
	fx := school.New()
	eng, db, tables, err := wal.Open(fx.Databases[site].Schema(), wal.Options{
		Dir:  filepath.Join(root, string(site)),
		Site: string(site),
	})
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", site, err)
	}
	if err := eng.Import(fx.Databases[site], fx.Mapping); err != nil {
		eng.Close()
		t.Fatalf("Import(%s): %v", site, err)
	}
	srv, err := NewServer(ServerConfig{
		DB:         db,
		Global:     fx.Global,
		Tables:     tables,
		Engine:     eng,
		Signatures: signature.Build(fx.Databases),
		Tracer:     &trace.Tracer{},
		Metrics:    metrics.New(),
	})
	if err != nil {
		eng.Close()
		t.Fatalf("NewServer(%s): %v", site, err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		eng.Close()
		t.Fatalf("Listen(%s): %v", site, err)
	}
	return &durableSite{Server: srv, Engine: eng}
}

// TestDurableSiteRestart is the durability acceptance scenario over real
// TCP: a cluster of WAL-backed sites answers the paper's Q1; one site goes
// down (queries degrade, an insert's bind delta goes undelivered); the site
// restarts from its data directory on a fresh port and the next ping runs
// its digest exchange — after which Q1 returns the full paper answer again
// and both the pre-shutdown insert and the missed delta are present in the
// restarted replica.
func TestDurableSiteRestart(t *testing.T) {
	root := t.TempDir()
	fx := school.New()
	sites := map[object.SiteID]*durableSite{}
	addrs := map[object.SiteID]string{}
	for _, site := range school.Sites {
		s := startDurableSite(t, root, site)
		sites[site] = s
		addrs[site] = s.Server.Addr()
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	for _, s := range sites {
		s.Server.SetPeers(addrs)
	}

	// A durable coordinator: the global mapping replica and the bind-delta
	// log live under <root>/G.
	deltaLog, gtables, err := wal.OpenLog(wal.Options{Dir: filepath.Join(root, "G"), Site: "G"})
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
	coord := &Coordinator{
		ID:       "G",
		Global:   fx.Global,
		Tables:   matcher.Tables(),
		Matcher:  matcher,
		Sites:    addrs,
		DeltaLog: deltaLog,
		Metrics:  metrics.New(),
		Call:     fastFail,
	}
	defer coord.Close()

	assertQ1 := func(stage string, wantDegraded bool) {
		t.Helper()
		ans, _, err := coord.Query(school.Q1, exec.BL)
		if err != nil {
			t.Fatalf("%s: Q1: %v", stage, err)
		}
		if ans.Degraded != wantDegraded {
			t.Fatalf("%s: Degraded = %v, want %v (unavailable: %v)", stage, ans.Degraded, wantDegraded, ans.Unavailable)
		}
		if wantDegraded {
			return
		}
		if len(ans.Certain) != 1 || ans.Certain[0].GOid != "gs4" {
			t.Errorf("%s: certain = %v", stage, ans.Certain)
		}
		if len(ans.Maybe) != 1 || ans.Maybe[0].GOid != "gs2" {
			t.Errorf("%s: maybe = %v", stage, ans.Maybe)
		}
	}
	assertQ1("healthy cluster", false)

	// Insert at DB3 while it is up: the object and its binding must survive
	// the restart from disk.
	goid, err := coord.Insert("DB3", object.New("t9''", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"),
	}))
	if err != nil {
		t.Fatalf("insert at DB3: %v", err)
	}

	// DB3 goes down: queries degrade, and an insert elsewhere leaves DB3's
	// replica stale and marked so.
	sites["DB3"].Close()
	assertQ1("DB3 down", true)
	missedGOid, err := coord.Insert("DB2", object.New("t8'", "Teacher", map[string]object.Value{
		"name": object.Str("Newton"), "speciality": object.Str("physics"),
	}))
	if err == nil {
		t.Fatal("insert with a dead replica reported no staleness")
	}
	if !coord.replica().isStale("DB3") {
		t.Fatal("the dead replica is not marked stale")
	}

	// Restart DB3 from its data directory on a fresh port. The recovered
	// state must include the pre-shutdown insert, and the ping's exchange
	// must deliver the delta DB3 missed while down.
	restarted := startDurableSite(t, root, "DB3")
	sites["DB3"] = restarted
	addrs["DB3"] = restarted.Server.Addr()
	for _, s := range sites {
		s.Server.SetPeers(addrs)
	}
	coord.Sites["DB3"] = restarted.Server.Addr()

	if _, ok := restarted.Server.cfg.DB.Deref("t9''"); !ok {
		t.Fatal("restarted DB3 lost the pre-shutdown insert")
	}
	if loid, ok := restarted.Server.cfg.Tables.Table("Teacher").LOidAt(goid, "DB3"); !ok || loid != "t9''" {
		t.Fatalf("restarted DB3 mapping: %s@DB3 = (%q, %v), want (t9'', true)", goid, loid, ok)
	}

	if err := coord.Ping(); err != nil {
		t.Fatalf("ping of the restarted cluster: %v", err)
	}
	if loid, ok := restarted.Server.cfg.Tables.Table("Teacher").LOidAt(missedGOid, "DB2"); !ok || loid != "t8'" {
		t.Fatalf("missed delta not delivered: %s@DB2 = (%q, %v), want (t8', true)", missedGOid, loid, ok)
	}
	assertPeerConverged(t, coord, restarted.Server)
	assertQ1("DB3 restarted", false)
}
