package remote

import (
	"path/filepath"
	"testing"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/store/wal"
)

// TestDurableSiteRestart is the durability acceptance scenario over real
// TCP: a cluster of WAL-backed sites answers the paper's Q1; one site goes
// down (queries degrade, an insert's bind delta goes undelivered); the site
// restarts from its data directory on its old address and the next ping
// runs its digest exchange — after which Q1 returns the full paper answer
// again and both the pre-shutdown insert and the missed delta are present
// in the restarted replica.
func TestDurableSiteRestart(t *testing.T) {
	root := t.TempDir()
	fed := schoolFed()

	// A durable coordinator: the global mapping replica and the bind-delta
	// log live under <root>/G.
	deltaLog, gtables, err := wal.OpenLog(wal.Options{Dir: filepath.Join(root, "G"), Site: "G"})
	if err != nil {
		t.Fatal(err)
	}
	defer deltaLog.Close()
	if err := deltaLog.Import(nil, fed.Tables); err != nil {
		t.Fatal(err)
	}
	matcher := isomer.NewMatcher(fed.Global)
	if err := matcher.Adopt(fed.Databases, gtables); err != nil {
		t.Fatal(err)
	}
	coord := &Coordinator{Tables: matcher.Tables(), Matcher: matcher, DeltaLog: deltaLog, Metrics: metrics.New(), Call: fastFail}
	cluster, err := StartCluster(ClusterConfig{Federation: fed, DataDir: root, Coordinator: coord, Configure: observed})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	assertQ1(t, coord, "healthy cluster", exec.BL, false)

	// Insert at DB3 while it is up: the object and its binding must survive
	// the restart from disk.
	goid, err := coord.Insert("DB3", object.New("t9''", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"),
	}))
	if err != nil {
		t.Fatalf("insert at DB3: %v", err)
	}

	// DB3 goes down, still wired: queries degrade, and an insert elsewhere
	// leaves DB3's replica stale and marked so.
	cluster.Server("DB3").Close()
	assertQ1(t, coord, "DB3 down", exec.BL, true)
	missedGOid, err := coord.Insert("DB2", object.New("t8'", "Teacher", map[string]object.Value{
		"name": object.Str("Newton"), "speciality": object.Str("physics"),
	}))
	if err == nil {
		t.Fatal("insert with a dead replica reported no staleness")
	}
	if !coord.replica().isStale("DB3") {
		t.Fatal("the dead replica is not marked stale")
	}

	// Restart DB3 from its data directory. The recovered state must include
	// the pre-shutdown insert, and the ping's exchange must deliver the
	// delta DB3 missed while down.
	if err := cluster.Restart("DB3"); err != nil {
		t.Fatal(err)
	}
	restarted := cluster.Server("DB3")
	if _, ok := restarted.cfg.DB.Deref("t9''"); !ok {
		t.Fatal("restarted DB3 lost the pre-shutdown insert")
	}
	if loid, ok := restarted.cfg.Tables.Table("Teacher").LOidAt(goid, "DB3"); !ok || loid != "t9''" {
		t.Fatalf("restarted DB3 mapping: %s@DB3 = (%q, %v), want (t9'', true)", goid, loid, ok)
	}

	if err := coord.Ping(); err != nil {
		t.Fatalf("ping of the restarted cluster: %v", err)
	}
	if loid, ok := restarted.cfg.Tables.Table("Teacher").LOidAt(missedGOid, "DB2"); !ok || loid != "t8'" {
		t.Fatalf("missed delta not delivered: %s@DB2 = (%q, %v), want (t8', true)", missedGOid, loid, ok)
	}
	assertPeerConverged(t, coord, restarted)
	assertQ1(t, coord, "DB3 restarted", exec.BL, false)
}
