package remote

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
)

func TestClusterPing(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)
	if err := coord.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestClusterAdHocQuery(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)

	ans, _, err := coord.Query(`select name from Student where age > 25`, exec.BL)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// John (31) and Tony (28) have age > 25 certainly; Hedy and Fanny have
	// no age anywhere (maybe); Mary is 24 (out).
	if len(ans.Certain) != 2 {
		t.Errorf("certain = %v", ans.Certain)
	}
	if len(ans.Maybe) != 2 {
		t.Errorf("maybe = %v", ans.Maybe)
	}
}

func TestClusterErrors(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)

	if _, _, err := coord.Query(`select nope from Student`, exec.BL); err == nil {
		t.Error("bad query accepted")
	}
	if _, _, err := coord.Query(`select * broken`, exec.BL); err == nil {
		t.Error("unparsable query accepted")
	}
	if _, _, err := coord.Query(school.Q1, exec.Algorithm(42)); err == nil {
		t.Error("unknown algorithm accepted")
	}

	// A site absent from the address map entirely (killed and unwired)
	// degrades exactly like one that stopped answering: the query still
	// returns, with the missing sites reported unavailable — not an error.
	bad := &Coordinator{ID: "G", Global: coord.Global, Tables: coord.Tables,
		Sites: map[object.SiteID]string{"DB1": coord.Sites["DB1"]}}
	defer bad.Close()
	ans, _, err := bad.Query(school.Q1, exec.BL)
	if err != nil {
		t.Errorf("missing site addresses errored instead of degrading: %v", err)
	} else {
		if !ans.Degraded || len(ans.Unavailable) == 0 {
			t.Errorf("missing site addresses did not degrade the answer: %+v", ans)
		}
		for _, f := range ans.Unavailable {
			if f.Site != "DB2" && f.Site != "DB3" {
				t.Errorf("unexpected unavailable site %s: %v", f.Site, ans.Unavailable)
			}
		}
	}

	// Unreachable server.
	down := &Coordinator{ID: "G", Global: coord.Global, Tables: coord.Tables,
		Sites: map[object.SiteID]string{
			"DB1": "127.0.0.1:1", "DB2": "127.0.0.1:1", "DB3": "127.0.0.1:1",
		}}
	if err := down.Ping(); err == nil {
		t.Error("unreachable cluster pinged successfully")
	}
}

// eventually polls cond for a bounded time. A server books a request's
// metrics and its flight-recorder profile AFTER the response is on the wire
// (keeping bookkeeping off the response path), so a client holding the
// response must wait for them rather than read them at once.
func eventually(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// testCall performs one client exchange against addr, for tests poking a
// server directly.
func testCall(t *testing.T, addr string, req Request) (Response, error) {
	t.Helper()
	cl := newClient("TEST", CallConfig{}, nil)
	defer cl.close()
	resp, _, err := cl.call(context.Background(), "peer", addr, req)
	return resp, err
}

// TestRetrieveShipsOnlyInvolvedAttrs: the site's reply lists stored objects,
// which hold every attribute; what crosses the wire is their projection on
// the attributes Q1 involves, nothing more (age and sex do not travel) and
// nothing less, and serving the request leaves the stored objects whole.
func TestRetrieveShipsOnlyInvolvedAttrs(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	resp, err := testCall(t, coord.Sites["DB1"], Request{Kind: kindRetrieve, Query: school.Q1})
	if err != nil {
		t.Fatal(err)
	}
	students := 0
	for _, cls := range resp.Retrieve.Classes {
		for _, o := range cls.Objects {
			for i := 0; i < o.Len(); i++ {
				if name, _ := o.At(i); !slices.Contains(cls.Attrs, name) {
					t.Errorf("%v arrived with %s, outside its class's projection %v", o, name, cls.Attrs)
				}
			}
			if cls.GlobalClass != "Student" {
				continue
			}
			students++
			stored, ok := cluster.Server("DB1").cfg.DB.Deref(o.LOid)
			if !ok || stored.Attr("age").IsNull() {
				t.Fatalf("stored student %s lost its age (found: %v)", o.LOid, ok)
			}
			if !o.Attr("name").Equal(stored.Attr("name")) || !o.Attr("advisor").Equal(stored.Attr("advisor")) {
				t.Errorf("%v arrived without the involved attributes of %v", o, stored)
			}
		}
	}
	if students != 3 {
		t.Errorf("%d students arrived, want 3", students)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)
	addr := coord.Sites["DB1"]

	if _, err := testCall(t, addr, Request{Kind: "nonsense"}); err == nil ||
		!strings.Contains(err.Error(), "unknown request kind") {
		t.Errorf("bad kind: %v", err)
	}
	if _, err := testCall(t, addr, Request{Kind: kindLocal, Query: school.Q1, Trace: TraceContext{Alg: "XX"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown local strategy") {
		t.Errorf("bad mode: %v", err)
	}
	if _, err := testCall(t, addr, Request{Kind: kindLocal, Query: "select", Trace: TraceContext{Alg: "BL"}}); err == nil {
		t.Error("bad query accepted")
	}
}

func TestNewServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

// TestClusterInsertMaintainsReplicas exercises the write path: inserting
// Haley's missing teacher record at DB2 (where speciality is stored) must
// update every site's mapping-table replica, so the next run of Q1 resolves
// Tony's advisor.speciality predicate through the new assistant object —
// his maybe result keeps only the address predicate unknown.
func TestClusterInsertMaintainsReplicas(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)

	// Make the coordinator the mapping authority over the school tables.
	authority(t, coord)

	// Before: Tony is maybe with both address and speciality unknown.
	ans, _, err := coord.Query(school.Q1, exec.BL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Maybe) != 1 || len(ans.Maybe[0].Unknown) != 2 {
		t.Fatalf("before insert: %+v", ans.Maybe)
	}

	// Insert Haley's record at DB2 — an isomeric object holding the
	// missing speciality.
	goid, err := coord.Insert("DB2", object.New("t9'", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"), "speciality": object.Str("database"),
	}))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if goid != "gt3" {
		t.Errorf("Haley's record matched %s, want gt3", goid)
	}

	// After: the speciality predicate certifies through the new assistant;
	// only the address predicate stays unknown.
	ans, _, err = coord.Query(school.Q1, exec.BL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Maybe) != 1 || len(ans.Maybe[0].Unknown) != 1 || ans.Maybe[0].Unknown[0] != 0 {
		t.Fatalf("after insert: %+v", ans.Maybe)
	}
	// CA over the cluster agrees.
	ansCA, _, err := coord.Query(school.Q1, exec.CA)
	if err != nil {
		t.Fatal(err)
	}
	if len(ansCA.Maybe) != 1 || len(ansCA.Maybe[0].Unknown) != 1 {
		t.Fatalf("CA after insert: %+v", ansCA.Maybe)
	}
}

// TestClusterInsertNewEntity: an object whose key matches nothing becomes a
// fresh entity with a generated GOid that avoids existing names.
func TestClusterInsertNewEntity(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)
	authority(t, coord)

	goid, err := coord.Insert("DB3", object.New("tX''", "Teacher", map[string]object.Value{
		"name": object.Str("Newton"), "department": object.Ref("d3''"),
	}))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if goid == "" || goid == "gt1" || goid == "gt2" || goid == "gt3" || goid == "gt4" {
		t.Errorf("new entity GOid = %s", goid)
	}
}

func TestClusterInsertErrors(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)

	o := object.New("x", "Teacher", map[string]object.Value{"name": object.Str("X")})
	// No matcher configured.
	if _, err := coord.Insert("DB1", o); err == nil {
		t.Error("insert without matcher accepted")
	}
	authority(t, coord)
	// Unknown site.
	if _, err := coord.Insert("DB9", o); err == nil {
		t.Error("unknown site accepted")
	}
	// Class not integrated at the site (DB3 has no Student).
	if _, err := coord.Insert("DB3", object.New("sX", "Student", nil)); err == nil {
		t.Error("non-constituent class accepted")
	}
	// Invalid object (duplicate LOid at DB1).
	if _, err := coord.Insert("DB1", object.New("t1", "Teacher",
		map[string]object.Value{"name": object.Str("Dup")})); err == nil {
		t.Error("duplicate LOid accepted")
	}
}

// TestClusterConcurrentQueriesAndInserts hammers the cluster with parallel
// queries while inserts mutate the databases and replicas — the server's
// state lock must keep every request consistent (run with -race).
func TestClusterConcurrentQueriesAndInserts(t *testing.T) {
	coord, _ := testCluster(t, nil, nil, nil)
	authority(t, coord)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				for _, alg := range []exec.Algorithm{exec.CA, exec.BL, exec.PL} {
					if _, _, err := coord.Query(school.Q1, alg); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 6; j++ {
			o := object.New(object.LOid(fmt.Sprintf("tnew%d''", j)), "Teacher",
				map[string]object.Value{"name": object.Str(fmt.Sprintf("NewTeacher%d", j))})
			if _, err := coord.Insert("DB3", o); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent op failed: %v", err)
	}

	// The federation still answers Q1 correctly afterwards.
	ans, _, err := coord.Query(school.Q1, exec.BL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Certain) != 1 || ans.Certain[0].GOid != "gs4" {
		t.Errorf("post-stress answer = %v", ans.Certain)
	}
}
