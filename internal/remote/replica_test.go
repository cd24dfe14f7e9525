package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/isomer"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/store/wal"
)

var errLogDown = errors.New("log device down")

// switchEngine is a site's storage engine whose bind log can be switched off.
// A nil StorageEngine logs nothing.
type switchEngine struct {
	store.StorageEngine
	down *atomic.Int32 // LogBind calls left to fail; negative = all of them
}

func (e switchEngine) LogBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) error {
	if n := e.down.Load(); n != 0 {
		if n > 0 {
			e.down.Add(-1)
		}
		return errLogDown
	}
	if e.StorageEngine == nil {
		return nil
	}
	return e.StorageEngine.LogBind(class, goid, site, loid)
}

// switchDeltaLog is a coordinator's delta log whose appends can be switched
// off.
type switchDeltaLog struct {
	antientropy.DeltaLog
	down *atomic.Int32
}

func (l switchDeltaLog) LogBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) error {
	if l.down.Load() != 0 {
		return errLogDown
	}
	return l.DeltaLog.LogBind(class, goid, site, loid)
}

// replicaSubject is one replica under TestReplicaApply: the replica with its
// tables and their owner's lock, a reader of its durable log (nil for an
// in-memory one), the switch that fails the log, and the entry point bindings
// are delivered through, which reports how many conflicts the delivery was
// counted as.
type replicaSubject struct {
	rep     *antientropy.Replica
	tables  *gmap.Tables
	state   *sync.RWMutex
	logged  func() []antientropy.Binding
	down    *atomic.Int32
	deliver func(entity int, loid object.LOid) (conflicts int)
}

const replicaClass, replicaSite = "Teacher", object.SiteID("DB2")

// entityGOid is the GOid of the test's nth entity: the name the matcher
// mints for the nth keyed object of the class, so a binding delivered
// directly and one an Insert assigns are the same binding.
func entityGOid(entity int) object.GOid {
	return object.GOid(fmt.Sprintf("g%s:%d", replicaClass, entity))
}

// tableBindings lists a replica's bindings of the test's class, in table order.
func tableBindings(tables *gmap.Tables) []antientropy.Binding {
	out := []antientropy.Binding{}
	tab := tables.Table(replicaClass)
	for _, goid := range tab.GOids() {
		for _, loc := range tab.Locations(goid) {
			out = append(out, antientropy.Binding{GOid: goid, Site: loc.Site, LOid: loc.LOid})
		}
	}
	return out
}

// reopened reads what eng's log holds the way a restart would: the bindings
// a second engine recovers from the same directory.
func reopened(t *testing.T, eng *wal.Engine, dir string) func() []antientropy.Binding {
	return func() []antientropy.Binding {
		if err := eng.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		again, tables, err := wal.OpenLog(wal.Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen the log: %v", err)
		}
		defer again.Close()
		return tableBindings(tables)
	}
}

// serverSubject starts one site server over an empty replica — in memory, or
// on a WAL whose bind log the returned switch fails — and leaves the entry
// point to the caller.
func serverSubject(t *testing.T, durable bool) (*Server, *replicaSubject) {
	t.Helper()
	fx := school.New()
	sub := &replicaSubject{down: new(atomic.Int32)}
	cfg := ServerConfig{DB: fx.Databases["DB1"], Global: fx.Global, Tables: gmap.NewTables(), Metrics: metrics.New()}
	if durable {
		dir := t.TempDir()
		eng, db, tables, err := wal.Open(cfg.DB.Schema(), wal.Options{Dir: dir, Site: "DB1"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		cfg.DB, cfg.Tables, cfg.Engine = db, tables, switchEngine{eng, sub.down}
		sub.logged = reopened(t, eng, dir)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sub.rep, sub.tables, sub.state = srv.rep, srv.cfg.Tables, &srv.stateMu
	return srv, sub
}

// The four ways a binding reaches a replica.
var replicaEntryPoints = map[string]func(t *testing.T, durable bool) *replicaSubject{
	// A bind delta the authority broadcast.
	"handleBind": func(t *testing.T, durable bool) *replicaSubject {
		srv, sub := serverSubject(t, durable)
		cl := newClient("TEST", CallConfig{}, nil)
		t.Cleanup(cl.close)
		sub.deliver = func(entity int, loid object.LOid) int {
			d := &antientropy.Delta{Class: replicaClass, GOid: entityGOid(entity), Site: replicaSite, LOid: loid}
			_, _, err := cl.call(context.Background(), srv.Site(), srv.Addr(), Request{Kind: kindBind, Bind: d})
			if err != nil && strings.Contains(err.Error(), antientropy.ErrConflict.Error()) {
				return 1
			}
			return 0
		}
		return sub
	},
	// The bindings a peer's repair round pushes.
	"handleRepair": func(t *testing.T, durable bool) *replicaSubject {
		srv, sub := serverSubject(t, durable)
		cl := newClient("TEST", CallConfig{}, nil)
		t.Cleanup(cl.close)
		sub.deliver = func(entity int, loid object.LOid) int {
			resp, _, err := cl.call(context.Background(), srv.Site(), srv.Addr(), Request{Kind: kindRepair, Trace: TraceContext{From: "TEST"},
				Repair: &antientropy.Repair{Class: replicaClass, Bindings: []antientropy.Binding{{GOid: entityGOid(entity), Site: replicaSite, LOid: loid}}}})
			if err != nil || resp.Repair == nil {
				t.Fatalf("repair exchange: %v (reply %v)", err, resp.Repair)
			}
			return resp.Repair.Conflicts
		}
		return sub
	},
	// The bindings a peer answers this replica's own round with.
	"repair reply": func(t *testing.T, durable bool) *replicaSubject {
		srv, sub := serverSubject(t, durable)
		sub.deliver = func(entity int, loid object.LOid) int {
			everyBucket := antientropy.Digest{Count: 1}
			for i := range everyBucket.Sum {
				everyBucket.Sum[i] = 1
			}
			srv.SetPeers(map[object.SiteID]string{"PEER": stubSite(t, Response{
				Digests: map[string]antientropy.Digest{replicaClass: everyBucket},
				Repair:  &antientropy.RepairReply{Bindings: []antientropy.Binding{{GOid: entityGOid(entity), Site: replicaSite, LOid: loid}}},
			})})
			before := srv.Replica().Stats().Conflicts
			srv.RunAntiEntropyRound(context.Background())
			return int(srv.Replica().Stats().Conflicts - before)
		}
		return sub
	},
	// The binding the authority assigns a newly stored object. The site is a
	// stub that stores anything, so the same object can be inserted twice.
	"Insert": func(t *testing.T, durable bool) *replicaSubject {
		fx := school.New()
		sub := &replicaSubject{down: new(atomic.Int32)}
		matcher := isomer.NewMatcher(fx.Global)
		coord := &Coordinator{ID: "G", Global: fx.Global, Matcher: matcher, Metrics: metrics.New(),
			Sites: map[object.SiteID]string{replicaSite: stubSite(t, Response{})}}
		t.Cleanup(coord.Close)
		if durable {
			dir := t.TempDir()
			eng, tables, err := wal.OpenLog(wal.Options{Dir: dir, Site: "G"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			if err := matcher.Adopt(nil, tables); err != nil {
				t.Fatal(err)
			}
			coord.DeltaLog = switchDeltaLog{eng, sub.down}
			sub.logged = reopened(t, eng, dir)
		}
		coord.Tables = matcher.Tables()
		sub.rep, sub.tables, sub.state = coord.Replica(), coord.Tables, &coord.mu
		sub.deliver = func(entity int, loid object.LOid) int {
			_, err := coord.Insert(replicaSite, object.New(loid, replicaClass, map[string]object.Value{
				"name": object.Str(fmt.Sprintf("entity %d", entity)),
			}))
			if errors.Is(err, antientropy.ErrConflict) {
				return 1
			}
			return 0
		}
		return sub
	},
}

// TestReplicaApply holds the one rule (Replica.Apply) over every way a
// binding reaches a replica and every log behind one: after each case the
// table, the bindings a reopened log recovers and the digest describe the same set —
// a conflict reaches neither log nor digest, a binding the log refused
// reaches neither table nor digest — and only a conflict is counted as one.
func TestReplicaApply(t *testing.T) {
	held := antientropy.Binding{GOid: entityGOid(1), Site: replicaSite, LOid: "l1"}
	cases := []struct {
		name     string
		seed     bool // the replica already holds `held`
		entity   int
		loid     object.LOid
		conflict bool
	}{
		{"fresh binding", false, 1, "l1", false},
		{"exact duplicate", true, 1, "l1", false},
		{"same object under another GOid", true, 2, "l1", true},
		{"same GOid, another object at that site", true, 1, "l2", true},
	}
	for entry, start := range replicaEntryPoints {
		for _, log := range []string{"in-memory", "durable", "failing log"} {
			for _, c := range cases {
				t.Run(entry+"/"+log+"/"+c.name, func(t *testing.T) {
					sub := start(t, log != "in-memory")
					want := []antientropy.Binding{}
					if c.seed {
						if n := sub.deliver(1, "l1"); n != 0 {
							t.Fatalf("seeding the replica counted %d conflicts", n)
						}
						want = append(want, held)
					}
					if log == "failing log" {
						sub.down.Store(-1)
					} else if !c.seed {
						want = append(want, held)
					}

					conflicts := sub.deliver(c.entity, c.loid)
					if c.conflict != (conflicts == 1) {
						t.Errorf("counted %d conflicts, want conflict = %v", conflicts, c.conflict)
					}

					sub.state.RLock()
					got := tableBindings(sub.tables)
					recomputed := antientropy.Digests(sub.tables)[replicaClass]
					sub.state.RUnlock()
					if !slices.Equal(got, want) {
						t.Errorf("table holds %v, want %v", got, want)
					}
					if sub.logged != nil {
						if logged := sub.logged(); !slices.Equal(logged, got) {
							t.Errorf("the log recovers %v, table holds %v", logged, got)
						}
					}
					if d := sub.rep.Digest(replicaClass); d != recomputed {
						t.Errorf("digest counts %d bindings, the table recomputes to %d (or their sums differ)",
							d.Count, recomputed.Count)
					}
				})
			}
		}
	}
}

// TestInsertHonoursWriteAheadOrder: an Insert whose delta-log append fails
// leaves the authority's replica as it was — the table must never get ahead
// of the durable log, nor the digest of the table — so the next repair round
// against in-sync sites finds nothing to repair.
func TestInsertHonoursWriteAheadOrder(t *testing.T) {
	coord, _ := testCluster(t, nil, observedCoordinator(), observed)
	fx := school.New()
	matcher := isomer.NewMatcher(coord.Global)
	if err := matcher.Adopt(fx.Databases, coord.Tables.Clone()); err != nil {
		t.Fatal(err)
	}
	down := new(atomic.Int32)
	down.Store(-1)
	coord.Matcher, coord.Tables, coord.DeltaLog = matcher, matcher.Tables(), switchDeltaLog{down: down}

	_, err := coord.Insert("DB2", object.New("t9'", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"), "speciality": object.Str("database"),
	}))
	if !errors.Is(err, errLogDown) {
		t.Fatalf("Insert over a failing delta log = %v, want the log's error", err)
	}
	coord.mu.RLock()
	goid, bound := coord.Tables.Table("Teacher").GOidOf("DB2", "t9'")
	recomputed := antientropy.Digests(coord.Tables)["Teacher"]
	coord.mu.RUnlock()
	if bound {
		t.Errorf("the table binds t9'@DB2 to %s, but the log never took the binding", goid)
	}
	if coord.Replica().Digest("Teacher") != recomputed {
		t.Error("the Teacher digest is not the digest of the Teacher table")
	}
	if n := coord.RunAntiEntropyRound(context.Background()); n != 0 {
		t.Errorf("a round against in-sync sites found %d divergent classes, want 0", n)
	}
}

// TestLogFailureIsNotAConflict: a replica that cannot log a repaired binding
// leaves it unapplied for a later round. It is not a conflict — nothing
// contradicts anything, and conflicts call for an operator — whether the
// failing site ran the round or served the repair.
func TestLogFailureIsNotAConflict(t *testing.T) {
	for _, runner := range []object.SiteID{"DB1", "DB2"} {
		t.Run("round run by "+string(runner), func(t *testing.T) {
			down, reg := new(atomic.Int32), metrics.New()
			_, cluster := testCluster(t, nil, &Coordinator{Metrics: reg}, func(site object.SiteID, cfg *ServerConfig) {
				cfg.Metrics = reg
				if site == "DB1" {
					// An engine makes the server serve Tables in place.
					cfg.Tables, cfg.Engine = cfg.Tables.Clone(), switchEngine{nil, down}
				}
			})
			servers := serversOf(cluster)
			flaky, holder := servers["DB1"], servers["DB2"]
			bindAt(t, holder, &antientropy.Delta{Class: "Teacher", GOid: "gt910", Site: "DB9", LOid: "t910'"})

			down.Store(1)
			if n := servers[runner].RunAntiEntropyRound(context.Background()); n == 0 {
				t.Fatal("round found no divergent classes")
			}
			if down.Load() != 0 {
				t.Fatal("the repair never reached the failing log")
			}
			for _, srv := range []*Server{flaky, holder} {
				if n := srv.Replica().Stats().Conflicts; n != 0 {
					t.Errorf("%s counted %d conflicts for a failed log append", srv.Site(), n)
				}
			}
			if got := reg.Snapshot().CounterValue("antientropy_conflicts_total", metrics.Labels{Site: "DB1"}); got != 0 {
				t.Errorf("antientropy_conflicts_total = %d, want 0", got)
			}
			if digestsEqual(flaky.Replica().Snapshot(), holder.Replica().Snapshot()) {
				t.Fatal("replicas agree although the binding could not be logged")
			}

			servers[runner].RunAntiEntropyRound(context.Background())
			if !digestsEqual(flaky.Replica().Snapshot(), holder.Replica().Snapshot()) {
				t.Error("replicas still differ after a round with the log healthy again")
			}
		})
	}
}

// failingListener fails its first n Accepts, then blocks until closed.
type failingListener struct {
	n       int
	accepts atomic.Int32
	closed  chan struct{}
}

func (l *failingListener) Accept() (net.Conn, error) {
	if int(l.accepts.Add(1)) <= l.n {
		return nil, errors.New("accept: too many open files")
	}
	<-l.closed
	return nil, net.ErrClosed
}
func (l *failingListener) Close() error   { close(l.closed); return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopBacksOff: an Accept error that is not the shutdown is retried
// after 5 ms doubling, not at once — n failures cost n+1 Accept calls and at
// least the summed back-offs, where the loop used to spin a core.
func TestAcceptLoopBacksOff(t *testing.T) {
	fx := school.New()
	srv, err := NewServer(ServerConfig{DB: fx.Databases["DB1"], Global: fx.Global, Tables: fx.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	const failures = 3 // 5 + 10 + 20 ms
	ln := &failingListener{n: failures, closed: make(chan struct{})}
	srv.ln = ln
	start := time.Now()
	srv.wg.Add(1)
	go srv.acceptLoop()
	for ln.accepts.Load() <= failures {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("accept loop made %d Accept calls in 5s, want %d", ln.accepts.Load(), failures+1)
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed, floor := time.Since(start), 35*time.Millisecond; elapsed < floor {
		t.Errorf("%d failed Accepts were retried within %v, want at least %v of back-off", failures, elapsed, floor)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ln.accepts.Load(); got != failures+1 {
		t.Errorf("%d Accept calls, want %d", got, failures+1)
	}
}
