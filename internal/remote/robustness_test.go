package remote

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/tvl"
)

// delayAll observes every site and wedges it by d per served operation
// (cancellable: the stall observes the request's wire budget).
func delayAll(d time.Duration) func(object.SiteID, *ServerConfig) {
	return func(site object.SiteID, cfg *ServerConfig) {
		observed(site, cfg)
		cfg.Faults = fabric.NewFaultPlan().Delay(site, float64(d.Microseconds()))
	}
}

func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, baseline %d", n, baseline)
}

// TestClusterDeadlineCutsDelayedSites is the acceptance scenario over real
// TCP: every site wedged by a 5s fault, a 50ms coordinator deadline. Each
// strategy must return a sound partial answer well within the fault's
// stall (generous 2s bound for slow CI), release its admission slot for
// the next query, and leave no goroutines behind.
func TestClusterDeadlineCutsDelayedSites(t *testing.T) {
	baseline := runtime.NumGoroutine()
	coord, cluster := testCluster(t, nil, observedCoordinator(), delayAll(5*time.Second))
	coord.Deadline = 50 * time.Millisecond
	coord.MaxConcurrent = 1 // serial queries double as the slot-release check

	for _, alg := range []exec.Algorithm{exec.CA, exec.BL, exec.PL} {
		start := time.Now()
		ans, _, err := coord.Query(school.Q1, alg)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%v: over-deadline query failed instead of degrading: %v", alg, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%v: returned after %v — the deadline did not cut the 5s stall", alg, elapsed)
		}
		if ans.Outcome != federation.OutcomeDeadline {
			t.Errorf("%v: outcome = %q, want %q", alg, ans.Outcome, federation.OutcomeDeadline)
		}
		if !ans.Degraded || len(ans.Unavailable) == 0 {
			t.Errorf("%v: Degraded=%v Unavailable=%v, want degraded with sites listed",
				alg, ans.Degraded, ans.Unavailable)
		}
		if len(ans.Certain) != 0 {
			t.Errorf("%v: certain = %v, want none (no site answered in budget)", alg, ans.Certain)
		}
	}
	snap := coord.Metrics.Snapshot()
	var outcomes int64
	for _, alg := range []string{"CA", "BL", "PL"} {
		outcomes += snap.CounterValue("deadline_exceeded_total", metrics.Labels{Site: "G", Alg: alg})
	}
	if outcomes != 3 {
		t.Errorf("deadline_exceeded_total across CA/BL/PL = %d, want 3", outcomes)
	}
	if got := snap.CounterValue("queries_shed_total", metrics.Labels{Site: "G"}); got != 0 {
		t.Errorf("queries_shed_total = %d, want 0 (slots were released, nothing queued)", got)
	}
	// Tear the cluster down first: accept loops and handlers parked on
	// pooled idle connections go away, so whatever remains above the
	// baseline is a genuine per-query leak. Close is idempotent — the
	// test's cleanup call becomes a no-op.
	cluster.Close()
	settleGoroutines(t, baseline)
}

// TestClusterCancelReleasesSlot cancels a query mid-flight (the client
// walked away) and verifies the admission slot comes back: a follow-up
// query is admitted immediately instead of being shed from the queue.
func TestClusterCancelReleasesSlot(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// A client disconnect is not forwarded to a site already serving a
	// deadline-free request, so the injected stall bounds how long server
	// handlers linger; keep it short so the leak check stays meaningful.
	coord, cluster := testCluster(t, nil, observedCoordinator(), delayAll(500*time.Millisecond))
	coord.MaxConcurrent = 1

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	ans, _, err := coord.QueryContext(ctx, school.Q1, exec.BL)
	if err != nil {
		t.Fatalf("cancelled query failed instead of degrading: %v", err)
	}
	if ans.Outcome != federation.OutcomeCanceled {
		t.Errorf("outcome = %q, want %q", ans.Outcome, federation.OutcomeCanceled)
	}

	// If the cancelled query leaked its slot, this one would queue forever
	// and be shed when its own deadline dies; admitted immediately, it runs
	// and comes back as a deadline-bounded partial answer instead.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	_, _, err = coord.QueryContext(ctx2, school.Q1, exec.BL)
	if errors.Is(err, exec.ErrShed) {
		t.Fatalf("follow-up query was shed: the cancelled query did not release its slot")
	}
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	if got := coord.Metrics.Snapshot().CounterValue("queries_shed_total", metrics.Labels{Site: "G"}); got != 0 {
		t.Errorf("queries_shed_total = %d, want 0", got)
	}
	cluster.Close() // see TestClusterDeadlineCutsDelayedSites
	settleGoroutines(t, baseline)
}

// TestClusterShedsUnderOverload wedges the single slot and fires doomed
// queries at the queue: each must be shed with the typed error before any
// network work, and the shed count must match.
func TestClusterShedsUnderOverload(t *testing.T) {
	coord, _ := testCluster(t, nil, observedCoordinator(), delayAll(500*time.Millisecond))
	coord.MaxConcurrent = 1

	slowCtx, slowCancel := context.WithCancel(context.Background())
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		coord.QueryContext(slowCtx, school.Q1, exec.BL)
	}()
	time.Sleep(30 * time.Millisecond) // let the slow query take the slot

	const doomed = 4
	for i := 0; i < doomed; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, _, err := coord.QueryContext(ctx, school.Q1, exec.BL)
		cancel()
		if !errors.Is(err, exec.ErrShed) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("doomed query %d: err = %v, want ErrShed", i, err)
		}
	}
	slowCancel()
	<-slowDone
	if got := coord.Metrics.Snapshot().CounterValue("queries_shed_total", metrics.Labels{Site: "G"}); got != doomed {
		t.Errorf("queries_shed_total = %d, want %d", got, doomed)
	}
}

// frameOf returns the request's frame exactly as a client would write it.
func frameOf(t *testing.T, req Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	out := newFrame()
	out.request(&req)
	_, err := out.send(&buf)
	out.release()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawRoundTrip writes bytes on conn and reads one response frame back; a
// server that closes the connection instead yields an error.
func rawRoundTrip(conn net.Conn, data []byte) (Response, error) {
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(data); err != nil {
		return Response{}, err
	}
	in, err := readFrame(bufio.NewReader(conn), 0)
	if err != nil {
		return Response{}, err
	}
	defer in.release()
	return decodeResponse(in.b)
}

// rawExchange is rawRoundTrip on a fresh connection.
func rawExchange(t *testing.T, addr string, data []byte) (Response, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	return rawRoundTrip(conn, data)
}

// TestServerFrameLimitIsExact: a request frame of exactly the frame limit is
// served; one byte more is rejected from its five header bytes alone — the
// test never sends the payload, so a server that waited for it would hang
// here — and counted; and the limit polices frames, not the site.
func TestServerFrameLimitIsExact(t *testing.T) {
	const limit = 16 << 10
	coord, cluster := testCluster(t, nil, observedCoordinator(), func(site object.SiteID, cfg *ServerConfig) {
		observed(site, cfg)
		cfg.maxFrame = limit
	})
	addr := coord.Sites["DB1"]
	rejected := func() int64 {
		return cluster.Server("DB1").cfg.Metrics.Snapshot().CounterValue("frames_rejected_total", metrics.Labels{Site: "DB1"})
	}

	// Pad a ping's (ignored) query text until the frame is the limit to the byte.
	pad := 1000
	pad += limit - len(frameOf(t, Request{Kind: kindPing, Query: strings.Repeat("x", pad)}))
	exact := frameOf(t, Request{Kind: kindPing, Query: strings.Repeat("x", pad)})
	if len(exact) != limit {
		t.Fatalf("padded frame is %d bytes, want %d", len(exact), limit)
	}
	if resp, err := rawExchange(t, addr, exact); err != nil || resp.Err != "" {
		t.Fatalf("frame of exactly the limit: resp %+v, err %v", resp, err)
	}
	if got := rejected(); got != 0 {
		t.Fatalf("frames_rejected_total = %d after a frame at the limit, want 0", got)
	}

	over := frameOf(t, Request{Kind: kindPing, Query: strings.Repeat("x", pad+1)})
	if len(over) != limit+1 {
		t.Fatalf("padded frame is %d bytes, want %d", len(over), limit+1)
	}
	if _, err := rawExchange(t, addr, over[:frameHeaderSize]); !errors.Is(err, io.EOF) {
		t.Fatalf("header of a limit+1 frame: err = %v, want the connection closed", err)
	}
	if got := rejected(); got != 1 {
		t.Errorf("frames_rejected_total = %d, want 1", got)
	}

	// Far beyond the limit, through the real client: the call fails.
	if _, err := testCall(t, addr, Request{
		Kind:  kindRetrieve,
		Query: "select name from Student where address.city = \"" + strings.Repeat("x", 1<<20) + "\"",
	}); err == nil {
		t.Fatal("1MiB frame accepted despite a 16KiB cap")
	}
	if got := rejected(); got != 2 {
		t.Errorf("frames_rejected_total = %d, want 2", got)
	}
	if _, err := testCall(t, addr, Request{Kind: kindPing}); err != nil {
		t.Errorf("ping after rejected frames: %v", err)
	}
}

// TestServerCountsBrokenFrames: a client closing between frames is a
// hang-up and counts nothing; a frame cut short inside its header or its
// payload, an unknown protocol version and a payload that does not decode
// are request errors, and each ends the connection.
func TestServerCountsBrokenFrames(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	servers := serversOf(cluster)
	srv, addr := servers["DB2"], coord.Sites["DB2"]
	errorsCounted := func() int64 {
		return srv.cfg.Metrics.Snapshot().CounterValue("request_errors_total", metrics.Labels{Site: "DB2"})
	}
	ping := frameOf(t, Request{Kind: kindPing})
	wrongVersion := append([]byte(nil), ping...)
	wrongVersion[4] = protocolVersion + 1
	garbage := append([]byte(nil), ping...)
	for i := frameHeaderSize; i < len(garbage); i++ {
		garbage[i] = 0xFF
	}

	// The hang-ups first: were they miscounted, every total below would be
	// off by one.
	for _, data := range [][]byte{nil, ping} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if data != nil {
			if _, err := rawRoundTrip(conn, data); err != nil {
				t.Fatalf("ping: %v", err)
			}
		}
		conn.Close()
	}
	eventually(t, "hung-up connections released", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	if got := errorsCounted(); got != 0 {
		t.Fatalf("request_errors_total = %d after clean hang-ups, want 0", got)
	}

	for i, c := range []struct {
		name string
		data []byte
	}{
		{"EOF inside the header", ping[:3]},
		{"EOF inside the payload", ping[:len(ping)-2]},
		{"unknown protocol version", wrongVersion},
		{"undecodable payload", garbage},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(c.data); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		// Half-close: the server sees EOF where the bytes stop, and the
		// read below sees the server close its side without answering.
		_ = conn.(*net.TCPConn).CloseWrite()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
			t.Errorf("%s: server answered (%d bytes, err %v), want the connection closed", c.name, n, err)
		}
		conn.Close()
		want := int64(i + 1)
		eventually(t, fmt.Sprintf("request_errors_total = %d after %s", want, c.name), func() bool {
			return errorsCounted() == want
		})
	}
}

// TestServerReapsIdleConnections opens a raw connection, sends nothing, and
// expects the server to close it once the idle window passes.
func TestServerReapsIdleConnections(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), func(site object.SiteID, cfg *ServerConfig) {
		observed(site, cfg)
		cfg.idle = 50 * time.Millisecond
	})

	conn, err := net.Dial("tcp", coord.Sites["DB2"])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open: read returned data")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := cluster.Server("DB2").cfg.Metrics.Snapshot()
		if snap.CounterValue("conns_reaped_total", metrics.Labels{Site: "DB2"}) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("conns_reaped_total never incremented")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResyncReplaysMissedDeltas: a bind broadcast that misses a dead
// replica marks it stale, and the next successful Ping runs its digest
// exchange — the revived replica's mapping table catches up.
func TestResyncReplaysMissedDeltas(t *testing.T) {
	coord, cluster := testCluster(t, nil, observedCoordinator(), observed)
	coord.Call = fastFail
	authority(t, coord)

	cluster.Server("DB3").Close()
	goid, err := coord.Insert("DB2", object.New("t9'", "Teacher", map[string]object.Value{
		"name": object.Str("Haley"), "speciality": object.Str("database"),
	}))
	if err == nil {
		t.Fatal("insert with a dead replica reported no staleness")
	}
	if goid != "gt3" {
		t.Fatalf("insert GOid = %s, want gt3", goid)
	}

	// Revive DB3 with a fresh replica that never saw the delta.
	if err := cluster.Restart("DB3"); err != nil {
		t.Fatal(err)
	}
	revived := cluster.Server("DB3")

	// The server owns a private clone of the tables it was built with; that
	// clone is the replica the exchange must catch up.
	replica := revived.cfg.Tables
	if _, ok := replica.Table("Teacher").LOidAt("gt3", "DB2"); ok {
		t.Fatal("fresh replica already has the delta — test setup broken")
	}
	if err := coord.Ping(); err != nil {
		t.Fatalf("ping of the revived cluster: %v", err)
	}
	if loid, ok := replica.Table("Teacher").LOidAt("gt3", "DB2"); !ok || loid != "t9'" {
		t.Errorf("revived replica after the ping: gt3@DB2 = (%q, %v), want (t9', true)", loid, ok)
	}
	assertPeerConverged(t, coord, revived)
	// A second ping has nothing left to deliver.
	assertQuietPing(t, coord, serversOf(cluster))
}

// stubSite answers every request arriving on a raw listener with resp: a
// site that speaks the wire format and says something the query cannot mean.
func stubSite(t *testing.T, resp Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	serve := func(conn net.Conn) {
		defer wg.Done()
		br := bufio.NewReader(conn)
		for {
			in, err := readFrame(br, 0)
			if err != nil {
				return
			}
			in.release()
			out := newFrame()
			out.response(&resp)
			_, err = out.send(conn)
			out.release()
			if err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, conn := range conns {
			conn.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestCoordinatorRefusesMalformedLocalReply: certification indexes its
// per-predicate evidence with a row's verdict positions and an unsolved
// item's SourceIdx, numbers that arrived on a socket. A site answering one
// verdict too many, or an unsolved item of predicate 7 to a three-predicate
// query, must fail its own leg with an error that names it — not panic the
// global site's task into "fabric: task BL panicked: runtime error: index out
// of range [7] with length 3", which names no site and no cause (what these
// two cases got before the reply was checked).
func TestCoordinatorRefusesMalformedLocalReply(t *testing.T) {
	speciality := query.Predicate{Path: query.Path{"speciality"}, Op: query.OpEq, Literal: object.Str("database")}
	row := func(verdicts int, unsolved ...federation.UnsolvedItem) Response {
		r := federation.LocalRow{LOid: "s1'", GOid: "gs1", Targets: []object.Value{object.Str("John"), object.Null()},
			Unsolved: unsolved}
		// True, not unknown: certification indexes its evidence only with
		// verdicts that decide something.
		for i := 0; i < verdicts; i++ {
			r.Verdicts = append(r.Verdicts, tvl.True)
		}
		return Response{Local: LocalReply{Result: federation.LocalResult{Site: "DB2", Rows: []federation.LocalRow{r}}}}
	}
	item := func(pt *query.Point) federation.UnsolvedItem {
		return federation.UnsolvedItem{ItemGOid: "gt1", Point: pt}
	}
	verdictOf := func(cv federation.CheckVerdict) Response {
		resp := row(3)
		resp.Local.CheckReplies = []federation.CheckReply{{Site: "DB3", Verdicts: []federation.CheckVerdict{cv}}}
		return resp
	}
	// A satisfied check of the item is what made PR 14's coordinator write
	// evidence[7].
	predicateSeven := row(3, item(&query.Point{ItemClass: "Teacher", Suffix: speciality, SourceIdx: 7}))
	predicateSeven.Local.CheckReplies = []federation.CheckReply{{Site: "DB3", Verdicts: []federation.CheckVerdict{
		{ItemGOid: "gt1", SourceIdx: 7, SuffixLen: 1, Verdict: tvl.True}}}}
	truthOutOfRange := row(3)
	truthOutOfRange.Local.Result.Rows[0].Verdicts[1] = 9

	for _, c := range []struct {
		name string
		resp Response
		want string // a fragment of the error naming the field; "" = the reply is fine
	}{
		{"well-formed", row(3, item(&query.Point{ItemClass: "Teacher", Suffix: speciality, SourceIdx: 1})), ""},
		{"one verdict too many", row(4), "4 verdicts"},
		{"a truth value that is none", truthOutOfRange, "truth value 9"},
		{"three targets to a two-target query", func() Response {
			resp := row(3)
			resp.Local.Result.Rows[0].Targets = make([]object.Value, 3)
			return resp
		}(), "3 targets"},
		{"unsolved item of predicate 7", predicateSeven, "SourceIdx 7"},
		{"unsolved item without a point", row(3, item(nil)), "without a point"},
		{"suffix longer than its predicate's path", row(3, item(&query.Point{ItemClass: "Teacher", SourceIdx: 0,
			Suffix: query.Predicate{Path: query.Path{"a", "b", "c"}, Op: query.OpEq, Literal: object.Str("Taipei")}})), "3 steps"},
		{"a point that is not the query's", row(3, item(&query.Point{ItemClass: "Teacher", SourceIdx: 1,
			Suffix: query.Predicate{Path: query.Path{"name"}, Op: query.OpEq, Literal: object.Str("database")}})), "is not predicate 1"},
		{"check verdict of predicate -1", verdictOf(federation.CheckVerdict{ItemGOid: "gt1", SourceIdx: -1, SuffixLen: 1, Verdict: tvl.True}), "SourceIdx -1"},
		{"check verdict with a suffix longer than the path", verdictOf(federation.CheckVerdict{ItemGOid: "gt1", SourceIdx: 1, SuffixLen: 3, Verdict: tvl.True}), "SuffixLen 3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			coord, _ := testCluster(t, nil, nil, nil)
			coord.Sites["DB2"] = stubSite(t, c.resp)
			_, _, err := coord.Query(school.Q1, exec.BL)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("well-formed reply refused: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), "site DB2") || !strings.Contains(err.Error(), c.want)):
				t.Errorf("err = %v, want one naming site DB2 and %q", err, c.want)
			}
		})
	}
}
