package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/query"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/trace"
)

// ServerConfig assembles a component-database site server.
type ServerConfig struct {
	// DB is this site's component database.
	DB *store.Database
	// Global is the integrated global schema (replicated to every site).
	Global *schema.Global
	// Tables is the site's replica of the GOid mapping tables.
	Tables *gmap.Tables
	// Peers maps the other component sites to their network addresses,
	// used to dispatch assistant-object checks.
	Peers map[object.SiteID]string
	// Signatures enables the signature-assisted modes when non-nil.
	Signatures *signature.Index
	// Tracer, when non-nil, records every served request as a span parented
	// on the caller's span (Request.Trace), so site-side spans stitch into
	// the coordinator's query tree.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives per-request counters, latency
	// histograms, and per-site-pair byte accounting.
	Metrics *metrics.Registry
	// Recorder, when non-nil, receives a trace.Profile for every served
	// retrieve and local request — the site-side flight recorder. Requires
	// Tracer.
	Recorder *obs.Recorder
	// Log, when non-nil, receives structured request logs. Defaults to a
	// discarding logger.
	Log *slog.Logger
	// Call is the networking policy for this server's outbound peer calls
	// (assistant-check dispatch): timeouts, retries, pooling, breakers.
	// Zero fields take DefaultCallConfig values.
	Call CallConfig
	// MaxFrameBytes caps one request frame, header included, on an accepted
	// connection. The cap is exact: a frame of MaxFrameBytes is served, one
	// byte more is rejected from its header alone and the connection closed
	// (frames_rejected_total counts it). 0 means DefaultMaxFrameBytes;
	// negative disables the limit.
	MaxFrameBytes int
	// IdleTimeout reaps accepted connections with no request activity: a
	// connection that stays silent longer is closed (conns_reaped_total).
	// Clients hold idle pooled connections, so a reaped connection costs
	// them one free stale-pool redial, nothing more. 0 means
	// DefaultIdleTimeout; negative disables reaping.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response; a client that stops reading
	// cannot wedge a handler goroutine forever. 0 means
	// DefaultWriteTimeout.
	WriteTimeout time.Duration
	// Faults, when non-nil, injects failures at this server, mirroring the
	// engine's fault plan semantics over the wire: Delay stalls every
	// non-ping request (cut short when the request's wire budget expires),
	// Kill/DropAfter make the server answer errUnavailable, which clients
	// treat as a transport-level site failure.
	Faults *fabric.FaultPlan
	// Engine, when set, is the durable storage engine behind DB and
	// Tables (typically the *wal.Engine that recovered them): bind deltas
	// are logged through it before being applied, and Tables is served
	// as-is instead of cloned — the engine's snapshots must see the
	// replica the server actually mutates. DB is expected to have the
	// engine already attached (store.Database.WithEngine), so store
	// requests log through Insert itself.
	Engine store.StorageEngine
	// AntiEntropy configures the background digest-exchange loop that
	// detects and repairs mapping-table divergence against the peers. The
	// zero value disables the loop; the digest/repair request kinds are
	// served either way, so a peer's loop can still repair this site.
	AntiEntropy AntiEntropyConfig
}

// AntiEntropyConfig tunes a process's background anti-entropy loop.
type AntiEntropyConfig struct {
	// Interval is the cadence between rounds; 0 disables the loop.
	Interval time.Duration
	// Jitter spreads each wait by ±Interval·Jitter so the cluster's loops
	// decorrelate instead of synchronizing into exchange storms. Defaults
	// to 0.2; negative disables jitter.
	Jitter float64
	// Timeout bounds one digest or repair exchange. Defaults to 2s.
	Timeout time.Duration
}

// jittered returns the next wait before a round.
func (c AntiEntropyConfig) jittered() time.Duration {
	j := c.Jitter
	if j == 0 {
		j = 0.2
	}
	if j < 0 {
		return c.Interval
	}
	f := 1 + (rand.Float64()*2-1)*j
	return time.Duration(float64(c.Interval) * f)
}

// timeout resolves the per-exchange bound.
func (c AntiEntropyConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 2 * time.Second
}

// Server timeout defaults (see ServerConfig.IdleTimeout / WriteTimeout).
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// Server serves one component database over TCP. Connections are
// persistent: each one carries a sequence of request frames until the
// client closes it (or Close tears it down).
type Server struct {
	cfg      ServerConfig
	site     *federation.Site
	flow     exec.SiteFlow
	client   *client
	tracker  *antientropy.Tracker
	aeCtx    context.Context
	aeCancel context.CancelFunc
	log      *slog.Logger
	ln       net.Listener
	wg       sync.WaitGroup

	// stateMu guards the component database and the mapping-table replica
	// against writes (store/bind requests) concurrent with query
	// processing.
	stateMu sync.RWMutex

	// bound keeps the queries this server has bound, by text: a coordinator
	// sends the same text to every site for every execution, and the global
	// schema a text binds against is fixed for the server's life. A
	// *query.Bound is immutable, so concurrent requests share one.
	boundMu sync.Mutex
	bound   map[string]*query.Bound

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewServer wraps a component database for network duty. The mapping tables
// are cloned — each server maintains its own replica, kept current through
// bind deltas — unless a durable Engine is set: then the recovered tables
// ARE this site's replica and are served in place, so the engine's
// snapshots and the served state stay one and the same.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.DB == nil || cfg.Global == nil || cfg.Tables == nil {
		return nil, errors.New("remote: incomplete server config")
	}
	if cfg.Engine == nil {
		cfg.Tables = cfg.Tables.Clone()
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	// The digest tracker mirrors every mutation of the replica. With a
	// durable engine the engine's LogBind is the single choke point, so the
	// hook observes there; without one the bind paths observe directly
	// (one path or the other, never both — see antientropy.HookEngine).
	tracker := antientropy.NewTracker()
	tracker.Seed(cfg.Tables)
	if cfg.Engine != nil {
		cfg.Engine = antientropy.HookEngine(cfg.Engine, tracker)
	}
	// The server's outbound calls (check dispatch, anti-entropy) live on
	// the same injected network as its inbound side.
	if cfg.Call.Faults == nil {
		cfg.Call.Faults = cfg.Faults
	}
	site := federation.NewSite(cfg.DB, cfg.Global, cfg.Tables)
	aeCtx, aeCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		site:     site,
		client:   newClient(cfg.DB.Site(), cfg.Call, cfg.Metrics),
		tracker:  tracker,
		aeCtx:    aeCtx,
		aeCancel: aeCancel,
		log:      log.With("site", string(cfg.DB.Site())),
		conns:    make(map[net.Conn]struct{}),
	}
	s.flow = exec.SiteFlow{
		Site:    site,
		State:   s.stateMu.RLocker(),
		Sigs:    cfg.Signatures,
		Metrics: cfg.Metrics,
		Link:    checkLink{s},
	}
	return s, nil
}

// Listen binds the address and starts serving until Close. Pass
// "127.0.0.1:0" to let the kernel pick a port (see Addr).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.AntiEntropy.Interval > 0 {
		s.wg.Add(1)
		go s.antiEntropyLoop()
	}
	return nil
}

// antiEntropyLoop runs digest-exchange rounds on a jittered cadence until
// Close.
func (s *Server) antiEntropyLoop() {
	defer s.wg.Done()
	for {
		t := time.NewTimer(s.cfg.AntiEntropy.jittered())
		select {
		case <-s.aeCtx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		s.RunAntiEntropyRound(s.aeCtx)
	}
}

// SetPeers installs the peer address map once every server in the cluster
// has been started (addresses are typically known only after Listen).
func (s *Server) SetPeers(peers map[object.SiteID]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make(map[object.SiteID]string, len(peers))
	for site, addr := range peers {
		if site != s.Site() {
			cp[site] = addr
		}
	}
	s.cfg.Peers = cp
}

func (s *Server) peerAddr(site object.SiteID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr, ok := s.cfg.Peers[site]
	return addr, ok
}

// Addr returns the bound address, valid after Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Site returns the served site's identifier.
func (s *Server) Site() object.SiteID { return s.cfg.DB.Site() }

// Close stops accepting, tears down every open connection (idle pooled
// client connections would otherwise park handler goroutines forever), and
// waits for the handlers to drain. It also releases the server's own
// outbound connection pools.
func (s *Server) Close() error {
	s.aeCancel()
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.client.close()
	s.wg.Wait()
	return err
}

// PeerBreakers reports the state of this server's outbound circuit breakers
// (one per peer it dispatched checks to), for the health surface.
func (s *Server) PeerBreakers() map[object.SiteID]string {
	return s.client.BreakerStates()
}

// track registers a live connection; it reports false when the server is
// already closed (the connection must be dropped).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// reqAlg names the strategy a request executes under: the propagated trace
// context's algorithm, falling back to the local mode for untraced callers.
func reqAlg(req Request) string {
	if req.Trace.Alg != "" {
		return req.Trace.Alg
	}
	return req.Mode
}

// reqPhases maps a request kind onto the paper's phases the server performs
// while handling it: retrieval and assistant checking are object location
// (O); a local query evaluates predicates and locates assistants in the
// mode's order (P→O basic, O→P parallel).
func reqPhases(req Request) string {
	switch req.Kind {
	case kindRetrieve, kindCheck:
		return "O"
	case kindLocal:
		switch req.Mode {
		case ModePL, ModeSPL:
			return "OP"
		default:
			return "PO"
		}
	}
	return ""
}

// maxFrame resolves the configured per-request frame limit (0 = unlimited).
func (s *Server) maxFrame() int64 {
	switch {
	case s.cfg.MaxFrameBytes < 0:
		return 0
	case s.cfg.MaxFrameBytes == 0:
		return DefaultMaxFrameBytes
	default:
		return int64(s.cfg.MaxFrameBytes)
	}
}

// idleTimeout resolves the configured idle reap timeout (0 = disabled).
func (s *Server) idleTimeout() time.Duration {
	switch {
	case s.cfg.IdleTimeout < 0:
		return 0
	case s.cfg.IdleTimeout == 0:
		return DefaultIdleTimeout
	default:
		return s.cfg.IdleTimeout
	}
}

// writeTimeout resolves the configured response write bound.
func (s *Server) writeTimeout() time.Duration {
	if s.cfg.WriteTimeout > 0 {
		return s.cfg.WriteTimeout
	}
	return DefaultWriteTimeout
}

// handle serves one persistent connection: a sequence of request/response
// frames. The loop ends when the client closes the connection between frames
// (a clean EOF, not an error — pooled clients park idle connections), on an
// oversized, truncated, wrong-version or undecodable request, or when the
// connection idles past IdleTimeout (the idle reaper: a read deadline
// re-armed before every request).
func (s *Server) handle(conn net.Conn) {
	if !s.track(conn) {
		_ = conn.Close()
		return
	}
	defer func() {
		s.untrack(conn)
		_ = conn.Close()
	}()
	self := string(s.Site())
	br := bufio.NewReader(conn)
	limit, idle := s.maxFrame(), s.idleTimeout()
	for {
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		var req Request
		in, err := readFrame(br, limit)
		if err == nil {
			req, err = decodeRequest(in.b)
			in.release()
		}
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed), s.isClosed():
				// Client hung up between frames, or we are shutting down.
			case errors.Is(err, ErrFrameTooLarge):
				s.cfg.Metrics.Counter("frames_rejected_total", metrics.Labels{Site: self}).Inc()
				s.log.LogAttrs(context.Background(), slog.LevelWarn, "frame rejected",
					slog.String("err", err.Error()))
			case errors.Is(err, os.ErrDeadlineExceeded):
				// No request within the idle window: reap the connection.
				s.cfg.Metrics.Counter("conns_reaped_total", metrics.Labels{Site: self}).Inc()
			default:
				// A frame cut short, an unknown protocol version or a
				// payload that does not decode: a broken peer, not a client
				// hanging up. The stream cannot be trusted past it.
				s.cfg.Metrics.Counter("request_errors_total", metrics.Labels{Site: self}).Inc()
			}
			return
		}
		start := time.Now()
		// Re-arm the caller's remaining budget as a local deadline: the wire
		// carries a relative duration, so clock skew between machines cannot
		// corrupt it — only the (already-spent) transit time is lost.
		ctx := context.Background()
		var cancel context.CancelFunc
		if req.DeadlineMicros > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMicros)*time.Microsecond)
		}
		sp := s.cfg.Tracer.StartSpan(trace.SpanID(req.Trace.Span), s.Site(), "serve:"+req.Kind).
			WithQuery(req.Trace.QueryID, req.Trace.Alg).WithPhases(reqPhases(req))
		resp := s.dispatch(ctx, req, sp)
		if cancel != nil {
			cancel()
		}
		if resp.Err != "" {
			sp.Detailf("error: %s", resp.Err)
		}
		// The serve span ends before the response is encoded so the copy
		// shipped back to the caller is closed; traced responses carry this
		// site's spans for the query (peer check spans it imported included),
		// letting the caller's profile cover every participating site.
		sp.End()
		if req.Trace.QueryID != "" && s.cfg.Tracer != nil {
			resp.Spans = s.cfg.Tracer.QuerySpans(req.Trace.QueryID)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		out := newFrame()
		out.response(&resp)
		n, err := out.send(conn)
		out.release()
		if err != nil {
			sp.Detailf("send failed: %v", err)
			return // connection is torn; the client will retry elsewhere
		}
		respBytes := int64(n)
		sp.Add("resp_bytes", respBytes)
		s.observe(req, resp, time.Since(start), respBytes)
		s.profile(req, resp, time.Since(start))
	}
}

// observe feeds the request's metrics and structured log entry.
func (s *Server) observe(req Request, resp Response, d time.Duration, respBytes int64) {
	self := string(s.Site())
	alg := reqAlg(req)
	us := float64(d.Nanoseconds()) / 1e3
	s.cfg.Metrics.Counter("requests_total", metrics.Labels{Site: self, Alg: alg}).Inc()
	s.cfg.Metrics.Histogram("request_latency_us", metrics.Labels{Site: self, Alg: alg}).Observe(us)
	if resp.Err != "" {
		s.cfg.Metrics.Counter("request_errors_total", metrics.Labels{Site: self}).Inc()
	}
	if req.Trace.From != "" {
		// Bytes this site shipped back to the caller.
		s.cfg.Metrics.Counter("net_bytes_total",
			metrics.Labels{Site: self, Peer: string(req.Trace.From), Alg: alg}).Add(respBytes)
	}
	level := slog.LevelInfo
	if req.Kind == kindPing {
		level = slog.LevelDebug
	}
	s.log.LogAttrs(context.Background(), level, "served",
		slog.String("kind", req.Kind),
		slog.String("query", req.Trace.QueryID),
		slog.String("alg", alg),
		slog.String("from", string(req.Trace.From)),
		slog.Float64("us", us),
		slog.String("err", resp.Err),
	)
}

// profile records a site-side flight-recorder profile for the substantial
// request kinds (retrieve and local). The profile covers this request's
// spans at this site — including peer check spans imported while serving it
// — so a site records one profile per request it served for a query.
func (s *Server) profile(req Request, resp Response, d time.Duration) {
	if s.cfg.Recorder == nil || s.cfg.Tracer == nil || req.Trace.QueryID == "" {
		return
	}
	if req.Kind != kindRetrieve && req.Kind != kindLocal {
		return
	}
	p := trace.BuildProfile(req.Trace.QueryID, reqAlg(req), s.cfg.Tracer.QuerySpans(req.Trace.QueryID))
	if p == nil {
		return
	}
	p.WallMicros = float64(d.Microseconds())
	var unavailable []string
	for _, f := range resp.Local.Unavailable {
		unavailable = append(unavailable, string(f.Site))
	}
	var err error
	if resp.Err != "" {
		err = errors.New(resp.Err)
	}
	p.SetOutcome(0, len(resp.Local.Result.Rows), unavailable, err)
	s.cfg.Recorder.Record(p)
}

func (s *Server) dispatch(ctx context.Context, req Request, sp trace.Handle) Response {
	// Link faults are checked before the ping bypass: a partition cuts the
	// transport itself, so even liveness probes across it must fail — a
	// coordinator on the far side of a cut must see this site as
	// unreachable, not as alive-but-slow. Callers without link identity
	// (no Trace.From) are exempt; injected partitions only bind site pairs.
	if fp := s.cfg.Faults; fp != nil && !fp.BeginLinkOp(req.Trace.From, s.Site()) {
		s.cfg.Metrics.Counter("partition_blocked_total",
			metrics.Labels{Site: string(s.Site()), Peer: string(req.Trace.From)}).Inc()
		return Response{Err: errUnavailable}
	}
	if req.Kind == kindPing {
		// Liveness probes bypass fault injection and budgets: Ping asks
		// whether the transport works, and the resync path depends on it.
		return Response{}
	}
	// Server-side fault injection, mirroring the engine's siteDown: Delay
	// stalls the request (cut short when the budget dies), Kill/DropAfter
	// answer errUnavailable, which the client maps onto a SiteError.
	if fp := s.cfg.Faults; fp != nil {
		if d := fp.DelayMicros(s.Site()); d > 0 {
			sleepCtx(ctx, time.Duration(d*float64(time.Microsecond)))
		}
		if !fp.BeginOp(s.Site()) {
			return Response{Err: errUnavailable}
		}
	}
	if ctx.Err() != nil {
		return Response{Err: errDeadline}
	}
	switch req.Kind {
	case kindRetrieve:
		// The reply lists stored objects and is encoded after this lock is
		// released. That is sound because the store never edits an object
		// after Insert, and the list itself is the reply's own
		// (federation.ClassObjects).
		s.stateMu.RLock()
		defer s.stateMu.RUnlock()
		return s.handleRetrieve(ctx, req, sp)
	case kindLocal:
		// The site flow takes the state lock itself, never across the check
		// RPCs to peers (exec.SiteFlow.State says why).
		return s.handleLocal(ctx, req, sp)
	case kindCheck:
		s.stateMu.RLock()
		defer s.stateMu.RUnlock()
		return s.handleCheck(ctx, req, sp)
	case kindStore:
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		return s.handleStore(req)
	case kindBind:
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		return s.handleBind(req)
	case kindDigest:
		// The tracker serializes itself; a snapshot mid-bind is merely one
		// binding stale, which the next round reconciles.
		return Response{Digests: s.tracker.Snapshot()}
	case kindRepair:
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		return s.handleRepair(req)
	default:
		return Response{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
}

// handleStore inserts an object into the local component database.
func (s *Server) handleStore(req Request) Response {
	if req.Store == nil {
		return Response{Err: "store request without object"}
	}
	if err := s.cfg.DB.Insert(req.Store); err != nil {
		return Response{Err: err.Error()}
	}
	return Response{}
}

// handleBind applies a mapping-table delta to this site's replica.
func (s *Server) handleBind(req Request) Response {
	if req.Bind == nil {
		return Response{Err: "bind request without delta"}
	}
	d := req.Bind
	if _, err := s.applyBindLocked(d.Class, d.GOid, d.Site, d.LOid); err != nil {
		return Response{Err: err.Error()}
	}
	return Response{}
}

// applyBindLocked applies one binding to the replica under stateMu: log
// (durable engines), bind, observe (digest). An exact
// duplicate is a re-delivery — durable-log rebuild, resync replay, or a
// repair stream overlapping deltas already applied — and acks idempotently
// (applied=false, no error). A conflicting binding errors without
// mutating anything.
func (s *Server) applyBindLocked(class string, goid object.GOid, site object.SiteID, loid object.LOid) (applied bool, err error) {
	t := s.cfg.Tables.Table(class)
	if t.Bound(goid, site, loid) {
		return false, nil
	}
	// Detect conflicts before logging: a binding Bind would refuse must
	// reach neither the WAL nor the digest, or the durable record and the
	// replica (and every digest exchange thereafter) disagree forever.
	if prev, ok := t.GOidOf(site, loid); ok && prev != goid {
		return false, fmt.Errorf("gmap %s: %s@%s already bound to %s", class, loid, site, prev)
	}
	if prev, ok := t.LOidAt(goid, site); ok && prev != loid {
		return false, fmt.Errorf("gmap %s: %s already has %s at site %s", class, goid, prev, site)
	}
	if s.cfg.Engine != nil {
		// The engine hook observes the digest on LogBind success.
		if err := s.cfg.Engine.LogBind(class, goid, site, loid); err != nil {
			return false, err
		}
	}
	if err := t.Bind(goid, site, loid); err != nil {
		return false, err
	}
	if s.cfg.Engine == nil {
		s.tracker.Observe(class, goid, site, loid)
	}
	return true, nil
}

// handleRepair serves the symmetric half of one repair exchange: apply the
// caller's bindings this replica is missing (conflicts are counted and
// skipped, never overwritten — the class stays divergent for an operator),
// then answer with this replica's own bindings in the divergent buckets so
// the caller converges too. The reply's bindings are collected before the
// caller's are applied, so the caller is not echoed its own stream back.
func (s *Server) handleRepair(req Request) Response {
	r := req.Repair
	if r == nil {
		return Response{Err: "repair request without payload"}
	}
	mine := antientropy.BucketBindings(s.cfg.Tables.Table(r.Class), r.Buckets)
	reply := &RepairReply{Bindings: mine}
	for _, b := range r.Bindings {
		applied, err := s.applyBindLocked(r.Class, b.GOid, b.Site, b.LOid)
		switch {
		case err != nil:
			reply.Conflicts++
			s.tracker.NoteConflict()
			s.cfg.Metrics.Counter("antientropy_conflicts_total",
				metrics.Labels{Site: string(s.Site())}).Inc()
		case applied:
			reply.Applied++
		}
	}
	if reply.Applied > 0 {
		s.cfg.Metrics.Counter("antientropy_repair_bindings_total",
			metrics.Labels{Site: string(s.Site()), Peer: string(req.Trace.From)}).Add(int64(reply.Applied))
	}
	return Response{Repair: reply}
}

// maxBoundQueries caps the bound-query table. An application's queries are a
// few texts run over and over; a client that sends ever-new texts gains
// nothing from the table and, when it fills, costs the others one rebind.
const maxBoundQueries = 256

// bind parses and binds a query text against the site's global schema, once
// per distinct text: later requests carrying the same text get the same
// *query.Bound. The table is dropped whole when it is full.
func (s *Server) bind(text string) (*query.Bound, error) {
	s.boundMu.Lock()
	b := s.bound[text]
	s.boundMu.Unlock()
	if b != nil {
		return b, nil
	}
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	if b, err = query.Bind(q, s.cfg.Global); err != nil {
		return nil, err
	}
	s.boundMu.Lock()
	if len(s.bound) >= maxBoundQueries {
		s.bound = nil
	}
	if s.bound == nil {
		s.bound = make(map[string]*query.Bound)
	}
	s.bound[text] = b
	s.boundMu.Unlock()
	return b, nil
}

// runReal serves one request's federation work — an operation, or the whole
// site flow — as the one real-fabric run of that request, under the
// request's context: fault-injected delays inside are cut short when the
// budget dies, and the flow's checkpoints see the context through
// Proc.Context. The run's counted events (disk bytes, CPU ops) are stamped
// on the serve span, which ships them back to the coordinator: the profile
// builder aggregates them per site, giving the adaptive calibrator its
// cost-model denominators for remotely served queries. It returns the error
// text to answer, "" on success; a budget that died on the way answers the
// errDeadline marker — the reply would arrive too late to integrate, and the
// marker beats shipping dead bytes.
func runReal(ctx context.Context, sp trace.Handle, name string, fn func(fabric.Proc) error) string {
	var err error
	m, runErr := fabric.NewReal(fabric.DefaultRates()).WithContext(ctx).Run(name, func(p fabric.Proc) {
		err = fn(p)
	})
	sp.Add("disk_bytes", m.DiskBytes).Add("cpu_ops", m.CPUOps)
	switch {
	case runErr != nil:
		return runErr.Error()
	case ctx.Err() != nil || exec.IsInterrupted(err):
		return errDeadline
	case err != nil:
		return err.Error()
	}
	return ""
}

func (s *Server) handleRetrieve(ctx context.Context, req Request, sp trace.Handle) Response {
	b, err := s.bind(req.Query)
	if err != nil {
		return Response{Err: err.Error()}
	}
	var reply federation.RetrieveReply
	if e := runReal(ctx, sp, "retrieve", func(p fabric.Proc) error {
		reply = s.site.Retrieve(p, b)
		return nil
	}); e != "" {
		return Response{Err: e}
	}
	return Response{Retrieve: reply, Suspect: s.tracker.SuspectOf(b.Classes())}
}

func (s *Server) handleCheck(ctx context.Context, req Request, sp trace.Handle) Response {
	var reply federation.CheckReply
	if e := runReal(ctx, sp, "check", func(p fabric.Proc) error {
		reply = s.site.CheckAssistants(p, req.Items)
		return nil
	}); e != "" {
		return Response{Err: e}
	}
	return Response{Check: reply}
}

// handleLocal runs the site's half of a localized strategy: exec.SiteFlow,
// the same flow the in-process engine runs. The flow manages the state lock
// itself (see SiteFlow.State) and reaches the peers through checkLink.
func (s *Server) handleLocal(ctx context.Context, req Request, sp trace.Handle) Response {
	b, err := s.bind(req.Query)
	if err != nil {
		return Response{Err: err.Error()}
	}
	alg, err := exec.ParseAlgorithm(req.Mode)
	if err != nil {
		return Response{Err: fmt.Sprintf("unknown local mode %q", req.Mode)}
	}
	q := &exec.Query{ID: req.Trace.QueryID, Alg: alg, Bound: b}
	var reply LocalReply
	if e := runReal(ctx, sp, "local", func(p fabric.Proc) (err error) {
		reply, err = s.flow.Run(p, q, sp.ID())
		return err
	}); e != "" {
		return Response{Err: e}
	}
	return Response{Local: reply, Suspect: s.tracker.SuspectOf(b.Classes())}
}

// errPeerNotWired marks a site with no entry in the address map. Wrapped in
// a SiteError it classifies as "site unavailable", so the dependent
// predicates degrade to maybe instead of failing the query.
var errPeerNotWired = errors.New("no address in peer wiring")

// checkLink is the TCP implementation of exec.SiteLink: one check RPC per
// target. The verdicts return here, to the requesting site, and travel to
// the global site with its local reply: the one topology difference from the
// paper's model, confined to this transport. The peer's check span is
// parented on this server's serve span, so the whole chain (coordinator →
// site → peer) renders as one query tree.
type checkLink struct{ s *Server }

// Check implements exec.SiteLink.
func (l checkLink) Check(p fabric.Proc, q *exec.Query, parent trace.SpanID, from, target object.SiteID, items []federation.CheckItem) (federation.CheckReply, error) {
	s, ctx, alg := l.s, p.Context(), q.Alg.String()
	tc := TraceContext{QueryID: q.ID, Alg: alg, Span: uint64(parent), From: from}
	addr, ok := s.peerAddr(target)
	if !ok {
		return federation.CheckReply{}, &SiteError{Site: target, Err: errPeerNotWired}
	}
	resp, w, err := s.client.callCtx(ctx, target, addr, Request{Kind: kindCheck, Items: items, Trace: tc})
	s.cfg.Metrics.Counter("net_bytes_total",
		metrics.Labels{Site: string(from), Peer: string(target), Alg: alg}).Add(w.Sent)
	if err != nil {
		return federation.CheckReply{}, err
	}
	// Fold the peer's check spans into this site's tracer; they ship onward
	// to the coordinator with this site's own response.
	s.cfg.Tracer.Import(resp.Spans)
	return resp.Check, nil
}
