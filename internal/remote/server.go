package remote

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
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
	// Zero timeouts and Attempts take DefaultCallConfig's values; a zero
	// BreakerThreshold means no breaker.
	Call CallConfig
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
	// AntiEntropy is the cadence of the background digest-exchange loop
	// that detects and repairs mapping-table divergence against the peers.
	// Zero disables the loop; the digest/repair request kinds are served
	// either way, so a peer's loop can still repair this site.
	AntiEntropy time.Duration

	// Tests override the connection limits (0: the constants).
	maxFrame            int
	idle, writeDeadline time.Duration
}

// Connection limits of a server.
const (
	// idleTimeout reaps accepted connections with no request activity: a
	// connection that stays silent longer is closed (conns_reaped_total).
	// Clients hold idle pooled connections, so a reaped connection costs
	// them one free stale-pool redial, nothing more.
	idleTimeout = 5 * time.Minute
	// writeTimeout bounds writing one response; a client that stops reading
	// cannot wedge a handler goroutine forever.
	writeTimeout = 30 * time.Second
)

// Server serves one component database over TCP. Connections are
// persistent: each one carries a sequence of request frames until the
// client closes it (or Close tears it down).
type Server struct {
	cfg    ServerConfig
	site   *federation.Site
	flow   exec.SiteFlow
	rt     *fabric.Real // every served request is one run on it
	client *client
	rep    *antientropy.Replica // the mapping-table replica every bind and repair goes through
	// ctx ends at Close: it stops the repair loop and the accept back-off.
	ctx    context.Context
	cancel context.CancelFunc
	log    *slog.Logger
	ln     net.Listener
	wg     sync.WaitGroup

	// stateMu guards the component database and the mapping-table replica
	// against writes (store/bind requests) concurrent with query
	// processing.
	stateMu sync.RWMutex

	// plans keeps the queries this server has bound: a coordinator sends the
	// same text to every site for every execution.
	plans planTable

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
	// The server's outbound calls (check dispatch, anti-entropy) live on
	// the same injected network as its inbound side.
	if cfg.Call.Faults == nil {
		cfg.Call.Faults = cfg.Faults
	}
	site := federation.NewSite(cfg.DB, cfg.Global, cfg.Tables)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		site:   site,
		rt:     fabric.NewReal(fabric.DefaultRates()),
		client: newClient(cfg.DB.Site(), cfg.Call, cfg.Metrics),
		ctx:    ctx,
		cancel: cancel,
		log:    log.With("site", string(cfg.DB.Site())),
		conns:  make(map[net.Conn]struct{}),
	}
	// With a durable engine a binding is logged before it is applied.
	s.rep = antientropy.NewReplica(s.Site(), cfg.Tables, &s.stateMu, cfg.Engine,
		replicaSend(s.Site(), func() *client { return s.client }, s.peerAddr), cfg.Metrics, s.log)
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
	if s.cfg.AntiEntropy > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			repairLoop(s.ctx, s.cfg.AntiEntropy, s.RunAntiEntropyRound)
		}()
	}
	return nil
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
	s.cancel()
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

// BreakerStates reports the state of this server's outbound circuit breakers
// (one per peer it dispatched checks to), for the health surface.
func (s *Server) BreakerStates() map[object.SiteID]string {
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

// acceptLoop accepts connections until Close. A failing Accept that is not
// the shutdown (EMFILE, say) is retried after a back-off of 5 ms doubling to
// 1 s, reset by the next success — as net/http.Server.Serve does — so a
// persistent error does not spin a core.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "accept failed",
				slog.String("err", err.Error()), slog.Duration("retry_in", backoff))
			sleepCtx(s.ctx, backoff)
			continue
		}
		backoff = 0
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

// handle serves one persistent connection: a sequence of request/response
// frames. The loop ends when the client closes the connection between frames
// (a clean EOF, not an error — pooled clients park idle connections), on an
// oversized, truncated, wrong-version or undecodable request, or when the
// connection idles past idleTimeout (the idle reaper: a read deadline
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
	limit, idle := int64(cmp.Or(s.cfg.maxFrame, maxFrameBytes)), cmp.Or(s.cfg.idle, idleTimeout)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
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
		// The serve span ends, and the request's tree (peer check spans it
		// imported included) leaves the tracer, before the response is
		// encoded: a traced response ships that one closed slice back, letting
		// the caller's profile cover every participating site, and the same
		// slice is this site's profile of the request. A site answering a
		// peer's check ships the check's tree alone, never its own open spans
		// of the query.
		sp.End()
		spans := s.cfg.Tracer.Take(sp.ID())
		if req.Trace.QueryID != "" {
			resp.Spans = spans
		}
		_ = conn.SetWriteDeadline(time.Now().Add(cmp.Or(s.cfg.writeDeadline, writeTimeout)))
		out := newFrame()
		out.response(&resp)
		n, err := out.send(conn)
		out.release()
		if err != nil {
			return // connection is torn; the client will retry elsewhere
		}
		respBytes := int64(n)
		s.observe(req, resp, time.Since(start), respBytes)
		s.profile(req, resp, spans, time.Since(start), respBytes)
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
// request kinds (retrieve and local). The profile covers the request's tree
// at this site — including peer check spans imported while serving it — so
// a site records one profile per request it served for a query.
func (s *Server) profile(req Request, resp Response, spans []trace.Span, d time.Duration, respBytes int64) {
	if s.cfg.Recorder == nil || req.Trace.QueryID == "" {
		return
	}
	if req.Kind != kindRetrieve && req.Kind != kindLocal {
		return
	}
	p := trace.BuildProfile(req.Trace.QueryID, reqAlg(req), spans)
	if p == nil {
		return
	}
	p.WallMicros = float64(d.Microseconds())
	p.AddCounter("resp_bytes", respBytes)
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
		// whether the transport works, and a stale replica's exchange waits on
		// its answer.
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
		// An Insert's first request at a site; its bind delta follows.
		if req.Store == nil {
			return Response{Err: "store request without object"}
		}
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		if err := s.cfg.DB.Insert(req.Store); err != nil {
			return Response{Err: err.Error()}
		}
		return Response{}
	case kindBind, kindDigest, kindRepair:
		// The replica takes the state lock itself.
		reply, err := s.rep.Handle(req.Trace.From,
			antientropy.Msg{Kind: req.Kind, Digests: req.Digests, Repair: req.Repair, Bind: req.Bind})
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{Digests: reply.Digests, Repair: reply.Repair}
	default:
		return Response{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
}

// runReal serves one request's federation work — an operation, or the whole
// site flow — as one run on the server's real fabric, on the connection's
// goroutine, under the request's context: injected delays are cut short when
// the budget dies, and the flow's checkpoints see the context through
// Proc.Context. The run's counted events (disk bytes, CPU ops) are stamped
// on the serve span, which ships them back to the coordinator: the profile
// builder aggregates them per site, giving the adaptive calibrator its
// cost-model denominators for remotely served queries. It returns the error
// text to answer, "" on success; a budget that died on the way answers the
// errDeadline marker — the reply would arrive too late to integrate, and the
// marker beats shipping dead bytes.
func (s *Server) runReal(ctx context.Context, sp trace.Handle, name string, fn func(fabric.Proc) error) string {
	var err error
	m, runErr := s.rt.RunContext(ctx, name, func(p fabric.Proc) {
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
	b, err := s.plans.bind(req.Query, s.cfg.Global)
	if err != nil {
		return Response{Err: err.Error()}
	}
	var reply federation.RetrieveReply
	if e := s.runReal(ctx, sp, "retrieve", func(p fabric.Proc) error {
		reply = s.site.Retrieve(p, b)
		return nil
	}); e != "" {
		return Response{Err: e}
	}
	return Response{Retrieve: reply, Suspect: s.rep.SuspectOf(b.Classes())}
}

func (s *Server) handleCheck(ctx context.Context, req Request, sp trace.Handle) Response {
	var reply federation.CheckReply
	if e := s.runReal(ctx, sp, "check", func(p fabric.Proc) error {
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
	b, err := s.plans.bind(req.Query, s.cfg.Global)
	if err != nil {
		return Response{Err: err.Error()}
	}
	alg, err := exec.ParseAlgorithm(req.Mode)
	if err != nil {
		return Response{Err: fmt.Sprintf("unknown local mode %q", req.Mode)}
	}
	q := &exec.Query{ID: req.Trace.QueryID, Alg: alg, Bound: b}
	var reply LocalReply
	if e := s.runReal(ctx, sp, "local", func(p fabric.Proc) (err error) {
		reply, err = s.flow.Run(p, q, sp.ID())
		return err
	}); e != "" {
		return Response{Err: e}
	}
	return Response{Local: reply, Suspect: s.rep.SuspectOf(b.Classes())}
}
