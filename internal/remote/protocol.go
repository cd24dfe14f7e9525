// Package remote deploys the federation over real TCP connections: it is the
// TCP transport behind package exec's site-operations seam, plus the write
// path (insert, bind-delta replication, anti-entropy repair). Every component
// database runs a Server exposing the site operations (retrieve, local query,
// assistant check); a Coordinator hands exec.Runner — the one implementation
// of CA/BL/PL and of the query lifecycle — pooled client RPCs as its site
// operations, and a Server runs exec.SiteFlow with check RPCs to its peers as
// its link. Messages travel as length-prefixed binary frames (frame.go) in a
// hand-rolled encoding (codec.go, which tabulates the wire format) over
// persistent pooled connections (a connection serves any number of requests
// in sequence); calls retry with jittered backoff and per-site circuit
// breakers fail fast when a site stays down — see CallConfig.
//
// Site failure degrades answers instead of failing queries: a transport
// failure is a SiteError, which the strategies' fan-out classifier treats as
// "site unavailable" — the answer is certified from what the live sites
// contributed and marked Degraded with the unavailable sites recorded — the
// paper's maybe semantics extended to the coarsest missingness mechanism, an
// unreachable site.
//
// The wire deployment differs from the simulated topology in one respect,
// confined to checkLink: assistant-check verdicts return to the site that
// requested the check and travel to the global processing site with its
// local result, instead of flowing to the global site directly. This keeps
// servers stateless; the certification outcome is identical.
package remote

import (
	"github.com/hetfed/hetfed/internal/antientropy"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/federation"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/trace"
)

// Request kinds.
const (
	kindPing     = "ping"
	kindRetrieve = "retrieve"
	kindLocal    = "local"
	kindCheck    = "check"
	kindStore    = "store"
	// The replica protocol's kinds (antientropy.Replica): a digest exchange,
	// a repair exchange, and the authority's bind delta.
	kindDigest = antientropy.KindDigest
	kindRepair = antientropy.KindRepair
	kindBind   = antientropy.KindBind
)

// Local query modes.
const (
	ModeBL  = "BL"
	ModePL  = "PL"
	ModeSBL = "SBL"
	ModeSPL = "SPL"
)

// errDeadline is the server's answer when a request's wire budget
// (Request.DeadlineMicros) expired while serving it. The client maps it
// back onto context.DeadlineExceeded, so callers see the same typed error
// whether the budget died on their side of the wire or the server's — and
// the circuit breaker is never charged: an over-budget request says nothing
// about the site's health.
const errDeadline = "deadline exceeded at site"

// errUnavailable is the server's answer when its injected fault plan
// (ServerConfig.Faults) marks the site down. The client maps it onto a
// SiteError, so an injected outage degrades queries exactly like a real
// one, without tearing connections.
const errUnavailable = "site unavailable (injected fault)"

// TraceContext propagates span context across the wire: a server handling
// a request records its work as a child span of Span in its own tracer,
// scoped to the same query, so the coordinator's span tree and the sites'
// span trees stitch together by (QueryID, span ID).
type TraceContext struct {
	// QueryID scopes the request to one coordinator query execution.
	QueryID string
	// Alg is the executing strategy's name.
	Alg string
	// Span is the caller's span ID, the parent of the server-side span.
	Span uint64
	// From is the calling site (the coordinator or a peer dispatching
	// checks), keying per-site-pair byte accounting.
	From object.SiteID
}

// Request is one site-server request.
type Request struct {
	Kind string
	// Trace carries the caller's span context; the zero value means an
	// untraced request.
	Trace TraceContext
	// DeadlineMicros is the query budget remaining at the caller when the
	// request was sent, in microseconds; 0 means no deadline. The budget is
	// relative — a duration, not a wall-clock instant — so it survives clock
	// skew between machines: the server re-arms its own timer on arrival
	// (the network transit time is the caller's risk, not a skew error) and
	// aborts O/I/P work when it expires, answering errDeadline.
	DeadlineMicros int64
	// Query is the global query text for retrieve and local requests; the
	// site binds it against its own copy of the global schema.
	Query string
	// Mode selects the localized flow for local requests.
	Mode string
	// Items are the assistant checks for check requests.
	Items []federation.CheckItem
	// Store is the object to insert for store requests.
	Store *object.Object
	// Bind is the mapping-table delta for bind requests (replicated-table
	// maintenance).
	Bind *antientropy.Delta
	// Digests carries the caller's per-class digest snapshot on digest
	// requests, so one exchange compares both replicas.
	Digests map[string]antientropy.Digest
	// Repair carries one class's divergent ranges for repair requests.
	Repair *antientropy.Repair
}

// LocalReply is the reply to a local request: what exec.SiteFlow gathered at
// the site — its local result plus the check verdicts (and check failures)
// it collected from its peers.
type LocalReply = exec.LocalReply

// Response is one site-server response.
type Response struct {
	Err      string
	Retrieve federation.RetrieveReply
	Local    LocalReply
	Check    federation.CheckReply
	// Spans ships the server's spans for the request's query back to the
	// caller (only on traced requests), span IDs and parent links intact, so
	// the coordinator's profile covers every participating site. A site
	// forwards the spans it imported from peers (check dispatch) the same
	// way; the importer deduplicates by span ID.
	Spans []trace.Span
	// Digests answers a digest request with the server's snapshot.
	Digests map[string]antientropy.Digest
	// Repair answers a repair request.
	Repair *antientropy.RepairReply
	// Suspect lists the answering replica's suspect classes among those the
	// request touched: its digest for them disagreed with a quorum of peers
	// at the last anti-entropy round, so mappings may be stale. The
	// coordinator folds them into the answer's degradation report — the
	// same maybe semantics as a dead site, scoped to classes.
	Suspect []string
}

// wireStats counts one exchange's bytes on the wire as seen by the caller:
// whole frames, header and payload.
type wireStats struct {
	Sent     int64
	Received int64
}
