// Command hetserve deploys the example federation over real TCP: it runs a
// component-database site server, or acts as the global processing site
// (coordinator) querying a running cluster.
//
// Start the three school sites (each in its own terminal or with &):
//
//	hetserve -site DB1 -listen 127.0.0.1:7101 \
//	    -peers DB2=127.0.0.1:7102,DB3=127.0.0.1:7103 \
//	    -metrics-addr 127.0.0.1:8101
//	hetserve -site DB2 -listen 127.0.0.1:7102 \
//	    -peers DB1=127.0.0.1:7101,DB3=127.0.0.1:7103
//	hetserve -site DB3 -listen 127.0.0.1:7103 \
//	    -peers DB1=127.0.0.1:7101,DB2=127.0.0.1:7102
//
// Then query the cluster:
//
//	hetserve -coordinator \
//	    -peers DB1=127.0.0.1:7101,DB2=127.0.0.1:7102,DB3=127.0.0.1:7103 \
//	    -alg BL -trace -metrics
//
// With -metrics-addr a process (site or coordinator) also serves the
// observability surface: /metrics, /healthz (version, uptime, peer
// circuit-breaker states — "degraded" when any breaker is open),
// /debug/queries (the flight recorder's profile listing), /debug/trace/{id}
// and /debug/trace/{id}.json (per-query Chrome trace-event export for
// chrome://tracing or ui.perfetto.dev), and /debug/pprof. -slow-query
// logs queries at/over the threshold and pins their profiles in the
// recorder. -trace and -metrics print the coordinator's span tree and
// metrics snapshot after the query.
//
// A coordinator started with -cluster-scrape SITE=HOST:PORT,... also runs
// the federation aggregator: every listed observability surface (plus the
// coordinator itself, in process) is polled each -scrape-interval and
// folded into a rollup over a trailing -scrape-window; /cluster,
// /cluster/queries and /cluster/alerts then serve the federation rollup,
// the merged slow-query log (deduped by trace ID), and the SLO alert
// state for rules given with -slo ("query_latency p99 < 50ms over 1m;
// availability >= 0.67"). cmd/hetops renders the same three endpoints as
// a live terminal dashboard.
//
// Fault-tolerance policy flags (both modes): -retries, -retry-backoff,
// -call-timeout, -dial-timeout, -pool, -breaker-failures,
// -breaker-cooldown. A coordinator queried against a partially-down
// cluster returns a degraded partial answer instead of failing: results
// that depended on the dead site are reported as maybe.
//
// Deadlines and overload: -deadline budgets each coordinator query end to
// end — the remaining budget travels with every request, sites abort
// over-budget work mid-phase, and the query returns its sound partial
// answer instead of an error; ctrl-C cancels in-flight queries the same
// way. Sites protect themselves with -max-frame (oversized request
// frames), -idle-timeout (dead-client connection reaping) and
// -write-timeout (wedged readers); -inject-delay, -inject-down and
// -inject-partition (cut the links to listed peers, both directions)
// inject site faults for resilience drills.
//
// Self-healing replication: -anti-entropy runs a background digest
// exchange against the peers at the given cadence (jittered by
// -anti-entropy-jitter), detecting and repairing mapping-table divergence;
// the repair state surfaces on /healthz as the "antientropy:state"
// condition ("ok(round=N, repaired=NB)", or "suspect(...)" when a replica
// disagrees with the quorum or sits on the minority side of a partition).
//
// Multi-tenant serving: a site started with -cache keeps a read-through
// lookup cache (GOid mappings, checked assistant verdicts; invalidated by
// the Insert replication path), and -batch-window coalesces the check
// traffic of concurrent queries into one RPC per peer per flush window
// (-batch-bytes and -batch-inflight bound batch and in-flight sizes). To
// drive load — concurrent clients, throughput and latency distributions —
// use `hetbench run -runtimes live -clients N`, the one load generator.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/hetfed/hetfed/internal/adapt"
	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/gmap"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/obs/agg"
	"github.com/hetfed/hetfed/internal/obs/slo"
	"github.com/hetfed/hetfed/internal/planner"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/schema"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store"
	"github.com/hetfed/hetfed/internal/store/wal"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/version"
)

// spanLimit bounds a long-running server's tracer so /debug/trace/last stays
// cheap and memory stays flat.
const spanLimit = 4096

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hetserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hetserve", flag.ContinueOnError)
	defaults := remote.DefaultCallConfig()
	var (
		siteName    = fs.String("site", "", "serve this component site (DB1, DB2 or DB3)")
		listen      = fs.String("listen", "127.0.0.1:0", "listen address for -site mode")
		metricsAddr = fs.String("metrics-addr", "", "serve the observability surface (/metrics, /healthz, /debug/queries, /debug/trace/…, /debug/pprof/…) on this address")
		coordinator = fs.Bool("coordinator", false, "act as the global processing site")
		peersFlag   = fs.String("peers", "", "comma-separated SITE=ADDR pairs")
		queryText   = fs.String("query", school.Q1, "query to run in -coordinator mode")
		algName     = fs.String("alg", "BL", "strategy for -coordinator mode: CA, BL, PL, SBL, SPL, or adaptive (calibrating selector fed by measured profiles and breaker states)")
		fedPath     = fs.String("fed", "", "serve/query this JSON federation instead of the built-in example")
		showTrace   = fs.Bool("trace", false, "print the query's span tree in -coordinator mode")
		showMetrics = fs.Bool("metrics", false, "print the coordinator's metrics snapshot in -coordinator mode")

		retries         = fs.Int("retries", defaults.Attempts-1, "transport retries per remote call (0 = single attempt)")
		retryBackoff    = fs.Duration("retry-backoff", defaults.BackoffBase, "base sleep before the first retry (doubles per retry, jittered)")
		callTimeout     = fs.Duration("call-timeout", defaults.CallTimeout, "deadline for one full request/response exchange")
		dialTimeout     = fs.Duration("dial-timeout", defaults.DialTimeout, "deadline for connecting to a peer")
		poolSize        = fs.Int("pool", defaults.PoolSize, "max idle pooled connections per peer")
		breakerFails    = fs.Int("breaker-failures", defaults.BreakerThreshold, "consecutive call failures that open a peer's circuit breaker (0 = disabled)")
		breakerCooldown = fs.Duration("breaker-cooldown", defaults.BreakerCooldown, "how long an open breaker waits before a half-open probe")

		useCache      = fs.Bool("cache", false, "enable the site's read-through lookup cache (GOid mappings + assistant verdicts)")
		batchWindow   = fs.Duration("batch-window", 0, "coalesce outbound check RPCs per peer across this flush window (0 = no batching)")
		batchBytes    = fs.Int("batch-bytes", 0, "flush a peer's check batch early at this many queued bytes (0 = default 64KiB)")
		batchInflight = fs.Int("batch-inflight", 0, "cap on total check-batch bytes in flight (0 = default 1MiB)")
		concurrency   = fs.Int("concurrency", 0, "max concurrently executing queries in -coordinator mode (0 = unbounded)")

		deadline     = fs.Duration("deadline", 0, "end-to-end budget per query in -coordinator mode; the remaining budget travels to every site and an over-budget query returns its sound partial answer (0 = none)")
		maxFrame     = fs.Int("max-frame", 0, "reject request frames larger than this many bytes in -site mode (0 = default 8MiB, negative = unlimited)")
		idleTimeout  = fs.Duration("idle-timeout", 0, "reap site connections idle longer than this (0 = default 5m, negative = never)")
		writeTimeout = fs.Duration("write-timeout", 0, "per-response write deadline in -site mode (0 = default 30s, negative = none)")
		injectDelay  = fs.Duration("inject-delay", 0, "fault injection: stall every served operation at this site by this long")
		injectDown   = fs.Bool("inject-down", false, "fault injection: answer every non-ping request with site-unavailable")
		injectPart   = fs.String("inject-partition", "", "fault injection: cut this process's links to these comma-separated peer sites in both directions, as if a network partition separated them")

		antiEntropy       = fs.Duration("anti-entropy", 0, "run a background anti-entropy round against the peers at this cadence, repairing mapping-table divergence (0 = disabled; digest/repair requests are served either way)")
		antiEntropyJitter = fs.Float64("anti-entropy-jitter", 0, "spread each anti-entropy wait by ±interval·jitter so the cluster's loops decorrelate (0 = default 0.2, negative = none)")

		slowQuery   = fs.Duration("slow-query", 0, "log queries at/over this latency and always retain their profiles in the flight recorder (0 = percentile-based tail retention only)")
		recorderLen = fs.Int("recorder-size", obs.DefaultRecorderSize, "flight-recorder ring capacity (profiles kept for /debug/queries)")
		showVersion = fs.Bool("version", false, "print the build version and exit")

		clusterScrape  = fs.String("cluster-scrape", "", "coordinator: poll these obs surfaces (SITE=HOST:PORT,...) into a federation rollup served at /cluster, /cluster/queries and /cluster/alerts on -metrics-addr; the coordinator observes itself in process as site G")
		scrapeInterval = fs.Duration("scrape-interval", 2*time.Second, "polling interval for -cluster-scrape")
		scrapeWindow   = fs.Duration("scrape-window", time.Minute, "trailing window for the /cluster rollup's rates")
		sloRules       = fs.String("slo", "", "semicolon-separated SLO rules evaluated against the cluster rollup after every scrape (e.g. 'query_latency p99 < 50ms over 1m; availability >= 0.67'); requires -cluster-scrape")

		dataDir   = fs.String("data-dir", "", "durable storage root: state is recovered from <data-dir>/<site> on boot (WAL+snapshot) and every mutation is logged; empty = in-memory only")
		fsync     = fs.Bool("fsync", false, "with -data-dir, fsync the WAL after every append (each acked write survives power loss; off = buffered, a crash loses only the unsynced tail)")
		snapEvery = fs.Int("snapshot-every", 0, "with -data-dir, compact the WAL into a snapshot every N appends (0 = default, negative = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println("hetserve", version.String())
		return nil
	}

	call := remote.CallConfig{
		DialTimeout:      *dialTimeout,
		CallTimeout:      *callTimeout,
		Attempts:         *retries + 1,
		BackoffBase:      *retryBackoff,
		BackoffMax:       defaults.BackoffMax,
		PoolSize:         *poolSize,
		BreakerThreshold: *breakerFails,
		BreakerCooldown:  *breakerCooldown,
	}
	batch := remote.BatchConfig{
		Window:           *batchWindow,
		MaxBytes:         *batchBytes,
		MaxInflightBytes: *batchInflight,
	}

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	fed, err := loadFederation(*fedPath)
	if err != nil {
		return err
	}
	cutPeers, err := parseSiteList(*injectPart)
	if err != nil {
		return fmt.Errorf("bad -inject-partition: %w", err)
	}
	ae := remote.AntiEntropyConfig{Interval: *antiEntropy, Jitter: *antiEntropyJitter}

	switch {
	case *coordinator:
		return runCoordinator(fed, peers, *queryText, *algName, coordOpts{
			Trace: *showTrace, Metrics: *showMetrics, Call: call,
			Concurrency: *concurrency,
			Deadline:    *deadline,
			SlowQuery:   *slowQuery, RecorderSize: *recorderLen, MetricsAddr: *metricsAddr,
			ClusterScrape: *clusterScrape, ScrapeInterval: *scrapeInterval,
			ScrapeWindow: *scrapeWindow, SLO: *sloRules,
			DataDir: *dataDir, Fsync: *fsync, SnapshotEvery: *snapEvery,
			AntiEntropy: ae, InjectPartition: cutPeers,
		})
	case *siteName != "":
		return runSite(fed, object.SiteID(*siteName), *listen, *metricsAddr, peers,
			siteOpts{Call: call, Batch: batch, Cache: *useCache,
				MaxFrameBytes: *maxFrame, IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout,
				InjectDelay: *injectDelay, InjectDown: *injectDown, InjectPartition: cutPeers,
				SlowQuery: *slowQuery, RecorderSize: *recorderLen,
				DataDir: *dataDir, Fsync: *fsync, SnapshotEvery: *snapEvery,
				AntiEntropy: ae})
	default:
		return fmt.Errorf("pass -site NAME or -coordinator")
	}
}

// federationBundle is what both modes need, from either source.
type federationBundle struct {
	Global    *schema.Global
	Databases map[object.SiteID]*store.Database
	Mapping   *gmap.Tables
}

func loadFederation(path string) (*federationBundle, error) {
	if path == "" {
		fx := school.New()
		return &federationBundle{Global: fx.Global, Databases: fx.Databases, Mapping: fx.Mapping}, nil
	}
	fed, err := fedfile.Load(path)
	if err != nil {
		return nil, err
	}
	return &federationBundle{Global: fed.Global, Databases: fed.Databases, Mapping: fed.Tables}, nil
}

// parseSiteList reads a comma-separated list of site names.
func parseSiteList(s string) ([]object.SiteID, error) {
	var out []object.SiteID
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, object.SiteID(name))
		} else if s != "" {
			return nil, fmt.Errorf("empty site name in %q", s)
		}
	}
	return out, nil
}

func parsePeers(s string) (map[object.SiteID]string, error) {
	peers := make(map[object.SiteID]string)
	if s == "" {
		return peers, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want SITE=ADDR)", pair)
		}
		peers[object.SiteID(name)] = addr
	}
	return peers, nil
}

// siteRuntime is one running instrumented site: the query server plus its
// tracer, metrics registry and (optional) observability endpoint.
type siteRuntime struct {
	Server   *remote.Server
	Obs      *obs.Server // nil unless a metrics address was given
	Tracer   *trace.Tracer
	Metrics  *metrics.Registry
	Recorder *obs.Recorder
	Engine   *wal.Engine // nil unless the site is durable (-data-dir)
}

// Close stops the site's servers and flushes its durable engine.
func (rt *siteRuntime) Close() error {
	err := rt.Server.Close()
	if rt.Obs != nil {
		if cerr := rt.Obs.Close(); err == nil {
			err = cerr
		}
	}
	if rt.Engine != nil {
		if cerr := rt.Engine.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// breakerHealth adapts a breaker-state snapshot (peer site → state) to the
// obs health surface.
func breakerHealth(states func() map[object.SiteID]string) obs.Health {
	return func() map[string]string {
		m := states()
		out := make(map[string]string, len(m))
		for site, st := range m {
			out[string(site)] = st
		}
		return out
	}
}

// mergeHealth folds several health sources into one conditions map — the
// aggregator's local self-target view of what /healthz would report.
func mergeHealth(srcs []obs.Health) func() map[string]string {
	return func() map[string]string {
		out := make(map[string]string)
		for _, src := range srcs {
			for k, v := range src() {
				out[k] = v
			}
		}
		return out
	}
}

// profileSummaries maps the flight recorder's listing into the
// aggregator's slow-query rows (same fields the remote sites serve on
// /debug/queries).
func profileSummaries(rec *obs.Recorder) []agg.QuerySummary {
	profiles := rec.Profiles()
	out := make([]agg.QuerySummary, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, agg.QuerySummary{
			ID:          p.ID,
			Alg:         p.Alg,
			Status:      p.Status,
			WallMicros:  p.WallMicros,
			Certain:     p.Certain,
			Maybe:       p.Maybe,
			Unavailable: p.Unavailable,
		})
	}
	return out
}

// parseScrapeTargets parses the -cluster-scrape flag: SITE=HOST:PORT (or
// SITE=http://...) pairs naming each site's observability surface.
func parseScrapeTargets(s string) ([]agg.Target, error) {
	var out []agg.Target
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -cluster-scrape entry %q (want SITE=HOST:PORT)", pair)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		out = append(out, agg.Target{Site: name, URL: strings.TrimSuffix(addr, "/")})
	}
	return out, nil
}

// siteOpts bundles a site's serving policy: networking, check batching,
// the lookup cache, and the flight recorder's retention knobs.
type siteOpts struct {
	Call  remote.CallConfig
	Batch remote.BatchConfig
	Cache bool
	// MaxFrameBytes, IdleTimeout and WriteTimeout are the server's
	// self-protection bounds (see remote.ServerConfig).
	MaxFrameBytes int
	IdleTimeout   time.Duration
	WriteTimeout  time.Duration
	// InjectDelay, InjectDown and InjectPartition inject faults at this
	// site: every served operation stalls by InjectDelay (cancellable by
	// the request's budget), InjectDown answers every non-ping request
	// site-unavailable, and InjectPartition cuts this site's links to the
	// listed peers in both directions.
	InjectDelay     time.Duration
	InjectDown      bool
	InjectPartition []object.SiteID
	// AntiEntropy configures the background digest-exchange repair loop
	// (zero Interval disables it; the repair wire kinds are served either
	// way).
	AntiEntropy remote.AntiEntropyConfig
	// SlowQuery marks served requests at/over this latency slow: logged and
	// always retained in the flight recorder (0 = percentile retention only).
	SlowQuery time.Duration
	// RecorderSize bounds the flight-recorder ring (0 = default).
	RecorderSize int
	// DataDir, Fsync and SnapshotEvery configure durable storage: with a
	// DataDir the site recovers its state from <DataDir>/<site> before
	// serving (seeding the federation fixture on first boot) and logs
	// every mutation through a WAL+snapshot engine.
	DataDir       string
	Fsync         bool
	SnapshotEvery int
}

// startSite builds and starts one fully instrumented component-site server;
// runSite adds the signal-wait around it.
func startSite(fed *federationBundle, site object.SiteID, listen, metricsAddr string,
	peers map[object.SiteID]string, opts siteOpts, log *slog.Logger) (*siteRuntime, error) {
	db, ok := fed.Databases[site]
	if !ok {
		return nil, fmt.Errorf("unknown site %q in this federation", site)
	}
	tr := &trace.Tracer{}
	tr.SetLimit(spanLimit)
	reg := metrics.New()
	rec := obs.NewRecorder(obs.RecorderConfig{
		Site:          string(site),
		Size:          opts.RecorderSize,
		SlowThreshold: opts.SlowQuery,
		Log:           log,
		Metrics:       reg,
	})
	var faults *fabric.FaultPlan
	if opts.InjectDelay > 0 || opts.InjectDown || len(opts.InjectPartition) > 0 {
		faults = fabric.NewFaultPlan()
		if opts.InjectDelay > 0 {
			faults.Delay(site, float64(opts.InjectDelay.Microseconds()))
		}
		if opts.InjectDown {
			faults.Kill(site)
		}
		for _, peer := range opts.InjectPartition {
			faults.DropLink(site, peer)
			faults.DropLink(peer, site)
		}
	}
	// Durable mode: recover this site's state from its WAL+snapshot
	// directory, merge any fixture entries the recovered store doesn't have
	// yet (first boot seeds everything), and serve the recovered database
	// and mapping tables with every further mutation logged through the
	// engine.
	tables := fed.Mapping
	var eng *wal.Engine
	if opts.DataDir != "" {
		var rdb *store.Database
		var err error
		eng, rdb, tables, err = wal.Open(db.Schema(), wal.Options{
			Dir:           filepath.Join(opts.DataDir, string(site)),
			Fsync:         opts.Fsync,
			SnapshotEvery: opts.SnapshotEvery,
			Site:          string(site),
			Metrics:       reg,
			Tracer:        tr,
			Log:           log,
		})
		if err != nil {
			return nil, err
		}
		if err := eng.Import(db, fed.Mapping); err != nil {
			eng.Close()
			return nil, err
		}
		log.Info("durable store ready",
			slog.String("dir", filepath.Join(opts.DataDir, string(site))),
			slog.Uint64("seq", eng.Seq()),
			slog.Bool("fsync", opts.Fsync))
		db = rdb
	}
	cfg := remote.ServerConfig{
		DB:            db,
		Global:        fed.Global,
		Tables:        tables,
		Peers:         peers,
		Signatures:    signature.Build(fed.Databases),
		Tracer:        tr,
		Metrics:       reg,
		Recorder:      rec,
		Log:           log,
		Call:          opts.Call,
		Batch:         opts.Batch,
		Cache:         opts.Cache,
		MaxFrameBytes: opts.MaxFrameBytes,
		IdleTimeout:   opts.IdleTimeout,
		WriteTimeout:  opts.WriteTimeout,
		Faults:        faults,
		AntiEntropy:   opts.AntiEntropy,
	}
	if eng != nil {
		cfg.Engine = eng
	}
	srv, err := remote.NewServer(cfg)
	if err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, err
	}
	if err := srv.Listen(listen); err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, err
	}
	rt := &siteRuntime{Server: srv, Tracer: tr, Metrics: reg, Recorder: rec, Engine: eng}
	if metricsAddr != "" {
		// The divergence tracker reports on /healthz ("antientropy:state" →
		// "ok(round=N, repaired=NB)" or "suspect(C1,C2) …") so the cluster
		// rollup and hetops show each replica's repair state.
		health := []obs.Health{
			breakerHealth(srv.PeerBreakers),
			obs.PrefixHealth("antientropy", srv.Tracker().Health),
		}
		if eng != nil {
			// Durable sites surface their storage engine on /healthz
			// ("wal:engine" → "ok(seq=N)") so the cluster rollup shows WAL
			// state per site.
			health = append(health, obs.PrefixHealth("wal", eng.Health))
		}
		o, err := obs.Serve(metricsAddr, string(site), reg, tr, rec, health...)
		if err != nil {
			srv.Close()
			return nil, err
		}
		rt.Obs = o
	}
	return rt, nil
}

func runSite(fed *federationBundle, site object.SiteID, listen, metricsAddr string, peers map[object.SiteID]string, opts siteOpts) error {
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	rt, err := startSite(fed, site, listen, metricsAddr, peers, opts, log)
	if err != nil {
		return err
	}
	attrs := []any{
		slog.String("site", string(site)),
		slog.String("addr", rt.Server.Addr()),
		slog.Int("objects", fed.Databases[site].Len()),
	}
	if rt.Obs != nil {
		attrs = append(attrs, slog.String("metrics_addr", rt.Obs.Addr()))
	}
	log.Info("site serving", attrs...)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Info("shutting down", slog.String("site", string(site)))
	return rt.Close()
}

// coordOpts selects the coordinator's diagnostic output and call policy.
type coordOpts struct {
	// Trace prints the query's span tree as seen from the coordinator.
	Trace bool
	// Metrics prints the coordinator's metrics snapshot (text form).
	Metrics bool
	// Call is the retry/pool/breaker policy for coordinator RPCs.
	Call remote.CallConfig
	// Concurrency bounds concurrently executing queries (0 = unbounded).
	Concurrency int
	// Deadline caps each query's end-to-end time (0 = none).
	Deadline time.Duration
	// SlowQuery and RecorderSize configure the coordinator's flight
	// recorder (see siteOpts).
	SlowQuery    time.Duration
	RecorderSize int
	// MetricsAddr, when non-empty, serves the coordinator's observability
	// surface (/metrics, /healthz, /debug/queries, /debug/trace/…) while the
	// queries run.
	MetricsAddr string
	// ClusterScrape ("SITE=HOST:PORT,..."), when non-empty, runs the
	// federation aggregator: every listed obs surface (plus the
	// coordinator itself, in process) is polled each ScrapeInterval and
	// folded into the /cluster rollup over a trailing ScrapeWindow. SLO,
	// when also non-empty, evaluates burn-rate alert rules against the
	// rollup after every scrape and serves them at /cluster/alerts.
	ClusterScrape  string
	ScrapeInterval time.Duration
	ScrapeWindow   time.Duration
	SLO            string
	// DataDir, Fsync and SnapshotEvery make the coordinator durable: the
	// global mapping table and its bind-delta log are recovered from
	// <DataDir>/G on boot, every accepted bind is logged before it is
	// applied, and an overflowed replica-resync queue is rebuilt by
	// replaying the log instead of dropping deltas.
	DataDir       string
	Fsync         bool
	SnapshotEvery int
	// AntiEntropy configures the coordinator's background repair loop
	// against the site replicas (zero Interval disables it).
	AntiEntropy remote.AntiEntropyConfig
	// InjectPartition cuts the coordinator's links to the listed sites in
	// both directions — a partition drill from the global site's side.
	InjectPartition []object.SiteID
}

func runCoordinator(fed *federationBundle, peers map[object.SiteID]string, queryText, algName string, opts coordOpts) error {
	alg, err := exec.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	tr := &trace.Tracer{}
	tr.SetLimit(spanLimit)
	reg := metrics.New()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("site", "G")
	rec := obs.NewRecorder(obs.RecorderConfig{
		Site:          "G",
		Size:          opts.RecorderSize,
		SlowThreshold: opts.SlowQuery,
		Log:           log,
		Metrics:       reg,
	})
	// Durable mode: recover the global mapping tables and bind-delta log
	// from <DataDir>/G, merge fixture bindings the log doesn't have yet, and
	// hand the coordinator the recovered tables plus the log itself (every
	// accepted bind is appended before it is applied; the resync path
	// replays the log instead of dropping deltas on overflow).
	tables := fed.Mapping
	var deltaLog *wal.Engine
	if opts.DataDir != "" {
		var err error
		deltaLog, tables, err = wal.OpenLog(wal.Options{
			Dir:           filepath.Join(opts.DataDir, "G"),
			Fsync:         opts.Fsync,
			SnapshotEvery: opts.SnapshotEvery,
			Site:          "G",
			Metrics:       reg,
			Tracer:        tr,
			Log:           log,
		})
		if err != nil {
			return err
		}
		defer deltaLog.Close()
		if err := deltaLog.Import(nil, fed.Mapping); err != nil {
			return err
		}
		log.Info("durable delta log ready",
			slog.String("dir", filepath.Join(opts.DataDir, "G")),
			slog.Uint64("seq", deltaLog.Seq()),
			slog.Bool("fsync", opts.Fsync))
	}
	call := opts.Call
	if len(opts.InjectPartition) > 0 {
		plan := fabric.NewFaultPlan()
		for _, peer := range opts.InjectPartition {
			plan.DropLink("G", peer)
			plan.DropLink(peer, "G")
		}
		call.Faults = plan
	}
	coord := &remote.Coordinator{
		ID:            "G",
		Global:        fed.Global,
		Tables:        tables,
		Sites:         peers,
		Tracer:        tr,
		Metrics:       reg,
		Recorder:      rec,
		Log:           log,
		Call:          call,
		MaxConcurrent: opts.Concurrency,
		Deadline:      opts.Deadline,
		AntiEntropy:   opts.AntiEntropy,
	}
	if deltaLog != nil {
		coord.DeltaLog = deltaLog
	}
	defer coord.Close()
	// The repair loop stops before Close (LIFO defer order).
	defer coord.StartAntiEntropy()()
	// Adaptive mode: the selector plans over the bundle's catalog (the
	// coordinator holds the same federation document the sites serve from),
	// calibrated by each query's measured profile and steered by the live
	// peer breaker states.
	var selector *adapt.Selector
	if alg == exec.Adaptive {
		cat := planner.BuildCatalog(fed.Global, fed.Databases, tables)
		selector = adapt.NewSelector(cat,
			adapt.NewCalibrator(adapt.Config{Coordinator: "G"}), coord.BreakerStates)
		coord.Selector = selector
	}
	// /healthz merges the peer breaker states with the replica-resync
	// backlog ("resync:DB2" → "pending(3)"/"needs-rebuild") and, in durable
	// mode, the WAL engine's state, so a coordinator holding undelivered
	// bind deltas or a stopped log reports degraded.
	healthSrcs := []obs.Health{
		breakerHealth(coord.BreakerStates),
		obs.PrefixHealth("resync", breakerHealth(coord.ResyncStates)),
		obs.PrefixHealth("antientropy", coord.Tracker().Health),
	}
	if deltaLog != nil {
		healthSrcs = append(healthSrcs, obs.PrefixHealth("wal", deltaLog.Health))
	}
	if opts.ClusterScrape != "" && opts.MetricsAddr == "" {
		return fmt.Errorf("-cluster-scrape serves /cluster on the observability surface; pass -metrics-addr too")
	}
	if opts.SLO != "" && opts.ClusterScrape == "" {
		return fmt.Errorf("-slo judges the cluster rollup; pass -cluster-scrape too")
	}
	switch {
	case opts.MetricsAddr != "" && opts.ClusterScrape != "":
		targets, err := parseScrapeTargets(opts.ClusterScrape)
		if err != nil {
			return err
		}
		// The coordinator observes itself in process: no HTTP round-trip,
		// and its row carries the end-to-end query metrics.
		targets = append([]agg.Target{{
			Site:         "G",
			Local:        reg.Snapshot,
			LocalHealth:  mergeHealth(healthSrcs),
			LocalQueries: func() []agg.QuerySummary { return profileSummaries(rec) },
		}}, targets...)
		scraper, err := agg.New(agg.Config{
			Site:     "G",
			Targets:  targets,
			Interval: opts.ScrapeInterval,
			Window:   opts.ScrapeWindow,
			Metrics:  reg,
			Log:      log,
		})
		if err != nil {
			return err
		}
		var alerts http.Handler
		if opts.SLO != "" {
			rules, err := slo.ParseRules(opts.SLO)
			if err != nil {
				return err
			}
			engine, err := slo.New(slo.Config{
				Site: "G", Source: scraper, Rules: rules, Metrics: reg, Log: log,
			})
			if err != nil {
				return err
			}
			scraper.SetOnScrape(engine.Evaluate)
			alerts = engine.Handler()
		}
		mux := obs.NewMux("G", reg, tr, time.Now(), rec, healthSrcs...)
		scraper.Register(mux, alerts)
		o, err := obs.ServeHandler(opts.MetricsAddr, "G", reg, mux)
		if err != nil {
			return err
		}
		defer o.Close()
		scraper.Start()
		defer scraper.Stop()
		log.Info("observability serving",
			slog.String("addr", o.Addr()),
			slog.Int("scrape_targets", len(targets)),
			slog.Bool("slo", opts.SLO != ""))
	case opts.MetricsAddr != "":
		o, err := obs.Serve(opts.MetricsAddr, "G", reg, tr, rec, healthSrcs...)
		if err != nil {
			return err
		}
		defer o.Close()
		log.Info("observability serving", slog.String("addr", o.Addr()))
	}
	if err := coord.Ping(); err != nil {
		// Unreachable sites no longer abort the query: execution degrades
		// and the affected results come back as maybe.
		log.Warn("some sites unreachable, proceeding degraded", slog.Any("err", err))
	}
	// Ctrl-C cancels in-flight queries (in-flight exchanges cut, admission
	// slots released, partial answers printed) instead of killing the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ans, elapsed, err := coord.QueryContext(ctx, queryText, alg)
	if err != nil {
		return err
	}
	algLabel := alg.String()
	if selector != nil {
		if d := selector.LastDecision(); d != nil {
			algLabel = fmt.Sprintf("adaptive → %v", d.Alg)
		}
	}
	fmt.Printf("query: %s\nstrategy: %s  (%.2f ms over TCP)\n", queryText, algLabel,
		float64(elapsed.Microseconds())/1e3)
	if ans.Interrupted() {
		fmt.Printf("INTERRUPTED (%s): sound partial answer\n", ans.Outcome)
	}
	if ans.Degraded {
		fmt.Printf("DEGRADED: partial answer, %d site(s) unavailable:\n", len(ans.Unavailable))
		for _, f := range ans.Unavailable {
			fmt.Printf("  %s: %s\n", f.Site, f.Reason)
		}
	}
	fmt.Printf("certain results (%d):\n", len(ans.Certain))
	for _, r := range ans.Certain {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("maybe results (%d):\n", len(ans.Maybe))
	for _, r := range ans.Maybe {
		fmt.Printf("  %s\n", r)
	}
	if opts.Trace {
		fmt.Printf("\nspan tree (coordinator view):\n%s", tr.RenderTree())
	}
	if opts.Metrics {
		fmt.Printf("\ncoordinator metrics:\n%s", reg.Snapshot().Text())
	}
	return nil
}
