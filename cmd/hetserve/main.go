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
// observability surface — a coordinator prints its answer and then keeps
// serving until SIGINT/SIGTERM, as a site does: /metrics, /healthz (version,
// uptime, the replica's and the WAL's conditions — "degraded" when one is
// not ok),
// /debug/queries (the flight recorder's profile listing), /debug/trace/{id}
// and /debug/trace/{id}.json (per-query Chrome trace-event export for
// chrome://tracing or ui.perfetto.dev), and /debug/pprof. -slow-query
// logs queries at/over the threshold and pins their profiles in the
// recorder. -trace and -metrics print the coordinator's span tree and
// metrics snapshot after the query. Each process serves only its own
// surface; nothing polls another's.
//
// Outbound calls (both modes) follow remote.DefaultCallConfig — one exchange
// per call, never resent, four pooled connections per peer — with
// -call-timeout and -dial-timeout adjustable. A coordinator queried against
// a partially-down cluster returns a degraded partial answer instead of
// failing: results that depended on the dead site are reported as maybe,
// and the answer names each unavailable site with its reason.
//
// Deadlines and overload: -deadline budgets each coordinator query end to
// end — the remaining budget travels with every request, sites abort
// over-budget work mid-phase, and the query returns its sound partial
// answer instead of an error; ctrl-C cancels in-flight queries the same
// way. Sites refuse request frames over 8 MiB, reap connections idle for 5
// minutes, and drop readers that stall a response for 30s. -fault injects
// faults for resilience drills, in the grammar hetql and hetbench share
// (fabric.ParseFaults):
// "delay:3m" stalls every operation served here, "kill" answers every
// non-ping request with site-unavailable, "cut:DB2" cuts this process's
// links to DB2 in both directions; terms are comma-separated.
//
// Self-healing replication: -anti-entropy runs a background digest
// exchange against the peers at the given cadence (jittered ±20 %),
// detecting and repairing mapping-table divergence;
// the repair state surfaces on /healthz as the "antientropy:state"
// condition ("ok(round=N, repaired=NB)", or "suspect(...)" when a replica
// disagrees with the quorum or sits on the minority side of a partition).
//
// To measure load — one and two closed-loop clients, throughput and latency
// distributions over TCP — run `bash benchmark/run.sh`. It starts its own
// site servers and coordinator in process; it does not drive a cluster
// started with hetserve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/hetfed/hetfed/internal/exec"
	"github.com/hetfed/hetfed/internal/fabric"
	"github.com/hetfed/hetfed/internal/fedfile"
	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/object"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/remote"
	"github.com/hetfed/hetfed/internal/school"
	"github.com/hetfed/hetfed/internal/signature"
	"github.com/hetfed/hetfed/internal/store/wal"
	"github.com/hetfed/hetfed/internal/trace"
	"github.com/hetfed/hetfed/internal/version"
)

func main() {
	// -h prints the usage and asks for nothing else: not a failure.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hetserve:", err)
		os.Exit(1)
	}
}

// cmdline is the parsed command line. A flag that configures a library value
// is bound (parse) straight into the field of that value — the server's or
// coordinator's call policy, the WAL's and the recorder's options — so an
// option is declared once, by its flag, and documented by the field it sets.
// The plain fields are what hetserve itself acts on.
type cmdline struct {
	site, listen            string
	coordinator             bool
	metricsAddr, peers, fed string
	query, alg              string
	trace, metrics, version bool
	fault                   string
	deadline, antiEntropy   time.Duration

	call     remote.CallConfig // both modes' outbound policy
	wal      wal.Options       // Dir holds the -data-dir root
	recorder obs.RecorderConfig
}

func (c *cmdline) parse(args []string) error {
	fs := flag.NewFlagSet("hetserve", flag.ContinueOnError)
	fs.StringVar(&c.site, "site", "", "serve this component site (DB1, DB2 or DB3)")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "listen address for -site mode")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve the observability surface (/metrics, /healthz, /debug/queries, /debug/trace/…, /debug/pprof/…) on this address")
	fs.BoolVar(&c.coordinator, "coordinator", false, "act as the global processing site")
	fs.StringVar(&c.peers, "peers", "", "comma-separated SITE=ADDR pairs")
	fs.StringVar(&c.query, "query", school.Q1, "query to run in -coordinator mode")
	fs.StringVar(&c.alg, "alg", "BL", "strategy for -coordinator mode: CA, BL, PL, SBL or SPL")
	fs.StringVar(&c.fed, "fed", "", "serve/query this JSON federation instead of the built-in example")
	fs.BoolVar(&c.trace, "trace", false, "print the query's span tree in -coordinator mode")
	fs.BoolVar(&c.metrics, "metrics", false, "print the coordinator's metrics snapshot in -coordinator mode")
	fs.BoolVar(&c.version, "version", false, "print the build version and exit")

	c.call = remote.DefaultCallConfig()
	fs.DurationVar(&c.call.CallTimeout, "call-timeout", c.call.CallTimeout, "deadline for one full request/response exchange")
	fs.DurationVar(&c.call.DialTimeout, "dial-timeout", c.call.DialTimeout, "deadline for connecting to a peer")

	fs.DurationVar(&c.deadline, "deadline", 0, "end-to-end budget per query in -coordinator mode; the remaining budget travels to every site and an over-budget query returns its sound partial answer (0 = none)")
	fs.StringVar(&c.fault, "fault", "", "fault injection, comma-separated: delay:DURATION (stall every operation served at this site), kill (answer every non-ping request with site-unavailable), drop:SITE:N (dark after N operations), cut:SITE (cut this process's links to SITE in both directions, as if a network partition separated them); a coordinator acts on cut only")

	fs.DurationVar(&c.antiEntropy, "anti-entropy", 0, "run a background anti-entropy round against the peers at this cadence, repairing mapping-table divergence (0 = disabled; digest/repair requests are served either way)")

	fs.DurationVar(&c.recorder.SlowThreshold, "slow-query", 0, "log queries at/over this latency and always retain their profiles in the flight recorder (0 = percentile-based tail retention only)")

	fs.StringVar(&c.wal.Dir, "data-dir", "", "durable storage root: state is recovered from <data-dir>/<site> on boot (WAL+snapshot) and every mutation is logged; empty = in-memory only")
	fs.BoolVar(&c.wal.Fsync, "fsync", false, "with -data-dir, fsync the WAL after every append (each acked write survives power loss; off = buffered, a crash loses only the unsynced tail)")
	return fs.Parse(args)
}

// validate refuses flag combinations that cannot mean what was asked. It runs
// before any listener or WAL directory exists, so a refused command
// line leaves nothing behind.
func (c *cmdline) validate() error {
	switch {
	case c.coordinator && c.site != "":
		return fmt.Errorf("-site and -coordinator are two processes; pass one")
	case !c.coordinator && c.site == "":
		return fmt.Errorf("pass -site NAME or -coordinator")
	case c.wal.Dir == "" && c.wal.Fsync:
		return fmt.Errorf("-fsync tunes the durable store; pass -data-dir too")
	}
	return nil
}

func run(args []string) error {
	var c cmdline
	if err := c.parse(args); err != nil {
		return err
	}
	if c.version {
		fmt.Println("hetserve", version.String())
		return nil
	}
	if err := c.validate(); err != nil {
		return err
	}
	peers, err := parsePeers(c.peers)
	if err != nil {
		return err
	}
	fed, err := loadFederation(c.fed)
	if err != nil {
		return err
	}
	if c.coordinator {
		return runCoordinator(fed, peers, &c)
	}
	return runSite(fed, peers, &c)
}

// loadFederation loads the -fed document, or builds the school example.
func loadFederation(path string) (*fedfile.Federation, error) {
	if path == "" {
		fx := school.New()
		return &fedfile.Federation{Schemas: fx.Schemas, Global: fx.Global, Databases: fx.Databases, Tables: fx.Mapping}, nil
	}
	return fedfile.Load(path)
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

// siteRuntime is one running instrumented site: the site itself plus its
// metrics registry, flight recorder and (optional) observability endpoint.
// Its tracer is the server's alone: it holds only requests in flight, and
// every finished request's spans are in the recorder.
type siteRuntime struct {
	*remote.Site
	Obs      *obs.Server // nil unless a metrics address was given
	Metrics  *metrics.Registry
	Recorder *obs.Recorder
}

// Close stops the observability endpoint, then the site (its server, then
// its durable engine).
func (rt *siteRuntime) Close() error {
	var err error
	if rt.Obs != nil {
		err = rt.Obs.Close()
	}
	return errors.Join(err, rt.Site.Close())
}

// instruments gives a process — a site, or the coordinator "G" — the
// instruments the command line asks for: a metrics registry and the flight
// recorder, and — with -data-dir, nil without — the WAL options for the
// process's own subdirectory of the root.
func (c *cmdline) instruments(site string, log *slog.Logger) (*siteRuntime, *wal.Options) {
	reg := metrics.New()
	rc := c.recorder
	rc.Site, rc.Log, rc.Metrics = site, log, reg
	rt := &siteRuntime{Metrics: reg, Recorder: obs.NewRecorder(rc)}
	if c.wal.Dir == "" {
		return rt, nil
	}
	wo := c.wal
	wo.Dir, wo.Site, wo.Metrics, wo.Log = filepath.Join(wo.Dir, site), site, reg, log
	return rt, &wo
}

// instrument gives a site's config what the command line asks of every
// site — its instruments, the log, the call policy and the repair loop — and
// returns the runtime holding the instruments, with the site's WAL options.
func (c *cmdline) instrument(site object.SiteID, cfg *remote.ServerConfig, log *slog.Logger) (*siteRuntime, *wal.Options) {
	rt, walOpts := c.instruments(string(site), log)
	cfg.Tracer, cfg.Metrics, cfg.Recorder, cfg.Log = &trace.Tracer{}, rt.Metrics, rt.Recorder, log
	cfg.Call, cfg.AntiEntropy = c.call, c.antiEntropy
	return rt, walOpts
}

// startSite builds and starts one fully instrumented component site — with
// -data-dir, recovered from (and on first boot seeded into) its WAL
// directory — and serves its surface; runSite adds the signal-wait around it.
func startSite(fed *fedfile.Federation, peers map[object.SiteID]string, c *cmdline, log *slog.Logger) (*siteRuntime, error) {
	site := object.SiteID(c.site)
	db, ok := fed.Databases[site]
	if !ok {
		return nil, fmt.Errorf("unknown site %q in this federation", site)
	}
	faults, err := fabric.ParseFaults(c.fault, site)
	if err != nil {
		return nil, fmt.Errorf("-fault: %w", err)
	}
	cfg := remote.ServerConfig{DB: db, Global: fed.Global, Tables: fed.Tables, Peers: peers,
		Signatures: signature.Build(fed.Databases), Faults: faults()}
	rt, walOpts := c.instrument(site, &cfg, log)
	if rt.Site, err = remote.StartSite(cfg, c.listen, walOpts); err != nil {
		return nil, err
	}
	if rt.Engine != nil {
		log.Info("durable store ready",
			slog.String("dir", walOpts.Dir),
			slog.Uint64("seq", rt.Engine.Seq()),
			slog.Bool("fsync", walOpts.Fsync))
	}
	if err := rt.serve(c, log); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// serve opens the site's observability surface when -metrics-addr asks for
// one, and logs what the site serves: after a durable restart that is the
// recovered extent, inserts included, not the fixture it was seeded from.
func (rt *siteRuntime) serve(c *cmdline, log *slog.Logger) error {
	site := string(rt.Server.Site())
	attrs := []any{
		slog.String("site", site),
		slog.String("addr", rt.Server.Addr()),
		slog.Int("objects", rt.DB.Len()),
	}
	if c.metricsAddr != "" {
		// The divergence tracker reports on /healthz ("antientropy:state" →
		// "ok(round=N, repaired=NB)" or "suspect(C1,C2) …").
		health := []obs.Health{obs.PrefixHealth("antientropy", rt.Server.Replica().Health)}
		if rt.Engine != nil {
			// Durable sites surface their storage engine on /healthz
			// ("wal:engine" → "ok(seq=N)").
			health = append(health, obs.PrefixHealth("wal", rt.Engine.Health))
		}
		o, err := obs.Serve(c.metricsAddr, site, rt.Metrics, rt.Recorder, health...)
		if err != nil {
			return err
		}
		rt.Obs = o
		attrs = append(attrs, slog.String("metrics_addr", o.Addr()))
	}
	log.Info("site serving", attrs...)
	return nil
}

func runSite(fed *fedfile.Federation, peers map[object.SiteID]string, c *cmdline) error {
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	rt, err := startSite(fed, peers, c, log)
	if err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Info("shutting down", slog.String("site", c.site))
	return rt.Close()
}

func runCoordinator(fed *fedfile.Federation, peers map[object.SiteID]string, c *cmdline) error {
	alg, err := exec.ParseAlgorithm(c.alg)
	if err != nil {
		return err
	}
	// A partition drill from the global site's side: the plan sits on the
	// coordinator's outbound calls.
	faults, err := fabric.ParseFaults(c.fault, "G")
	if err != nil {
		return fmt.Errorf("-fault: %w", err)
	}
	call := c.call
	call.Faults = faults()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("site", "G")
	in, walOpts := c.instruments("G", log)
	reg, rec := in.Metrics, in.Recorder
	// Durable mode: recover the global mapping tables and bind-delta log
	// from <data-dir>/G, merge fixture bindings the log doesn't have yet, and
	// hand the coordinator the recovered tables plus the log itself (every
	// accepted bind is appended before it is applied, so a restart holds
	// everything the sites may have been told).
	tables := fed.Tables
	coord := &remote.Coordinator{}
	var deltaLog *wal.Engine
	if walOpts != nil {
		deltaLog, tables, err = wal.OpenLog(*walOpts)
		if err != nil {
			return err
		}
		defer deltaLog.Close()
		coord.DeltaLog = deltaLog
		if err := deltaLog.Import(nil, fed.Tables); err != nil {
			return err
		}
		log.Info("durable delta log ready",
			slog.String("dir", walOpts.Dir),
			slog.Uint64("seq", deltaLog.Seq()),
			slog.Bool("fsync", walOpts.Fsync))
	}
	coord.ID, coord.Global, coord.Tables, coord.Sites = "G", fed.Global, tables, peers
	coord.Tracer, coord.Metrics, coord.Recorder, coord.Log = &trace.Tracer{}, reg, rec, log
	coord.Call, coord.AntiEntropy = call, c.antiEntropy
	defer coord.Close()
	// The repair loop stops before Close (LIFO defer order).
	defer coord.StartAntiEntropy()()
	// /healthz reports the replica's divergence state ("antientropy:state"
	// → "suspect(Teacher) …") and, in durable mode, the WAL engine's state,
	// so a coordinator whose replica diverged from a quorum or whose log
	// stopped reports degraded.
	healthSrcs := []obs.Health{obs.PrefixHealth("antientropy", coord.Replica().Health)}
	if deltaLog != nil {
		healthSrcs = append(healthSrcs, obs.PrefixHealth("wal", deltaLog.Health))
	}
	if c.metricsAddr != "" {
		o, err := obs.Serve(c.metricsAddr, "G", reg, rec, healthSrcs...)
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
	// Ctrl-C cancels in-flight queries (in-flight exchanges cut, partial
	// answers printed) instead of killing the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	qctx := ctx
	if c.deadline > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(ctx, c.deadline)
		defer cancel()
	}
	ans, elapsed, err := coord.QueryContext(qctx, c.query, alg)
	if err != nil {
		return err
	}
	fmt.Printf("query: %s\nstrategy: %s  (%.2f ms over TCP)\n%s", c.query, alg,
		float64(elapsed.Microseconds())/1e3, ans.Text(nil))
	if c.trace {
		fmt.Printf("\nspan tree (coordinator view):\n%s", rec.Last().RenderTree())
	}
	if c.metrics {
		fmt.Printf("\ncoordinator metrics:\n%s", reg.Snapshot().Text())
	}
	if c.metricsAddr != "" {
		// The observability surface outlives the one query, as a site's
		// does: /healthz, /metrics and the query's trace stay up to be read.
		log.Info("answer printed; serving observability until interrupted")
		<-ctx.Done()
	}
	return nil
}
