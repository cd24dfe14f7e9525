// Package agg is the federation-wide observability aggregator: a Scraper
// that polls every site's /metrics and /healthz on an interval, folds the
// per-site snapshots into cluster rollups (windowed QPS/latency/degraded
// rates over merged histograms, per-site liveness and staleness, breaker /
// anti-entropy / WAL conditions), and serves them from the coordinator as
// /cluster and /cluster/queries (see handlers.go). The obs/slo package
// evaluates burn-rate alert rules against the same windowed deltas.
//
// Counter resets: a durable site that restarts (PR 8) comes back with a
// fresh registry, so its counters shrink between two scrapes. The scraper
// accumulates reset-aware deltas (metrics.Snapshot.DeltaWithResets) into a
// per-site cumulative snapshot that stays monotone across restarts —
// windowed rates never go negative — and counts each observation in
// scrape_resets_total{peer}.
package agg

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
	"github.com/hetfed/hetfed/internal/trace"
)

// Target names one scrape target. Remote targets are polled over HTTP
// (URL is the base of an obs surface, e.g. "http://127.0.0.1:8101"); a
// local target short-circuits HTTP and reads in process — the coordinator
// observes itself this way, so its own rollup row needs no self-request
// and no bound-address bootstrapping order.
type Target struct {
	// Site names the target in rollups and the peer label of scrape metrics.
	Site string
	// URL is the base URL of a remote obs surface. Ignored when Local is set.
	URL string
	// Local, when non-nil, supplies the metrics snapshot in process.
	Local func() metrics.Snapshot
	// LocalHealth supplies /healthz-style conditions for a local target
	// (may be nil: no conditions). Status derives via obs.Healthy.
	LocalHealth func() map[string]string
	// LocalQueries supplies the flight recorder's profiles for a local
	// target (may be nil). Remote targets are listed via /debug/queries.
	LocalQueries func() []*trace.Profile
}

// The aggregator runs at the global processing site, whose name labels its
// own scrape_*/cluster_* metrics; its rollups cover the trailing window,
// all the history it keeps.
const (
	site   = "G"
	window = obs.Window
)

// Config parameterizes a Scraper.
type Config struct {
	// Targets are the sites to scrape. At least one is required.
	Targets []Target
	// Interval between scrape passes (default 2s). A site is stale when its
	// last successful scrape is more than three intervals old.
	Interval time.Duration
	// Metrics receives the scraper's own instrumentation (may be nil).
	Metrics *metrics.Registry
	// Log receives scrape-failure and staleness events (may be nil).
	Log *slog.Logger
}

// sample is one point of a site's cumulative (reset-adjusted) history.
type sample struct {
	t    time.Time
	snap metrics.Snapshot
}

// healthReport mirrors the /healthz JSON body.
type healthReport struct {
	Status   string            `json:"status"`
	Version  string            `json:"version"`
	UptimeS  float64           `json:"uptime_seconds"`
	Breakers map[string]string `json:"breakers"`
}

type siteState struct {
	target      Target
	haveRaw     bool
	lastRaw     metrics.Snapshot // as the site reported it (pre-reset-adjust)
	cum         metrics.Snapshot // monotone across restarts
	history     []sample         // ascending by time, trimmed to the window
	lastOK      time.Time
	lastErr     string
	consecFails int
	resets      int64
	health      healthReport
	haveHealth  bool
}

// Scraper polls the configured targets and maintains the federation
// rollup. Start launches the polling loop; ScrapeOnce drives it manually
// (tests, -once tooling). All accessors are safe for concurrent use.
type Scraper struct {
	cfg        Config
	staleAfter time.Duration
	client     *http.Client
	nowFn      func() time.Time

	mu    sync.Mutex
	sites []*siteState // config order
	// onScrape, when non-nil, runs after every completed scrape pass (see
	// SetOnScrape).
	onScrape func()

	loopCtx    context.Context
	loopCancel context.CancelFunc
	done       chan struct{}
	started    bool
}

// New validates cfg, applies defaults, and builds a Scraper (not yet
// polling — call Start, or drive it with ScrapeOnce).
func New(cfg Config) (*Scraper, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("agg: no scrape targets")
	}
	seen := make(map[string]bool, len(cfg.Targets))
	for _, t := range cfg.Targets {
		if t.Site == "" {
			return nil, fmt.Errorf("agg: target with empty site name")
		}
		if seen[t.Site] {
			return nil, fmt.Errorf("agg: duplicate target site %q", t.Site)
		}
		seen[t.Site] = true
		if t.URL == "" && t.Local == nil {
			return nil, fmt.Errorf("agg: target %s: neither URL nor Local", t.Site)
		}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	s := &Scraper{
		cfg:        cfg,
		staleAfter: 3 * cfg.Interval,
		client:     &http.Client{},
		nowFn:      time.Now,
	}
	for _, t := range cfg.Targets {
		s.sites = append(s.sites, &siteState{target: t})
	}
	return s, nil
}

// Start launches the polling loop: an immediate first pass, then one per
// interval until Stop.
func (s *Scraper) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.loopCtx, s.loopCancel = context.WithCancel(context.Background())
	s.done = make(chan struct{})
	s.mu.Unlock()
	go s.loop()
}

// Stop cancels in-flight scrapes and waits for the loop to exit.
// Idempotent; a never-started scraper stops trivially.
func (s *Scraper) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	cancel, done := s.loopCancel, s.done
	s.mu.Unlock()
	cancel()
	<-done
}

// SetOnScrape installs (or replaces) the hook that runs after every
// completed scrape pass — the SLO engine evaluates its rules there, so alert
// state advances in lockstep with the data it judges. It consumes the
// scraper as its measurement Source, so it can only exist after New.
func (s *Scraper) SetOnScrape(fn func()) {
	s.mu.Lock()
	s.onScrape = fn
	s.mu.Unlock()
}

func (s *Scraper) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		s.ScrapeOnce(s.loopCtx)
		s.mu.Lock()
		hook := s.onScrape
		s.mu.Unlock()
		if hook != nil {
			hook()
		}
		select {
		case <-s.loopCtx.Done():
			return
		case <-ticker.C:
		}
	}
}

// ScrapeOnce runs one pass over every target, concurrently. Each target
// gets its own deadline of one interval (minimum 1s) so a wedged site
// cannot stall the pass past its tick.
func (s *Scraper) ScrapeOnce(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := s.cfg.Interval
	if timeout < time.Second {
		timeout = time.Second
	}
	start := s.nowFn()

	s.mu.Lock()
	sites := append([]*siteState(nil), s.sites...)
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, st := range sites {
		wg.Add(1)
		go func(st *siteState) {
			defer wg.Done()
			tctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			s.scrapeTarget(tctx, st)
		}(st)
	}
	wg.Wait()

	if reg := s.cfg.Metrics; reg != nil {
		self := metrics.Labels{Site: site}
		reg.Histogram("scrape_duration_us", self).
			Observe(float64(s.nowFn().Sub(start).Microseconds()))
		live, total := s.Liveness()
		reg.Gauge("cluster_sites", self).Set(int64(total))
		reg.Gauge("cluster_sites_live", self).Set(int64(live))
	}
}

// scrapeTarget fetches one target's metrics + health and folds the result
// into its state.
func (s *Scraper) scrapeTarget(ctx context.Context, st *siteState) {
	labels := metrics.Labels{Site: site, Peer: st.target.Site}
	if reg := s.cfg.Metrics; reg != nil {
		reg.Counter("scrape_total", labels).Add(1)
	}

	var (
		snap   metrics.Snapshot
		health healthReport
		haveH  bool
		err    error
	)
	if st.target.Local != nil {
		snap = st.target.Local()
		health.Status = "ok"
		if st.target.LocalHealth != nil {
			health.Breakers = st.target.LocalHealth()
			for _, state := range health.Breakers {
				if !obs.Healthy(state) {
					health.Status = "degraded"
					break
				}
			}
		}
		haveH = true
	} else {
		snap, err = obs.Scrape(ctx, st.target.URL+"/metrics")
		if err == nil {
			// Health is best-effort: the scrape above already proved
			// liveness, so a failed /healthz only means stale conditions.
			haveH = obs.FetchJSON(ctx, s.client, st.target.URL+"/healthz", &health) == nil
		}
	}

	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		st.consecFails++
		st.lastErr = err.Error()
		if reg := s.cfg.Metrics; reg != nil {
			reg.Counter("scrape_failures_total", labels).Add(1)
		}
		if s.cfg.Log != nil && st.consecFails == 1 {
			s.cfg.Log.Warn("scrape failed", "peer", st.target.Site, "err", err)
		}
		return
	}
	if s.cfg.Log != nil && st.consecFails > 0 {
		s.cfg.Log.Info("scrape recovered", "peer", st.target.Site, "misses", st.consecFails)
	}
	st.consecFails = 0
	st.lastErr = ""
	st.lastOK = now
	if haveH {
		st.health = health
		st.haveHealth = true
	}

	if !st.haveRaw {
		st.cum = snap
	} else {
		delta, resets := snap.DeltaWithResets(st.lastRaw)
		if resets > 0 {
			st.resets += int64(resets)
			if reg := s.cfg.Metrics; reg != nil {
				reg.Counter("scrape_resets_total", labels).Add(int64(resets))
			}
			if s.cfg.Log != nil {
				s.cfg.Log.Info("counter reset observed (site restarted?)",
					"peer", st.target.Site, "series", resets)
			}
		}
		st.cum = st.cum.Merge(delta)
	}
	st.haveRaw = true
	st.lastRaw = snap
	st.history = append(st.history, sample{t: now, snap: st.cum})
	st.trimHistory(now.Add(-window))
}

// trimHistory drops points older than cutoff, but keeps the newest such
// point: windowed deltas need one sample at or before the window's left
// edge to difference against.
func (st *siteState) trimHistory(cutoff time.Time) {
	idx := 0
	for i, p := range st.history {
		if !p.t.After(cutoff) {
			idx = i
		}
	}
	if idx > 0 {
		st.history = append(st.history[:0], st.history[idx:]...)
	}
}

// Liveness reports how many targets were scraped successfully within the
// staleness bound, and the total target count. The availability SLO
// consumes this.
func (s *Scraper) Liveness() (live, total int) {
	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.sites {
		total++
		if !st.lastOK.IsZero() && now.Sub(st.lastOK) <= s.staleAfter {
			live++
		}
	}
	return live, total
}

// WindowDelta returns the federation-wide metrics delta over the trailing
// window w and the span it covers: every live-or-stale site's cumulative
// history differenced over w and merged across sites (counters and histogram
// buckets summed; the span is the longest site's). ok is false when no site
// has two samples yet — rates are then undefined and SLO rules skip the
// evaluation rather than judging zeros.
func (s *Scraper) WindowDelta(w time.Duration) (metrics.Snapshot, time.Duration, bool) {
	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windowDeltaLocked(now, w)
}

func (s *Scraper) windowDeltaLocked(now time.Time, w time.Duration) (merged metrics.Snapshot, span time.Duration, ok bool) {
	for _, st := range s.sites {
		d, siteSpan, have := windowDelta(st.history, now, w)
		if !have {
			continue
		}
		if !ok {
			merged, ok = d, true
		} else {
			merged = merged.Merge(d)
		}
		span = max(span, siteSpan)
	}
	return merged, span, ok
}

// windowDelta differences a site's cumulative history over the trailing
// window: newest sample minus the newest sample at or before now-w (or the
// oldest retained). Both ends are cumulative and monotone, so the delta
// needs no reset handling.
func windowDelta(history []sample, now time.Time, w time.Duration) (metrics.Snapshot, time.Duration, bool) {
	if len(history) < 2 {
		return metrics.Snapshot{}, 0, false
	}
	newest := history[len(history)-1]
	cutoff := now.Add(-w)
	base := history[0]
	for _, p := range history[1 : len(history)-1] {
		if p.t.After(cutoff) {
			break
		}
		base = p
	}
	span := newest.t.Sub(base.t)
	if span <= 0 {
		return metrics.Snapshot{}, 0, false
	}
	return newest.snap.Delta(base.snap), span, true
}
