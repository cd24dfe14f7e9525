package slo

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/obs"
)

// minShortWindow floors the burn-rate short window: below a few seconds a
// single slow query dominates the measurement and the warn state flaps.
const minShortWindow = 5 * time.Second

// site labels the alerts_* metrics: the engine runs beside the aggregator, at
// the global processing site.
const site = "G"

// Config parameterizes an Engine.
type Config struct {
	// Source supplies measurements; required.
	Source Source
	// Rules to evaluate; required.
	Rules []Rule
	// Metrics receives the alerts_* family (may be nil).
	Metrics *metrics.Registry
	// Log receives firing/resolved events (may be nil).
	Log *slog.Logger
}

// Alert is one rule's current position, as served on /cluster/alerts.
type Alert struct {
	Rule      string    `json:"rule"`
	Raw       string    `json:"raw"`
	State     string    `json:"state"`
	Since     time.Time `json:"since"`     // when the current state was entered
	LastEval  time.Time `json:"last_eval"` // zero until the first Evaluate
	Value     float64   `json:"value"`     // long-window measurement
	Short     float64   `json:"short"`     // short-window measurement
	Threshold float64   `json:"threshold"`
	Unit      string    `json:"unit"`     // "us" | "ratio" | "rate"
	WindowS   float64   `json:"window_s"` // 0 for instant rules
	ShortS    float64   `json:"short_s"`
	HaveData  bool      `json:"have_data"` // false: no traffic in the window, rule held vacuously
}

type ruleState struct {
	rule  Rule
	short time.Duration // derived burn-rate short window (== 0 when instant)
	state State
	since time.Time
	last  Alert
}

// Engine evaluates rules against a Source. Call Evaluate after every
// scrape pass (agg.Scraper.SetOnScrape) so alert state moves in lockstep with
// the data; Alerts and Handler read the latest state.
type Engine struct {
	cfg   Config
	nowFn func() time.Time

	mu    sync.Mutex
	rules []*ruleState
}

// New validates cfg and builds an Engine; the initial state of every rule
// is ok.
func New(cfg Config) (*Engine, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("slo: nil source")
	}
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("slo: no rules")
	}
	e := &Engine{cfg: cfg, nowFn: time.Now}
	now := e.nowFn()
	seen := make(map[string]bool, len(cfg.Rules))
	for _, r := range cfg.Rules {
		if seen[r.Name] {
			return nil, fmt.Errorf("slo: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		rs := &ruleState{rule: r, since: now}
		if !r.Instant {
			rs.short = r.Window / 12
			if rs.short < minShortWindow {
				rs.short = minShortWindow
			}
			if rs.short > r.Window {
				rs.short = r.Window
			}
		}
		e.rules = append(e.rules, rs)
	}
	return e, nil
}

// Evaluate measures every rule over its long and short windows and
// advances the state machines. Safe for concurrent use with Alerts.
func (e *Engine) Evaluate() {
	now := e.nowFn()
	firing := 0
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range e.rules {
		long, haveLong := e.measure(rs.rule, rs.rule.Window)
		short, haveShort := long, haveLong
		if !rs.rule.Instant && rs.short != rs.rule.Window {
			short, haveShort = e.measure(rs.rule, rs.short)
		}
		// No data (no traffic yet, or none in the window): the objective
		// holds vacuously — a silent federation is not in violation.
		longBad := haveLong && !rs.rule.Holds(long)
		shortBad := haveShort && !rs.rule.Holds(short)
		next := StateOK
		switch {
		case longBad && shortBad:
			next = StateFiring
		case longBad || shortBad:
			next = StateWarn
		}
		e.transitionLocked(rs, next, now)
		rs.last = Alert{
			Rule:      rs.rule.Name,
			Raw:       rs.rule.Raw,
			State:     rs.state.String(),
			Since:     rs.since,
			LastEval:  now,
			Value:     long,
			Short:     short,
			Threshold: rs.rule.Threshold,
			Unit:      rs.rule.Unit,
			WindowS:   rs.rule.Window.Seconds(),
			ShortS:    rs.short.Seconds(),
			HaveData:  haveLong,
		}
		if rs.state == StateFiring {
			firing++
		}
	}
	if reg := e.cfg.Metrics; reg != nil {
		reg.Gauge("alerts_firing", metrics.Labels{Site: site}).Set(int64(firing))
	}
}

// measure evaluates one rule's metric over a window; ok=false means no
// underlying traffic to judge.
func (e *Engine) measure(r Rule, w time.Duration) (float64, bool) {
	if r.Instant {
		live, total := e.cfg.Source.Liveness()
		if total == 0 {
			return 0, false
		}
		return float64(live) / float64(total), true
	}
	d, span, ok := e.cfg.Source.WindowDelta(w)
	if !ok {
		return 0, false
	}
	return Measures[r.Metric].Value(d, span, r.Q)
}

// transitionLocked moves one rule's state machine, emitting log events
// and metrics on change.
func (e *Engine) transitionLocked(rs *ruleState, next State, now time.Time) {
	if next == rs.state {
		return
	}
	prev := rs.state
	rs.state = next
	rs.since = now
	labels := metrics.Labels{Site: site, Phase: rs.rule.Name}
	if reg := e.cfg.Metrics; reg != nil {
		reg.Counter("alerts_transitions_total", labels).Add(1)
		reg.Gauge("alerts_state", labels).Set(int64(next))
	}
	if log := e.cfg.Log; log != nil {
		args := []any{"rule", rs.rule.Name, "from", prev.String(), "to", next.String()}
		switch {
		case next == StateFiring:
			log.Warn("slo alert firing", args...)
		case prev == StateFiring:
			log.Info("slo alert resolved", args...)
		default:
			log.Info("slo alert transition", args...)
		}
	}
}

// Alerts returns every rule's current position, in rule order.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.rules))
	for _, rs := range e.rules {
		a := rs.last
		if a.Rule == "" { // never evaluated yet
			a = Alert{
				Rule: rs.rule.Name, Raw: rs.rule.Raw, State: rs.state.String(),
				Since: rs.since, Threshold: rs.rule.Threshold, Unit: rs.rule.Unit,
				WindowS: rs.rule.Window.Seconds(), ShortS: rs.short.Seconds(),
			}
		}
		out = append(out, a)
	}
	return out
}

// Handler serves the alert list (the coordinator mounts it at
// /cluster/alerts): text by default, ?format=json.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			obs.WriteJSON(w, e.Alerts())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, AlertsText(e.Alerts()))
	})
}

// AlertsText renders an alert list as the /cluster/alerts text body.
func AlertsText(alerts []Alert) string {
	if len(alerts) == 0 {
		return "(no SLO rules configured)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-32s %12s %12s %12s  %s\n",
		"state", "rule", "value", "short", "threshold", "since")
	for _, a := range alerts {
		fmt.Fprintf(&b, "%-8s %-32s %12s %12s %12s  %s\n",
			strings.ToUpper(a.State), a.Rule,
			FormatValue(a.Value, a.Unit), FormatValue(a.Short, a.Unit),
			FormatValue(a.Threshold, a.Unit), a.Since.Format(time.RFC3339))
	}
	return b.String()
}
