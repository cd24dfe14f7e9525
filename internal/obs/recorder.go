// The flight recorder: a bounded ring of recent query profiles with
// tail-based retention. Under concurrent serving the query worth debugging
// — slow, degraded, or failed — is almost never the most recent one, so the
// recorder keeps every *interesting* profile as long as it possibly can and
// lets the healthy majority age out first:
//
//   - degraded and errored profiles always survive eviction while any
//     ordinary profile remains to evict;
//   - profiles in the latency tail (at or above the recorder's running
//     slow-percentile estimate, or an absolute slow threshold) are retained
//     the same way;
//   - everything else is the ring's recency sample: newest N, evicted
//     oldest-first under pressure.
//
// Only when the whole ring is interesting does the oldest interesting
// profile fall off — the recorder is a diagnostic buffer, not a log.
package obs

import (
	"log/slog"
	"sync"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/trace"
)

// RecorderSize is the profile ring's capacity.
const RecorderSize = 128

// slowQuantile is the latency quantile at/above which a profile counts as
// slow, estimated from the recorder's own latency histogram over everything
// it has seen; slowMinSamples is how many latencies the recorder wants before
// trusting that estimate — below it only the absolute threshold marks
// profiles slow.
const (
	slowQuantile   = 0.95
	slowMinSamples = 32
)

// RecorderConfig assembles a flight recorder.
type RecorderConfig struct {
	// Site names the recording process in logs and metrics.
	Site string
	// SlowThreshold, when positive, marks any profile at/over this absolute
	// latency as slow and logs it through Log — the slow-query log.
	SlowThreshold time.Duration
	// Log receives the slow-query log entries (nil = no log).
	Log *slog.Logger
	// Metrics, when non-nil, receives profiles_recorded_total,
	// profiles_evicted_total and slow_queries_total.
	Metrics *metrics.Registry
}

// Recorder is a flight recorder of query profiles. Safe for concurrent use.
// A nil *Recorder ignores every call, so instrumented paths need no guards.
type Recorder struct {
	cfg  RecorderConfig
	size int // RecorderSize; tests shrink it

	mu      sync.Mutex
	ring    []entry // record order, oldest first
	latency *metrics.Histogram
}

type entry struct {
	p *trace.Profile
	// retained marks the profile as surviving ordinary eviction: degraded,
	// errored, or in the latency tail at record time.
	retained bool
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	return &Recorder{cfg: cfg, size: RecorderSize, latency: metrics.NewHistogram()}
}

// Record admits one finished query profile. Nil-safe on both sides.
func (r *Recorder) Record(p *trace.Profile) {
	if r == nil || p == nil {
		return
	}
	r.mu.Lock()
	slow := r.isSlowLocked(p)
	r.latency.Observe(p.WallMicros)
	ent := entry{p: p, retained: slow || p.Interesting()}
	if len(r.ring) >= r.size {
		r.evictLocked()
	}
	r.ring = append(r.ring, ent)
	r.mu.Unlock()

	reg := r.cfg.Metrics
	reg.Counter("profiles_recorded_total", metrics.Labels{Site: r.cfg.Site}).Inc()
	if slow {
		reg.Counter("slow_queries_total", metrics.Labels{Site: r.cfg.Site, Alg: p.Alg}).Inc()
		if r.cfg.Log != nil {
			r.cfg.Log.Warn("slow query",
				slog.String("query", p.ID),
				slog.String("alg", p.Alg),
				slog.Float64("ms", p.WallMicros/1e3),
				slog.String("status", p.Status),
				slog.Int("certain", p.Certain),
				slog.Int("maybe", p.Maybe),
			)
		}
	}
}

// isSlowLocked decides tail membership at record time: the absolute
// threshold when configured, else the running percentile estimate once
// enough samples back it.
func (r *Recorder) isSlowLocked(p *trace.Profile) bool {
	if t := r.cfg.SlowThreshold; t > 0 && p.WallMicros >= float64(t.Microseconds()) {
		return true
	}
	snap := r.latency.Snapshot()
	if snap.Count < slowMinSamples {
		return false
	}
	return p.WallMicros >= snap.Quantile(slowQuantile)
}

// evictLocked drops one profile to make room: the oldest non-retained one,
// or — when the whole ring is retained — the oldest outright.
func (r *Recorder) evictLocked() {
	victim := 0
	for i, e := range r.ring {
		if !e.retained {
			victim = i
			break
		}
	}
	r.ring = append(r.ring[:victim], r.ring[victim+1:]...)
	r.cfg.Metrics.Counter("profiles_evicted_total", metrics.Labels{Site: r.cfg.Site}).Inc()
}

// Profiles returns the recorded profiles, newest first.
func (r *Recorder) Profiles() []*trace.Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*trace.Profile, 0, len(r.ring))
	for i := len(r.ring) - 1; i >= 0; i-- {
		out = append(out, r.ring[i].p)
	}
	return out
}

// Get returns the recorded profile with the given query ID, nil when it has
// aged out (the newest when several share the ID — a site sees one profile
// per request of a query).
func (r *Recorder) Get(id string) *trace.Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.ring) - 1; i >= 0; i-- {
		if r.ring[i].p.ID == id {
			return r.ring[i].p
		}
	}
	return nil
}

// Last returns the most recently recorded profile, nil when empty.
func (r *Recorder) Last() *trace.Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return nil
	}
	return r.ring[len(r.ring)-1].p
}
