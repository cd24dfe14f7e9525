// Package obs is the live observability surface of a federation process: a
// small HTTP server exposing the site's metrics registry and its flight
// recorder's query profiles.
//
// Endpoints, the same on a site and on the coordinator:
//
//	/healthz                liveness: 200 with a JSON status body; reports
//	                        version, uptime and per-source conditions
//	                        (anti-entropy, WAL), and flips status to
//	                        "degraded" when any entry is not Healthy
//	/metrics                registry snapshot, JSON by default, ?format=text;
//	                        each request refreshes the go_* runtime gauges
//	/debug/queries          flight-recorder listing, newest first (text by
//	                        default, ?format=json)
//	/debug/trace/last       span tree of the newest recorded profile
//	/debug/trace/{id}       span tree of a recorded query profile
//	/debug/trace/{id}.json  the profile as Chrome trace-event JSON
//	                        (chrome://tracing, ui.perfetto.dev)
//	/debug/pprof/           standard net/http/pprof profiling surface
//
// The surface is read-only and unauthenticated; bind it to loopback or an
// operations network, not the query port.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/hetfed/hetfed/internal/metrics"
	"github.com/hetfed/hetfed/internal/version"
)

// Health contributes conditions to /healthz: entry name → state. Sources
// report under a namespacing prefix (see PrefixHealth), e.g. a replica's
// divergence state as "antientropy:state" → "suspect(Teacher) round=7
// repaired=412B", or a durable site's storage engine as "wal:engine" →
// "ok(seq=412)". Any entry whose state is not Healthy turns the reported
// status from "ok" to "degraded"; the endpoint still answers 200, because
// the process itself is alive — it is the federation around it that is
// partially down. An unreachable peer is not a condition here: it shows in
// the degraded answers that name it and in call_failures_total.
type Health func() map[string]string

// Healthy reports whether a health-entry state counts as healthy when
// /healthz folds its sources into one status. Healthy states are "ok" and
// "ok(...)" (a source annotating a healthy state with detail, like the WAL's
// "ok(seq=412)"). Everything else — "suspect(Teacher) …", "stopped" —
// degrades.
// Precedence is strict: one unhealthy entry from any source outweighs any
// number of healthy ones.
func Healthy(state string) bool {
	return state == "ok" || strings.HasPrefix(state, "ok(")
}

// PrefixHealth namespaces a health source: each key is reported as
// "<prefix>:<key>", so one /healthz can combine the conditions of several
// sources without the entries colliding. A nil source yields
// no entries.
func PrefixHealth(prefix string, src Health) Health {
	return func() map[string]string {
		if src == nil {
			return nil
		}
		in := src()
		if len(in) == 0 {
			return nil
		}
		out := make(map[string]string, len(in))
		for k, v := range in {
			out[prefix+":"+k] = v
		}
		return out
	}
}

// WriteJSON answers a request with v as one line of JSON — the form of every
// JSON body on the surface: they are read by decoders (chrome://tracing) and
// by grep on /healthz; what an operator reads has a text form.
func WriteJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// Server is a running observability endpoint.
type Server struct {
	site string
	ln   net.Listener
	http *http.Server
}

// refreshRuntimeGauges samples the Go runtime into the registry. Called on
// every /metrics request so the gauges are as fresh as the answer itself.
func refreshRuntimeGauges(site string, reg *metrics.Registry) {
	labels := metrics.Labels{Site: site}
	reg.Gauge("go_goroutines", labels).Set(int64(runtime.NumGoroutine()))
	reg.Gauge("go_gomaxprocs", labels).Set(int64(runtime.GOMAXPROCS(0)))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("go_heap_alloc_bytes", labels).Set(int64(ms.HeapAlloc))
	reg.Gauge("go_gc_runs_total", labels).Set(int64(ms.NumGC))
}

// newMux builds the observability handler for a site. rec may be nil; the
// flight-recorder endpoints then answer empty or 404. Every trace view reads
// the recorded profiles: a finished query's spans live there alone.
func newMux(site string, reg *metrics.Registry, rec *Recorder, health []Health) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body := struct {
			Status     string            `json:"status"`
			Site       string            `json:"site"`
			Version    string            `json:"version"`
			UptimeS    float64           `json:"uptime_seconds"`
			Conditions map[string]string `json:"conditions,omitempty"`
			Degraded   []string          `json:"degraded,omitempty"`
		}{Status: "ok", Site: site, Version: version.String(), UptimeS: time.Since(start).Seconds()}
		for _, h := range health {
			for name, state := range h() {
				if body.Conditions == nil {
					body.Conditions = make(map[string]string)
				}
				body.Conditions[name] = state
				if !Healthy(state) {
					body.Degraded = append(body.Degraded, name)
				}
			}
		}
		if len(body.Degraded) > 0 {
			sort.Strings(body.Degraded)
			body.Status = "degraded"
		}
		WriteJSON(w, body)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		refreshRuntimeGauges(site, reg)
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, snap.Text())
			return
		}
		WriteJSON(w, snap)
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		profiles := rec.Profiles()
		if r.URL.Query().Get("format") == "json" {
			WriteJSON(w, profiles)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(profiles) == 0 {
			fmt.Fprintln(w, "(no queries recorded)")
			return
		}
		fmt.Fprintf(w, "%-14s %-8s %-9s %10s %8s %6s  %s\n",
			"query", "alg", "status", "wall(ms)", "certain", "maybe", "trace")
		for _, p := range profiles {
			fmt.Fprintf(w, "%-14s %-8s %-9s %10.3f %8d %6d  /debug/trace/%s.json\n",
				p.ID, p.Alg, p.Status, p.WallMicros/1e3, p.Certain, p.Maybe, p.ID)
		}
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		asJSON := strings.HasSuffix(id, ".json")
		id = strings.TrimSuffix(id, ".json")
		p := rec.Last()
		if id != "last" {
			p = rec.Get(id)
		} else if p == nil && !asJSON {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "(no spans recorded)")
			return
		}
		if p == nil {
			http.Error(w, "no such query profile (aged out of the flight recorder?)", http.StatusNotFound)
			return
		}
		if asJSON {
			WriteJSON(w, p.ChromeTrace())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "query %s alg=%s status=%s wall=%.3fms certain=%d maybe=%d\n\n",
			p.ID, p.Alg, p.Status, p.WallMicros/1e3, p.Certain, p.Maybe)
		fmt.Fprint(w, p.RenderTree())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (use "127.0.0.1:0" for an ephemeral port) and serves the
// observability surface for the given site until Close. rec (the site's
// flight recorder) may be nil. Optional Health sources feed the /healthz
// conditions.
func Serve(addr, site string, reg *metrics.Registry, rec *Recorder, health ...Health) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{site: site, ln: ln, http: &http.Server{Handler: newMux(site, reg, rec, health)}}
	go s.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Site returns the served site's name.
func (s *Server) Site() string { return s.site }

// Close stops the server immediately (in-flight responses are abandoned;
// the surface is diagnostic, not transactional).
func (s *Server) Close() error { return s.http.Close() }
