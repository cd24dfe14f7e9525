package agg

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/hetfed/hetfed/internal/obs"
)

// defaultQueryLimit bounds /cluster/queries when the client doesn't pass
// ?n=; every site's full flight recorder merged is more than a terminal
// wants.
const defaultQueryLimit = 20

// Register mounts the cluster endpoints on a mux (the coordinator calls
// this on its obs.NewMux handler before obs.ServeHandler binds it):
//
//	/cluster          federation rollup: text by default, ?format=json
//	/cluster/queries  merged slow-query log: text, ?format=json, ?n=N
//	/cluster/alerts   delegated to alerts (the SLO engine's handler);
//	                  an empty JSON list when alerts is nil
func (s *Scraper) Register(mux *http.ServeMux, alerts http.Handler) {
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		roll := s.Rollup()
		if r.URL.Query().Get("format") == "json" {
			obs.WriteJSON(w, roll)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, roll.Text())
	})
	mux.HandleFunc("/cluster/queries", func(w http.ResponseWriter, r *http.Request) {
		limit := defaultQueryLimit
		if n := r.URL.Query().Get("n"); n != "" {
			v, err := strconv.Atoi(n)
			if err != nil || v < 0 {
				http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = v
		}
		qs := s.SlowQueries(r.Context(), limit)
		if r.URL.Query().Get("format") == "json" {
			obs.WriteJSON(w, qs)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obs.QueriesText(qs, ""))
	})
	if alerts == nil {
		alerts = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			obs.WriteJSON(w, []struct{}{})
		})
	}
	mux.Handle("/cluster/alerts", alerts)
}
