// Command hetops is the federation's live terminal dashboard: it polls a
// coordinator's cluster endpoints (/cluster, /cluster/alerts,
// /cluster/queries — served when hetserve runs with -cluster-scrape) and
// renders per-site QPS/p50/p99/degraded%, each replica's anti-entropy
// repair state (the REPAIR column, from the "antientropy:state" /healthz
// condition — suspect mapping classes show up red), breaker/WAL
// conditions, firing SLO alerts, and the slowest queries federation-wide
// with their trace IDs. Plain ANSI, stdlib only.
//
//	hetops -cluster http://127.0.0.1:8100            # live, refreshed in place
//	hetops -cluster http://127.0.0.1:8100 -once      # one render, no clearing
//	hetops -cluster http://127.0.0.1:8100 -once -json # combined JSON for scripts
//
// The -json document nests the three endpoints' payloads verbatim
// ({"cluster": ..., "alerts": ..., "queries": ...}), so it round-trips
// through encoding/json and jq.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hetfed/hetfed/internal/obs/agg"
	"github.com/hetfed/hetfed/internal/obs/slo"
	"github.com/hetfed/hetfed/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetops:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hetops", flag.ContinueOnError)
	var (
		cluster     = fs.String("cluster", "http://127.0.0.1:8100", "base URL of the coordinator's observability surface")
		interval    = fs.Duration("interval", 2*time.Second, "refresh interval in live mode")
		once        = fs.Bool("once", false, "render one snapshot and exit")
		asJSON      = fs.Bool("json", false, "emit the combined snapshot as JSON (implies -once)")
		topN        = fs.Int("n", 10, "slow queries to show")
		noColor     = fs.Bool("no-color", false, "disable ANSI colors")
		showVersion = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(out, "hetops", version.String())
		return nil
	}
	base := strings.TrimSuffix(*cluster, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}

	if *asJSON || *once {
		snap, err := fetch(context.Background(), client, base, *topN)
		if err != nil {
			return err
		}
		if *asJSON {
			data, err := json.MarshalIndent(snap, "", " ")
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(data))
			return nil
		}
		render(out, snap, base, false)
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	color := !*noColor && isTerminal(out)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		snap, err := fetch(ctx, client, base, *topN)
		fmt.Fprint(out, "\x1b[H\x1b[2J") // cursor home + clear screen
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			fmt.Fprintf(out, "hetops: %v (retrying every %s)\n", err, *interval)
		} else {
			render(out, snap, base, color)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
	}
}

// snapshot is the combined dashboard document: the three cluster
// endpoints' payloads, verbatim.
type snapshot struct {
	Cluster agg.Rollup         `json:"cluster"`
	Alerts  []slo.Alert        `json:"alerts"`
	Queries []agg.QuerySummary `json:"queries"`
}

func fetch(ctx context.Context, client *http.Client, base string, n int) (snapshot, error) {
	var snap snapshot
	if err := getJSON(ctx, client, base+"/cluster?format=json", &snap.Cluster); err != nil {
		return snap, err
	}
	if err := getJSON(ctx, client, base+"/cluster/alerts?format=json", &snap.Alerts); err != nil {
		return snap, err
	}
	url := fmt.Sprintf("%s/cluster/queries?format=json&n=%d", base, n)
	if err := getJSON(ctx, client, url, &snap.Queries); err != nil {
		return snap, err
	}
	return snap, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// ANSI palette; the color helper no-ops when disabled so -once output and
// pipes stay clean.
const (
	ansiReset  = "\x1b[0m"
	ansiRed    = "\x1b[31m"
	ansiGreen  = "\x1b[32m"
	ansiYellow = "\x1b[33m"
	ansiBold   = "\x1b[1m"
)

func render(w io.Writer, s snapshot, base string, color bool) {
	paint := func(code, text string) string {
		if !color {
			return text
		}
		return code + text + ansiReset
	}

	fmt.Fprintf(w, "%s  %s  %s\n", paint(ansiBold, "HETFED CLUSTER"), base,
		s.Cluster.Time.Format("2006-01-02 15:04:05"))
	fw := s.Cluster.Fed.Window
	liveness := fmt.Sprintf("%d/%d", s.Cluster.Fed.SitesLive, s.Cluster.Fed.SitesTotal)
	if s.Cluster.Fed.SitesLive < s.Cluster.Fed.SitesTotal {
		liveness = paint(ansiRed, liveness)
	} else {
		liveness = paint(ansiGreen, liveness)
	}
	fmt.Fprintf(w, "federation: %s sites live   qps %.1f   p50 %.2fms   p99 %.2fms   degraded %.2f%%   window %.0fs\n\n",
		liveness, fw.QPS, fw.P50Ms, fw.P99Ms, fw.DegradedPct, s.Cluster.WindowS)

	fmt.Fprintf(w, "%-6s %-12s %-12s %8s %9s %9s %7s %7s %-14s %s\n",
		"SITE", "STATE", "STATUS", "QPS", "P50", "P99", "DEGR%", "RESETS", "REPAIR", "CONDITIONS")
	for _, site := range s.Cluster.Sites {
		state := paint(ansiGreen, "live")
		if !site.Live {
			if site.StaleS < 0 {
				state = paint(ansiRed, "NEVER SEEN")
			} else {
				state = paint(ansiRed, fmt.Sprintf("STALE %.0fs", site.StaleS))
			}
		}
		status := site.Status
		if status != "ok" {
			status = paint(ansiYellow, status)
		}
		repair, suspect := repairState(site.Conditions)
		if suspect {
			repair = paint(ansiRed, repair)
		}
		fmt.Fprintf(w, "%-6s %-12s %-12s %8.1f %8.2fm %8.2fm %7.2f %7d %-14s %s\n",
			site.Site, state, status, site.Window.QPS, site.Window.P50Ms,
			site.Window.P99Ms, site.Window.DegradedPct, site.Resets, repair,
			conditionsLine(site.Conditions))
	}

	fmt.Fprintf(w, "\n%s\n", paint(ansiBold, "ALERTS"))
	if len(s.Alerts) == 0 {
		fmt.Fprintln(w, "  (no SLO rules configured)")
	}
	for _, a := range s.Alerts {
		state := strings.ToUpper(a.State)
		switch a.State {
		case "firing":
			state = paint(ansiRed, state)
		case "warn":
			state = paint(ansiYellow, state)
		default:
			state = paint(ansiGreen, state)
		}
		fmt.Fprintf(w, "  %-16s %-40s value %s  short %s  threshold %s  since %s\n",
			state, a.Rule, formatUnit(a.Value, a.Unit), formatUnit(a.Short, a.Unit),
			formatUnit(a.Threshold, a.Unit), a.Since.Format("15:04:05"))
	}

	fmt.Fprintf(w, "\n%s\n", paint(ansiBold, "SLOW QUERIES"))
	if len(s.Queries) == 0 {
		fmt.Fprintln(w, "  (none recorded)")
	}
	for _, q := range s.Queries {
		status := q.Status
		if status != "ok" {
			status = paint(ansiYellow, status)
		}
		fmt.Fprintf(w, "  %-14s %-8s %-10s %9.3fms  c%d/m%d  %-12s %s/debug/trace/%s.json\n",
			q.ID, q.Alg, status, q.WallMicros/1e3, q.Certain, q.Maybe,
			strings.Join(q.Sources, ","), base, q.ID)
	}
}

// repairState compacts a site's anti-entropy condition (the
// "antientropy:state" /healthz entry) for the REPAIR column: a clean
// replica renders as "ok r<round>", a diverged one keeps its suspect class
// list ("SUSPECT(Teacher)"), and a site reporting no anti-entropy state at
// all shows "-".
func repairState(conds map[string]string) (text string, suspect bool) {
	v, ok := conds["antientropy:state"]
	if !ok {
		return "-", false
	}
	if rest, found := strings.CutPrefix(v, "ok(round="); found {
		if i := strings.IndexAny(rest, ",)"); i >= 0 {
			rest = rest[:i]
		}
		return "ok r" + rest, false
	}
	if rest, found := strings.CutPrefix(v, "suspect"); found {
		if i := strings.Index(rest, ")"); i >= 0 {
			rest = rest[:i+1]
		}
		return "SUSPECT" + rest, true
	}
	return v, true
}

func conditionsLine(conds map[string]string) string {
	if len(conds) == 0 {
		return "-"
	}
	var bad []string
	ok := 0
	for k, v := range conds {
		if k == "antientropy:state" {
			continue // broken out into the REPAIR column
		}
		if v == "closed" || v == "ok" || strings.HasPrefix(v, "ok(") {
			ok++
		} else {
			bad = append(bad, k+"="+v)
		}
	}
	if len(bad) == 0 {
		return fmt.Sprintf("%d ok", ok)
	}
	return strings.Join(bad, " ")
}

func formatUnit(v float64, unit string) string {
	if unit == "us" {
		return fmt.Sprintf("%.2fms", v/1e3)
	}
	return fmt.Sprintf("%.2f%%", v*100)
}

// isTerminal reports whether w is an interactive terminal (a character
// device) — the only case worth coloring.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
